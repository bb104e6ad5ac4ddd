"""simlint v2: the flow rules (SIM011-SIM013), SIM100, cache, SARIF.

Fixtures are written to ``tmp_path`` as little multi-module packages so
the interprocedural machinery (import resolution, cross-module taint,
annotation-based ownership) is exercised for real, not just the
single-file fast path.  The digest-stability section pins cache digests
across locking changes: adding locks must never move a cache key.
"""

import hashlib
import json
import textwrap

from repro.cli import main
from repro.lint import RULESET_VERSION, LintOptions, analyze_paths, lint_source
from repro.lint.cache import AnalysisCache
from repro.lint.engine import extract_suppressions
from repro.lint.sarif import sarif_report, validate_sarif


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def ids(findings):
    return [f.rule_id for f in findings]


def rule_ids(source, **kwargs):
    return ids(lint_source(textwrap.dedent(source), **kwargs))


# --------------------------------------------------------------------------
# SIM011: nondeterminism reaching digest sinks
# --------------------------------------------------------------------------

def test_sim011_direct_taint_in_sink():
    findings = lint_source(textwrap.dedent("""\
        def cache_key(name):
            return hash(name)
    """))
    assert ids(findings) == ["SIM011"]
    assert "PYTHONHASHSEED" in findings[0].message

def test_sim011_subsumes_sim001_at_witnessed_source():
    # Without SIM011 the hash() call is a plain SIM001; with the
    # interprocedural witness the syntactic finding is dropped.
    src = "def cache_key(name):\n    return hash(name)\n"
    with_flow = ids(lint_source(src))
    without_flow = ids(lint_source(src, options=LintOptions(ignore=["SIM011"])))
    assert with_flow == ["SIM011"]
    assert without_flow == ["SIM001"]

def test_sim011_interprocedural_witness_across_modules(tmp_path):
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/util.py": """\
            def _mix(name):
                return hash(name) & 0x7FFFFFFF
        """,
        "pkg/config.py": """\
            from pkg.util import _mix

            def cache_key(cfg):
                return _mix(cfg)
        """,
    })
    findings = analyze_paths([tmp_path]).findings
    assert ids(findings) == ["SIM011"]
    message = findings[0].message
    # Witness runs source-first across both files.
    assert message.index("util.py") < message.index("config.py")
    assert "hash() is randomized" in message
    assert " -> " in message

def test_sim011_tainted_argument_into_sink(tmp_path):
    write_tree(tmp_path, {
        "mod.py": """\
            def cache_key(payload):
                return payload

            def save(name):
                return cache_key(hash(name))
        """,
    })
    findings = analyze_paths([tmp_path]).findings
    assert any("tainted argument flows into digest sink" in f.message
               for f in findings)

def test_sim011_set_order_reaches_sink():
    findings = lint_source(textwrap.dedent("""\
        def cache_key(items):
            return tuple(set(items))
    """))
    assert "SIM011" in ids(findings)
    assert "order" in findings[0].message

def test_sim011_sorted_sanitizes_set_order():
    assert rule_ids("""\
        def cache_key(items):
            return tuple(sorted(set(items)))
    """) == []

def test_sim011_clean_helpers_are_clean():
    assert rule_ids("""\
        import zlib

        def _mix(name):
            return zlib.crc32(name.encode())

        def cache_key(name):
            return _mix(name)
    """) == []

def test_sim011_suppression_at_sink():
    assert rule_ids("""\
        def cache_key(name):
            return hash(name)   # simlint: ignore[SIM011, SIM001] -- test fixture
    """) == []


# --------------------------------------------------------------------------
# SIM012: cache-key completeness
# --------------------------------------------------------------------------

SIM012_MISSING = """\
    from dataclasses import dataclass

    @dataclass
    class Config:
        a: int = 1
        b: int = 2

        def cache_key(self):
            return (self.a,)
"""

def test_sim012_flags_unkeyed_field():
    findings = lint_source(textwrap.dedent(SIM012_MISSING))
    assert ids(findings) == ["SIM012"]
    assert "'b'" in findings[0].message
    assert "CACHE_KEY_EXCLUDED" in findings[0].message

def test_sim012_registry_entry_excuses_field():
    src = SIM012_MISSING.replace(
        "from dataclasses import dataclass",
        "from dataclasses import dataclass\n\n"
        "    CACHE_KEY_EXCLUDED = {'b': 'observe-only knob'}",
    )
    assert rule_ids(src) == []

def test_sim012_stale_registry_entry():
    src = SIM012_MISSING.replace(
        "from dataclasses import dataclass",
        "from dataclasses import dataclass\n\n"
        "    CACHE_KEY_EXCLUDED = {'b': 'observe-only', 'zz': 'left behind'}",
    )
    findings = lint_source(textwrap.dedent(src))
    assert ids(findings) == ["SIM012"]
    assert "stale" in findings[0].message and "'zz'" in findings[0].message

def test_sim012_contradictory_registry_entry():
    src = SIM012_MISSING.replace(
        "from dataclasses import dataclass",
        "from dataclasses import dataclass\n\n"
        "    CACHE_KEY_EXCLUDED = {'a': 'wrong', 'b': 'observe-only'}",
    )
    findings = lint_source(textwrap.dedent(src))
    assert ids(findings) == ["SIM012"]
    assert "pick one" in findings[0].message

def test_sim012_reads_through_properties():
    # cache_key() touches ``policy`` only via the ``policy_name``
    # property - the closure walk must still count it as keyed.
    assert rule_ids("""\
        from dataclasses import dataclass

        @dataclass
        class Config:
            policy: str = "Norm"

            @property
            def policy_name(self):
                return self.policy

            def cache_key(self):
                return (self.policy_name,)
    """) == []

def test_sim012_plain_class_without_key_is_exempt():
    assert rule_ids("""\
        from dataclasses import dataclass

        @dataclass
        class Stats:
            hits: int = 0
            misses: int = 0
    """) == []

WARM_FIXTURE = """\
    from dataclasses import dataclass

    CACHE_KEY_EXCLUDED = {}
    WARM_KEY_EXCLUDED = {'b': 'timing only'}

    @dataclass
    class Config:
        a: int = 1
        b: int = 2

        def cache_key(self):
            return (self.a, self.b)

        def warm_key(self):
            return (self.a,)
"""

def test_sim012_warm_key_registry_excuses_field():
    assert rule_ids(WARM_FIXTURE) == []

def test_sim012_warm_key_checked_against_its_own_registry():
    src = WARM_FIXTURE.replace("a: int = 1", "a: int = 1\n        c: int = 3")
    src = src.replace("return (self.a, self.b)",
                      "return (self.a, self.b, self.c)")
    findings = lint_source(textwrap.dedent(src))
    assert ids(findings) == ["SIM012"]
    assert "'c'" in findings[0].message
    assert "warm_key()" in findings[0].message
    assert "WARM_KEY_EXCLUDED" in findings[0].message
    # CACHE_KEY_EXCLUDED does not excuse a field from the warm key.
    src = src.replace("CACHE_KEY_EXCLUDED = {}",
                      "CACHE_KEY_EXCLUDED = {'c': 'wrong registry'}")
    messages = [f.message for f in lint_source(textwrap.dedent(src))]
    assert any("WARM_KEY_EXCLUDED" in m and "'c'" in m for m in messages)

def test_sim012_warm_key_must_read_only_cache_key_fields():
    findings = lint_source(textwrap.dedent("""\
        from dataclasses import dataclass

        CACHE_KEY_EXCLUDED = {'b': 'claimed inert'}

        @dataclass
        class Config:
            a: int = 1
            b: int = 2

            def cache_key(self):
                return (self.a,)

            def warm_key(self):
                return (self.a, self.b)
    """))
    assert ids(findings) == ["SIM012"]
    assert "'b'" in findings[0].message
    assert "not by Config.cache_key()" in findings[0].message

def test_sim012_stale_warm_key_registry_entry():
    src = WARM_FIXTURE.replace("{'b': 'timing only'}",
                               "{'b': 'timing only', 'zz': 'left behind'}")
    findings = lint_source(textwrap.dedent(src))
    assert ids(findings) == ["SIM012"]
    assert "stale WARM_KEY_EXCLUDED" in findings[0].message

def test_sim012_new_simconfig_field_needs_a_warm_key_decision(tmp_path):
    # The real SimConfig: a new knob added to cache_key() but to neither
    # warm_key() nor WARM_KEY_EXCLUDED must fail the lint.
    from pathlib import Path

    import repro.sim.config as config_module
    source = Path(config_module.__file__).read_text()
    assert lint_source(source, path="config.py") == []
    source = source.replace(
        "    read_scheduler: str = \"fcfs\"",
        "    read_scheduler: str = \"fcfs\"\n    new_knob: int = 0", 1)
    source = source.replace(
        "self.page_policy, self.read_scheduler,",
        "self.page_policy, self.read_scheduler, self.new_knob,", 1)
    findings = lint_source(source, path="config.py")
    assert ids(findings) == ["SIM012"]
    assert "'new_knob'" in findings[0].message
    assert "WARM_KEY_EXCLUDED" in findings[0].message

def test_sim012_suppression():
    src = SIM012_MISSING.replace(
        "def cache_key(self):",
        "def cache_key(self):   # simlint: ignore[SIM012] -- fixture",
    )
    assert rule_ids(src) == []


# --------------------------------------------------------------------------
# SIM013: thread-shared mutation outside a lock
# --------------------------------------------------------------------------

SIM013_STORE = """\
    import threading

    class Store:   # simlint: thread-shared
        def __init__(self):
            self._lock = threading.Lock()
            self._jobs = {}
            self.count = 0
"""

def test_sim013_flags_unlocked_self_mutation():
    findings = lint_source(textwrap.dedent(SIM013_STORE + """\

        def poke(store: Store):
            store.count = 1
    """))
    assert ids(findings) == ["SIM013"]
    assert "'count'" in findings[0].message
    assert "poke" in findings[0].message

def test_sim013_flags_mutator_method_calls():
    findings = lint_source(textwrap.dedent(SIM013_STORE + """\

        def wipe(store: Store):
            store._jobs.clear()
    """))
    assert ids(findings) == ["SIM013"]
    assert "'_jobs'" in findings[0].message

def test_sim013_lock_scope_is_clean():
    assert rule_ids(SIM013_STORE + """\

        def poke(store: Store):
            with store._lock:
                store.count = 1
                store._jobs.clear()
    """) == []

def test_sim013_init_is_exempt():
    # The __init__ self-assignments in SIM013_STORE itself must not fire.
    assert rule_ids(SIM013_STORE) == []

def test_sim013_closure_inherits_annotation():
    # The callback runs on another thread; ownership flows into the
    # nested function through the enclosing parameter annotation.
    findings = lint_source(textwrap.dedent(SIM013_STORE + """\

        def submit(store: Store):
            def on_done():
                store.count += 1
            return on_done
    """))
    assert ids(findings) == ["SIM013"]

def test_sim013_unmarked_class_is_exempt():
    assert rule_ids("""\
        class Plain:
            def __init__(self):
                self.count = 0

        def poke(p: Plain):
            p.count = 1
    """) == []

def test_sim013_suppression():
    assert rule_ids(SIM013_STORE + """\

        def poke(store: Store):
            store.count = 1   # simlint: ignore[SIM013] -- fixture
    """) == []


# --------------------------------------------------------------------------
# SIM100: stale suppressions; tokenizer-backed comment parsing
# --------------------------------------------------------------------------

def test_sim100_reports_unused_suppression():
    findings = lint_source("x = 1   # simlint: ignore[SIM001]\n")
    assert ids(findings) == ["SIM100"]
    assert "matches no finding" in findings[0].message

def test_sim100_not_reported_when_suppression_used():
    assert rule_ids("x = hash('a')   # simlint: ignore[SIM001] -- fixture\n") == []

def test_sim100_can_be_disabled():
    findings = lint_source("x = 1   # simlint: ignore[SIM001]\n",
                           options=LintOptions(report_unused=False))
    assert findings == []

def test_suppression_inside_string_literal_is_inert():
    src = "s = 'x  # simlint: ignore[SIM001]'\ny = hash('a')\n"
    assert extract_suppressions(src) == {}
    assert ids(lint_source(src)) == ["SIM001"]


# --------------------------------------------------------------------------
# Incremental cache
# --------------------------------------------------------------------------

DIRTY = "x = hash('a')\n"
CLEAN = "import zlib\nx = zlib.crc32(b'a')\n"

def test_cache_warm_run_skips_reanalysis(tmp_path):
    tree = write_tree(tmp_path / "tree", {"a.py": DIRTY, "b.py": CLEAN})
    cache_dir = tmp_path / "cache"
    cold = analyze_paths([tree], cache_dir=cache_dir)
    warm = analyze_paths([tree], cache_dir=cache_dir)
    assert (cold.analyzed, cold.cached) == (2, 0)
    assert (warm.analyzed, warm.cached) == (0, 2)
    assert ids(cold.findings) == ids(warm.findings) == ["SIM001"]

def test_cache_invalidates_only_edited_file(tmp_path):
    tree = write_tree(tmp_path / "tree", {"a.py": DIRTY, "b.py": CLEAN})
    cache_dir = tmp_path / "cache"
    analyze_paths([tree], cache_dir=cache_dir)
    (tree / "a.py").write_text(CLEAN)
    warm = analyze_paths([tree], cache_dir=cache_dir)
    assert (warm.analyzed, warm.cached) == (1, 1)
    assert warm.findings == []

def test_cache_invalidates_on_ruleset_bump(tmp_path):
    tree = write_tree(tmp_path / "tree", {"a.py": DIRTY})
    cache_dir = tmp_path / "cache"
    analyze_paths([tree], cache_dir=cache_dir)
    digest = hashlib.sha256(DIRTY.encode()).hexdigest()
    path = str(tree / "a.py")
    same = AnalysisCache(cache_dir, RULESET_VERSION)
    assert same.get(path, digest) is not None
    bumped = AnalysisCache(cache_dir, RULESET_VERSION + ".bump")
    assert bumped.get(path, digest) is None

def test_cache_partial_run_keeps_other_entries(tmp_path):
    # Linting a subdirectory (or pre-commit linting two staged files)
    # must not evict the rest of the tree's warm entries.
    tree = write_tree(tmp_path / "tree", {"a.py": DIRTY, "sub/b.py": CLEAN})
    cache_dir = tmp_path / "cache"
    analyze_paths([tree], cache_dir=cache_dir)
    analyze_paths([tree / "sub"], cache_dir=cache_dir)
    warm = analyze_paths([tree], cache_dir=cache_dir)
    assert (warm.analyzed, warm.cached) == (0, 2)

def test_cache_prunes_deleted_files(tmp_path):
    tree = write_tree(tmp_path / "tree", {"a.py": DIRTY, "b.py": CLEAN})
    cache_dir = tmp_path / "cache"
    analyze_paths([tree], cache_dir=cache_dir)
    (tree / "a.py").unlink()
    analyze_paths([tree], cache_dir=cache_dir)
    entries = json.loads((cache_dir / "cache.json").read_text())["entries"]
    assert list(entries) == [str(tree / "b.py")]

def test_cache_preserves_project_findings(tmp_path):
    # SIM011 crosses files; the warm run recomputes the fixpoint from
    # cached summaries and must reach the same verdict.
    tree = write_tree(tmp_path / "tree", {
        "util.py": "def mix(name):\n    return hash(name)\n",
        "conf.py": "from util import mix\n\n"
                   "def cache_key(cfg):\n    return mix(cfg)\n",
    })
    cache_dir = tmp_path / "cache"
    cold = analyze_paths([tree], cache_dir=cache_dir)
    warm = analyze_paths([tree], cache_dir=cache_dir)
    assert warm.analyzed == 0
    assert ids(cold.findings) == ids(warm.findings) == ["SIM011"]
    assert cold.findings[0].message == warm.findings[0].message


# --------------------------------------------------------------------------
# Parallel analysis
# --------------------------------------------------------------------------

def test_parallel_jobs_match_serial(tmp_path):
    tree = write_tree(tmp_path / "tree", {
        "a.py": DIRTY,
        "b.py": CLEAN,
        "c.py": "import time\nt = time.time()\n",
        "d.py": "def cache_key(name):\n    return hash(name)\n",
    })
    serial = analyze_paths([tree], jobs=1)
    parallel = analyze_paths([tree], jobs=2)
    assert [f.format_text() for f in serial.findings] == \
           [f.format_text() for f in parallel.findings]


# --------------------------------------------------------------------------
# SARIF output
# --------------------------------------------------------------------------

def test_sarif_report_is_structurally_valid():
    findings = lint_source(DIRTY + "import time\nt = time.time()\n")
    doc = sarif_report(findings)
    assert validate_sarif(doc) == []
    run = doc["runs"][0]
    results = run["results"]
    assert len(results) == len(findings)
    rules = run["tool"]["driver"]["rules"]
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    for result in results:
        assert result["ruleIndex"] == rule_index[result["ruleId"]]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1

def test_sarif_validator_rejects_broken_documents():
    doc = sarif_report(lint_source(DIRTY))
    del doc["version"]
    doc["runs"][0]["results"][0]["ruleId"] = "SIM999"
    errors = validate_sarif(doc)
    assert errors

def test_cli_sarif_format(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    assert main(["lint", "--no-cache", "--format", "sarif", str(dirty)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"][0]["ruleId"] == "SIM001"

def test_cli_sarif_output_file(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    out = tmp_path / "report.sarif"
    assert main(["lint", "--no-cache", "--format", "sarif",
                 "--output", str(out), str(dirty)]) == 1
    doc = json.loads(out.read_text())
    assert validate_sarif(doc) == []
    capsys.readouterr()


# --------------------------------------------------------------------------
# CLI: cache flags, stats, repro check
# --------------------------------------------------------------------------

def test_cli_cache_stats(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    cache_dir = tmp_path / "cache"
    args = ["lint", "--stats", "--cache-dir", str(cache_dir), str(dirty)]
    assert main(args) == 1
    assert "1 analyzed, 0 from cache" in capsys.readouterr().err
    assert main(args) == 1
    assert "0 analyzed, 1 from cache" in capsys.readouterr().err

def test_cli_unused_suppression_toggle(tmp_path, capsys):
    stale = tmp_path / "stale.py"
    stale.write_text("x = 1   # simlint: ignore[SIM001]\n")
    assert main(["lint", "--no-cache", str(stale)]) == 1
    assert "SIM100" in capsys.readouterr().out
    assert main(["lint", "--no-cache",
                 "--no-report-unused-suppressions", str(stale)]) == 0
    capsys.readouterr()

def test_check_skips_missing_tools(tmp_path, capsys, monkeypatch):
    import repro.lint.cli as lint_cli
    monkeypatch.setattr(lint_cli.shutil, "which", lambda name: None)
    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN)
    assert main(["check", "--no-cache", str(clean)]) == 0
    out = capsys.readouterr().out
    assert out.count("skipped (not installed)") == 2

def test_check_require_tools_fails_when_missing(tmp_path, capsys, monkeypatch):
    import repro.lint.cli as lint_cli
    monkeypatch.setattr(lint_cli.shutil, "which", lambda name: None)
    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN)
    assert main(["check", "--no-cache", "--require-tools", str(clean)]) == 1
    capsys.readouterr()

def test_check_fails_on_findings_and_writes_sarif(tmp_path, capsys, monkeypatch):
    import repro.lint.cli as lint_cli
    monkeypatch.setattr(lint_cli.shutil, "which", lambda name: None)
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    sarif_path = tmp_path / "simlint.sarif"
    assert main(["check", "--no-cache", "--sarif", str(sarif_path),
                 str(dirty)]) == 1
    assert validate_sarif(json.loads(sarif_path.read_text())) == []
    capsys.readouterr()


# --------------------------------------------------------------------------
# Digest stability across locking changes
# --------------------------------------------------------------------------

def test_cache_digests_unchanged_by_locking():
    # Pinned before JobStore/WorkerPool grew their locks: adding
    # synchronisation must never move a cache key.
    from repro.sim.config import SimConfig
    small = SimConfig("hmmer", policy="Norm").scaled(0.05)
    assert small.cache_digest() == "a1c5ae8b70ec20ac7a1fbd05"
    assert SimConfig("lbm").cache_digest() == "244de89cfa2ec43abc490663"

def test_faults_digest_unchanged_by_registry():
    from repro.faults.config import FaultConfig
    from repro.sim.config import SimConfig
    config = SimConfig("zeusmp", policy="BE-Mellow+SC", faults=FaultConfig())
    assert config.cache_digest() == "7500e76450aa31102f58d533"


# --------------------------------------------------------------------------
# The whole tree lints clean under the v2 rules
# --------------------------------------------------------------------------

def test_whole_tree_is_lint_clean():
    report = analyze_paths(["src", "tests", "benchmarks"])
    assert report.findings == []
    assert report.files > 100
