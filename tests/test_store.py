"""The result store: FileStore contract, layout compat, digests, no-cache.

Pins what matters operationally: pre-existing cache directories keep
reading, digests never move, ``REPRO_NO_CACHE`` persists nothing past
the process, and the entry codec round-trips exactly.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.endurance.wear import BankWearRecord
from repro.experiments.runner import Runner
from repro.sim.config import SimConfig
from repro.sim.stats import RunResult
from repro.sim.system import run_simulation
from repro.store import (
    FileStore,
    atomic_write_text,
    cache_stats,
    cache_verify,
    entry_from_json,
    entry_to_json,
    result_to_dict,
)
from repro.telemetry import MANIFEST_NAME, bundle_is_complete

TINY = dict(warmup_accesses=2000, measure_accesses=3000,
            llc_size_bytes=128 * 1024)

DIGEST = "ab" * 12
OTHER = "cd" * 12


def tiny_config(workload="GemsFDTD", **kwargs):
    merged = dict(TINY)
    merged.update(kwargs)
    return SimConfig(workload=workload, **merged)


def make_bundle(store, digest):
    bundle = store.bundle_path(digest)
    bundle.mkdir(parents=True)
    (bundle / "metrics.json").write_text("{}")
    (bundle / MANIFEST_NAME).write_text("{}")


@pytest.fixture(params=["file"])   # one store; keeps the test ids stable
def store(tmp_path):
    return FileStore(tmp_path / "cache")


class TestConformance:
    def test_get_missing_is_none(self, store):
        assert store.get(DIGEST) is None

    def test_put_get_roundtrip(self, store):
        store.put(DIGEST, b"payload")
        assert store.get(DIGEST) == b"payload"
        assert store.entry_path(DIGEST).is_file()
        assert not store.entry_path(OTHER).exists()

    def test_overwrite_last_write_wins(self, store):
        store.put(DIGEST, b"first")
        store.put(DIGEST, b"second")
        assert store.get(DIGEST) == b"second"

    def test_delete(self, store):
        store.put(DIGEST, b"data")
        assert store.delete(DIGEST) is True
        assert store.delete(DIGEST) is False
        assert store.get(DIGEST) is None

    def test_scan_reports_entries_and_bundles(self, store):
        store.put(DIGEST, b"data")
        make_bundle(store, OTHER)
        report = cache_verify(store.root)
        assert [bad["path"] for bad in report["bad"]] == [
            str(store.entry_path(DIGEST))]

    def test_scan_order_is_deterministic(self, store):
        store.put(OTHER, b"b")
        store.put(DIGEST, b"a")
        paths = [bad["path"] for bad in cache_verify(store.root)["bad"]]
        assert paths == sorted(paths)
        assert len(paths) == 2

    def test_stat_summary(self, store):
        store.put(DIGEST, b"12345")
        make_bundle(store, OTHER)
        stats = cache_stats(store.root)
        assert stats["entries"] == 1
        assert stats["telemetry_bundles"] == 1
        assert stats["total_bytes"] == 5

    def test_bundle_roundtrip(self, store):
        config = tiny_config()
        _, bundle = Runner(store=store).run_traced(config)
        assert bundle == store.bundle_path(config.cache_digest())
        assert bundle_is_complete(bundle)
        assert store.clear() == 2
        assert not bundle.exists()

    def test_clear_removes_everything(self, store):
        store.put(DIGEST, b"data")
        make_bundle(store, OTHER)
        (store.root / "crash.json.tmp").write_bytes(b"debris")
        assert store.clear() == 3
        assert list(store.root.iterdir()) == []


class TestFileStoreCompat:
    """Pre-existing ``.repro_cache`` directories must read back unchanged."""

    def test_reads_entries_written_by_the_old_layout(self, tmp_path):
        config = tiny_config()
        result = run_simulation(config)
        # The historic write path: <digest>.json via atomic rename.
        atomic_write_text(tmp_path / f"{config.cache_digest()}.json",
                          entry_to_json(config, result))
        fresh = Runner(cache_dir=tmp_path)
        again = fresh.run(config)
        assert fresh.simulated == 0
        assert result_to_dict(again) == result_to_dict(result)

    def test_runner_writes_the_same_layout(self, tmp_path):
        config = tiny_config()
        runner = Runner(cache_dir=tmp_path)
        result = runner.run(config)
        path = tmp_path / f"{config.cache_digest()}.json"
        assert path.is_file()
        assert entry_from_json(path.read_text()).ipc == result.ipc

    def test_entry_and_bundle_paths(self, tmp_path):
        s = FileStore(tmp_path)
        assert s.entry_path(DIGEST) == tmp_path / f"{DIGEST}.json"
        assert s.bundle_path(DIGEST) == tmp_path / f"{DIGEST}.telemetry"


PINNED_DIGESTS = {
    # Recorded across earlier PRs; a store-layer change moving any of
    # these would orphan every existing cache.
    ("lbm", "Norm", 1, 16, 4): "244de89cfa2ec43abc490663",
    ("hmmer", "BE-Mellow+SC+WQ", 7, 16, 4): "49a5aa88013834afd88743d5",
    ("gups", "Slow+SC", 1, 8, 2): "7fd6e25b53191e2e57b364dc",
}


class TestDigestStability:
    @pytest.mark.parametrize("key", sorted(PINNED_DIGESTS))
    def test_pinned_digests_unmoved(self, key):
        workload, policy, seed, banks, ranks = key
        config = SimConfig(workload=workload, policy=policy, seed=seed,
                           num_banks=banks, num_ranks=ranks)
        assert config.cache_digest() == PINNED_DIGESTS[key]

    def test_scaled_digest_unmoved(self):
        small = SimConfig("hmmer", policy="Norm").scaled(0.05)
        assert small.cache_digest() == "a1c5ae8b70ec20ac7a1fbd05"

    def test_entry_lands_under_the_config_digest(self, tmp_path):
        config = tiny_config()
        runner = Runner(store=FileStore(tmp_path))
        runner.run(config)
        assert runner.store.get(config.cache_digest()) is not None


class TestResolvePrecedence:
    def test_no_cache_env_wins_over_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        runner = Runner(cache_dir=tmp_path / "dir")
        assert runner.store.root not in (tmp_path / "env", tmp_path / "dir")
        assert runner.store.root.is_dir()

    def test_cache_dir_beats_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        runner = Runner(cache_dir=tmp_path / "dir")
        assert runner.store.root == tmp_path / "dir"

    def test_env_dir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "dir"))
        assert Runner().store.root == tmp_path / "dir"

    def test_maintenance_ignores_no_cache(self, tmp_path, monkeypatch):
        Runner(cache_dir=tmp_path).run(tiny_config())
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache_stats(tmp_path)["entries"] == 1


class TestNoCache:
    """``REPRO_NO_CACHE=1``: a private temporary store, gone at exit."""

    def test_nothing_persists_but_memo_still_hits(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        runner = Runner(cache_dir=tmp_path)
        runner.run(tiny_config())
        runner.run(tiny_config())
        assert list(tmp_path.iterdir()) == []
        assert runner.simulated == 1
        assert runner.cache_hits == 1

    def test_run_traced_returns_a_complete_bundle(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        _, bundle = Runner(cache_dir=tmp_path).run_traced(tiny_config())
        assert bundle_is_complete(bundle)
        assert json.loads((bundle / "metrics.json").read_text())["series"]
        assert list(tmp_path.iterdir()) == []

    def test_subprocess_leaves_no_temp_dir(self, tmp_path):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        script = (
            "from repro.experiments.runner import Runner\n"
            "from repro.sim.config import SimConfig\n"
            f"config = SimConfig('GemsFDTD', **{TINY!r})\n"
            "_, bundle = Runner().run_traced(config)\n"
            "assert (bundle / 'manifest.json').is_file()\n"
            "print(bundle)\n"
        )
        env = dict(os.environ, REPRO_NO_CACHE="1", TMPDIR=str(scratch),
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             cwd=tmp_path, check=True, capture_output=True,
                             text=True).stdout
        assert Path(out.strip()).parent.parent == scratch
        assert list(scratch.iterdir()) == []
        assert not (tmp_path / ".repro_cache").exists()


class TestCorruptEntry:
    def test_corrupt_store_entry_resimulates(self, tmp_path):
        config = tiny_config()
        store = FileStore(tmp_path)
        Runner(store=store).run(config)
        store.put(config.cache_digest(), b"{not json")
        fresh = Runner(store=store)
        fresh.run(config)
        assert fresh.simulated == 1


# -- codec round-trip property ------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=2**48)


def _wear(normal, slow):
    record = BankWearRecord(normal_writes=normal)
    record.slow_writes_by_factor = slow
    return record


wear_records = st.lists(
    st.builds(
        _wear,
        counts,
        st.dictionaries(
            st.floats(min_value=1.0, max_value=64.0, allow_nan=False),
            counts, max_size=3),
    ),
    max_size=3,
)

_FIELD_STRATEGIES = {
    "str": st.text(max_size=12),
    "int": counts,
    "float": finite,
    "bool": st.booleans(),
    "List[float]": st.lists(finite, max_size=6),
    "List[BankWearRecord]": wear_records,
}


def _result_strategy():
    from dataclasses import fields
    return st.fixed_dictionaries({
        f.name: _FIELD_STRATEGIES[f.type] for f in fields(RunResult)
    }).map(lambda kw: RunResult(**kw))


class TestCodecProperty:
    @given(result=_result_strategy())
    @settings(max_examples=50, deadline=None)
    def test_entry_roundtrip_is_exact(self, result):
        config = tiny_config()
        restored = entry_from_json(entry_to_json(config, result))
        assert result_to_dict(restored) == result_to_dict(result)

    @given(result=_result_strategy())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_survives_a_store_hop(self, result):
        config = tiny_config()
        with tempfile.TemporaryDirectory() as root:
            store = FileStore(root)
            store.put(config.cache_digest(),
                      entry_to_json(config, result).encode("utf-8"))
            data = store.get(config.cache_digest())
        restored = entry_from_json(data.decode("utf-8"))
        assert json.loads(json.dumps(result_to_dict(restored))) \
            == result_to_dict(result)
