"""simlint engine: discovery, suppressions, rule selection.

The engine turns paths into findings in four phases:

1. **discover** - expand ``*.py`` files;
2. **per-file analysis** - parse, run the syntactic rules (SIM001-SIM010), the per-file
   completeness rule (SIM012), extract the module summary
   (:mod:`repro.lint.graph`) and the suppression comments;
3. **project phase** - link every summary and run the
   cross-file rules SIM011/SIM013 (:mod:`repro.lint.taint`);
4. **finalize** - drop SIM001/SIM003 findings subsumed by a SIM011
   witness, apply suppressions and ``--select``/``--ignore``, and
   report unused suppressions as SIM100.

Suppression syntax (mirrors ``noqa``)::

    risky_line()  # simlint: ignore[SIM003] -- benchmarking wall-clock
    risky_line()  # simlint: ignore          (suppresses every rule)

Anything after the closing bracket is a free-form justification; writing
one is strongly encouraged and the repo's own suppressions all carry one.
Suppressions are parsed from real COMMENT tokens (via :mod:`tokenize`),
so the syntax appearing inside a string literal - like the example two
paragraphs up - is inert.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, sort_findings
from repro.lint.graph import build_module_summary
from repro.lint.rules import RULES, check_source
from repro.lint.taint import check_cache_completeness, check_project

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9,\s]*)\])?"
)

#: Suppression entry meaning "every rule".
ALL_RULES = "*"

#: Rule ids a suppression can never target (synthetic/meta findings).
_UNSUPPRESSABLE = frozenset({"SIM000", "SIM100"})

#: Syntactic rules subsumed by an interprocedural SIM011 witness.
_SUBSUMED_BY_SIM011 = frozenset({"SIM001", "SIM003"})


@dataclass(frozen=True)
class LintOptions:
    """Rule filtering for one lint run."""

    select: Optional[Sequence[str]] = None   # only these rule ids
    ignore: Sequence[str] = ()               # minus these rule ids
    #: Emit SIM100 for ``simlint: ignore`` comments that matched no
    #: finding.  On by default: a stale suppression is a latent bug
    #: (the hazard it hid may have moved one line down).
    report_unused: bool = True

    def __post_init__(self) -> None:
        for rule_id in [*(self.select or ()), *self.ignore]:
            if rule_id not in RULES:
                known = ", ".join(sorted(RULES))
                raise ValueError(
                    f"unknown rule {rule_id!r} (known: {known})"
                )

    def enabled(self, rule_id: str) -> bool:
        if self.select is not None and rule_id not in self.select:
            return False
        return rule_id not in self.ignore


@dataclass
class LintReport:
    """Findings plus run statistics (file count, timing)."""

    findings: List[Finding]
    files: int = 0
    analyzed: int = 0      # files parsed + visited this run
    elapsed_s: float = 0.0


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------

def extract_suppressions(source: str) -> Dict[int, Dict[str, Any]]:
    """Line -> ``{"rules": [...], "col": n}`` from real comment tokens.

    Only COMMENT tokens count: a suppression spelled inside a string
    literal or docstring does not suppress (and is not reported as
    unused).  Falls back to a line-regex scan if tokenization fails,
    which can only happen for files that also fail ``ast.parse``.
    """
    comments: List[Tuple[int, int, str]] = []
    try:
        reader = io.StringIO(source).readline
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                comments.append(
                    (token.start[0], token.start[1] + 1, token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            index = line.find("#")
            if index >= 0:
                comments.append((lineno, index + 1, line[index:]))
    suppressions: Dict[int, Dict[str, Any]] = {}
    for lineno, col, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules_text = match.group("rules")
        if rules_text is None:
            rules = [ALL_RULES]
        else:
            parsed = sorted({r.strip().upper()
                             for r in rules_text.split(",") if r.strip()})
            rules = parsed or [ALL_RULES]
        suppressions[lineno] = {"rules": rules, "col": col}
    return suppressions


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of suppressed rule ids (or ``{"*"}``)."""
    return {line: set(info["rules"])
            for line, info in extract_suppressions(source).items()}


def _matches(rule_id: str, rules: Sequence[str]) -> bool:
    return ALL_RULES in rules or rule_id in rules


# --------------------------------------------------------------------------
# Per-file analysis (phase 2)
# --------------------------------------------------------------------------

def _analyze_source(path: str, source: str) -> Dict[str, Any]:
    """Raw per-file payload; raises SyntaxError on unparsable input."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    findings = list(check_source(path, tree, lines))
    summary = build_module_summary(path, tree, lines)
    findings.extend(check_cache_completeness(summary, lines))
    return {
        "findings": [asdict(finding) for finding in findings],
        "suppressions": {
            str(line): info
            for line, info in extract_suppressions(source).items()
        },
        "summary": summary,
    }


def _syntax_error_analysis(path: str, error: SyntaxError) -> Dict[str, Any]:
    finding = Finding(
        rule_id="SIM000", severity="error", path=path,
        line=error.lineno or 1, column=(error.offset or 0) + 1,
        message=f"syntax error: {error.msg}",
        hint="simlint only checks files that parse",
    )
    return {"findings": [asdict(finding)], "suppressions": {},
            "summary": None}


def _unreadable_analysis(path: str, error: Exception) -> Dict[str, Any]:
    finding = Finding(
        rule_id="SIM000", severity="error", path=path,
        line=1, column=1, message=f"unreadable file: {error}",
        hint="fix the file encoding or permissions",
    )
    return {"findings": [asdict(finding)], "suppressions": {},
            "summary": None}


def _analyze_file(path: str, source: str) -> Dict[str, Any]:
    """Per-file analysis; a syntax error becomes a SIM000 finding."""
    try:
        return _analyze_source(path, source)
    except SyntaxError as error:
        return _syntax_error_analysis(path, error)


# --------------------------------------------------------------------------
# Finalize (phase 4)
# --------------------------------------------------------------------------

def _finalize(per_file: Dict[str, Dict[str, Any]],
              project_findings: List[Finding],
              subsumed: Set[Tuple[str, int]],
              options: LintOptions,
              sources: Dict[str, Sequence[str]]) -> List[Finding]:
    raw: List[Finding] = list(project_findings)
    for analysis in per_file.values():
        raw.extend(Finding(**data) for data in analysis["findings"])

    # A suppression is "used" when ANY raw finding matches it - before
    # select/ignore filtering and before SIM011 subsumption, so the
    # unused-suppression verdict never depends on this run's options.
    used: Set[Tuple[str, int]] = set()
    for finding in raw:
        if finding.rule_id in _UNSUPPRESSABLE:
            continue
        info = per_file.get(finding.path, {}).get(
            "suppressions", {}).get(str(finding.line))
        if info is not None and _matches(finding.rule_id, info["rules"]):
            used.add((finding.path, finding.line))

    subsume = options.enabled("SIM011")
    kept: List[Finding] = []
    for finding in raw:
        if finding.rule_id != "SIM000":
            if not options.enabled(finding.rule_id):
                continue
            if (subsume and finding.rule_id in _SUBSUMED_BY_SIM011
                    and (finding.path, finding.line) in subsumed):
                continue
            info = per_file.get(finding.path, {}).get(
                "suppressions", {}).get(str(finding.line))
            if info is not None and _matches(finding.rule_id, info["rules"]):
                continue
        kept.append(finding)

    if options.report_unused and options.enabled("SIM100"):
        meta = RULES["SIM100"]
        for path in sorted(per_file):
            suppressions = per_file[path].get("suppressions", {})
            for line_text in sorted(suppressions, key=int):
                line = int(line_text)
                if (path, line) in used:
                    continue
                info = suppressions[line_text]
                listed = ", ".join(info["rules"])
                lines = sources.get(path)
                snippet = ""
                if lines is not None and 1 <= line <= len(lines):
                    snippet = str(lines[line - 1]).strip()
                kept.append(Finding(
                    rule_id="SIM100", severity=meta.severity, path=path,
                    line=line, column=int(info["col"]),
                    message=f"suppression ignore[{listed}] matches no "
                            "finding on this line",
                    hint=meta.hint, snippet=snippet,
                ))
    return sort_findings(kept)


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def lint_source(source: str, path: str = "<string>",
                options: Optional[LintOptions] = None) -> List[Finding]:
    """Lint one source string; raises SyntaxError on unparsable input."""
    options = options if options is not None else LintOptions()
    analysis = _analyze_source(path, source)
    per_file = {path: analysis}
    sources: Dict[str, Sequence[str]] = {path: source.splitlines()}
    summaries = [analysis["summary"]] if analysis["summary"] else []
    project_findings, subsumed = check_project(summaries, sources)
    return _finalize(per_file, project_findings, subsumed, options, sources)


def discover_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated ``*.py`` list."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            seen.update(path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            seen.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(seen)


def analyze_paths(paths: Iterable[Any],
                  options: Optional[LintOptions] = None) -> LintReport:
    """Lint every Python file under ``paths`` with full statistics.

    Unparsable/unreadable files surface as synthetic ``SIM000`` error
    findings rather than aborting the run, so one syntax error cannot
    hide every other finding in a tree.
    """
    options = options if options is not None else LintOptions()
    started = time.perf_counter()   # simlint: ignore[SIM003] -- lint-run wall time is host-side tooling statistics
    files = discover_files(Path(p) for p in paths)

    per_file: Dict[str, Dict[str, Any]] = {}
    sources: Dict[str, Sequence[str]] = {}
    analyzed = 0
    for file_path in files:
        path = str(file_path)
        try:
            source = file_path.read_text()
        except (OSError, UnicodeDecodeError) as error:
            per_file[path] = _unreadable_analysis(path, error)
            continue
        sources[path] = source.splitlines()
        per_file[path] = _analyze_file(path, source)
        analyzed += 1

    summaries = [analysis["summary"] for _, analysis in sorted(per_file.items())
                 if analysis["summary"] is not None]
    project_findings, subsumed = check_project(summaries, sources)
    findings = _finalize(per_file, project_findings, subsumed, options,
                         sources)
    elapsed = time.perf_counter() - started   # simlint: ignore[SIM003] -- lint-run wall time is host-side tooling statistics
    return LintReport(findings=findings, files=len(files), analyzed=analyzed,
                      elapsed_s=elapsed)


def lint_paths(paths: Iterable[Any],
               options: Optional[LintOptions] = None) -> List[Finding]:
    """Back-compat wrapper over :func:`analyze_paths` (findings only)."""
    return analyze_paths(paths, options).findings
