"""Cross-module taint analysis and the flow-aware rules SIM011-SIM013.

:mod:`repro.lint.graph` reduces each file to a serialisable summary;
this module links those summaries into a project-wide function index,
runs a fixpoint that decides which functions *return* nondeterministic
values, and emits the three flow rules:

* **SIM011** - a nondeterminism source reaches a digest sink (either the
  sink's own return value is tainted, or a tainted argument is passed
  into a resolved sink call).  The finding message carries the full
  interprocedural witness path, source first.
* **SIM012** - key completeness: every field of a ``@dataclass`` that
  defines ``cache_key()``/``key()`` must be read (transitively, through
  properties and same-class helpers) by that method, or appear in the
  module's ``CACHE_KEY_EXCLUDED`` registry with a reason; ``warm_key()``
  is checked the same way against ``WARM_KEY_EXCLUDED`` and may read
  only fields ``cache_key()`` reads.  Stale or contradictory registry
  entries are findings too.
* **SIM013** - attribute mutations on classes marked
  ``# simlint: thread-shared`` must happen inside a ``with <lock>:``
  scope.  Ownership is resolved through ``self`` and through parameter
  annotations, which is what lets the rule see a mutation made by a
  function that receives the shared object as an argument (a worker
  thread's callback, say), not only by the class's own methods.

The analysis is context-insensitive with one level of argument flow:
a function returning its own parameter propagates the taint of the
call-site argument, but parameter-through-parameter chains deeper than
:data:`MAX_FLOW_DEPTH` are treated as clean (a deliberate linter
cut-off, not a soundness claim).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.graph import (
    KEY_REGISTRIES,
    SINK_FUNCTION_NAMES,
    SINK_METHOD_NAMES,
    Dep,
    DepSet,
    Summary,
)
from repro.lint.rules import RULES

#: One step of an interprocedural witness, ordered sink-side first.
WitnessStep = Dict[str, Any]
Witness = List[WitnessStep]

#: Recursion bound for argument-flow evaluation.
MAX_FLOW_DEPTH = 12

#: Fixpoint iteration bound (far above any real call-chain depth).
MAX_FIXPOINT_ROUNDS = 50

#: Map of file path -> source lines, used only for finding snippets.
Sources = Dict[str, Sequence[str]]


def _suffix_match(module: str, suffix: str) -> bool:
    return module == suffix or module.endswith("." + suffix)


def _display(qualname: str) -> str:
    return qualname.split(":", 1)[1]


def _is_sink(fn: Summary) -> bool:
    if fn["name"] in SINK_FUNCTION_NAMES:
        return True
    return fn["cls"] is not None and fn["name"] in SINK_METHOD_NAMES


def _snippet(sources: Sources, path: str, line: int) -> str:
    lines = sources.get(path)
    if lines is not None and 1 <= line <= len(lines):
        return str(lines[line - 1]).strip()
    return ""


def _finding(rule_id: str, path: str, line: int, message: str,
             sources: Sources, column: int = 1) -> Finding:
    info = RULES[rule_id]
    return Finding(
        rule_id=rule_id, severity=info.severity, path=path, line=line,
        column=column, message=message, hint=info.hint,
        snippet=_snippet(sources, path, line),
    )


class ProjectTaint:
    """Function index + return-taint fixpoint over module summaries."""

    def __init__(self, summaries: Sequence[Summary]) -> None:
        #: qualname -> (function summary, file path)
        self.functions: Dict[str, Tuple[Summary, str]] = {}
        self._plain: Dict[str, List[Tuple[str, str]]] = {}
        self._methods: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        self.ret_taint: Dict[str, Optional[Witness]] = {}
        for summary in summaries:
            path = summary["path"]
            module = summary["module"]
            for qualname, fn in summary["functions"].items():
                self.functions[qualname] = (fn, path)
                if fn["cls"] is None:
                    self._plain.setdefault(fn["name"], []).append(
                        (module, qualname))
                else:
                    self._methods.setdefault(
                        (fn["cls"], fn["name"]), []).append((module, qualname))
        for index in (self._plain, self._methods):
            for entries in index.values():
                entries.sort()
        self._fixpoint()

    # -- reference resolution ------------------------------------------

    def resolve(self, ref: Optional[str]) -> Optional[str]:
        """Callee reference (``q:``/``r:``/``m:``) -> qualname or None."""
        if ref is None:
            return None
        if ref.startswith("q:"):
            qualname = ref[2:]
            return qualname if qualname in self.functions else None
        if ref.startswith("r:"):
            dotted = ref[2:]
            head, _, name = dotted.rpartition(".")
            if head:
                for module, qualname in self._plain.get(name, []):
                    if _suffix_match(module, head):
                        return qualname
                mod_head, _, cls = head.rpartition(".")
                if cls:
                    for module, qualname in self._methods.get((cls, name), []):
                        if not mod_head or _suffix_match(module, mod_head):
                            return qualname
            return None
        if ref.startswith("m:"):
            _, type_ref, method = ref.split(":", 2)
            bare = type_ref.split(".")[-1]
            prefix = type_ref.rsplit(".", 1)[0] if "." in type_ref else ""
            candidates = self._methods.get((bare, method), [])
            for module, qualname in candidates:
                if not prefix or _suffix_match(module, prefix):
                    return qualname
            return None
        return None

    # -- taint evaluation ----------------------------------------------

    def _fixpoint(self) -> None:
        qualnames = sorted(self.functions)
        for qualname in qualnames:
            self.ret_taint[qualname] = None
        for _round in range(MAX_FIXPOINT_ROUNDS):
            changed = False
            for qualname in qualnames:
                if self.ret_taint[qualname] is not None:
                    continue
                fn, path = self.functions[qualname]
                witness = self.first_taint(fn["ret"], path)
                if witness is not None:
                    self.ret_taint[qualname] = witness
                    changed = True
            if not changed:
                return

    def first_taint(self, deps: DepSet, path: str,
                    depth: int = 0) -> Optional[Witness]:
        for dep in deps:
            witness = self.dep_taint(dep, path, depth)
            if witness is not None:
                return witness
        return None

    def dep_taint(self, dep: Dep, path: str,
                  depth: int = 0) -> Optional[Witness]:
        """Witness that ``dep`` carries nondeterminism, or None."""
        if depth > MAX_FLOW_DEPTH:
            return None
        kind = dep[0]
        if kind == "source":
            return [{"path": path, "line": dep[2], "note": dep[3]}]
        if kind != "call":
            return None        # bare params are accounted at call sites
        ref, line, args = dep[1], dep[2], dep[3]
        qualname = self.resolve(ref)
        if qualname is None:
            return None
        display = _display(qualname)
        callee_witness = self.ret_taint.get(qualname)
        if callee_witness:
            step = {"path": path, "line": line,
                    "note": f"tainted return of {display}()"}
            return [step, *callee_witness]
        callee, _callee_path = self.functions[qualname]
        for ret_dep in callee["ret"]:
            if ret_dep[0] != "param":
                continue
            for arg_dep in self._args_for_param(callee, ret_dep[1], args):
                arg_witness = self.dep_taint(arg_dep, path, depth + 1)
                if arg_witness is not None:
                    step = {
                        "path": path, "line": line,
                        "note": f"{display}() returns its "
                                f"{ret_dep[1]!r} argument",
                    }
                    return [step, *arg_witness]
        return None

    @staticmethod
    def _args_for_param(callee: Summary, param: str,
                        args: Dict[str, DepSet]) -> DepSet:
        params: List[str] = callee["params"]
        if param not in params:
            return args.get(param, [])
        index = params.index(param)
        if callee["cls"] is not None and params and params[0] in ("self", "cls"):
            index -= 1
        deps: DepSet = []
        if index >= 0:
            deps = list(args.get(str(index), []))
        return [*deps, *args.get(param, [])]


def _render_witness(witness: Witness) -> str:
    """Human-readable source-to-sink chain for the finding message."""
    steps = list(reversed(witness))
    return " -> ".join(
        f"{step['note']} [{step['path']}:{step['line']}]" for step in steps)


def check_project(summaries: Sequence[Summary], sources: Sources,
                  ) -> Tuple[List[Finding], Set[Tuple[str, int]]]:
    """Run the cross-file rules (SIM011, SIM013) over linked summaries.

    Returns the findings plus the set of ``(path, line)`` source
    locations witnessed by a SIM011 finding; the engine drops syntactic
    SIM001/SIM003 findings at those locations as subsumed.
    """
    taint = ProjectTaint(summaries)
    findings: List[Finding] = []
    subsumed: Set[Tuple[str, int]] = set()
    seen: Set[Tuple[str, int, str]] = set()

    def emit(path: str, line: int, message: str,
             witness: Witness) -> None:
        key = (path, line, message)
        if key in seen:
            return
        seen.add(key)
        findings.append(_finding("SIM011", path, line, message, sources))
        source_step = witness[-1]
        subsumed.add((str(source_step["path"]), int(source_step["line"])))

    for qualname in sorted(taint.functions):
        fn, path = taint.functions[qualname]
        if not _is_sink(fn):
            continue
        witness = taint.ret_taint[qualname]
        if witness:
            emit(
                path, int(witness[0]["line"]),
                f"nondeterministic value reaches digest sink "
                f"{_display(qualname)}(): {_render_witness(witness)}",
                witness,
            )

    for qualname in sorted(taint.functions):
        fn, path = taint.functions[qualname]
        for call in fn["calls"]:
            target = taint.resolve(call["callee"])
            if target is None or not _is_sink(taint.functions[target][0]):
                continue
            for arg_key in sorted(call["args"]):
                witness = taint.first_taint(call["args"][arg_key], path)
                if witness is not None:
                    emit(
                        path, int(call["line"]),
                        f"tainted argument flows into digest sink "
                        f"{_display(target)}(): {_render_witness(witness)}",
                        witness,
                    )
                    break

    findings.extend(_check_thread_shared(summaries, sources))
    return findings, subsumed


# --------------------------------------------------------------------------
# SIM013: thread-shared mutations outside lock scopes
# --------------------------------------------------------------------------

def _check_thread_shared(summaries: Sequence[Summary],
                         sources: Sources) -> List[Finding]:
    marked: Set[str] = set()
    for summary in summaries:
        for name, info in summary["classes"].items():
            if info["thread_shared"]:
                marked.add(name)
    if not marked:
        return []
    findings: List[Finding] = []
    for summary in summaries:
        path = summary["path"]
        for mutation in summary["mutations"]:
            owner = str(mutation["owner"]).split(".")[-1]
            if owner not in marked or mutation["locked"]:
                continue
            if mutation["owner_kind"] == "self" and mutation["is_init"]:
                continue
            findings.append(_finding(
                "SIM013", path, int(mutation["line"]),
                f"attribute {mutation['attr']!r} of thread-shared "
                f"{owner} mutated outside a lock scope "
                f"(in {mutation['func']}())",
                sources,
            ))
    return findings


# --------------------------------------------------------------------------
# SIM012: cache-key completeness (per-file; cacheable)
# --------------------------------------------------------------------------

def check_cache_completeness(summary: Summary,
                             source_lines: Sequence[str]) -> List[Finding]:
    """Every keyed dataclass field needs a decision per key (SIM012).

    Each key method is checked against its own registry
    (:data:`~repro.lint.graph.KEY_REGISTRIES`), and ``warm_key()`` may
    read only fields that ``cache_key()`` reads too: state a warm start
    depends on must also decide the cached result.
    """
    sources: Sources = {summary["path"]: source_lines}
    path = summary["path"]
    module = summary["module"]
    registries: Dict[str, Summary] = summary["excluded"]
    keyed = sorted(
        (name, info) for name, info in summary["classes"].items()
        if info["dataclass"] and info["key_methods"])
    findings: List[Finding] = []
    covered: Dict[str, Set[str]] = {}

    for name, info in keyed:
        reads_by_method: Dict[str, Set[str]] = {}
        for key_method in info["key_methods"]:
            registry_name = KEY_REGISTRIES[key_method]
            registry = registries.get(registry_name)
            entries: Dict[str, str] = registry["entries"] if registry else {}
            covered.setdefault(registry_name, set()).update(info["fields"])
            reads = _key_closure(summary, name, key_method, info)
            reads_by_method[key_method] = reads
            key_fn = summary["functions"].get(f"{module}:{name}.{key_method}")
            line = int(key_fn["lineno"]) if key_fn else int(info["lineno"])
            missing = [field for field in info["fields"]
                       if field not in reads and field not in entries]
            if missing:
                listed = ", ".join(repr(field) for field in missing)
                findings.append(_finding(
                    "SIM012", path, line,
                    f"field(s) {listed} of {name} appear in neither "
                    f"{name}.{key_method}() nor {registry_name}",
                    sources,
                ))
            if registry is not None:
                for field in info["fields"]:
                    if field in entries and field in reads:
                        findings.append(_finding(
                            "SIM012", path, int(registry["line"]),
                            f"{registry_name} lists {field!r} but "
                            f"{name}.{key_method}() reads it - pick one",
                            sources,
                        ))
        warm_reads = reads_by_method.get("warm_key")
        cache_reads = reads_by_method.get("cache_key")
        if warm_reads is not None and cache_reads is not None:
            unkeyed = [field for field in info["fields"]
                       if field in warm_reads and field not in cache_reads]
            if unkeyed:
                warm_fn = summary["functions"][f"{module}:{name}.warm_key"]
                listed = ", ".join(repr(field) for field in unkeyed)
                findings.append(_finding(
                    "SIM012", path, int(warm_fn["lineno"]),
                    f"field(s) {listed} of {name} are read by "
                    f"{name}.warm_key() but not by {name}.cache_key()",
                    sources,
                ))

    if keyed:
        for registry_name, registry in sorted(registries.items()):
            fields = covered.get(registry_name, set())
            for entry in sorted(registry["entries"]):
                if entry not in fields:
                    findings.append(_finding(
                        "SIM012", path, int(registry["line"]),
                        f"stale {registry_name} entry {entry!r} matches "
                        "no field of any dataclass keyed by it in this "
                        "module",
                        sources,
                    ))
    return findings


def _key_closure(summary: Summary, cls: str, start: str,
                 info: Summary) -> Set[str]:
    """Names transitively read via ``self`` from the key method.

    Follows same-class helper calls *and* property reads
    (``cache_key`` -> ``policy_name`` -> ``policy``), which is what
    makes indirect field coverage count.
    """
    module = summary["module"]
    methods = set(info["methods"])
    reads: Set[str] = set()
    seen: Set[str] = set()
    queue: List[str] = [start]
    while queue:
        method = queue.pop()
        if method in seen:
            continue
        seen.add(method)
        fn = summary["functions"].get(f"{module}:{cls}.{method}")
        if fn is None:
            continue
        for read in fn["self_reads"]:
            reads.add(read)
            if read in methods and read not in seen:
                queue.append(read)
        for call in fn["self_calls"]:
            if call in methods and call not in seen:
                queue.append(call)
    return reads
