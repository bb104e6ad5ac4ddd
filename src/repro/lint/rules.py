"""The simlint rule set: AST checks tuned to this simulator's hazards.

Every rule exists because its hazard class has either already bitten this
codebase (SIM001 is the PR-1 ``hash(name)`` seeding bug) or silently
invalidates results when it does (unit slips, nondeterminism, wall-clock
coupling).  Rules are deliberately heuristic: they trade a few suppressible
false positives for catching the real thing at commit time.

Rule index:

* ``SIM001`` hash-seeding       - ``hash()`` feeding anything; str hashing is
  randomized per interpreter process (PYTHONHASHSEED), so results differ
  across processes and runs.
* ``SIM002`` global-random      - module-level ``random.*`` calls or an
  unseeded ``random.Random()``; simulation randomness must come from seeded
  per-component generators.
* ``SIM003`` wall-clock         - ``time.time``/``datetime.now`` family
  inside simulation code; simulated time must come from the event queue.
* ``SIM004`` float-time-eq      - ``==``/``!=`` on float simulated-time
  values (``*_ns``/``*_us``/``*_ms`` identifiers or ``now``).
* ``SIM005`` mutable-default    - mutable default argument values.
* ``SIM006`` bare-except        - ``except:`` swallowing everything
  including ``KeyboardInterrupt`` and invariant violations.
* ``SIM007`` unit-mix           - additive arithmetic or comparison mixing
  identifiers of different time units (``_ns`` vs ``_us``/``_years``)
  without an explicit conversion.
* ``SIM008`` telemetry-wall-clock - any ``time``/``datetime`` import or
  dotted call inside ``src/repro/telemetry/``; telemetry timestamps must
  come from the simulated clock or traced runs stop being bit-identical.
* ``SIM009`` hotpath-alloc       - lambda or nested ``def`` allocated on
  every iteration of a loop inside a function marked ``# simlint:
  hotpath``; closure allocation is exactly the overhead those functions
  exist to avoid (hoist the callable or prebind a method).
* ``SIM010`` faults-direct-random - any ``random.*`` call (even a seeded
  ``random.Random(n)``) or ``from random import ...`` inside
  ``repro.faults``; fault randomness must flow through the injected
  generator so every draw is attributable to the run's seed.

Flow-aware rules (computed from the project model in
:mod:`repro.lint.graph` / :mod:`repro.lint.taint`):

* ``SIM011`` taint-reaches-digest - a nondeterminism source reaches a
  digest sink through any chain of assignments/returns/calls; the
  finding message carries the interprocedural witness path.  Subsumes
  SIM001/SIM003 at witnessed source locations.
* ``SIM012`` cache-key-completeness - a ``@dataclass`` field of a keyed
  config (``cache_key()``/``key()``) that the key neither reads nor the
  module's ``CACHE_KEY_EXCLUDED`` registry excludes; ``warm_key()`` is
  held to ``WARM_KEY_EXCLUDED`` the same way and to reading only
  ``cache_key()`` fields.
* ``SIM013`` unlocked-shared-mutation - attribute mutation on a class
  marked ``# simlint: thread-shared`` outside a ``with <lock>:`` scope.
* ``SIM100`` unused-suppression - a ``# simlint: ignore[...]`` comment
  that matches no finding on its line (reported by default; disable
  with ``--no-report-unused-suppressions``).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.lint.findings import Finding, RuleInfo

RULES: Dict[str, RuleInfo] = {
    info.rule_id: info
    for info in (
        RuleInfo(
            rule_id="SIM001",
            name="hash-seeding",
            severity="error",
            summary="builtin hash() is interpreter-randomized and breaks "
                    "cross-process reproducibility",
            hint="derive stable integers with zlib.crc32(text.encode()) or "
                 "hashlib instead of hash()",
        ),
        RuleInfo(
            rule_id="SIM002",
            name="global-random",
            severity="error",
            summary="global random module state (or an unseeded "
                    "random.Random()) makes runs order-dependent",
            hint="use a per-component random.Random(seed) derived from "
                 "SimConfig.seed",
        ),
        RuleInfo(
            rule_id="SIM003",
            name="wall-clock",
            severity="error",
            summary="wall-clock time inside simulation code couples results "
                    "to the host machine",
            hint="use the event queue's simulated clock (events.now); "
                 "suppress explicitly when benchmarking host runtime",
        ),
        RuleInfo(
            rule_id="SIM004",
            name="float-time-eq",
            severity="warning",
            summary="exact ==/!= on float simulated-time values is "
                    "rounding-fragile",
            hint="compare with <=/>= against a bound, or use math.isclose "
                 "with an explicit tolerance",
        ),
        RuleInfo(
            rule_id="SIM005",
            name="mutable-default",
            severity="error",
            summary="mutable default argument is shared across calls",
            hint="default to None and create the object inside the function "
                 "(or use dataclasses.field(default_factory=...))",
        ),
        RuleInfo(
            rule_id="SIM006",
            name="bare-except",
            severity="warning",
            summary="bare except swallows every exception, including "
                    "InvariantViolation and KeyboardInterrupt",
            hint="catch the narrowest exception type that the handler "
                 "actually handles",
        ),
        RuleInfo(
            rule_id="SIM007",
            name="unit-mix",
            severity="error",
            summary="arithmetic/comparison mixes identifiers of different "
                    "time units without an explicit conversion",
            hint="convert one side explicitly (e.g. multiply by a "
                 "*_PER_* constant) or rename the identifier to its true "
                 "unit",
        ),
        RuleInfo(
            rule_id="SIM008",
            name="telemetry-wall-clock",
            severity="error",
            summary="wall-clock module use inside repro.telemetry; "
                    "telemetry timestamps must come from simulated time",
            hint="take the timestamp as a now_ns argument (or the "
                 "Telemetry clock callable) instead of importing "
                 "time/datetime",
        ),
        RuleInfo(
            rule_id="SIM009",
            name="hotpath-alloc",
            severity="warning",
            summary="lambda/closure allocated on every loop iteration of "
                    "a '# simlint: hotpath' function",
            hint="hoist the callable out of the loop - bind it once "
                 "before the loop or prebind a method; per-iteration "
                 "closure allocation is the overhead hotpath functions "
                 "exist to avoid",
        ),
        RuleInfo(
            rule_id="SIM010",
            name="faults-direct-random",
            severity="error",
            summary="direct use of the random module inside repro.faults; "
                    "fault randomness must come from the injected RNG",
            hint="take a random.Random parameter (System seeds one from "
                 "the config) and draw from it; 'import random' purely "
                 "for type annotations stays legal",
        ),
        RuleInfo(
            rule_id="SIM011",
            name="taint-reaches-digest",
            severity="error",
            summary="a nondeterminism source (hash/random/wall-clock/"
                    "environ/id/set-order) flows into a digest sink; "
                    "identical configs would stop mapping to identical "
                    "cache entries",
            hint="cut the flow at the witness path's first step: derive "
                 "the value from config fields or a seeded generator "
                 "instead of the nondeterministic source",
        ),
        RuleInfo(
            rule_id="SIM012",
            name="cache-key-completeness",
            severity="error",
            summary="keyed dataclass field without a key decision: "
                    "neither read by cache_key()/key() nor listed in "
                    "CACHE_KEY_EXCLUDED (likewise warm_key() and "
                    "WARM_KEY_EXCLUDED), or read by warm_key() but not "
                    "by cache_key()",
            hint="add the field to the key tuple, or register it in the "
                 "key's *_KEY_EXCLUDED dict with a one-line reason why "
                 "it cannot affect what that key identifies",
        ),
        RuleInfo(
            rule_id="SIM013",
            name="unlocked-shared-mutation",
            severity="error",
            summary="attribute mutation on a '# simlint: thread-shared' "
                    "class outside a 'with <lock>:' scope",
            hint="wrap the mutation in the owning object's lock (or move "
                 "it into a locked method of the owner); construction in "
                 "__init__/__post_init__ is exempt",
        ),
        RuleInfo(
            rule_id="SIM100",
            name="unused-suppression",
            severity="warning",
            summary="'# simlint: ignore[...]' comment matches no finding "
                    "on its line",
            hint="delete the stale suppression, or fix its rule list if "
                 "it targets the wrong rule id",
        ),
    )
}

#: Version of the analysis semantics.  Part of the incremental cache
#: key: bump it whenever any rule's logic (not just its metadata)
#: changes, so stale per-file results can never leak into a report.
RULESET_VERSION = "2.2.0"

# --------------------------------------------------------------------------
# SIM002 / SIM003 call tables
# --------------------------------------------------------------------------

#: ``random.<fn>`` calls that mutate or read the module-global generator.
GLOBAL_RANDOM_FUNCTIONS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "setstate", "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: ``<module>.<fn>`` wall-clock reads.  ``monotonic``/``perf_counter`` are
#: included: they are fine for *benchmarking host runtime* but never for
#: simulation logic, and a benchmark is exactly the place an explicit
#: suppression comment documents intent.
WALL_CLOCK_CALLS = frozenset({
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
})

# --------------------------------------------------------------------------
# Unit inference (SIM004 / SIM007)
# --------------------------------------------------------------------------

#: Identifier suffix token -> canonical unit.
UNIT_TOKENS: Dict[str, str] = {
    "ns": "ns",
    "us": "us",
    "ms": "ms",
    "year": "years",
    "years": "years",
}

#: Units SIM004 treats as float simulated time.
FLOAT_TIME_UNITS = frozenset({"ns", "us", "ms"})

# --------------------------------------------------------------------------
# SIM008: the telemetry package is wall-clock-free by construction
# --------------------------------------------------------------------------

#: Modules repro.telemetry may not import at all.  SIM003 bans specific
#: wall-clock *calls* everywhere; inside the telemetry package the whole
#: module is off-limits so no future helper can smuggle host time into
#: trace timestamps (which must be simulated time for bit-identical runs).
TELEMETRY_BANNED_MODULES = frozenset({"time", "datetime"})

#: Normalized path fragment that marks a file as part of the telemetry
#: package.
_TELEMETRY_PATH_FRAGMENT = "repro/telemetry/"

# --------------------------------------------------------------------------
# SIM010: fault randomness flows through the injected generator only
# --------------------------------------------------------------------------

#: Normalized path fragment that marks a file as part of the fault
#: injection package.  Inside it, every draw must come from the
#: ``random.Random`` that ``System`` seeds from the config - a stray
#: ``random.Random(42)`` would be deterministic but *unattributable* to
#: the run's seed, silently decoupling fault outcomes from SimConfig.
_FAULTS_PATH_FRAGMENT = "repro/faults/"

# --------------------------------------------------------------------------
# SIM009: hotpath functions must not allocate closures per iteration
# --------------------------------------------------------------------------

#: Comment text that opts a function into SIM009.  By convention it sits on
#: the ``def`` line (or any line of a multi-line signature) of functions on
#: the simulator's measured hot paths.
HOTPATH_MARKER = "simlint: hotpath"


def is_telemetry_path(path: str) -> bool:
    """True when ``path`` lies inside ``src/repro/telemetry/``."""
    return _TELEMETRY_PATH_FRAGMENT in path.replace("\\", "/")


def is_faults_path(path: str) -> bool:
    """True when ``path`` lies inside ``src/repro/faults/``."""
    return _FAULTS_PATH_FRAGMENT in path.replace("\\", "/")


def unit_of_identifier(name: str) -> Optional[str]:
    """Canonical time unit of an identifier, or None.

    ``window_ns`` -> ``ns``; ``lifetime_years`` -> ``years``.  Identifiers
    mentioning two different units (``NS_PER_YEAR``) are conversion factors
    and deliberately read as unit-neutral, so multiplying by them never
    trips SIM007.
    """
    tokens = name.lower().split("_")
    units = {UNIT_TOKENS[t] for t in tokens if t in UNIT_TOKENS}
    if len(units) != 1:
        return None
    unit = next(iter(units))
    # Only a *suffix* names the unit of the value itself.
    return unit if tokens[-1] in UNIT_TOKENS else None


def _identifier_text(node: ast.AST) -> Optional[str]:
    """Bare identifier behind a Name or Attribute node, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unit_of_node(node: ast.AST) -> Optional[str]:
    text = _identifier_text(node)
    return unit_of_identifier(text) if text is not None else None


def _is_time_like(node: ast.AST) -> bool:
    """SIM004 operand test: a *_ns/_us/_ms identifier or a ``now`` clock."""
    text = _identifier_text(node)
    if text is None:
        return False
    if text == "now":
        return True
    return unit_of_identifier(text) in FLOAT_TIME_UNITS


# --------------------------------------------------------------------------
# The visitor
# --------------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
    "OrderedDict",
})


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass AST walk emitting findings for every enabled rule."""

    def __init__(self, path: str, emit: Callable[..., None],
                 source_lines: Optional[List[str]] = None) -> None:
        self.path = path
        self.emit = emit
        self.in_telemetry = is_telemetry_path(path)
        self.in_faults = is_faults_path(path)
        self.source_lines = source_lines if source_lines is not None else []
        # SIM009 state: whether the innermost enclosing function carries
        # the hotpath marker, and how many per-iteration loop scopes deep
        # the walk currently is *within that function*.
        self._hotpath = False
        self._loop_depth = 0

    # -- SIM001 / SIM002 / SIM003 / SIM008 ----------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "hash":
            self.emit(
                "SIM001", node,
                "hash() result depends on PYTHONHASHSEED and differs "
                "across interpreter processes",
            )
        dotted = self._dotted_parts(func)
        if dotted is not None:
            self._check_random_call(node, dotted)
            self._check_wall_clock_call(node, dotted)
            self._check_telemetry_clock_call(node, dotted)
            self._check_faults_random_call(node, dotted)
        self.generic_visit(node)

    @staticmethod
    def _dotted_parts(func: ast.AST) -> Optional[Tuple[str, ...]]:
        """``a.b.c`` attribute chain as a tuple, or None."""
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return tuple(reversed(parts))
        return None

    def _check_random_call(self, node: ast.Call,
                           dotted: Tuple[str, ...]) -> None:
        if dotted[0] != "random" or len(dotted) != 2:
            return
        if dotted[1] in GLOBAL_RANDOM_FUNCTIONS:
            self.emit(
                "SIM002", node,
                f"random.{dotted[1]}() uses the shared module-global "
                "generator",
            )
        elif dotted[1] == "Random" and not node.args and not node.keywords:
            self.emit(
                "SIM002", node,
                "random.Random() without a seed argument is seeded from "
                "the OS entropy pool",
            )

    def _check_wall_clock_call(self, node: ast.Call,
                               dotted: Tuple[str, ...]) -> None:
        # Matches both ``time.time()`` and ``datetime.datetime.now()`` by
        # looking at the last two components of the dotted chain.
        if len(dotted) < 2:
            return
        if (dotted[-2], dotted[-1]) in WALL_CLOCK_CALLS:
            self.emit(
                "SIM003", node,
                f"{'.'.join(dotted)}() reads the host wall clock",
            )

    # -- SIM008 --------------------------------------------------------

    def _check_telemetry_clock_call(self, node: ast.Call,
                                    dotted: Tuple[str, ...]) -> None:
        if not self.in_telemetry or len(dotted) < 2:
            return
        if dotted[0] in TELEMETRY_BANNED_MODULES:
            self.emit(
                "SIM008", node,
                f"{'.'.join(dotted)}() inside repro.telemetry; trace "
                "timestamps must come from simulated time",
            )

    def visit_Import(self, node: ast.Import) -> None:
        if self.in_telemetry:
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in TELEMETRY_BANNED_MODULES:
                    self.emit(
                        "SIM008", node,
                        f"import of {alias.name!r} inside repro.telemetry",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.in_telemetry and node.module is not None:
            root = node.module.split(".")[0]
            if root in TELEMETRY_BANNED_MODULES:
                self.emit(
                    "SIM008", node,
                    f"import from {node.module!r} inside repro.telemetry",
                )
        if self.in_faults and node.module == "random":
            # 'from random import X' would let X() dodge the dotted-call
            # check below; 'import random' (annotations) stays legal.
            self.emit(
                "SIM010", node,
                "from-import of the random module inside repro.faults",
            )
        self.generic_visit(node)

    # -- SIM010 --------------------------------------------------------

    def _check_faults_random_call(self, node: ast.Call,
                                  dotted: Tuple[str, ...]) -> None:
        if not self.in_faults or dotted[0] != "random" or len(dotted) < 2:
            return
        self.emit(
            "SIM010", node,
            f"{'.'.join(dotted)}() inside repro.faults bypasses the "
            "injected seeded generator",
        )

    # -- SIM004 / SIM007 ----------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                if _is_time_like(left) or _is_time_like(right):
                    self.emit(
                        "SIM004", node,
                        "exact equality on a float simulated-time value",
                    )
            self._check_unit_mix(node, left, right)
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        # Add/Sub require same-unit operands; Mult/Div are conversions.
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_unit_mix(node, node.left, node.right)
        self.generic_visit(node)

    def _check_unit_mix(self, node: ast.AST, left: ast.AST,
                        right: ast.AST) -> None:
        left_unit = _unit_of_node(left)
        right_unit = _unit_of_node(right)
        if left_unit and right_unit and left_unit != right_unit:
            left_name = _identifier_text(left)
            right_name = _identifier_text(right)
            self.emit(
                "SIM007", node,
                f"mixes {left_name!r} ({left_unit}) with {right_name!r} "
                f"({right_unit})",
            )

    # -- SIM005 --------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_mutable_defaults(node)
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_mutable_defaults(node)
        self._enter_function(node)

    def _check_mutable_defaults(self, node: ast.AST) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            if isinstance(default, _MUTABLE_LITERALS):
                self.emit(
                    "SIM005", default,
                    "mutable default argument is created once and shared "
                    "across calls",
                )
            elif (isinstance(default, ast.Call)
                  and isinstance(default.func, ast.Name)
                  and default.func.id in _MUTABLE_CONSTRUCTORS):
                self.emit(
                    "SIM005", default,
                    f"default argument {default.func.id}() is evaluated "
                    "once at definition time",
                )

    # -- SIM009 --------------------------------------------------------

    def _has_hotpath_marker(self, node: ast.AST) -> bool:
        """Whether the def header (any signature line) carries the marker."""
        body = getattr(node, "body", None)
        start = node.lineno
        stop = body[0].lineno if body else start + 1
        lines = self.source_lines
        for lineno in range(start, stop):
            if 1 <= lineno <= len(lines) and HOTPATH_MARKER in lines[lineno - 1]:
                return True
        return False

    def _enter_function(self, node: ast.AST) -> None:
        if self._hotpath and self._loop_depth:
            name = getattr(node, "name", "<function>")
            self.emit(
                "SIM009", node,
                f"nested function {name!r} is allocated on every "
                "iteration of a hotpath loop",
            )
        saved = (self._hotpath, self._loop_depth)
        self._hotpath = self._has_hotpath_marker(node)
        self._loop_depth = 0
        self.generic_visit(node)
        self._hotpath, self._loop_depth = saved

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if self._hotpath and self._loop_depth:
            self.emit(
                "SIM009", node,
                "lambda is allocated on every iteration of a hotpath loop",
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._visit_for(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_for(node)

    def _visit_for(self, node: "ast.For | ast.AsyncFor") -> None:
        # The iterable expression is evaluated once, before the loop; a
        # lambda there (e.g. a sort key) is not a per-iteration cost.
        self.visit(node.iter)
        self.visit(node.target)
        self._loop_depth += 1
        for statement in node.body:
            self.visit(statement)
        self._loop_depth -= 1
        for statement in node.orelse:   # runs once, after the loop
            self.visit(statement)

    def visit_While(self, node: ast.While) -> None:
        # Unlike For's iterable, the test re-evaluates every iteration.
        self._loop_depth += 1
        self.visit(node.test)
        for statement in node.body:
            self.visit(statement)
        self._loop_depth -= 1
        for statement in node.orelse:
            self.visit(statement)

    def _visit_comprehension(
        self,
        node: "ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp",
    ) -> None:
        # The first generator's source is evaluated once; everything else
        # (element expression, conditions, nested generators) runs per
        # iteration.
        first = node.generators[0]
        self.visit(first.iter)
        self._loop_depth += 1
        self.visit(first.target)
        for condition in first.ifs:
            self.visit(condition)
        for generator in node.generators[1:]:
            self.visit(generator.target)
            self.visit(generator.iter)
            for condition in generator.ifs:
                self.visit(condition)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        self._loop_depth -= 1

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    # -- SIM006 --------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.emit("SIM006", node, "bare except clause")
        self.generic_visit(node)


def check_source(path: str, tree: ast.Module,
                 source_lines: List[str]) -> Iterator[Finding]:
    """Run every rule over a parsed module, yielding raw findings.

    Suppression filtering and rule selection happen in the engine; this
    layer only detects.
    """
    found: List[Finding] = []

    def emit(rule_id: str, node: ast.AST, message: str) -> None:
        info = RULES[rule_id]
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0) + 1
        snippet = ""
        if 1 <= line <= len(source_lines):
            snippet = source_lines[line - 1].strip()
        found.append(Finding(
            rule_id=rule_id, severity=info.severity, path=path,
            line=line, column=column, message=message, hint=info.hint,
            snippet=snippet,
        ))

    _RuleVisitor(path, emit, source_lines).visit(tree)
    return iter(found)
