"""Project model for the flow-aware simlint rules (SIM011-SIM013).

This module turns one parsed file into a JSON-serialisable **module
summary**: the per-function taint facts, class/dataclass shapes, and
thread-shared mutation sites that :mod:`repro.lint.taint` later links
into a project-wide call graph.

Dependency sets ("where could this value have come from") are lists of
tagged JSON values, deduplicated and sorted by canonical encoding so
every run of the analysis is bit-for-bit deterministic:

* ``["source", kind, line, detail]`` - a nondeterminism source was
  evaluated here (``hash()``, global ``random.*``, wall-clock reads,
  ``os.environ``, ``id()``, set-iteration order);
* ``["param", name]`` - the value flows in from a caller's argument;
* ``["call", ref, line, args, text]`` - the return value of another
  function, with the dependency sets of every argument.  ``ref`` is a
  resolution request for the link phase (see :data:`REF_KINDS`).

The analysis is deliberately a linter, not a verifier: straight-line
union semantics over statements, attribute loads propagate the taint of
their root object, unknown calls conservatively forward their argument
taint, and parameter-through-parameter chains are cut off (callers'
taint is accounted at the call site instead).
"""

from __future__ import annotations

import ast
import json
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import GLOBAL_RANDOM_FUNCTIONS, WALL_CLOCK_CALLS

#: Dependency / summary value types (JSON-shaped on purpose).
Dep = List[Any]
DepSet = List[Dep]
Summary = Dict[str, Any]

#: Callee reference prefixes produced here and resolved by taint.py:
#: ``q:``  exact qualified name (same-file resolution already done);
#: ``r:``  dotted path resolved by module-suffix match at link time;
#: ``m:``  ``m:<type>:<method>`` - method on an annotated object.
REF_KINDS = ("q:", "r:", "m:")

#: Builtins whose output order/value does not inherit *ordering* taint:
#: ``sorted({...})`` is deterministic even though set iteration is not.
ORDER_SANITIZERS = frozenset({"sorted", "min", "max", "len", "sum"})

#: Comment marker documenting that a class is mutated from more than one
#: thread; SIM013 requires every attribute mutation on such objects to
#: happen inside a ``with <lock>:`` scope.
THREAD_SHARED_MARKER = "simlint: thread-shared"

#: SIM012: each key method and the module registry that lists, with a
#: reason, the fields that method leaves out on purpose.  ``key`` is the
#: FaultConfig-style result identity, checked only when a class has no
#: ``cache_key``.
KEY_REGISTRIES = {
    "cache_key": "CACHE_KEY_EXCLUDED",
    "key": "CACHE_KEY_EXCLUDED",
    "warm_key": "WARM_KEY_EXCLUDED",
}

#: Method names whose return value is a digest/cache identity (SIM011
#: sinks).  ``key`` is only a sink as a *method* of a class (FaultConfig
#: style), never as a free function; taint.py enforces that split.
SINK_FUNCTION_NAMES = frozenset({
    "cache_key", "cache_digest", "digest_for_key", "entry_to_json",
})
SINK_METHOD_NAMES = frozenset({"key"})

#: Mutating method names treated as attribute mutations when called on
#: ``owner.attr`` (``self._jobs.pop(...)`` mutates ``self._jobs``).
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "remove", "discard", "clear",
    "update", "setdefault", "pop", "popitem",
})

#: Functions exempt from SIM013: they run before the object is shared
#: (construction happens-before publication).
_INIT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def _dep_key(dep: Dep) -> str:
    return json.dumps(dep, sort_keys=True)


def merge_deps(*sets: Sequence[Dep]) -> DepSet:
    """Union of dependency sets, deduplicated, canonically ordered."""
    out: Dict[str, Dep] = {}
    for deps in sets:
        for dep in deps:
            out[_dep_key(dep)] = dep
    return [out[key] for key in sorted(out)]


def module_dots(path: str) -> str:
    """Dotted module path derived from a file path.

    ``src/repro/sim/config.py`` becomes ``src.repro.sim.config``; the
    link phase matches import targets against it by *suffix*, so the
    ``src.`` (or any tmp-dir) prefix never has to be configured.
    """
    norm = path.replace("\\", "/")
    if norm.endswith(".py"):
        norm = norm[:-3]
    parts = [p for p in norm.split("/") if p not in ("", ".", "..")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def dotted_parts(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _annotation_text(node: Optional[ast.expr]) -> Optional[str]:
    """Simple dotted annotation (``Job``, ``jobs.Job``), else None.

    Container annotations (``List[Job]``, ``Optional[Job]``) describe a
    wrapper, not the object itself, so they deliberately resolve to
    nothing rather than mis-typing the variable.
    """
    if node is None:
        return None
    parts = dotted_parts(node)
    return ".".join(parts) if parts else None


def _is_set_like(node: ast.expr) -> bool:
    """Expression whose *iteration order* is interpreter-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        parts = dotted_parts(node.func)
        return parts in (("set",), ("frozenset",))
    return False


def _is_lock_context(node: ast.expr) -> bool:
    """``with <expr>:`` context manager that names a lock."""
    if isinstance(node, ast.Call):
        node = node.func
    parts = dotted_parts(node)
    return bool(parts) and "lock" in parts[-1].lower()


def _marker_on_def(node: ast.ClassDef, source_lines: Sequence[str],
                   marker: str) -> bool:
    body_start = node.body[0].lineno if node.body else node.lineno + 1
    for lineno in range(node.lineno, body_start):
        if 1 <= lineno <= len(source_lines) and marker in source_lines[lineno - 1]:
            return True
    return False


def _collect_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local name -> dotted import target for every top-level import."""
    imports: Dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else ""
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                # Relative import: anchor on this module's package chain.
                anchor = module.split(".")
                anchor = anchor[: max(0, len(anchor) - stmt.level)]
                base = ".".join([*anchor, base] if base else anchor)
            elif not base:
                base = package
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        parts = dotted_parts(target)
        if parts and parts[-1] == "dataclass":
            return True
    return False


def _class_fields(node: ast.ClassDef) -> List[str]:
    fields: List[str] = []
    for stmt in node.body:
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            ann = stmt.annotation
            base = ann.value if isinstance(ann, ast.Subscript) else ann
            parts = dotted_parts(base)
            if parts and parts[-1] == "ClassVar":
                continue
            fields.append(stmt.target.id)
    return fields


def _parse_excluded_registry(value: ast.expr) -> Optional[Dict[str, str]]:
    """``*_KEY_EXCLUDED`` literal -> {field: reason}, else None."""
    entries: Dict[str, str] = {}
    if isinstance(value, ast.Dict):
        for key, reason in zip(value.keys, value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return None
            text = reason.value if (isinstance(reason, ast.Constant)
                                    and isinstance(reason.value, str)) else ""
            entries[key.value] = text
        return entries
    if isinstance(value, ast.Set):
        for elt in value.elts:
            if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                return None
            entries[elt.value] = ""
        return entries
    if isinstance(value, ast.Call) and _is_set_like(value) and len(value.args) == 1:
        return _parse_excluded_registry(value.args[0])
    return None


class _ModuleContext:
    """Shared per-module state handed to every function analyzer."""

    def __init__(self, module: str, path: str, imports: Dict[str, str],
                 module_functions: FrozenSet[str],
                 module_classes: FrozenSet[str],
                 mutations: List[Dict[str, Any]],
                 source_lines: Sequence[str]) -> None:
        self.module = module
        self.path = path
        self.imports = imports
        self.module_functions = module_functions
        self.module_classes = module_classes
        self.mutations = mutations
        self.source_lines = source_lines

    def expand(self, parts: Tuple[str, ...]) -> Tuple[str, ...]:
        """Rewrite the dotted chain's root through the import map."""
        target = self.imports.get(parts[0])
        if target is None:
            return parts
        return tuple(target.split(".")) + parts[1:]

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""


class _FunctionAnalyzer:
    """Straight-line taint walk over one function body."""

    def __init__(self, ctx: _ModuleContext, cls: Optional[str],
                 cls_methods: FrozenSet[str],
                 outer_annotations: Optional[Dict[str, str]] = None) -> None:
        self.ctx = ctx
        self.cls = cls
        self.cls_methods = cls_methods
        self.env: Dict[str, DepSet] = {}
        self.annotations: Dict[str, str] = dict(outer_annotations or {})
        self.ret: DepSet = []
        self.calls: List[Dict[str, Any]] = []
        self.self_reads: Set[str] = set()
        self.self_calls: Set[str] = set()
        self.params: List[str] = []
        self.lock_depth = 0
        self.fn_name = "<lambda>"

    # -- entry ---------------------------------------------------------

    def summarize(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> Summary:
        self.fn_name = node.name
        args = node.args
        for arg in [*args.posonlyargs, *args.args]:
            self.params.append(arg.arg)
            self.env[arg.arg] = [["param", arg.arg]]
            ann = _annotation_text(arg.annotation)
            if ann is not None:
                self.annotations[arg.arg] = ann
        for arg in [*args.kwonlyargs,
                    *([args.vararg] if args.vararg else []),
                    *([args.kwarg] if args.kwarg else [])]:
            self.env[arg.arg] = [["param", arg.arg]]
            ann = _annotation_text(arg.annotation)
            if ann is not None:
                self.annotations[arg.arg] = ann
        for stmt in node.body:
            self.visit_stmt(stmt)
        return {
            "name": node.name,
            "cls": self.cls,
            "lineno": node.lineno,
            "params": self.params,
            "ret": self.ret,
            "calls": self.calls,
            "self_reads": sorted(self.self_reads),
            "self_calls": sorted(self.self_calls),
        }

    # -- statements ----------------------------------------------------

    def visit_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            deps = self.visit_expr(node.value)
            for target in node.targets:
                self.assign_target(target, deps)
        elif isinstance(node, ast.AnnAssign):
            ann = _annotation_text(node.annotation)
            if isinstance(node.target, ast.Name) and ann is not None:
                self.annotations[node.target.id] = ann
            deps = self.visit_expr(node.value) if node.value else []
            self.assign_target(node.target, deps)
        elif isinstance(node, ast.AugAssign):
            deps = self.visit_expr(node.value)
            if isinstance(node.target, ast.Name):
                existing = self.env.get(node.target.id, [])
                self.env[node.target.id] = merge_deps(existing, deps)
            else:
                self.assign_target(node.target, deps)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.ret = merge_deps(self.ret, self.visit_expr(node.value))
        elif isinstance(node, ast.Expr):
            self.visit_expr(node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iter_deps = self.visit_expr(node.iter)
            if _is_set_like(node.iter):
                iter_deps = merge_deps(iter_deps, [[
                    "source", "set-order", node.iter.lineno,
                    "set iteration order is interpreter-dependent",
                ]])
            self.assign_target(node.target, iter_deps)
            for stmt in [*node.body, *node.orelse]:
                self.visit_stmt(stmt)
        elif isinstance(node, ast.While):
            self.visit_expr(node.test)
            for stmt in [*node.body, *node.orelse]:
                self.visit_stmt(stmt)
        elif isinstance(node, ast.If):
            self.visit_expr(node.test)
            for stmt in [*node.body, *node.orelse]:
                self.visit_stmt(stmt)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            locked = any(_is_lock_context(item.context_expr)
                         for item in node.items)
            for item in node.items:
                deps = self.visit_expr(item.context_expr)
                if item.optional_vars is not None:
                    self.assign_target(item.optional_vars, deps)
            if locked:
                self.lock_depth += 1
            for stmt in node.body:
                self.visit_stmt(stmt)
            if locked:
                self.lock_depth -= 1
        elif isinstance(node, ast.Try):
            handlers: List[ast.stmt] = []
            for handler in node.handlers:
                handlers.extend(handler.body)
            for stmt in [*node.body, *handlers, *node.orelse, *node.finalbody]:
                self.visit_stmt(stmt)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self.record_mutation_target(target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested functions (worker callbacks, closures): their taint
            # stays local, but mutations of enclosing annotated objects
            # still count - that is exactly the asyncio/thread boundary
            # SIM013 exists for.
            nested = _FunctionAnalyzer(
                self.ctx, self.cls, self.cls_methods, self.annotations)
            nested.calls = self.calls
            nested.lock_depth = self.lock_depth
            nested.summarize(node)
            self.self_reads |= nested.self_reads
            self.self_calls |= nested.self_calls
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.visit_expr(child)
        elif isinstance(node, (ast.Import, ast.ImportFrom, ast.Global,
                               ast.Nonlocal, ast.Pass, ast.Break,
                               ast.Continue, ast.ClassDef)):
            return
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self.visit_stmt(child)
                elif isinstance(child, ast.expr):
                    self.visit_expr(child)

    def assign_target(self, target: ast.expr, deps: DepSet) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = deps
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign_target(elt, deps)
        elif isinstance(target, ast.Starred):
            self.assign_target(target.value, deps)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self.record_mutation_target(target)

    # -- SIM013 mutation sites ----------------------------------------

    def record_mutation_target(self, target: ast.expr) -> None:
        """Attribute/subscript store -> mutation of ``owner.attr``."""
        node: ast.expr = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            return
        if not isinstance(node.value, ast.Name):
            return
        self.record_mutation(node.value.id, node.attr, target.lineno)

    def record_mutation(self, root: str, attr: str, lineno: int) -> None:
        owner: Optional[Tuple[str, str]] = None
        if root == "self" and self.cls is not None:
            owner = ("self", self.cls)
        elif root in self.annotations:
            owner = ("ann", self.annotations[root])
        if owner is None:
            return
        self.ctx.mutations.append({
            "line": lineno,
            "owner_kind": owner[0],
            "owner": owner[1],
            "attr": attr,
            "locked": self.lock_depth > 0,
            "func": self.fn_name,
            "is_init": self.fn_name in _INIT_METHODS,
            "snippet": self.ctx.snippet(lineno),
        })

    # -- expressions ---------------------------------------------------

    def visit_expr(self, node: Optional[ast.expr]) -> DepSet:
        if node is None:
            return []
        if isinstance(node, ast.Name):
            return self.env.get(node.id, [])
        if isinstance(node, ast.Attribute):
            inner: ast.expr = node
            while isinstance(inner, ast.Attribute):
                if isinstance(inner.value, ast.Name) and inner.value.id == "self":
                    if self.cls is not None:
                        self.self_reads.add(inner.attr)
                inner = inner.value
            return self.visit_expr(node.value)
        if isinstance(node, ast.Call):
            return self.visit_call(node)
        if isinstance(node, ast.Subscript):
            parts = dotted_parts(node.value)
            if parts is not None and self.ctx.expand(parts)[-2:] == ("os", "environ"):
                return [["source", "environ", node.lineno,
                         "os.environ read couples the value to the host"]]
            return merge_deps(self.visit_expr(node.value),
                              self.visit_expr(node.slice))
        if isinstance(node, ast.NamedExpr):
            deps = self.visit_expr(node.value)
            self.env[node.target.id] = deps
            return deps
        if isinstance(node, ast.Lambda):
            return []
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            out: DepSet = []
            for gen in node.generators:
                iter_deps = self.visit_expr(gen.iter)
                if _is_set_like(gen.iter):
                    iter_deps = merge_deps(iter_deps, [[
                        "source", "set-order", gen.iter.lineno,
                        "set iteration order is interpreter-dependent",
                    ]])
                self.assign_target(gen.target, iter_deps)
                out = merge_deps(out, iter_deps,
                                 *[self.visit_expr(c) for c in gen.ifs])
            if isinstance(node, ast.DictComp):
                out = merge_deps(out, self.visit_expr(node.key),
                                 self.visit_expr(node.value))
            else:
                out = merge_deps(out, self.visit_expr(node.elt))
            return out
        if isinstance(node, ast.Constant):
            return []
        children = [child for child in ast.iter_child_nodes(node)
                    if isinstance(child, ast.expr)]
        return merge_deps(*[self.visit_expr(child) for child in children])

    # -- calls ---------------------------------------------------------

    def visit_call(self, node: ast.Call) -> DepSet:
        parts = dotted_parts(node.func)
        func_deps = [] if parts is not None else self.visit_expr(node.func)
        arg_sets: Dict[str, DepSet] = {}
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                arg_sets[f"*{index}"] = self.visit_expr(arg.value)
            else:
                arg_sets[str(index)] = self.visit_expr(arg)
        for keyword in node.keywords:
            key = keyword.arg if keyword.arg is not None else "**"
            arg_sets[key] = merge_deps(arg_sets.get(key, []),
                                       self.visit_expr(keyword.value))
        if parts is not None and len(parts) == 3 and parts[2] in _MUTATOR_METHODS:
            # ``owner.attr.append(...)`` mutates ``owner.attr``.
            self.record_mutation(parts[0], parts[1], node.lineno)
        if parts is not None:
            source = self.source_for_call(node, self.ctx.expand(parts))
            if source is not None:
                return [source]
            if len(parts) == 1 and parts[0] in ORDER_SANITIZERS:
                merged = merge_deps(func_deps, *arg_sets.values())
                return [dep for dep in merged
                        if not (dep[0] == "source" and dep[1] == "set-order")]
            if parts in (("list",), ("tuple",)) and any(
                    _is_set_like(arg) for arg in node.args):
                return merge_deps(
                    [["source", "set-order", node.lineno,
                      f"{parts[0]}() over a set materialises "
                      "interpreter-dependent order"]],
                    *arg_sets.values())
        callee = self.resolve_call(parts, node)
        self.calls.append({
            "callee": callee,
            "line": node.lineno,
            "args": arg_sets,
            "text": ".".join(parts) if parts else "<dynamic>",
        })
        if callee is not None:
            return [["call", callee, node.lineno, arg_sets,
                     ".".join(parts) if parts else "<dynamic>"]]
        return merge_deps(func_deps, *arg_sets.values())

    def source_for_call(self, node: ast.Call,
                        parts: Tuple[str, ...]) -> Optional[Dep]:
        line = node.lineno
        if parts == ("hash",):
            return ["source", "hash", line,
                    "hash() is randomized per interpreter process "
                    "(PYTHONHASHSEED)"]
        if parts == ("id",):
            return ["source", "id", line,
                    "id() depends on allocation addresses"]
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] in GLOBAL_RANDOM_FUNCTIONS:
                return ["source", "random", line,
                        f"random.{parts[1]}() draws from the shared "
                        "module-global generator"]
            if parts[1] == "Random" and not node.args and not node.keywords:
                return ["source", "random", line,
                        "random.Random() without a seed is seeded from "
                        "the OS entropy pool"]
        if len(parts) >= 2 and (parts[-2], parts[-1]) in WALL_CLOCK_CALLS:
            return ["source", "wall-clock", line,
                    f"{'.'.join(parts)}() reads the host wall clock"]
        if parts == ("os", "getenv") or parts[-3:] == ("os", "environ", "get"):
            return ["source", "environ", line,
                    "os.environ read couples the value to the host"]
        return None

    def resolve_call(self, parts: Optional[Tuple[str, ...]],
                     node: ast.Call) -> Optional[str]:
        if parts is None:
            return None
        if len(parts) == 1:
            name = parts[0]
            if name in self.ctx.module_functions:
                return f"q:{self.ctx.module}:{name}"
            target = self.ctx.imports.get(name)
            if target is not None:
                return f"r:{target}"
            return None
        root = parts[0]
        if root == "self" and self.cls is not None:
            # ``self.faults.key()`` reads ``self.faults`` even though the
            # call itself is dispatched on the attribute's value.
            self.self_reads.add(parts[1])
            if len(parts) != 2:
                return None
            self.self_calls.add(parts[1])
            if parts[1] in self.cls_methods:
                return f"q:{self.ctx.module}:{self.cls}.{parts[1]}"
            return None
        if root in self.annotations and len(parts) == 2:
            type_ref = self.annotations[root]
            type_ref = self.ctx.imports.get(type_ref, type_ref)
            if type_ref in self.ctx.module_classes:
                type_ref = f"{self.ctx.module}.{type_ref}"
            return f"m:{type_ref}:{parts[1]}"
        if root in self.ctx.module_classes and len(parts) == 2:
            return f"q:{self.ctx.module}:{root}.{parts[1]}"
        if root in self.ctx.imports:
            expanded = self.ctx.expand(parts)
            return "r:" + ".".join(expanded)
        return None


def build_module_summary(path: str, tree: ast.Module,
                         source_lines: Sequence[str]) -> Summary:
    """Extract one file's contribution to the project analysis."""
    module = module_dots(path)
    imports = _collect_imports(tree, module)
    module_functions = frozenset(
        stmt.name for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)))
    module_classes = frozenset(
        stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef))
    mutations: List[Dict[str, Any]] = []
    ctx = _ModuleContext(module, path, imports, module_functions,
                         module_classes, mutations, source_lines)

    functions: Dict[str, Summary] = {}
    classes: Dict[str, Summary] = {}
    excluded: Dict[str, Dict[str, Any]] = {}

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyzer = _FunctionAnalyzer(ctx, None, frozenset())
            functions[f"{module}:{stmt.name}"] = analyzer.summarize(stmt)
        elif isinstance(stmt, ast.ClassDef):
            methods = frozenset(
                sub.name for sub in stmt.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)))
            identity = ("cache_key" if "cache_key" in methods
                        else "key" if "key" in methods else None)
            key_methods = [method for method in (identity, "warm_key")
                           if method is not None and method in methods]
            classes[stmt.name] = {
                "name": stmt.name,
                "lineno": stmt.lineno,
                "dataclass": _is_dataclass_decorated(stmt),
                "fields": _class_fields(stmt),
                "methods": sorted(methods),
                "key_methods": key_methods,
                "thread_shared": _marker_on_def(
                    stmt, source_lines, THREAD_SHARED_MARKER),
            }
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    analyzer = _FunctionAnalyzer(ctx, stmt.name, methods)
                    qualname = f"{module}:{stmt.name}.{sub.name}"
                    functions[qualname] = analyzer.summarize(sub)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            registries = set(KEY_REGISTRIES.values()).intersection(names)
            if registries and stmt.value is not None:
                entries = _parse_excluded_registry(stmt.value)
                if entries is not None:
                    for registry in registries:
                        excluded[registry] = {"entries": entries,
                                              "line": stmt.lineno}

    return {
        "path": path,
        "module": module,
        "functions": functions,
        "classes": classes,
        "mutations": mutations,
        "excluded": excluded,
    }
