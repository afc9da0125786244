"""Project-wide call graph over the ``repro`` package.

This is the substrate of the interprocedural charge-flow analyzer
(:mod:`repro.sanitize.chargeflow`).  It parses every module under a
package root, records one :class:`FunctionInfo` per *top-level* function
or method --- nested ``def``\\ s and ``lambda``\\ s are folded into their
enclosing top-level function, because a closure's charges execute (and
must be accounted) as part of the enclosing kernel --- and resolves call
sites to candidate callees:

* bare names through the module scope (local functions, classes,
  ``from x import y`` aliases),
* ``self.method(...)`` through the defining class (falling back to a
  union over all project classes),
* ``obj.method(...)`` where ``obj``'s type is unknown: a *may-call* union
  over every project class that defines ``method`` (sound for the
  may-charge analysis built on top),
* ``module.attr(...)`` through import aliases,
* ``ClassName(...)`` to the class's ``__init__``.

Everything is static and deterministic: files are visited in sorted
order and no hashing of object identities is involved.  An ``overlay``
mapping lets tests analyze mutated sources without touching disk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .parlint import Finding

#: The real charge methods of :class:`repro.parallel.runtime.CostTracker`.
TRACKER_CHARGE_METHODS = frozenset({
    "add_work", "add_work_int", "add_work_frac_repeated",
    "add_work_sequence", "add_span", "add_span_sequence",
    "task_span", "add_round", "add_atomic", "add_contention", "add_cliques",
    "add_probes", "add_comm", "access", "access_sequence",
})

#: Aliases that charge the same counter; summaries compare normalized names.
NORMALIZED_METHOD = {
    "add_work_int": "add_work",
    "add_work_frac_repeated": "add_work",
    "add_work_sequence": "add_work",
    "add_span_sequence": "add_span",
    "task_span": "add_span",
    "access_sequence": "access",
}

#: Marker effect for a tracker handed to code outside the project (assumed
#: to charge *something*).
EXTERNAL_EFFECT = "@external"

#: NumPy entry points that do O(n) bulk work in one call (PAR005: such a
#: call in an engine kernel with no charge anywhere in the kernel means
#: the simulated machine believes the work is free).
NUMPY_BULK_OPS = frozenset({
    "add", "subtract", "maximum", "minimum", "logical_and", "logical_or",
    "logical_not", "where", "nonzero", "flatnonzero", "argsort", "sort",
    "lexsort", "searchsorted", "unique", "bincount", "cumsum", "cumprod",
    "repeat", "take", "concatenate", "split", "diff", "isin", "in1d",
    "clip", "count_nonzero", "full", "zeros", "ones", "empty", "arange",
    "zeros_like", "ones_like", "empty_like", "full_like", "copyto",
    "putmask", "choose", "compress", "extract", "packbits", "unpackbits",
})


#: Method names shared with the builtin containers/str/bytes (``append``,
#: ``update``, ``get``, all dunders, ...).  The unknown-receiver may-call
#: union is NOT applied to these: ``self._labels.append(...)`` almost
#: always means a list, and unioning it with a project class's ``append``
#: would smear that class's charges over the whole graph.
_CONTAINER_METHODS = frozenset(
    dir(list) + dir(dict) + dir(set) + dir(tuple) + dir(str) + dir(bytes))

#: Builtins that never charge a tracker handed to them (``getattr(tracker,
#: "race_detector", None)`` is introspection, not an escape to unknown
#: charging code).
_NEUTRAL_BUILTINS = frozenset({
    "getattr", "hasattr", "setattr", "delattr", "isinstance", "issubclass",
    "len", "repr", "str", "int", "float", "bool", "print", "id", "type",
    "max", "min", "sum", "abs", "sorted", "reversed", "enumerate", "zip",
    "map", "filter", "iter", "next", "vars", "format", "list", "dict",
    "set", "tuple", "frozenset",
})


def normalize_method(attr: str) -> str:
    return NORMALIZED_METHOD.get(attr, attr)


@dataclass(frozen=True)
class ChargeCall:
    """A lexical ``<recv>.<charge-method>(...)`` call inside a function."""

    attr: str           # the raw method name (e.g. ``add_work_int``)
    norm: str           # normalized counter name (e.g. ``add_work``)
    lineno: int
    col: int
    conditional: bool   # receiver rooted at the function's ``tracker`` param


@dataclass
class CallSite:
    """One call expression, resolved to zero or more project callees."""

    lineno: int
    col: int
    callee_display: str          # bare name for messages
    targets: tuple[str, ...]     # candidate callee qualnames (may-call)
    passes_tracker: bool         # a tracker is among the arguments
    pass_conditional: bool       # the passed tracker is the caller's param
    #: set post-fixpoint by the summary layer: this site provably charges
    charges: bool = False
    charges_workspan: bool = False


@dataclass
class FunctionInfo:
    """One top-level function or method, nested defs folded in."""

    qualname: str
    module: str
    name: str
    node: ast.AST
    path: str
    lineno: int
    class_name: str | None = None
    params: tuple[str, ...] = ()
    mentions_tracker: bool = False
    charge_calls: list[ChargeCall] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)
    bulk_ops: list[tuple[str, int, int]] = field(default_factory=list)
    #: (start, end) line spans of ``with *.phase(...)`` / ``*.parallel(...)``
    phase_spans: list[tuple[int, int]] = field(default_factory=list)
    #: the function opens a literal ``.phase(...)`` (not just a parallel
    #: region) --- only such orchestrators are subject to PAR008
    has_phase: bool = False
    #: line spans of nested ``def`` / ``lambda`` bodies (definition points,
    #: not execution points --- excluded from PAR008's lexical scan)
    nested_spans: list[tuple[int, int]] = field(default_factory=list)

    @property
    def has_tracker_param(self) -> bool:
        return "tracker" in self.params

    @property
    def opens_phase(self) -> bool:
        return self.has_phase


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    source: str
    #: local name -> dotted import target (``np`` -> ``numpy``)
    imports: dict[str, str] = field(default_factory=dict)
    #: local name -> project qualname (functions and classes of this module)
    scope: dict[str, str] = field(default_factory=dict)
    numpy_aliases: set[str] = field(default_factory=set)
    #: module-level dict literals of names: ``AGGREGATORS = {"dense":
    #: DenseAggregator, ...}`` --- used to resolve ``TABLE[key](...)``
    dispatch: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class Project:
    package: str
    root: str
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class qualname -> {method name -> function qualname}
    classes: dict[str, dict[str, str]] = field(default_factory=dict)
    #: bare method name -> sorted tuple of function qualnames (all classes)
    methods_by_name: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: one ``IOERR`` / ``SYNTAX`` finding per file that could not be read
    #: or parsed (kept out of ``modules``, so one bad file cannot hide the
    #: findings of the rest)
    unparsed: list[Finding] = field(default_factory=list)

    def functions_of_module(self, module: str) -> list[FunctionInfo]:
        return [fn for fn in self.functions.values() if fn.module == module]


def _module_name(file: Path, root: Path, package: str) -> str:
    rel = file.relative_to(root)
    parts = (package,) + rel.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _receiver_root(expr: ast.expr) -> str | None:
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _attr_chain(expr: ast.expr) -> list[str] | None:
    """``np.add.at`` -> ``["np", "add", "at"]`` (None if not a pure chain)."""
    chain: list[str] = []
    while isinstance(expr, ast.Attribute):
        chain.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        chain.append(expr.id)
        return list(reversed(chain))
    return None


def _passes_tracker(call: ast.Call) -> tuple[bool, bool]:
    """(passes a tracker, the passed tracker is the bare name ``tracker``)."""
    passes = conditional = False
    for arg in call.args:
        if isinstance(arg, ast.Name) and arg.id == "tracker":
            passes = True
            conditional = True
        elif isinstance(arg, ast.Attribute) and arg.attr == "tracker":
            passes = True
    for kw in call.keywords:
        if kw.arg == "tracker" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None):
            passes = True
            if isinstance(kw.value, ast.Name) and kw.value.id == "tracker":
                conditional = True
    return passes, conditional


def _mentions_tracker(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "tracker":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "tracker":
            return True
        if isinstance(sub, ast.arg) and sub.arg == "tracker":
            return True
    return False


class _FunctionWalker:
    """Extracts a :class:`FunctionInfo` from one top-level def (with all
    nested defs / lambdas folded in)."""

    def __init__(self, project: Project, module: ModuleInfo,
                 fn: FunctionInfo) -> None:
        self.project = project
        self.module = module
        self.fn = fn

    def walk(self) -> None:
        node = self.fn.node
        args = node.args
        self.fn.params = tuple(
            a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs))
        self.fn.mentions_tracker = _mentions_tracker(node)
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)) and sub is not node:
                self.fn.nested_spans.append(
                    (sub.lineno, sub.end_lineno or sub.lineno))
            elif isinstance(sub, ast.With):
                for item in sub.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call) \
                            and isinstance(expr.func, ast.Attribute) \
                            and expr.func.attr in ("phase", "parallel"):
                        self.fn.phase_spans.append(
                            (sub.lineno, sub.end_lineno or sub.lineno))
                        if expr.func.attr == "phase":
                            self.fn.has_phase = True
                        break
            elif isinstance(sub, ast.Call):
                self._visit_call(sub)

    def _visit_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) \
                and func.attr in TRACKER_CHARGE_METHODS:
            root = _receiver_root(func.value)
            conditional = (root == "tracker"
                           and self.fn.has_tracker_param
                           and not isinstance(func.value, ast.Attribute))
            self.fn.charge_calls.append(ChargeCall(
                attr=func.attr, norm=normalize_method(func.attr),
                lineno=call.lineno, col=call.col_offset,
                conditional=conditional))
            return
        passes, pass_conditional = _passes_tracker(call)
        display, targets = self._resolve(func)
        if passes and not targets and isinstance(func, ast.Name) \
                and func.id in _NEUTRAL_BUILTINS \
                and func.id not in self.module.scope:
            passes = False
        if targets or passes:
            self.fn.call_sites.append(CallSite(
                lineno=call.lineno, col=call.col_offset,
                callee_display=display, targets=tuple(sorted(targets)),
                passes_tracker=passes, pass_conditional=pass_conditional))
        self._maybe_bulk_op(call)

    def _maybe_bulk_op(self, call: ast.Call) -> None:
        chain = _attr_chain(call.func)
        if not chain or chain[0] not in self.module.numpy_aliases:
            return
        if len(chain) >= 2 and chain[1] in NUMPY_BULK_OPS:
            self.fn.bulk_ops.append(
                (".".join(chain), call.lineno, call.col_offset))

    # -- callee resolution --------------------------------------------------

    def _resolve(self, func: ast.expr) -> tuple[str, list[str]]:
        if isinstance(func, ast.Name):
            return func.id, self._resolve_scoped(self.module, func.id)
        if isinstance(func, ast.Attribute):
            attr = func.attr
            value = func.value
            if isinstance(value, ast.Name):
                if value.id == "self" and self.fn.class_name is not None:
                    cls = f"{self.fn.module}.{self.fn.class_name}"
                    method = self.project.classes.get(cls, {}).get(attr)
                    if method is not None:
                        return attr, [method]
                    if attr in _CONTAINER_METHODS:
                        return attr, []
                    return attr, list(
                        self.project.methods_by_name.get(attr, ()))
                scoped = self.module.scope.get(value.id)
                if scoped is not None and scoped in self.project.classes:
                    method = self.project.classes[scoped].get(attr)
                    return attr, [method] if method else []
                target_module = self._imported_module(value.id)
                if target_module is not None:
                    return attr, self._resolve_scoped(target_module, attr)
                if value.id in self.module.numpy_aliases:
                    return attr, []
            # unknown receiver type: may-call union over project classes
            # (except names the builtin containers also have --- those are
            # overwhelmingly list/dict/set operations)
            if attr in _CONTAINER_METHODS:
                return attr, []
            return attr, list(self.project.methods_by_name.get(attr, ()))
        if isinstance(func, ast.Subscript) \
                and isinstance(func.value, ast.Name):
            # dispatch table: TABLE[key](...) where TABLE is a module-level
            # dict literal of class/function names
            values = self.module.dispatch.get(func.value.id)
            if values is not None:
                targets: list[str] = []
                for name in values:
                    targets.extend(self._resolve_scoped(self.module, name))
                return func.value.id, targets
        return "<expr>", []

    def _imported_module(self, name: str) -> ModuleInfo | None:
        dotted = self.module.imports.get(name)
        if dotted is None:
            return None
        return self.project.modules.get(dotted)

    def _resolve_scoped(self, module: ModuleInfo, name: str) -> list[str]:
        qual = module.scope.get(name)
        if qual is None:
            dotted = module.imports.get(name)
            if dotted is not None:
                # ``from x import y`` where y is itself a module
                if dotted in self.project.modules:
                    return []
                head, _, tail = dotted.rpartition(".")
                source = self.project.modules.get(head)
                if source is not None:
                    qual = source.scope.get(tail)
        if qual is None:
            return []
        if qual in self.project.classes:
            # A class without an explicit __init__ (dataclass, plain
            # record) is a resolved, charge-free constructor --- the
            # synthetic target keeps the site from being treated as a
            # tracker handed to unknown external code.
            init = self.project.classes[qual].get("__init__")
            return [init if init else f"{qual}.__init__"]
        if qual in self.project.functions:
            return [qual]
        return []


def _collect_imports(module: ModuleInfo, package: str) -> None:
    pkg_parts = module.name.split(".")
    # the package a relative import is resolved against
    if module.path.endswith("__init__.py"):
        base_parts = pkg_parts
    else:
        base_parts = pkg_parts[:-1]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.partition(".")[0]
                module.imports[bound] = target
                if target == "numpy" or alias.name == "numpy":
                    module.numpy_aliases.add(bound)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                stem = base_parts[:len(base_parts) - (node.level - 1)]
            else:
                stem = []
            prefix = ".".join(stem + ([node.module] if node.module else []))
            if not node.level:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.imports[bound] = (
                    f"{prefix}.{alias.name}" if prefix else alias.name)
                if module.imports[bound] == "numpy":
                    module.numpy_aliases.add(bound)


def _collect_definitions(project: Project, module: ModuleInfo) -> None:
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and isinstance(stmt.value, ast.Dict):
            names = [v.id for v in stmt.value.values
                     if isinstance(v, ast.Name)]
            if names and len(names) == len(stmt.value.values):
                module.dispatch[stmt.targets[0].id] = names
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{module.name}.{stmt.name}"
            module.scope[stmt.name] = qual
            project.functions[qual] = FunctionInfo(
                qualname=qual, module=module.name, name=stmt.name,
                node=stmt, path=module.path, lineno=stmt.lineno)
        elif isinstance(stmt, ast.ClassDef):
            cls_qual = f"{module.name}.{stmt.name}"
            module.scope[stmt.name] = cls_qual
            methods: dict[str, str] = {}
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{cls_qual}.{sub.name}"
                    methods[sub.name] = qual
                    project.functions[qual] = FunctionInfo(
                        qualname=qual, module=module.name, name=sub.name,
                        node=sub, path=module.path, lineno=sub.lineno,
                        class_name=stmt.name)
            project.classes[cls_qual] = methods


def _link_scopes(project: Project) -> None:
    """Resolve ``from x import y`` names in each module's scope to project
    qualnames, once all modules are parsed.  Runs to a fixpoint because
    re-export chains (``from .racecheck import x`` in an ``__init__``,
    then ``from ..sanitize import x`` elsewhere) resolve in dependency
    order regardless of file-name order."""
    changed = True
    while changed:
        changed = False
        for module in project.modules.values():
            for bound, dotted in module.imports.items():
                if bound in module.scope:
                    continue
                if dotted in project.modules:
                    continue  # module import; resolved per-attribute
                head, _, tail = dotted.rpartition(".")
                source = project.modules.get(head)
                if source is not None and tail in source.scope:
                    module.scope[bound] = source.scope[tail]
                    changed = True


def build_project(root: str | Path,
                  overlay: dict[str, str] | None = None) -> Project:
    """Parse every ``*.py`` under *root* (a package directory) into a
    :class:`Project`.  *overlay* maps absolute path strings to replacement
    source text, letting tests analyze mutated files without touching
    disk."""
    root = Path(root).resolve()
    package = root.name
    project = Project(package=package, root=str(root))
    overlay = overlay or {}
    for file in sorted(root.rglob("*.py")):
        path = str(file)
        source = overlay.get(path)
        if source is None:
            try:
                source = file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                project.unparsed.append(Finding(
                    "IOERR", path, 0, 0, f"cannot read file: {reason}"))
                continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            project.unparsed.append(Finding(
                "SYNTAX", path, exc.lineno or 0, exc.offset or 0,
                f"syntax error: {exc.msg}"))
            continue
        name = _module_name(file, root, package)
        project.modules[name] = ModuleInfo(
            name=name, path=path, tree=tree, source=source)
    for module in project.modules.values():
        _collect_imports(module, package)
        _collect_definitions(project, module)
    methods: dict[str, set[str]] = {}
    for cls_methods in project.classes.values():
        for name, qual in cls_methods.items():
            methods.setdefault(name, set()).add(qual)
    project.methods_by_name = {
        name: tuple(sorted(quals)) for name, quals in methods.items()}
    _link_scopes(project)
    for module in project.modules.values():
        for fn in project.functions_of_module(module.name):
            _FunctionWalker(project, module, fn).walk()
    return project
