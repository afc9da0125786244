"""Static parallel-effect analyzer (rules PAR009--PAR011).

Locates every ``with tracker.parallel(...)`` region and ``with
region.task():`` body in the analyzed package and computes, per region,
the set of *shared-state accesses* its tasks can perform --- subscript
reads/writes of shadow/numpy arrays, attribute writes, and mutating
method calls on tables/aggregators --- walking interprocedurally through
the same call graph the charge-flow analyzer uses
(:mod:`~repro.sanitize.callgraph`), including closures passed as
callbacks (the ``UPDATE-FUNC`` pattern of Algorithm 2).

Ownership / mediation proofs
----------------------------

A task-side access is considered *safe* when any of these holds:

* **atomic storage** --- the root object is an ``AtomicArray`` or a
  ``ShadowArray`` created with ``atomic=True`` (tracked by a small
  classification lattice flowing through assignments and call bindings);
* **detector instrumentation** --- the access goes through a method whose
  body logs to a race detector (``...detector.log(...)``); those
  addresses are owned by the dynamic layer (:mod:`repro.sanitize
  .racecheck`), so the static analyzer records the call as a *mediated*
  write on the receiver and does not second-guess the body;
* **task-disjointness** --- the subscript index is a pure function of the
  task-loop variables (the *basis*: targets of ``for`` loops that
  enclose the ``region.task()`` block, plus names derived only from
  them), so per-task writes land in disjoint cells.

Anything else is a potential race (**PAR009**).  Atomic accumulations
(fetch-and-add, ``np.add.at`` scatters charged via ``add_atomic``) whose
operand is order-dependent --- contains a division or a non-integral
float --- are deterministic-by-luck only and get **PAR010**.  Regions
with shared writes that no ``RACECHECK_COVERS`` stamp in the test suite
reaches get **PAR011**.

Known, deliberate approximations (documented for rule PAR009):

* the disjointness proof is name-based: a non-injective function of the
  task variable (``t % 2``) is accepted statically and left to the
  dynamic detector;
* values returned from calls are treated as task-private (return-value
  aliasing of shared views is not tracked);
* a parameter bound to an unanalyzable argument expression is treated as
  task-private.

All are *optimistic* only for patterns the dynamic detector covers; the
PAR011 coverage rule is what keeps that bargain honest.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path

from .callgraph import (TRACKER_CHARGE_METHODS, FunctionInfo, ModuleInfo,
                        Project, _attr_chain, _FunctionWalker, _receiver_root)
from .parlint import Finding

# --------------------------------------------------------------------------
# classification lattice for array-like values

CLS_TOP = "unknown"     # no information (treated as non-atomic at checks)
CLS_ATOMIC = "atomic"   # AtomicArray / ShadowArray(atomic=True)
CLS_PLAIN = "plain"     # plain ndarray / ShadowArray(atomic=False)


def _meet(a: str, b: str) -> str:
    """Conservative combine: disagreement (or partial knowledge meeting
    ``atomic``) degrades to ``plain`` --- a value is only *proven* atomic
    when every path says so."""
    return a if a == b else CLS_PLAIN


#: Constructors returning shadow-wrapped arrays; ``atomic`` keyword (or the
#: third positional argument of ``maybe_shadow``) decides the class.
_SHADOW_CTORS = frozenset({"maybe_shadow", "ShadowArray"})
_ATOMIC_CTORS = frozenset({"AtomicArray"})

#: numpy entry points that allocate a fresh (hence classifiable) array.
_ALLOC_ATTRS = frozenset({
    "zeros", "empty", "full", "ones", "array", "asarray", "arange",
    "zeros_like", "ones_like", "empty_like", "full_like", "fromiter",
    "repeat", "concatenate", "where", "sort", "unique", "flatnonzero",
})

#: Unresolved ``obj.<method>()`` names that mutate the receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse", "fill",
    "put", "itemset", "push",
})

#: Receiver names whose methods are runtime bookkeeping, not shared-state
#: effects (charges, region spans, detector logging).
_EXEMPT_RECEIVERS = frozenset({"tracker", "region"})

#: Callables allowed inside a disjointness/basis-purity proof.
_PURE_WRAPPERS = frozenset({"int", "float", "len", "abs", "min", "max"})

_BUILTIN_NAMES = frozenset(dir(builtins))

_MAX_DEPTH = 12


# --------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class Root:
    """A shared object reachable from task code, named by where it was
    bound: ``(enclosing qualname-or-module, name, *attribute path)``."""

    identity: tuple
    cls: str = CLS_TOP

    @property
    def label(self) -> str:
        name = self.identity[1] if len(self.identity) > 1 else self.identity[0]
        return ".".join((name,) + tuple(self.identity[2:]))


@dataclass(frozen=True)
class Access:
    """One read or write of shared state attributed to a source line."""

    identity: tuple
    write: bool
    mediated: bool     # atomic storage or detector-instrumented method
    disjoint: bool     # index proven a pure function of the task basis
    path: str
    lineno: int
    col: int
    label: str


@dataclass
class _Frame:
    """One interprocedural walk frame: name bindings for a function body."""

    fn: FunctionInfo
    module: ModuleInfo
    env: dict = field(default_factory=dict)        # name -> Root (shared)
    basis: set = field(default_factory=set)        # task-loop-derived names
    local: set = field(default_factory=set)        # task/call-private names
    fndefs: dict = field(default_factory=dict)     # name -> nested def node
    callables: dict = field(default_factory=dict)  # name -> callable binding
    reaching: dict = field(default_factory=dict)   # name -> [rhs exprs]


@dataclass
class Region:
    fn: FunctionInfo
    module: ModuleInfo
    node: ast.With
    alias: str | None
    lineno: int


@dataclass
class RegionReport:
    """Registry entry for one parallel region (PAR011 cross-references
    this against the test suite's ``RACECHECK_COVERS`` stamps)."""

    qualname: str
    path: str
    lineno: int
    name: str
    has_shared_writes: bool
    covered: bool = False


@dataclass
class EffectsReport:
    findings: list          # PAR009/PAR010/PAR011 at source-module paths
    regions: list
    stamp_findings: list    # PAR011 diagnostics at test-file paths


# --------------------------------------------------------------------------
# value classification


def _classify_rhs(expr: ast.expr | None, module: ModuleInfo) -> str:
    if not isinstance(expr, ast.Call):
        return CLS_TOP
    func = expr.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name in _SHADOW_CTORS:
        for kw in expr.keywords:
            if kw.arg == "atomic":
                if isinstance(kw.value, ast.Constant):
                    return CLS_ATOMIC if kw.value.value else CLS_PLAIN
                return CLS_TOP
        if len(expr.args) >= 3 and isinstance(expr.args[2], ast.Constant):
            return CLS_ATOMIC if expr.args[2].value else CLS_PLAIN
        return CLS_PLAIN
    if name in _ATOMIC_CTORS:
        return CLS_ATOMIC
    chain = _attr_chain(func)
    if chain and chain[0] in module.numpy_aliases \
            and chain[-1] in _ALLOC_ATTRS:
        return CLS_PLAIN
    if isinstance(func, ast.Attribute) and func.attr in ("copy", "astype"):
        return CLS_PLAIN
    return CLS_TOP


def _target_names(target: ast.expr) -> set[str]:
    names = set()
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            names |= _target_names(elt)
    elif isinstance(target, ast.Starred):
        names |= _target_names(target.value)
    return names


def _param_classes(project: Project) -> dict[tuple[str, str], str]:
    """Per-(function, parameter) storage class, propagated from every
    resolvable call site (one level of param-to-param flow, run to a
    small fixpoint).  Arguments that cannot be classified are treated as
    ``plain`` --- proofs must be positive."""
    local_cls: dict[str, dict[str, str]] = {}
    for qual in sorted(project.functions):
        fn = project.functions[qual]
        module = project.modules.get(fn.module)
        env: dict[str, str] = {}
        if module is not None:
            for sub in ast.walk(fn.node):
                if isinstance(sub, (ast.Assign, ast.AnnAssign)) \
                        and getattr(sub, "value", None) is not None:
                    cls = _classify_rhs(sub.value, module)
                    targets = sub.targets if isinstance(sub, ast.Assign) \
                        else [sub.target]
                    for t in targets:
                        for name in _target_names(t):
                            env[name] = _meet(env[name], cls) \
                                if name in env else cls
        local_cls[qual] = env

    edges: list[tuple[str, str, str, object]] = []
    for qual in sorted(project.functions):
        fn = project.functions[qual]
        module = project.modules.get(fn.module)
        if module is None:
            continue
        walker = _FunctionWalker(project, module, fn)
        for call in ast.walk(fn.node):
            if not isinstance(call, ast.Call):
                continue
            _, targets = walker._resolve(call.func)
            for tq in sorted(targets):
                callee = project.functions.get(tq)
                if callee is None:
                    continue
                params = list(callee.params)
                if callee.class_name and params \
                        and params[0] in ("self", "cls"):
                    params = params[1:]
                pairs = list(zip(params, call.args))
                pairs += [(kw.arg, kw.value) for kw in call.keywords
                          if kw.arg and kw.arg in callee.params]
                for pname, arg in pairs:
                    if isinstance(arg, ast.Name):
                        cls = local_cls[qual].get(arg.id)
                        if cls is not None and cls != CLS_TOP:
                            edges.append((tq, pname, "cls", cls))
                        elif arg.id in fn.params:
                            edges.append((tq, pname, "param", (qual, arg.id)))
                        else:
                            edges.append((tq, pname, "cls", CLS_PLAIN))
                    else:
                        cls = _classify_rhs(arg, module)
                        edges.append((tq, pname, "cls",
                                      cls if cls != CLS_TOP else CLS_PLAIN))

    classes: dict[tuple[str, str], str] = {}
    for _ in range(8):
        changed = False
        for tq, pname, kind, payload in edges:
            cls = payload if kind == "cls" \
                else classes.get(payload, CLS_PLAIN)
            key = (tq, pname)
            prev = classes.get(key)
            new = cls if prev is None else _meet(prev, cls)
            if new != prev:
                classes[key] = new
                changed = True
        if not changed:
            break
    return classes


# --------------------------------------------------------------------------
# the analyzer


class _EffectAnalyzer:
    def __init__(self, project: Project) -> None:
        self.project = project
        self.param_classes = _param_classes(project)
        self.findings: list[Finding] = []
        self.regions: list[RegionReport] = []
        self._stack: list[str] = []
        self._instrumented: dict[str, bool] = {}
        self._accumulator: dict[str, bool] = {}
        self._walkers: dict[str, _FunctionWalker] = {}
        self._seen_010: set[tuple] = set()
        self._seen_009: set[tuple] = set()

    # -- entry ------------------------------------------------------------

    def run(self) -> None:
        for qual in sorted(self.project.functions):
            fn = self.project.functions[qual]
            module = self.project.modules.get(fn.module)
            if module is None:
                continue
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.With):
                    continue
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call) \
                            and isinstance(expr.func, ast.Attribute) \
                            and expr.func.attr == "parallel":
                        alias = None
                        if isinstance(item.optional_vars, ast.Name):
                            alias = item.optional_vars.id
                        self._analyze_region(Region(
                            fn=fn, module=module, node=node, alias=alias,
                            lineno=node.lineno))
                        break
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    def _analyze_region(self, region: Region) -> None:
        frame = self._region_frame(region)
        task_acc: list[Access] = []
        serial_acc: list[Access] = []
        self._stack = []
        self._region = region
        self._task_sink = task_acc
        self._serial_sink = serial_acc
        for stmt in region.node.body:
            self._stmt(stmt, frame, in_task=False)
        self._par009(region, task_acc)
        has_writes = any(a.write for a in task_acc + serial_acc)
        self.regions.append(RegionReport(
            qualname=region.fn.qualname, path=region.module.path,
            lineno=region.lineno, name=region.fn.name,
            has_shared_writes=has_writes))

    def _region_frame(self, region: Region) -> _Frame:
        fn, module = region.fn, region.module
        frame = _Frame(fn=fn, module=module)
        for p in fn.params:
            frame.env[p] = Root(
                (fn.qualname, p),
                self.param_classes.get((fn.qualname, p), CLS_TOP))
        for sub in ast.walk(fn.node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)) \
                    and getattr(sub, "value", None) is not None:
                cls = _classify_rhs(sub.value, module)
                targets = sub.targets if isinstance(sub, ast.Assign) \
                    else [sub.target]
                for t in targets:
                    for name in _target_names(t):
                        prev = frame.env.get(name)
                        if prev is None:
                            frame.env[name] = Root((fn.qualname, name), cls)
                        else:
                            frame.env[name] = Root(
                                prev.identity, _meet(prev.cls, cls))
                        frame.reaching.setdefault(name, []).append(sub.value)
            elif isinstance(sub, ast.AugAssign) \
                    and isinstance(sub.target, ast.Name):
                frame.reaching.setdefault(
                    sub.target.id, []).append(sub.value)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and sub is not fn.node:
                frame.fndefs[sub.name] = sub
        return frame

    def _callee_frame(self, callee: FunctionInfo,
                      module: ModuleInfo) -> _Frame:
        frame = _Frame(fn=callee, module=module)
        for sub in ast.walk(callee.node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)) \
                    and getattr(sub, "value", None) is not None:
                targets = sub.targets if isinstance(sub, ast.Assign) \
                    else [sub.target]
                for t in targets:
                    for name in _target_names(t):
                        frame.reaching.setdefault(
                            name, []).append(sub.value)
            elif isinstance(sub, ast.AugAssign) \
                    and isinstance(sub.target, ast.Name):
                frame.reaching.setdefault(
                    sub.target.id, []).append(sub.value)
        return frame

    # -- statements -------------------------------------------------------

    def _stmt(self, stmt: ast.stmt, frame: _Frame, in_task: bool) -> None:
        if isinstance(stmt, ast.With):
            if not in_task and self._is_task_with(stmt):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        frame.local |= _target_names(item.optional_vars)
                for sub in stmt.body:
                    self._stmt(sub, frame, in_task=True)
                return
            for item in stmt.items:
                self._expr(item.context_expr, frame, in_task)
                if item.optional_vars is not None:
                    frame.local |= _target_names(item.optional_vars)
            for sub in stmt.body:
                self._stmt(sub, frame, in_task)
        elif isinstance(stmt, ast.For):
            self._expr(stmt.iter, frame, in_task)
            names = _target_names(stmt.target)
            if not in_task and self._contains_task(stmt):
                added = names - frame.basis
                frame.basis |= names
                for sub in stmt.body + stmt.orelse:
                    self._stmt(sub, frame, in_task)
                frame.basis -= added
                frame.local |= names
            else:
                frame.local |= names
                for sub in stmt.body + stmt.orelse:
                    self._stmt(sub, frame, in_task)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assign(stmt, frame, in_task)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value, frame, in_task)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test, frame, in_task)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub, frame, in_task)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test, frame, in_task)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub, frame, in_task)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body + stmt.orelse + stmt.finalbody:
                self._stmt(sub, frame, in_task)
            for handler in stmt.handlers:
                if handler.name:
                    frame.local.add(handler.name)
                for sub in handler.body:
                    self._stmt(sub, frame, in_task)
        elif isinstance(stmt, ast.Return):
            self._expr(stmt.value, frame, in_task)
        elif isinstance(stmt, ast.Raise):
            self._expr(stmt.exc, frame, in_task)
            self._expr(stmt.cause, frame, in_task)
        elif isinstance(stmt, ast.Assert):
            self._expr(stmt.test, frame, in_task)
            self._expr(stmt.msg, frame, in_task)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            frame.fndefs[stmt.name] = stmt
            frame.local.add(stmt.name)
        # Pass/Break/Continue/Global/Nonlocal/Import/Delete: no effects

    def _assign(self, stmt: ast.stmt, frame: _Frame, in_task: bool) -> None:
        value = getattr(stmt, "value", None)
        if value is not None:
            self._expr(value, frame, in_task)
        aug = isinstance(stmt, ast.AugAssign)
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for target in targets:
            self._assign_target(target, value, aug, frame, in_task)

    def _assign_target(self, target: ast.expr, value: ast.expr | None,
                       aug: bool, frame: _Frame, in_task: bool) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            if aug:
                root = self._name_root(name, frame)
                if root is not None:
                    self._record(root, frame, target, write=True,
                                 disjoint=False, in_task=in_task)
                return
            self._bind_name(name, value, frame)
        elif isinstance(target, ast.Subscript):
            self._expr(target.slice, frame, in_task)
            self._expr(target.value, frame, in_task)
            root = self._expr_root(target.value, frame)
            if root is not None:
                disjoint = in_task and \
                    self._index_disjoint(target.slice, frame)
                self._record(root, frame, target, write=True,
                             disjoint=disjoint, in_task=in_task)
                if aug:
                    self._record(root, frame, target, write=False,
                                 disjoint=disjoint, in_task=in_task)
        elif isinstance(target, ast.Attribute):
            root = self._expr_root(target.value, frame)
            if root is not None:
                derived = Root(root.identity + (target.attr,), CLS_TOP)
                self._record(derived, frame, target, write=True,
                             disjoint=False, in_task=in_task)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, None, aug, frame, in_task)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, None, aug, frame, in_task)

    def _bind_name(self, name: str, value: ast.expr | None,
                   frame: _Frame) -> None:
        frame.env.pop(name, None)
        frame.basis.discard(name)
        frame.local.discard(name)
        frame.callables.pop(name, None)
        if isinstance(value, ast.Name):
            src = value.id
            if src in frame.callables:
                frame.callables[name] = frame.callables[src]
            elif src in frame.fndefs:
                frame.callables[name] = ("closure", frame.fndefs[src], frame)
            elif src in frame.basis:
                frame.basis.add(name)
            elif src in frame.env and src not in frame.local:
                frame.env[name] = frame.env[src]
            else:
                frame.local.add(name)
            return
        if isinstance(value, ast.Lambda):
            frame.fndefs[name] = value
            frame.local.add(name)
            return
        if value is not None and self._is_basis_pure(value, frame):
            frame.basis.add(name)
            return
        frame.local.add(name)

    # -- expressions ------------------------------------------------------

    def _expr(self, expr: ast.expr | None, frame: _Frame,
              in_task: bool) -> None:
        if expr is None or isinstance(expr, (ast.Constant, ast.Name)):
            return
        if isinstance(expr, ast.Call):
            self._call(expr, frame, in_task)
            return
        if isinstance(expr, ast.Subscript):
            self._expr(expr.value, frame, in_task)
            self._expr(expr.slice, frame, in_task)
            root = self._expr_root(expr.value, frame)
            if root is not None:
                disjoint = in_task and \
                    self._index_disjoint(expr.slice, frame)
                self._record(root, frame, expr, write=False,
                             disjoint=disjoint, in_task=in_task)
            return
        if isinstance(expr, (ast.Lambda,)):
            return  # walked when invoked through a callable binding
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for gen in expr.generators:
                self._expr(gen.iter, frame, in_task)
                frame.local |= _target_names(gen.target)
                for cond in gen.ifs:
                    self._expr(cond, frame, in_task)
            if isinstance(expr, ast.DictComp):
                self._expr(expr.key, frame, in_task)
                self._expr(expr.value, frame, in_task)
            else:
                self._expr(expr.elt, frame, in_task)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._expr(child, frame, in_task)

    def _call(self, call: ast.Call, frame: _Frame, in_task: bool) -> None:
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                self._expr(arg.value, frame, in_task)
            elif not isinstance(arg, ast.Lambda):
                self._expr(arg, frame, in_task)
        for kw in call.keywords:
            if not isinstance(kw.value, ast.Lambda):
                self._expr(kw.value, frame, in_task)

        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in TRACKER_CHARGE_METHODS:
                return
            chain = _attr_chain(func)
            if chain:
                if any(part in _EXEMPT_RECEIVERS or "detector" in part
                       for part in chain[:-1]):
                    return
                if chain[0] in frame.module.numpy_aliases:
                    if chain[-2:] == ["add", "at"] and len(call.args) >= 2:
                        root = self._expr_root(call.args[0], frame)
                        if root is not None:
                            disjoint = in_task and self._index_disjoint(
                                call.args[1], frame)
                            self._record(root, frame, call, write=True,
                                         disjoint=disjoint, in_task=in_task)
                    return
            recv = _receiver_root(func.value)
            if recv is not None and self._region.alias is not None \
                    and recv == self._region.alias:
                return

        if isinstance(func, ast.Name):
            binding = frame.callables.get(func.id)
            if binding is None and func.id in frame.fndefs:
                binding = ("closure", frame.fndefs[func.id], frame)
            if binding is not None:
                self._invoke_binding(binding, call, frame, in_task)
                return

        walker = self._walker_for(frame)
        display, targets = walker._resolve(func)
        if targets:
            for tq in sorted(targets):
                callee = self.project.functions.get(tq)
                if callee is None:
                    continue
                self._enter(callee, call, func, display, frame, in_task)
            return
        if isinstance(func, ast.Attribute) \
                and func.attr in _MUTATOR_METHODS:
            root = self._expr_root(func.value, frame)
            if root is not None:
                self._record(root, frame, call, write=True,
                             disjoint=False, in_task=in_task)

    def _enter(self, callee: FunctionInfo, call: ast.Call,
               func: ast.expr, display: str, frame: _Frame,
               in_task: bool) -> None:
        """Resolve one candidate callee: mediation short-circuits first,
        then a full interprocedural descent."""
        if callee.module.endswith(".racecheck"):
            return  # the dynamic layer itself: mediation, not an effect
        recv_root = None
        if isinstance(func, ast.Attribute):
            recv_root = self._expr_root(func.value, frame)
        if self._is_accumulator(callee):
            # Atomic accumulation: race-free by construction, but PAR010
            # still polices operand determinism at every call site.
            self._check_par010(call, display, frame)
            if recv_root is not None:
                self._record(recv_root, frame, call, write=True,
                             disjoint=False, in_task=in_task,
                             mediated=True)
            return
        if self._is_instrumented(callee):
            # The method logs to the race detector: the dynamic layer
            # owns these addresses (static/dynamic division of labor).
            if recv_root is not None:
                self._record(recv_root, frame, call, write=True,
                             disjoint=False, in_task=in_task,
                             mediated=True)
            return
        self._dispatch(callee, call, func, frame, in_task)

    def _dispatch(self, callee: FunctionInfo, call: ast.Call,
                  func: ast.expr, frame: _Frame, in_task: bool) -> None:
        if callee.qualname in self._stack \
                or len(self._stack) >= _MAX_DEPTH:
            return
        cmodule = self.project.modules.get(callee.module)
        if cmodule is None:
            return
        cframe = self._callee_frame(callee, cmodule)
        params = list(callee.params)
        if isinstance(func, ast.Attribute) and callee.class_name \
                and params and params[0] in ("self", "cls"):
            recv_root = self._expr_root(func.value, frame)
            if recv_root is not None:
                cframe.env[params[0]] = recv_root
            else:
                cframe.local.add(params[0])
            params = params[1:]
        pairs = list(zip(params, call.args))
        pairs += [(kw.arg, kw.value) for kw in call.keywords
                  if kw.arg and kw.arg in callee.params]
        for pname, arg in pairs:
            self._bind_param(cframe, pname, arg, frame)
        for p in callee.params:
            if p not in cframe.env and p not in cframe.basis \
                    and p not in cframe.local and p not in cframe.callables:
                cframe.local.add(p)
        self._stack.append(callee.qualname)
        for stmt in callee.node.body:
            self._stmt(stmt, cframe, in_task)
        self._stack.pop()

    def _bind_param(self, cframe: _Frame, pname: str, arg: ast.expr,
                    frame: _Frame) -> None:
        cframe.env.pop(pname, None)
        cframe.basis.discard(pname)
        cframe.local.discard(pname)
        if isinstance(arg, ast.Starred):
            cframe.local.add(pname)
            return
        if isinstance(arg, ast.Name):
            name = arg.id
            if name in frame.callables:
                cframe.callables[pname] = frame.callables[name]
            elif name in frame.fndefs:
                cframe.callables[pname] = ("closure", frame.fndefs[name],
                                           frame)
            elif name in frame.basis:
                cframe.basis.add(pname)
            elif name in frame.local:
                cframe.local.add(pname)
            elif name in frame.env:
                cframe.env[pname] = frame.env[name]
            else:
                target = self._module_callable(name, frame)
                if target is not None:
                    cframe.callables[pname] = ("fn", target)
                else:
                    cframe.local.add(pname)
            return
        if isinstance(arg, ast.Lambda):
            cframe.callables[pname] = ("closure", arg, frame)
            return
        if isinstance(arg, ast.Attribute):
            root = self._expr_root(arg, frame)
            if root is not None:
                cframe.env[pname] = root
            else:
                cframe.local.add(pname)
            return
        if self._is_basis_pure(arg, frame):
            cframe.basis.add(pname)
            return
        cframe.local.add(pname)

    def _invoke_binding(self, binding: tuple, call: ast.Call,
                        frame: _Frame, in_task: bool) -> None:
        if binding[0] == "fn":
            callee = binding[1]
            self._enter(callee, call, call.func, callee.name, frame,
                        in_task)
            return
        _, node, def_frame = binding
        key = f"{def_frame.fn.qualname}:<def@{node.lineno}>"
        if key in self._stack or len(self._stack) >= _MAX_DEPTH:
            return
        cframe = _Frame(
            fn=def_frame.fn, module=def_frame.module,
            env=dict(def_frame.env), basis=set(def_frame.basis),
            local=set(def_frame.local), fndefs=dict(def_frame.fndefs),
            callables=dict(def_frame.callables),
            reaching=def_frame.reaching)
        args = node.args
        params = [a.arg for a in
                  args.posonlyargs + args.args + args.kwonlyargs]
        pairs = list(zip(params, call.args))
        pairs += [(kw.arg, kw.value) for kw in call.keywords
                  if kw.arg and kw.arg in params]
        bound = set()
        for pname, arg in pairs:
            bound.add(pname)
            self._bind_param(cframe, pname, arg, frame)
        for p in params:
            if p not in bound:
                cframe.env.pop(p, None)
                cframe.basis.discard(p)
                cframe.local.add(p)
        self._stack.append(key)
        if isinstance(node, ast.Lambda):
            self._expr(node.body, cframe, in_task)
        else:
            for stmt in node.body:
                self._stmt(stmt, cframe, in_task)
        self._stack.pop()

    # -- roots, bases, proofs ---------------------------------------------

    def _name_root(self, name: str, frame: _Frame) -> Root | None:
        if name in frame.local or name in frame.basis \
                or name in frame.callables or name in frame.fndefs:
            return None
        root = frame.env.get(name)
        if root is not None:
            return root
        if name in _EXEMPT_RECEIVERS or name in _BUILTIN_NAMES:
            return None
        if name in frame.module.scope or name in frame.module.imports:
            return None  # classes / functions / imported modules
        return Root((frame.module.name, name), CLS_TOP)

    def _expr_root(self, expr: ast.expr, frame: _Frame) -> Root | None:
        attrs: list[str] = []
        while isinstance(expr, ast.Attribute):
            attrs.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        root = self._name_root(expr.id, frame)
        if root is None:
            return None
        if attrs:
            attrs.reverse()
            if any("detector" in a or a == "tracker" for a in attrs):
                return None
            return Root(root.identity + tuple(attrs), CLS_TOP)
        return root

    def _scan_index(self, expr: ast.expr) -> tuple[bool, set[str]]:
        """(provable, names): the expression mentions only names, constants,
        arithmetic, and pure wrappers --- no attributes, subscripts, or
        arbitrary calls."""
        names: set[str] = set()
        wrapper_funcs: set[int] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) \
                        and node.func.id in _PURE_WRAPPERS:
                    wrapper_funcs.add(id(node.func))
                else:
                    return False, names
            elif isinstance(node, (ast.Attribute, ast.Subscript)):
                return False, names
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and id(node) not in wrapper_funcs:
                names.add(node.id)
        return True, names

    def _index_disjoint(self, index: ast.expr, frame: _Frame) -> bool:
        parts = index.elts if isinstance(index, ast.Tuple) else [index]
        names: set[str] = set()
        for part in parts:
            if isinstance(part, ast.Slice):
                if part.lower is None and part.upper is None:
                    return False  # full slice: every task touches all cells
                for bound in (part.lower, part.upper, part.step):
                    if bound is None:
                        continue
                    ok, sub = self._scan_index(bound)
                    if not ok:
                        return False
                    names |= sub
            else:
                ok, sub = self._scan_index(part)
                if not ok:
                    return False
                names |= sub
        if not names:
            return False  # constant index: all tasks hit the same cell
        return names <= frame.basis

    def _is_basis_pure(self, expr: ast.expr, frame: _Frame) -> bool:
        ok, names = self._scan_index(expr)
        return ok and bool(names) and names <= frame.basis

    # -- recording and rules ----------------------------------------------

    def _record(self, root: Root, frame: _Frame, node: ast.AST,
                write: bool, disjoint: bool, in_task: bool,
                mediated: bool = False) -> None:
        access = Access(
            identity=root.identity, write=write,
            mediated=mediated or root.cls == CLS_ATOMIC,
            disjoint=disjoint, path=frame.module.path,
            lineno=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0), label=root.label)
        (self._task_sink if in_task else self._serial_sink).append(access)

    def _par009(self, region: Region, accesses: list[Access]) -> None:
        by_identity: dict[tuple, list[Access]] = {}
        for access in accesses:
            by_identity.setdefault(access.identity, []).append(access)
        for identity in sorted(by_identity, key=repr):
            accs = by_identity[identity]
            plain_writes = [a for a in accs if a.write and not a.mediated]
            if not plain_writes:
                continue
            bad = [a for a in plain_writes if not a.disjoint]
            if bad:
                a = min(bad, key=lambda x: (x.path, x.lineno, x.col))
                self._emit_009(region, a,
                               f"task-side write to shared {a.label!r} is "
                               f"not atomic, not detector-instrumented, and "
                               f"not provably task-disjoint; mediate it with "
                               f"an atomic, privatize it, or route it "
                               f"through a per-task buffer")
                continue
            reads = [a for a in accs
                     if not a.write and not a.mediated and not a.disjoint]
            if reads:
                a = min(reads, key=lambda x: (x.path, x.lineno, x.col))
                self._emit_009(region, a,
                               f"task-side read of shared {a.label!r} uses "
                               f"an index that is not a pure function of "
                               f"the task variables while tasks also write "
                               f"it; the read can observe another task's "
                               f"write")

    def _emit_009(self, region: Region, access: Access,
                  message: str) -> None:
        key = (access.path, access.lineno, access.col, access.identity)
        if key in self._seen_009:
            return
        self._seen_009.add(key)
        self.findings.append(Finding(
            "PAR009", access.path, access.lineno, access.col,
            f"potential race in parallel region of "
            f"{region.fn.name!r}: {message}"))

    def _check_par010(self, call: ast.Call, display: str,
                      frame: _Frame) -> None:
        operands = list(call.args) + [kw.value for kw in call.keywords]
        for operand in operands:
            why = self._order_dependent(operand, frame)
            if why is None:
                continue
            key = (frame.module.path, call.lineno, call.col_offset)
            if key in self._seen_010:
                return
            self._seen_010.add(key)
            self.findings.append(Finding(
                "PAR010", frame.module.path, call.lineno,
                call.col_offset,
                f"atomic accumulation {display}() in a parallel region "
                f"takes an order-dependent operand ({why}); float "
                f"addition is not associative, so the accumulated total "
                f"depends on task interleaving --- use integral deltas, "
                f"a deterministic reduction, or re-round downstream and "
                f"waive with a justification"))
            return

    @staticmethod
    def _expr_order_dependent(expr: ast.expr) -> str | None:
        for node in ast.walk(expr):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                return "contains a true division"
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, float) \
                    and node.value != int(node.value):
                return "contains a non-integral float constant"
        return None

    def _order_dependent(self, expr: ast.expr,
                         frame: _Frame) -> str | None:
        why = self._expr_order_dependent(expr)
        if why is not None:
            return why
        for node in ast.walk(expr):
            if not isinstance(node, ast.Name):
                continue
            for definition in frame.reaching.get(node.id, ()):
                why = self._expr_order_dependent(definition)
                if why is not None:
                    computed = why.replace("contains", "is computed with", 1)
                    return f"operand {node.id!r} {computed}"
        return None

    # -- helpers ----------------------------------------------------------

    def _walker_for(self, frame: _Frame) -> _FunctionWalker:
        walker = self._walkers.get(frame.fn.qualname)
        if walker is None:
            walker = _FunctionWalker(self.project, frame.module, frame.fn)
            self._walkers[frame.fn.qualname] = walker
        return walker

    def _is_task_with(self, stmt: ast.With) -> bool:
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call) \
                    and isinstance(expr.func, ast.Attribute) \
                    and expr.func.attr == "task":
                recv = _receiver_root(expr.func.value)
                if self._region.alias is None \
                        or recv in (None, self._region.alias):
                    return True
        return False

    def _contains_task(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.With) and self._is_task_with(sub):
                return True
        return False

    def _is_instrumented(self, fn: FunctionInfo) -> bool:
        cached = self._instrumented.get(fn.qualname)
        if cached is None:
            cached = False
            for sub in ast.walk(fn.node):
                if isinstance(sub, ast.Call) \
                        and isinstance(sub.func, ast.Attribute) \
                        and sub.func.attr == "log":
                    chain = _attr_chain(sub.func)
                    if chain and any("detector" in part
                                     for part in chain[:-1]):
                        cached = True
                        break
            self._instrumented[fn.qualname] = cached
        return cached

    def _is_accumulator(self, fn: FunctionInfo) -> bool:
        cached = self._accumulator.get(fn.qualname)
        if cached is None:
            cached = self._compute_accumulator(fn)
            self._accumulator[fn.qualname] = cached
        return cached

    @staticmethod
    def _compute_accumulator(fn: FunctionInfo) -> bool:
        if "compare_and_swap" in fn.name:
            return False
        if fn.name == "fetch_add":
            return True
        if not any(c.attr == "add_atomic" for c in fn.charge_calls):
            return False
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.AugAssign) \
                    and isinstance(sub.target, ast.Subscript) \
                    and isinstance(sub.op, (ast.Add, ast.Sub)):
                return True
            if isinstance(sub, ast.Call):
                chain = _attr_chain(sub.func)
                if chain and len(chain) >= 3 and chain[-2:] == ["add", "at"]:
                    return True
        return False


# --------------------------------------------------------------------------
# PAR011: coverage stamps


def _collect_stamps(tests_dir: Path,
                    project: Project) -> tuple[list[str], list[Finding]]:
    stamps: list[str] = []
    findings: list[Finding] = []
    for path in sorted(tests_dir.glob("test_*.py")):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
        except (OSError, SyntaxError):
            continue
        for stmt in tree.body:
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "RACECHECK_COVERS"):
                continue
            value = stmt.value
            if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
                elements = value.elts
            elif isinstance(value, ast.Dict):
                elements = [k for k in value.keys if k is not None]
            else:
                elements = []
            for element in elements:
                if not (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)):
                    continue
                qual = element.value
                if qual in project.functions:
                    stamps.append(qual)
                else:
                    findings.append(Finding(
                        "PAR011", str(path), element.lineno,
                        element.col_offset,
                        f"RACECHECK_COVERS names {qual!r}, which is not a "
                        f"known function under the analyzed root; fix the "
                        f"stamp or remove it"))
    return stamps, findings


def is_engine_module(module: ModuleInfo) -> bool:
    """A module whose last name component starts with ``batch`` holds
    batch kernels: PAR005 checks its bulk ops, and the coverage walk
    below does not enter it from outside."""
    return module.name.rsplit(".", 1)[-1].startswith("batch")


def _coverage(project: Project, stamps: list[str]) -> set[str]:
    """Functions reachable from the stamped entry points --- without
    crossing from a non-engine module into an engine module, because the
    engines fall back to the scalar oracle whenever a race detector is
    attached and must therefore be stamped directly."""
    covered = set(stamps)
    work = sorted(covered)
    while work:
        qual = work.pop()
        fn = project.functions.get(qual)
        if fn is None:
            continue
        src_module = project.modules.get(fn.module)
        src_engine = src_module is not None and is_engine_module(src_module)
        for site in fn.call_sites:
            for target in site.targets:
                if target in covered:
                    continue
                callee = project.functions.get(target)
                if callee is None:
                    continue
                callee_module = project.modules.get(callee.module)
                if callee_module is None:
                    continue
                if not src_engine and is_engine_module(callee_module):
                    continue
                covered.add(target)
                work.append(target)
    return covered


# --------------------------------------------------------------------------
# entry point


def analyze_effects(project: Project,
                    tests_dir: str | Path | None = None) -> EffectsReport:
    """Run the parallel-effect analysis over a built project.

    With *tests_dir* (a directory of ``test_*.py`` files), PAR011
    cross-references the region registry against ``RACECHECK_COVERS``
    stamps; without it, only PAR009/PAR010 run.
    """
    analyzer = _EffectAnalyzer(project)
    analyzer.run()
    findings = list(analyzer.findings)
    stamp_findings: list[Finding] = []
    if tests_dir is not None:
        tests_dir = Path(tests_dir)
        stamps, stamp_findings = _collect_stamps(tests_dir, project)
        covered = _coverage(project, stamps)
        for region in analyzer.regions:
            region.covered = region.qualname in covered
            if region.has_shared_writes and not region.covered:
                findings.append(Finding(
                    "PAR011", region.path, region.lineno, 0,
                    f"parallel region in {region.name!r} performs shared "
                    f"writes but no RACECHECK_COVERS stamp in "
                    f"{tests_dir.name}/test_*.py reaches it; stamp a race "
                    f"test with {region.qualname!r} (engine kernels must "
                    f"be stamped directly --- they fall back to the "
                    f"scalar oracle under a race detector)"))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return EffectsReport(findings=findings, regions=analyzer.regions,
                         stamp_findings=stamp_findings)
