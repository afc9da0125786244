"""parlint: AST lint rules for the cost-accounting discipline.

Every simulated-time figure this reproduction reports is a function of the
counters charged to :class:`~repro.parallel.runtime.CostTracker`.  The
discipline that keeps those counters honest (charge work inside parallel
regions, account graph-scale loops, mediate shared writes, settle
contention meters) is enforced here rather than by convention.

Rules (stable ids):

``PAR001``
    A ``tracker.parallel(...)`` region whose body never charges work or
    span: the simulated machine would believe the region is free.
``PAR002``
    A Python-level ``for`` loop over graph-scale data (``range`` of an
    ``n`` / ``m`` / clique-table size attribute) inside cost-accounted code
    with no tracker charge on any path: neither in the loop body nor as an
    aggregate charge in the loop's enclosing statement block.
``PAR003``
    A direct subscript mutation of a shared array lexically inside a
    ``region.task()`` block; shared writes from tasks must go through
    :class:`~repro.parallel.atomics.AtomicArray` or the parallel
    primitives.  (Arrays *created inside* the task are task-private and
    exempt.)
``PAR004``
    A :class:`~repro.parallel.atomics.ContentionMeter` constructed but
    never ``settle()``-d in (and never escaping) its scope: its recorded
    collisions would never reach the tracker.

False positives are silenced in place with a trailing comment on the
flagged line (``# parlint: disable=PAR002``), or for a whole file with a
file-level comment anywhere in it (``# parlint: disable-file=PAR006``).
Suppressions that no longer match a finding are themselves reported (rule
``UNUSED-SUPPRESSION``) so the committed set cannot rot.

These rules run as part of ``repro lint``
(:func:`repro.sanitize.chargeflow.analyze`), which feeds this module's
visitor a project-wide *charge oracle*, so charging that lives in a helper
function satisfies PAR001 and PAR002 without a suppression.
:func:`lint_source` runs the rules alone on one source string, without
the oracle.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass

#: Methods whose call constitutes a cost charge.
_CHARGE_METHODS = frozenset({
    "add_work", "add_work_int", "add_work_frac_repeated",
    "add_work_sequence", "add_span", "add_span_sequence",
    "add_round", "add_atomic", "add_contention", "add_cliques", "add_probes",
    "access", "access_sequence", "task_span", "_charge", "charge",
})
#: The subset that satisfies PAR001 (the region must cost work or span).
_REGION_CHARGE_METHODS = frozenset({
    "add_work", "add_work_int", "add_work_frac_repeated",
    "add_work_sequence", "add_span", "add_span_sequence",
    "task_span", "_charge", "charge",
})
#: Attributes that mark an iteration bound as graph-scale (PAR002).
#: ``num_edges``-style names are matched by :data:`_SCALE_ATTR_RE` below.
_SCALE_ATTRS = frozenset({
    "n", "m", "n_r", "n_s", "n_cliques", "total_cells",
})
#: ``num_edges`` / ``num_vertices`` / ... attribute spellings (same intent
#: as the fixed names above, used by related codebases).
_SCALE_ATTR_RE = re.compile(r"^num_\w+$")

_DISABLE_RE = re.compile(r"#\s*parlint:\s*disable=([A-Z0-9,\s-]+)")
_DISABLE_FILE_RE = re.compile(r"#\s*parlint:\s*disable-file=([A-Z0-9,\s-]+)")


@dataclass(frozen=True)
class Finding:
    """One lint finding, stable across runs (used by the reporters)."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _calls_in(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def _is_charge_call(call: ast.Call, methods: frozenset,
                    oracle: frozenset | None = None) -> bool:
    """A charge is a known charging method, any call handed a tracker, or
    (with an interprocedural *oracle*) any call site the charge-flow
    analyzer proved to charge transitively.  Oracles are sets of
    ``(lineno, col_offset)`` call locations."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in methods:
        return True
    if oracle is not None and (call.lineno, call.col_offset) in oracle:
        return True
    for arg in call.args:
        if isinstance(arg, ast.Name) and arg.id == "tracker":
            return True
        if isinstance(arg, ast.Attribute) and arg.attr == "tracker":
            return True
    for kw in call.keywords:
        if kw.arg == "tracker" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None):
            return True
    return False


def _body_charges(nodes: list[ast.stmt], methods: frozenset,
                  oracle: frozenset | None = None) -> bool:
    for stmt in nodes:
        for call in _calls_in(stmt):
            if _is_charge_call(call, methods, oracle):
                return True
    return False


def _with_call_attr(item: ast.withitem) -> str | None:
    """The attribute name when a with-item is ``<expr>.<attr>(...)``."""
    expr = item.context_expr
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        return expr.func.attr
    return None


def _mentions_tracker(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "tracker":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "tracker":
            return True
        if isinstance(sub, ast.arg) and sub.arg == "tracker":
            return True
    return False


class _Scope:
    """One function (or the module) for PAR004 escape analysis."""

    def __init__(self, node: ast.AST) -> None:
        self.node = node
        self.meters: list[tuple[str, int, int]] = []  # (name, line, col)


class _Linter(ast.NodeVisitor):
    """The per-file visitor.

    ``charge_oracle`` / ``region_oracle`` are optional frozensets of
    ``(lineno, col_offset)`` call locations the interprocedural analyzer
    proved to charge the tracker (any method / work-span methods
    respectively); with them, charging-via-helper satisfies PAR001 and
    PAR002 without suppressions.
    """

    def __init__(self, path: str,
                 charge_oracle: frozenset | None = None,
                 region_oracle: frozenset | None = None) -> None:
        self.path = path
        self.charge_oracle = charge_oracle
        self.region_oracle = region_oracle
        self.findings: list[Finding] = []
        self._scopes: list[_Scope] = []
        self._blocks: list[list[ast.stmt]] = []  # statement-list stack

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(rule, self.path, node.lineno,
                                     node.col_offset, message))

    # -- scope handling (PAR004) ----------------------------------------------

    def _enter_scope(self, node: ast.AST) -> None:
        self._scopes.append(_Scope(node))
        self.generic_visit(node)
        self._check_meters(self._scopes.pop())

    def visit_Module(self, node: ast.Module) -> None:
        self._enter_scope(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        ctor = value.func if isinstance(value, ast.Call) else None
        name = (ctor.id if isinstance(ctor, ast.Name)
                else ctor.attr if isinstance(ctor, ast.Attribute) else None)
        if name == "ContentionMeter" and self._scopes:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._scopes[-1].meters.append(
                        (target.id, node.lineno, node.col_offset))
        self.generic_visit(node)

    def _check_meters(self, scope: _Scope) -> None:
        for name, line, col in scope.meters:
            if self._meter_is_used(scope.node, name):
                continue
            self.findings.append(Finding(
                "PAR004", self.path, line, col,
                f"ContentionMeter {name!r} is never settle()d and never "
                f"escapes its scope; its collisions are lost"))

    @staticmethod
    def _meter_is_used(scope_node: ast.AST, name: str) -> bool:
        """settle() called on it, or it escapes (argument / return /
        attribute store / container literal)."""
        for sub in ast.walk(scope_node):
            if isinstance(sub, ast.Attribute) and sub.attr == "settle" \
                    and isinstance(sub.value, ast.Name) \
                    and sub.value.id == name:
                return True
            if isinstance(sub, ast.Call):
                operands = list(sub.args) + [kw.value for kw in sub.keywords]
                if any(isinstance(a, ast.Name) and a.id == name
                       for a in operands):
                    return True
            if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Name) \
                    and sub.value.id == name:
                return True
            if isinstance(sub, ast.Assign):
                if any(isinstance(t, (ast.Attribute, ast.Subscript))
                       for t in sub.targets) \
                        and isinstance(sub.value, ast.Name) \
                        and sub.value.id == name:
                    return True
            if isinstance(sub, (ast.Tuple, ast.List, ast.Dict, ast.Set)):
                values = getattr(sub, "elts", None)
                if values is None:
                    values = list(sub.values)
                if any(isinstance(v, ast.Name) and v.id == name
                       for v in values):
                    return True
        return False

    # -- PAR001 / PAR003 -------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            attr = _with_call_attr(item)
            if attr == "parallel":
                if not _body_charges(node.body, _REGION_CHARGE_METHODS,
                                     self.region_oracle):
                    self._emit("PAR001", node,
                               "parallel region whose body never charges "
                               "work or span to the tracker")
            elif attr == "task":
                self._check_task_body(node)
        self.generic_visit(node)

    def _check_task_body(self, node: ast.With) -> None:
        local = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        local.add(target.id)
            elif isinstance(sub, (ast.For, ast.comprehension)):
                target = sub.target
                if isinstance(target, ast.Name):
                    local.add(target.id)
                elif isinstance(target, ast.Tuple):
                    local.update(e.id for e in target.elts
                                 if isinstance(e, ast.Name))
        for sub in ast.walk(node):
            targets = []
            if isinstance(sub, ast.Assign):
                targets = sub.targets
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            for target in targets:
                if not isinstance(target, ast.Subscript):
                    continue
                base = target.value
                shared = (isinstance(base, ast.Attribute)
                          or (isinstance(base, ast.Name)
                              and base.id not in local))
                if shared:
                    label = (base.id if isinstance(base, ast.Name)
                             else base.attr)
                    self._emit(
                        "PAR003", sub,
                        f"direct write to shared array {label!r} inside a "
                        f"task; mediate it through AtomicArray or the "
                        f"parallel primitives")

    # -- PAR002 ----------------------------------------------------------------

    def generic_visit(self, node: ast.AST) -> None:
        """Track the stack of statement blocks (for PAR002's aggregate-
        charge escape hatch) while walking."""
        for name, value in ast.iter_fields(node):
            if isinstance(value, list) and value \
                    and all(isinstance(v, ast.stmt) for v in value):
                self._blocks.append(value)
                for stmt in value:
                    self.visit(stmt)
                self._blocks.pop()
            elif isinstance(value, ast.AST):
                self.visit(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        self.visit(item)

    def visit_For(self, node: ast.For) -> None:
        if self._is_graph_scale(node.iter) and self._in_tracked_scope() \
                and not _body_charges(node.body, _CHARGE_METHODS,
                                      self.charge_oracle) \
                and not self._block_charges_around(node):
            self._emit("PAR002", node,
                       "loop over graph-scale data with no tracker charge "
                       "on any path (neither in the body nor as an "
                       "aggregate charge beside the loop)")
        self.generic_visit(node)

    def _block_charges_around(self, node: ast.For) -> bool:
        """An aggregate charge beside the loop accounts for it --- the
        listing/contraction pattern of charging ``O(n)`` once instead of
        ``O(1)`` per iteration.  Any enclosing statement block within the
        function counts: the charge may sit in a sibling branch (e.g. an
        ``if self.tracker is not None:`` guard next to the guarded loop)."""
        scope_body = None
        for scope in reversed(self._scopes):
            if not isinstance(scope.node, ast.Module):
                scope_body = scope.node.body
                break
        for block in reversed(self._blocks):
            siblings = [stmt for stmt in block if stmt is not node]
            if _body_charges(siblings, _CHARGE_METHODS, self.charge_oracle):
                return True
            if block is scope_body:
                break  # don't escape the enclosing function scope
        return False

    @staticmethod
    def _is_graph_scale(iter_expr: ast.expr) -> bool:
        """``range(...)`` bounded by a graph-scale attribute (``graph.n``,
        ``table.num_cells``, ...) or by ``len(...)`` of anything --- the
        iteration count is data-dependent either way."""
        if not (isinstance(iter_expr, ast.Call)
                and isinstance(iter_expr.func, ast.Name)
                and iter_expr.func.id == "range"):
            return False
        for arg in iter_expr.args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Attribute) \
                        and (sub.attr in _SCALE_ATTRS
                             or _SCALE_ATTR_RE.match(sub.attr)):
                    return True
                if isinstance(sub, ast.Call) \
                        and isinstance(sub.func, ast.Name) \
                        and sub.func.id == "len":
                    return True
        return False

    def _in_tracked_scope(self) -> bool:
        """Only flag PAR002 in code that participates in cost accounting
        at all (a scope mentioning a tracker); pure utilities are exempt."""
        for scope in reversed(self._scopes):
            if isinstance(scope.node, ast.Module):
                continue
            return _mentions_tracker(scope.node)
        return False


def _comment_tokens(source: str) -> list[tuple[int, str]]:
    """Genuine ``(line, text)`` comment tokens.  tokenize (not a per-line
    regex) so suppression examples quoted inside docstrings are ignored."""
    comments = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass  # ast.parse succeeded, so this is unreachable in practice
    return comments


def _parse_rules(spec: str) -> set[str]:
    return {rule.strip() for rule in spec.split(",") if rule.strip()}


class _Suppressions:
    """The file's suppression comments, tracking which ones fired."""

    def __init__(self, source: str) -> None:
        #: line -> (rules, fired-rules) for ``# parlint: disable=...``
        self.by_line: dict[int, tuple[set[str], set[str]]] = {}
        #: ``# parlint: disable-file=...``: rule -> (decl line, fired?)
        self.file_level: dict[str, tuple[int, bool]] = {}
        for line, text in _comment_tokens(source):
            match = _DISABLE_RE.search(text)
            if match:
                rules, fired = self.by_line.setdefault(line, (set(), set()))
                rules.update(_parse_rules(match.group(1)))
            match = _DISABLE_FILE_RE.search(text)
            if match:
                for rule in _parse_rules(match.group(1)):
                    self.file_level.setdefault(rule, (line, False))

    def suppresses(self, finding: Finding) -> bool:
        entry = self.by_line.get(finding.line)
        if entry is not None and finding.rule in entry[0]:
            entry[1].add(finding.rule)
            return True
        if finding.rule in self.file_level:
            line, _ = self.file_level[finding.rule]
            self.file_level[finding.rule] = (line, True)
            return True
        return False

    def unused(self, path: str,
               checked_rules: frozenset | None = None) -> list[Finding]:
        """Suppression comments that silenced nothing (so the committed
        set cannot rot as the code underneath is fixed).  A run that only
        checks a subset of rules (*checked_rules*) cannot judge
        suppressions of the others --- :func:`lint_source` must not call
        a waiver of an interprocedural rule stale."""
        stale = []
        for line, (rules, fired) in sorted(self.by_line.items()):
            for rule in sorted(rules - fired):
                if checked_rules is not None and rule not in checked_rules:
                    continue
                stale.append(Finding(
                    "UNUSED-SUPPRESSION", path, line, 0,
                    f"suppression of {rule} matches no finding; remove it"))
        for rule, (line, was_used) in sorted(self.file_level.items()):
            if not was_used:
                if checked_rules is not None and rule not in checked_rules:
                    continue
                stale.append(Finding(
                    "UNUSED-SUPPRESSION", path, line, 0,
                    f"file-level suppression of {rule} matches no finding; "
                    f"remove it"))
        return stale


def _apply_suppressions(findings: list[Finding], source: str, path: str,
                        report_unused: bool = True,
                        checked_rules: frozenset | None = None
                        ) -> list[Finding]:
    suppressions = _Suppressions(source)
    kept = [f for f in findings if not suppressions.suppresses(f)]
    if report_unused:
        kept.extend(suppressions.unused(path, checked_rules))
    return kept


def lint_source(source: str, path: str = "<string>",
                report_unused: bool = True) -> list[Finding]:
    """Lint one source string with PAR001--PAR004; returns surviving
    findings.

    Only unused suppressions of those four rules are reported: waivers
    of the other rules are policed by :func:`~repro.sanitize.chargeflow
    .analyze`, which can match them."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path)
    linter.visit(tree)
    return _apply_suppressions(
        linter.findings, source, path, report_unused=report_unused,
        checked_rules=frozenset({"PAR001", "PAR002", "PAR003", "PAR004"}))
