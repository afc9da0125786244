"""The interprocedural rules PAR005, PAR006 and PAR008--PAR011.

These run on top of the call graph (:mod:`~repro.sanitize.callgraph`)
and the charge summaries (:mod:`~repro.sanitize.summaries`); the lexical
rules PAR001--PAR004 stay in :mod:`~repro.sanitize.parlint` and are fed
the summary-derived charge oracle by :mod:`~repro.sanitize.chargeflow`.

``PAR005``
    A vectorized NumPy bulk operation in an engine-module kernel that
    participates in cost accounting but whose transitive charge set is
    empty: the kernel does O(n) work in one call and the simulated
    machine would believe it free.
``PAR006``
    Nondeterminism hazards in cost-accounted code --- iteration over a
    ``set``, ``id()``-keyed structures, unseeded RNG, ``np.argsort``
    without ``kind="stable"`` --- the things that silently break the
    bit-for-bit batch/scalar parity contract.
``PAR008``
    A charge issued outside any ``tracker.phase(...)`` /
    ``tracker.parallel(...)`` attribution scope in a function that opens
    phases: such charges corrupt ``MachineModel.time_breakdown``.
``PAR009`` / ``PAR010`` / ``PAR011``
    The static parallel-effect rules.  The heavy lifting happens in
    :mod:`~repro.sanitize.effects` (one pass over the whole project);
    the check functions here slice that report per module so findings
    flow through the same suppression machinery as every other rule.
    PAR009 flags a potential static race in a parallel region, PAR010
    an atomic accumulation with an order-dependent operand, and PAR011
    a region with shared writes that no ``RACECHECK_COVERS`` stamp in
    the test suite reaches.
"""

from __future__ import annotations

import ast

from .callgraph import FunctionInfo, ModuleInfo, Project
from .effects import is_engine_module
from .parlint import Finding


# ---------------------------------------------------------------------------
# PAR005


def check_par005(project: Project, summaries: dict,
                 module: ModuleInfo) -> list[Finding]:
    if not is_engine_module(module):
        return []
    findings = []
    for fn in project.functions_of_module(module.name):
        if not fn.mentions_tracker or not fn.bulk_ops:
            continue
        summary = summaries.get(fn.qualname)
        if summary is not None and summary.charges:
            continue
        name, lineno, col = fn.bulk_ops[0]
        findings.append(Finding(
            "PAR005", module.path, lineno, col,
            f"engine kernel {fn.name!r} runs vectorized bulk ops "
            f"({name}, {len(fn.bulk_ops)} site(s)) but never charges the "
            f"tracker on any path; the simulated machine sees this work "
            f"as free"))
    return findings


# ---------------------------------------------------------------------------
# PAR006


_RNG_UNSEEDED_HINT = frozenset({
    "rand", "randn", "randint", "random", "choice", "shuffle",
    "permutation", "uniform", "normal", "random_sample",
})


def _par006_hazards(fn: FunctionInfo, module: ModuleInfo):
    """Yield ``(node, message)`` nondeterminism hazards inside *fn*."""
    for sub in ast.walk(fn.node):
        iters = []
        if isinstance(sub, ast.For):
            iters = [sub.iter]
        elif isinstance(sub, ast.comprehension):
            iters = [sub.iter]
        for it in iters:
            if isinstance(it, ast.Set):
                yield sub, "iteration over a set literal has no defined " \
                           "order; sort it first"
            elif isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                    and it.func.id in ("set", "frozenset"):
                yield sub, "iteration over set(...) has no defined order; " \
                           "sort it first"
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Name) and func.id == "id" and sub.args:
                yield sub, "id() keys vary across runs; key on a stable " \
                           "identifier instead"
            if isinstance(func, ast.Attribute) and func.attr == "argsort":
                kinds = [kw.value for kw in sub.keywords if kw.arg == "kind"]
                stable = any(isinstance(k, ast.Constant)
                             and k.value in ("stable", "mergesort")
                             for k in kinds)
                if not stable:
                    yield sub, "argsort without kind='stable' breaks ties " \
                               "platform-dependently; peel/bucket orders " \
                               "must be reproducible"
            if isinstance(func, ast.Name) and func.id == "default_rng" \
                    and not sub.args and not sub.keywords:
                yield sub, "default_rng() without a seed is " \
                           "nondeterministic; pass an explicit seed"
            chain = _chain_of(func)
            if chain and chain[0] in module.numpy_aliases \
                    and len(chain) >= 3 and chain[1] == "random":
                if chain[2] == "default_rng" and not sub.args \
                        and not sub.keywords:
                    yield sub, "default_rng() without a seed is " \
                               "nondeterministic; pass an explicit seed"
                elif chain[2] in _RNG_UNSEEDED_HINT:
                    yield sub, f"np.random.{chain[2]} uses the unseeded " \
                               f"global RNG; use a seeded Generator"


def _chain_of(expr: ast.expr) -> list[str] | None:
    chain: list[str] = []
    while isinstance(expr, ast.Attribute):
        chain.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        chain.append(expr.id)
        return list(reversed(chain))
    return None


def check_par006(project: Project, summaries: dict,
                 module: ModuleInfo) -> list[Finding]:
    findings = []
    for fn in project.functions_of_module(module.name):
        if not fn.mentions_tracker:
            continue  # determinism only contracts cost-accounted code
        for node, message in _par006_hazards(fn, module):
            findings.append(Finding(
                "PAR006", module.path, node.lineno, node.col_offset,
                f"in {fn.name!r}: {message}"))
    return findings


# ---------------------------------------------------------------------------
# PAR008


def _in_spans(line: int, spans: list[tuple[int, int]]) -> bool:
    return any(start <= line <= end for start, end in spans)


def check_par008(project: Project, summaries: dict,
                 module: ModuleInfo) -> list[Finding]:
    findings = []
    for fn in project.functions_of_module(module.name):
        if not fn.opens_phase:
            continue
        for charge in fn.charge_calls:
            if _in_spans(charge.lineno, fn.phase_spans):
                continue
            if _in_spans(charge.lineno, fn.nested_spans):
                continue  # a closure body: executes where it is called
            findings.append(Finding(
                "PAR008", module.path, charge.lineno, charge.col,
                f"in {fn.name!r}: {charge.attr}() outside any "
                f"phase/parallel scope; the charge lands in no phase and "
                f"corrupts time_breakdown"))
        for site in fn.call_sites:
            if not site.charges:
                continue
            if _in_spans(site.lineno, fn.phase_spans) \
                    or _in_spans(site.lineno, fn.nested_spans):
                continue
            targets = [project.functions.get(t) for t in site.targets]
            if targets and all(t is not None and t.opens_phase
                               for t in targets):
                continue  # sub-orchestrator opens its own phases
            findings.append(Finding(
                "PAR008", module.path, site.lineno, site.col,
                f"in {fn.name!r}: call to {site.callee_display}() charges "
                f"the tracker outside any phase/parallel scope"))
    return findings


# ---------------------------------------------------------------------------
# PAR009 / PAR010 / PAR011 (sliced from the project-wide effects report)


def _effects_slice(effects, module: ModuleInfo, rule: str) -> list[Finding]:
    if effects is None:
        return []
    return [f for f in effects.findings
            if f.rule == rule and f.path == module.path]


def check_par009(project: Project, effects,
                 module: ModuleInfo) -> list[Finding]:
    return _effects_slice(effects, module, "PAR009")


def check_par010(project: Project, effects,
                 module: ModuleInfo) -> list[Finding]:
    return _effects_slice(effects, module, "PAR010")


def check_par011(project: Project, effects,
                 module: ModuleInfo) -> list[Finding]:
    return _effects_slice(effects, module, "PAR011")


def run_rules(project: Project, summaries: dict, module: ModuleInfo,
              effects=None) -> list[Finding]:
    findings = []
    findings += check_par005(project, summaries, module)
    findings += check_par006(project, summaries, module)
    findings += check_par008(project, summaries, module)
    findings += check_par009(project, effects, module)
    findings += check_par010(project, effects, module)
    findings += check_par011(project, effects, module)
    return findings
