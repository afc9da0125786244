"""Per-function charge summaries over the project call graph.

For every :class:`~repro.sanitize.callgraph.FunctionInfo` this computes
the transitive set of :class:`~repro.parallel.runtime.CostTracker`
methods the function may invoke, split by how the tracker reaches it:

``uncond``
    Charges that happen whenever the function runs --- through
    ``self.tracker`` (or any receiver that is not the caller-passed
    ``tracker`` parameter), or via a callee that itself charges
    unconditionally.

``cond``
    Charges that happen only when the *caller* supplies a tracker: the
    receiver is the function's own ``tracker`` parameter, or the charge
    flows through a callee to which the function forwards that parameter.

Method names are normalized (``add_work_int`` counts as ``add_work``,
``task_span`` as ``add_span``, ``access_sequence`` as ``access``) so
PAR001's work/span test is about *which counters move*, not which
convenience wrapper moved them.  A tracker handed to a call the graph
cannot resolve inside the project contributes the marker effect
``@external`` --- treated as "charges something" by PAR001/PAR002/PAR005/
PAR008.

The propagation is a standard monotone fixpoint over the (may-call) graph
and terminates because effect sets only grow and are drawn from a finite
alphabet.  After the fixpoint, every call site is annotated with whether
it provably charges (``CallSite.charges`` / ``charges_workspan``), which
is exactly the *charge oracle* the lexical PAR001/PAR002 visitors accept.

Last, a greatest fixpoint over the same graph marks which functions are
*phase-closed* (``Summary.phase_closed``): PAR008 exempts an
out-of-phase call whose targets all are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .callgraph import EXTERNAL_EFFECT, CallSite, FunctionInfo, Project

#: Normalized methods that satisfy PAR001 (the region costs work or span).
WORKSPAN_EFFECTS = frozenset({"add_work", "add_span", EXTERNAL_EFFECT})


@dataclass
class Summary:
    """Transitive charge effects of one function (normalized names)."""

    cond: set[str] = field(default_factory=set)
    uncond: set[str] = field(default_factory=set)
    #: every charge lands in a phase: the function opens one itself, or it
    #: charges nothing outside its phase/parallel scopes and every
    #: charging call outside them reaches only phase-closed functions
    phase_closed: bool = True

    @property
    def charges(self) -> bool:
        return bool(self.cond or self.uncond)


def compute_summaries(project: Project) -> dict[str, Summary]:
    """The fixpoint.  Also annotates every ``CallSite`` in the project
    with its post-fixpoint charging verdict."""
    summaries: dict[str, Summary] = {}
    for qual, fn in project.functions.items():
        summary = Summary()
        for charge in fn.charge_calls:
            (summary.cond if charge.conditional
             else summary.uncond).add(charge.norm)
        for site in fn.call_sites:
            if site.passes_tracker and not site.targets:
                (summary.cond if site.pass_conditional
                 else summary.uncond).add(EXTERNAL_EFFECT)
        summaries[qual] = summary

    changed = True
    while changed:
        changed = False
        for qual, fn in project.functions.items():
            summary = summaries[qual]
            for site in fn.call_sites:
                for target in site.targets:
                    callee = summaries.get(target)
                    if callee is None:
                        continue
                    before = (len(summary.cond), len(summary.uncond))
                    summary.uncond |= callee.uncond
                    if site.passes_tracker:
                        gained = callee.cond
                        if site.pass_conditional:
                            summary.cond |= gained
                        else:
                            summary.uncond |= gained
                    if (len(summary.cond), len(summary.uncond)) != before:
                        changed = True

    for fn in project.functions.values():
        for site in fn.call_sites:
            effects: set[str] = set()
            for target in site.targets:
                callee = summaries.get(target)
                if callee is None:
                    continue
                effects |= callee.uncond
                if site.passes_tracker:
                    effects |= callee.cond
            if site.passes_tracker and not site.targets:
                effects.add(EXTERNAL_EFFECT)
            site.charges = bool(effects)
            site.charges_workspan = bool(effects & WORKSPAN_EFFECTS)

    # Greatest fixpoint: all start phase-closed; strike until stable.
    changed = True
    while changed:
        changed = False
        for qual, fn in project.functions.items():
            summary = summaries[qual]
            if summary.phase_closed and not fn.opens_phase \
                    and _charges_unscoped(fn, summaries):
                summary.phase_closed = False
                changed = True
    return summaries


def phase_closed_call(site: CallSite, summaries: dict[str, Summary]) -> bool:
    """Every may-call target of ``site`` is a phase-closed function."""
    return bool(site.targets) and all(
        target in summaries and summaries[target].phase_closed
        for target in site.targets)


def _charges_unscoped(fn: FunctionInfo,
                      summaries: dict[str, Summary]) -> bool:
    """``fn`` charges outside its phase/parallel scopes, directly or
    through a call that reaches a function that is not phase-closed."""
    return any(not fn.in_scope(charge.lineno) for charge in fn.charge_calls) \
        or any(site.charges and not fn.in_scope(site.lineno)
               and not phase_closed_call(site, summaries)
               for site in fn.call_sites)


def charge_oracles(project: Project, summaries: dict[str, Summary],
                   module: str) -> tuple[frozenset, frozenset]:
    """``(any-charge, work/span-charge)`` call-site location oracles for
    one module, in the ``(lineno, col_offset)`` form the lexical linter
    accepts.  Direct charge-method calls are already recognized lexically;
    the oracle adds the *charging helper* call sites."""
    any_locs: set[tuple[int, int]] = set()
    workspan_locs: set[tuple[int, int]] = set()
    for fn in project.functions_of_module(module):
        for site in fn.call_sites:
            if site.charges:
                any_locs.add((site.lineno, site.col))
            if site.charges_workspan:
                workspan_locs.add((site.lineno, site.col))
    return frozenset(any_locs), frozenset(workspan_locs)
