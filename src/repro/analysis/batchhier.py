"""The vectorized level-sweep engine for hierarchy construction.

:func:`repro.analysis.construct._levels_scalar` walks the descending
level sweep as per-element Python loops --- correct, and the cost-model
oracle, but interpreter-bound on the death-level mins, the star-edge
builds, and the label compositions.  This module is the NumPy
equivalent: death levels come from one fancy-indexed row min, the
descending activation order from one stable argsort (``-cores``, ties
resolved to ascending id exactly like the scalar bucket appends), level
segments from binary searches over the sorted key arrays, and each
level's star edges from ``np.repeat`` / reshape over the dying
s-cliques' label-mapped member rows.

The contract is the batch engines' usual one (docs/cost-model.md):
bit-for-bit identical simulated costs versus the scalar kernel --- every
charge here is an integer closed form over a segment whose elements the
scalar loop charges one at a time --- and identical outputs (the same
``(level, active, labels)`` triples, down to array order), because both
engines feed the identical per-level edge arrays to the shared
:func:`repro.parallel.connectivity.connected_components`.  The table
below registers the pairing; ``tests/test_parity_registry.py`` checks it.
"""

from __future__ import annotations

import numpy as np

from ..parallel.connectivity import connected_components
from ..parallel.runtime import CostTracker, _log2

#: Batch kernel -> scalar oracle, checked by running both paths; see
#: :data:`repro.core.batchpeel.PARLINT_PARITY`.
PARLINT_PARITY = {
    "batch_levels": "repro.analysis.construct._levels_scalar",
}


def batch_levels(cores: np.ndarray, members: np.ndarray,
                 tracker: CostTracker | None = None) -> list:
    """Vectorized descending level sweep; see ``_levels_scalar``.

    Returns the identical ``(level, active_ids, labels)`` triples,
    ascending by level, with identical simulated charges.
    """
    n = int(cores.size)
    count = int(members.shape[0])
    width = int(members.shape[1])
    if count:
        death = cores[members].min(axis=1)
    else:
        death = np.empty(0, dtype=np.int64)
    if tracker is not None:
        # One min over width members per s-clique, then one bucketing
        # pass over the r-cliques and one over the s-cliques --- the
        # closed forms of the scalar kernel's per-element charges.
        tracker.add_work_int(count * width)
        tracker.add_work_int(n)
        tracker.add_work_int(count)
    # Descending activation order: core desc, ties ascending id (stable
    # sort of the negated keys) --- the scalar sweep's bucket-append
    # order.  The negated sorted keys double as binary-search indexes
    # for the per-level segment boundaries.
    order_r = np.argsort(-cores, kind="stable")
    order_s = np.argsort(-death, kind="stable")
    neg_cores = -cores[order_r]
    neg_death = -death[order_s]
    levels = np.unique(cores)[::-1]
    label = np.arange(n, dtype=np.int64)
    out: list[tuple[int, np.ndarray, np.ndarray]] = []
    for level in levels:
        if tracker is not None:
            tracker.add_round()
        a_end = int(np.searchsorted(neg_cores, -level, side="right"))
        active = order_r[:a_end]
        s_lo = int(np.searchsorted(neg_death, -level, side="left"))
        s_hi = int(np.searchsorted(neg_death, -level, side="right"))
        dying = order_s[s_lo:s_hi]
        n_edges = 0
        if dying.size:
            rows = members[dying]
            n_edges = int(dying.size) * (width - 1)
            edges = np.empty((n_edges, 2), dtype=np.int64)
            edges[:, 0] = np.repeat(label[rows[:, 0]], width - 1)
            edges[:, 1] = label[rows[:, 1:]].reshape(-1)
            if tracker is not None:
                tracker.add_work_int(3 * (width - 1) * int(dying.size))
            relabel = connected_components(n, edges, tracker)
            label[active] = relabel[label[active]]
            if tracker is not None:
                tracker.add_work_int(int(active.size))
        snapshot = label[active].copy()
        if tracker is not None:
            tracker.add_work_int(int(active.size))
            tracker.add_span(_log2(active.size + n_edges))
        out.append((int(level), active.copy(), snapshot))
    out.reverse()
    return out
