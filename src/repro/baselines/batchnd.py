"""Vectorized ND/PND sub-frontier peel: how the ND baselines peel.

The scalar reference oracle in :mod:`repro.baselines.nd` walks Python
lists per peeled r-clique (incident s-cliques, then each s-clique's
members); this kernel processes a whole sub-frontier with flat arrays: one CSR gather of
the frontier's incident lists, one ``np.unique`` to assign each killed
s-clique to its first-processed (least-id) frontier member, one
``np.bincount`` scatter for the count decrements, and one mask for the
next sub-frontier.

The contract --- enforced by tests/test_batch_baselines.py and the bench
gate --- is that a batch run's *simulated* metrics are bit-for-bit
identical to the scalar oracle's.  Three facts make that possible (full
rules in docs/cost-model.md):

* the oracle peels a sub-frontier in ascending id order, so an alive
  s-clique is killed by its least frontier member, every other
  start-alive member absorbs exactly one decrement, and the per-peel
  ``touched`` count is ``comb(s, r)``-times-the-kills --- all closed
  forms;
* work charges on this path are integer-valued (exact int bin), while
  the per-peel *span* stream (ND's ``touched + 1``; PND's ``16,
  log2(touched + 2)`` pairs) is replayed in peel order through
  :meth:`~repro.parallel.runtime.CostTracker.add_span_sequence` ---
  binary64 addition is order-sensitive, so the sequence, not the sum, is
  what matches;
* a clique enters a sub-frontier at most once (the shared ``queued``
  mask), so the oracle's append-at-crossing next frontier equals the set
  of live never-queued cliques that were decremented to the level, taken
  in ascending order.

The kernel requires plain ndarray peeling state, so the driver runs the
scalar oracle instead whenever the tracker
:attr:`~repro.parallel.runtime.CostTracker.runs_reference`.
"""

from __future__ import annotations

import numpy as np

from ..parallel.primitives import segment_gather
from ..parallel.runtime import CostTracker, _log2

#: Batch kernel -> scalar oracle, checked by running both paths; see
#: :data:`repro.core.batchpeel.PARLINT_PARITY`.
PARLINT_PARITY = {
    "peel_frontier_batch": "repro.baselines.nd._peel_frontier_scalar",
}


def peel_frontier_batch(frontier, inc, counts, alive, s_alive, queued,
                        level: int, parallel_updates: bool,
                        tracker: CostTracker):
    """Peel one sub-frontier in batch mode.

    Mirrors :func:`repro.baselines.nd._peel_frontier_scalar` peel for
    peel; returns the same ``(s_clique_kills, next_frontier)``.
    """
    offsets, ids = inc.incident_csr()
    matrix = inc.members_matrix()
    width = matrix.shape[1]
    lens = offsets[frontier + 1] - offsets[frontier]
    js = segment_gather(ids, offsets[frontier], lens)
    owner = np.repeat(frontier, lens)
    kill_mask = s_alive[js]
    killed_all = js[kill_mask]
    killer_all = owner[kill_mask]
    # Occurrences of a repeated s-clique id appear in frontier-position
    # (ascending owner) order, so the first occurrence is the oracle's
    # killer: the least frontier member of that s-clique.
    killed, first_at = np.unique(killed_all, return_index=True)
    killers = killer_all[first_at]
    n_killed = int(killed.size)
    tracker.add_cliques(n_killed)
    s_alive[killed] = False

    # Per-peel touched counts: comb(s, r) member visits per kill.
    kpos = np.searchsorted(frontier, killers)
    kills = np.bincount(kpos, minlength=frontier.size)
    touched = width * kills
    tracker.add_work_int(int(touched.sum()) + int(frontier.size))
    if parallel_updates:
        span_seq = np.empty(2 * frontier.size, dtype=np.float64)
        span_seq[0::2] = 16.0
        # math.log2 (via _log2), not np.log2: the oracle's libm values.
        span_seq[1::2] = [_log2(t + 2) for t in touched]
    else:
        span_seq = (touched + 1).astype(np.float64)
    tracker.add_span_sequence(span_seq)

    # Count decrements: every start-alive member of a killed s-clique
    # except its killer (the killer is already dead at its own turn;
    # later-position frontier members are still alive at theirs).
    members = matrix[killed]
    dec_mask = alive[members] & (members != killers[:, None])
    dec = np.bincount(members[dec_mask], minlength=alive.size)
    hit = np.flatnonzero(dec)
    counts[hit] -= dec[hit]
    alive[frontier] = False
    drops = hit[alive[hit] & ~queued[hit] & (counts[hit] <= level)]
    queued[drops] = True
    return n_killed, drops
