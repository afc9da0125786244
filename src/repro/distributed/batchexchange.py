"""Vectorized kernels of the sharded super-round: local peel and exchange.

:func:`local_round_batch` replays the charges of the scalar local-peel
oracle (:func:`repro.distributed.peel._local_round`) through the block
kernel both peels share, :func:`repro.core.batchpeel.update_block`
(decode, discover, probe, address replay).  Its apply step keeps the
representative rows' decrements and routes them by owner in the scalar
loop's order --- owned cells through
:meth:`~repro.distributed.peel.UpdateLedger.subtract_many`, remote cells
into the outbox through
:meth:`~repro.distributed.peel.ExchangeBuffer.buffer_many` --- so the
ledger's updated set and the outbox keep their first-touch order.

:func:`exchange_batch` replays the charges of the scalar exchange oracle
(:func:`repro.distributed.peel._exchange_scalar`) in bulk: one stable
lexsort by (destination, cell) replaces the per-entry comparison sort,
group boundaries come from one ``diff`` pass, and the owner-side delta
application is one ledger call.

Totals on every tracker --- per phase, including the cache stream when a
simulator is attached --- are identical to the oracles', as is the
ledger and outbox state they leave behind (tests/test_distributed.py
pins both).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..core import batchpeel
from ..core.decomp import _ALIVE
from ..parallel.runtime import CostTracker, _log2
from .model import ENTRY_BYTES

#: Batch kernel -> scalar oracle, checked by running both paths; see
#: :data:`repro.core.batchpeel.PARLINT_PARITY`.
PARLINT_PARITY = {
    "local_round_batch": "repro.distributed.peel._local_round",
    "exchange_batch": "repro.distributed.peel._exchange_scalar",
}


def local_round_batch(shard: int, mine: np.ndarray, r: int, s: int,
                      graph_n: int, table, dg, working, status, owner_of,
                      ledger, outbox, tracker: CostTracker) -> None:
    """One shard's local peel work for one super-round, vectorized.

    Same arguments, charges and ledger/outbox effects as the scalar
    oracle; the peeled cells ``mine`` run through the shared block kernel
    :func:`~repro.core.batchpeel.update_block` in blocks of
    :data:`~repro.core.batchpeel.PEEL_BLOCK_TASKS` tasks, in task order.
    """
    comb_cols = np.asarray(list(combinations(range(s), r)), dtype=np.int64)

    def apply(row_task, cells, state, live, representative):
        """Route the representative rows' decrements by owner, in the
        scalar order: owned cells through the ledger, remote cells into
        the outbox (neither touches a simulated address)."""
        apply_row = live & representative
        update_cells = cells[apply_row][(state == _ALIVE)[apply_row]]
        if update_cells.size:
            tracker.add_work_int(update_cells.size)
            tracker.add_atomic(update_cells.size)
            owned = owner_of[update_cells] == shard
            ledger.subtract_many(update_cells[owned], 1)
            outbox.buffer_many(update_cells[~owned])
        return None

    with tracker.phase("local_peel"):
        tracker.add_round()
        with tracker.parallel(int(mine.size)) as region:
            block = batchpeel.PEEL_BLOCK_TASKS
            for base in range(0, int(mine.size), block):
                batchpeel.update_block(mine[base:base + block], base,
                                       comb_cols, dg, working, table, status,
                                       apply, r, s, tracker)
            # One O(log n) intersection per completion level.
            region.task_span(_log2(graph_n) * (s - r + 1))


def exchange_batch(cells, deltas, owner_of, ledger, dst_trackers,
                   tracker: CostTracker) -> tuple[int, int]:
    """Ship one shard's outbox to the owning shards, vectorized.

    Same protocol and charges as the scalar oracle: the sender pays the
    (dst, cell) sort and per-entry serialization plus one
    ``add_comm(1, entries * ENTRY_BYTES)`` per destination batch; each
    receiver pays one work unit and one atomic per entry.  Returns
    ``(messages, bytes)`` sent.
    """
    k = int(cells.size)
    if k == 0:
        return 0, 0
    tracker.add_work(k * _log2(k))  # sort the outbox by (dst, cell)
    owners = owner_of[cells]
    order = np.lexsort((cells, owners))
    sorted_cells = cells[order]
    sorted_owners = owners[order]
    boundaries = np.flatnonzero(np.diff(sorted_owners)) + 1
    starts = np.concatenate([np.zeros(1, dtype=np.int64), boundaries])
    ends = np.concatenate([boundaries, np.full(1, k, dtype=np.int64)])
    total_bytes = 0
    for start, end in zip(starts, ends):  # one iteration per destination
        entries = int(end - start)
        tracker.add_work_int(entries)  # serialize the batch
        tracker.add_comm(1, entries * ENTRY_BYTES)
        receiver = dst_trackers[int(sorted_owners[start])]
        receiver.add_work_int(entries)  # deserialize + locate the cells
        receiver.add_atomic(entries)  # the owners' fetch-and-subtracts
        total_bytes += entries * ENTRY_BYTES
    ledger.subtract_many(sorted_cells, deltas[order])
    return int(starts.size), total_bytes
