"""Vectorized kernels of the sharded super-round: local peel and exchange.

:func:`local_round_batch` replays the charges of the scalar local-peel
oracle (:func:`repro.distributed.peel._local_round`, run shard by shard)
for every shard of a super-round at once: all peeled cells, sorted by
owner, go through the block kernel both peels share,
:func:`repro.core.batchpeel.update_block` (decode, discover, probe,
address assembly), which returns each task's charges; each shard then
posts the sums over its own tasks in its own ``local_peel`` phase.  Its
apply step keeps the representative rows' decrements and routes them
by owner in the scalar loop's order --- owned cells through
:meth:`~repro.distributed.peel.UpdateLedger.subtract_many`, remote cells
into the outbox of the task's shard through
:meth:`~repro.distributed.peel.ExchangeBuffer.buffer_many` --- so the
ledger's updated set and the outboxes keep their first-touch order.

:func:`exchange_batch` replays the charges of the scalar exchange oracle
(:func:`repro.distributed.peel._exchange_scalar`, run sender by sender)
for every drained outbox of an exchange at once: one lexsort by
(source, destination, cell) replaces the per-entry comparison sorts,
message boundaries come from one ``diff`` pass, the per-sender and
per-receiver charges are ``bincount`` sums, and the owner-side delta
application is one ledger call in the senders' order.

Totals on every tracker --- per phase, including the cache stream when a
simulator is attached --- are identical to the oracles', as is the
ledger and outbox state they leave behind (tests/test_distributed.py
pins both).
"""

from __future__ import annotations

from collections.abc import Sequence
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


def local_round_batch(peel_cells: np.ndarray, bounds: np.ndarray, r: int,
                      s: int, graph_n: int, table, dg, working, status,
                      owner_of, ledger, outboxes,
                      tracker: Sequence[CostTracker]) -> None:
    """Every shard's local peel work for one super-round, vectorized.

    ``peel_cells`` holds the round's peeled cells stably sorted by owner:
    shard ``k`` owns ``peel_cells[bounds[k]:bounds[k + 1]]`` and charges
    ``tracker[k]``.  All of them are decoded once and run through the
    shared block kernel :func:`~repro.core.batchpeel.update_block` at
    once, in the blocks of :func:`~repro.core.batchpeel.round_blocks`,
    which may cross shards.  Then each shard with peeled cells opens its
    ``local_peel`` phase and ``parallel(n_k)`` region and posts the sums
    of its tasks' charges (replaying its slice of the address stream if its tracker
    has a cache): per tracker, the same charges, ledger and outbox
    effects as the scalar oracle run shard by shard.
    """
    comb_cols = np.asarray(list(combinations(range(s), r)), dtype=np.int64)
    task_shard = np.repeat(np.arange(len(tracker)), np.diff(bounds))
    updates = np.zeros(peel_cells.size, dtype=np.int64)

    def apply(row_task, cells, state, live, representative):
        """Route the representative rows' decrements by owner, in the
        scalar order: owned cells through the ledger, remote cells into
        the outbox of the task's shard (neither touches a simulated
        address); count each task's updates."""
        apply_row = live & representative
        alive = (state == _ALIVE)[apply_row]
        update_cells = cells[apply_row][alive]
        if update_cells.size:
            update_task = np.repeat(row_task[apply_row], alive.sum(axis=1))
            updates[:] += np.bincount(update_task, minlength=updates.size)
            update_shard = task_shard[update_task]
            remote = owner_of[update_cells] != update_shard
            ledger.subtract_many(update_cells[~remote], 1)
            # Tasks run in shard order, so a block's shards are a range.
            for shard in range(update_shard[0], update_shard[-1] + 1):
                outboxes[shard].buffer_many(
                    update_cells[remote & (update_shard == shard)])
        return None

    collect = any(st.cache is not None for st in tracker)
    work, probes, s_cliques, addresses, address_lens = (
        np.concatenate(part) for part in zip(*[
            batchpeel.update_block(decoded, base, comb_cols, dg, working,
                                   table, status, apply, r, s, collect)
            for base, decoded in batchpeel.round_blocks(
                peel_cells, table, working, collect)]))

    # Per-shard sums of (work, atomics, probes, s-cliques, addresses).
    per_task = np.column_stack([work + updates, updates, probes, s_cliques,
                                address_lens])
    prefix = np.zeros((peel_cells.size + 1, 5), dtype=np.int64)
    np.cumsum(per_task, axis=0, out=prefix[1:])
    ends = prefix[bounds].tolist()
    for shard, st in enumerate(tracker):
        n_tasks = int(bounds[shard + 1] - bounds[shard])
        if n_tasks == 0:
            continue
        lo, hi = ends[shard], ends[shard + 1]
        with st.phase("local_peel"):
            st.add_round()
            with st.parallel(n_tasks) as region:
                st.add_work_int(hi[0] - lo[0])
                st.add_atomic(hi[1] - lo[1])
                st.add_probes(hi[2] - lo[2])
                st.add_cliques(hi[3] - lo[3])
                if st.cache is not None:
                    st.access_sequence(addresses[lo[4]:hi[4]])
                # One O(log n) intersection per completion level.
                region.task_span(_log2(graph_n) * (s - r + 1))


def exchange_batch(drained: Sequence[tuple[np.ndarray, np.ndarray]],
                   owner_of, ledger,
                   tracker: Sequence[CostTracker]) -> tuple[int, int]:
    """Ship every drained outbox to the owning shards in one pass.

    ``drained[k]`` is shard ``k``'s (cells, deltas) and ``tracker[k]``
    its tracker, sender and receiver alike.  Same protocol and charges
    as the scalar oracle run sender by sender: each sender pays its
    ``k log2 k`` (destination, cell) sort as one charge, one work unit
    per serialized entry and one ``add_comm`` per destination batch
    (here summed per sender); each receiver pays one work unit and one
    atomic per entry.  The deltas apply in (source, destination, cell)
    order, so the ledger's updated set gets the oracle's first-touch
    order.  Returns ``(messages, bytes)`` sent.
    """
    sizes = np.array([cells.size for cells, _ in drained], dtype=np.int64)
    total = int(sizes.sum())
    if total == 0:
        return 0, 0
    n = len(tracker)
    cells = np.concatenate([cells for cells, _ in drained])
    deltas = np.concatenate([deltas for _, deltas in drained])
    sources = np.repeat(np.arange(n, dtype=np.int64), sizes)
    owners = owner_of[cells]
    order = np.lexsort((cells, owners, sources))
    pairs = (sources * n + owners)[order]
    # One message per distinct (source, destination) pair.
    firsts = np.flatnonzero(np.diff(pairs, prepend=-1))
    messages = np.bincount(pairs[firsts] // n, minlength=n).tolist()
    received = np.bincount(owners, minlength=n).tolist()
    for st, k, sent, got in zip(tracker, sizes.tolist(), messages, received):
        if k:
            st.add_work(k * _log2(k))  # sort the outbox by (dst, cell)
            st.add_work_int(k)  # serialize the batches
            st.add_comm(sent, k * ENTRY_BYTES)
        if got:
            st.add_work_int(got)  # deserialize + locate the cells
            st.add_atomic(got)  # the owners' fetch-and-subtracts
    ledger.subtract_many(cells[order], deltas[order])
    return int(firsts.size), total * ENTRY_BYTES
