"""Vectorized kernels of the sharded super-round: local peel and exchange.

:func:`local_round_batch` replays the charges of the scalar local-peel
oracle (:func:`repro.distributed.peel._local_round`) block by block, the
frontier-at-a-time recipe of the single-node batch peel
(:mod:`repro.core.batchpeel`): batch decode, array-valued intersections,
frontier expansion of the incident s-cliques in scalar discovery order,
one probe pass over every ``comb(s, r)`` sub-clique, and the
representative rule as array masks.  The surviving decrements then route
by owner in the scalar loop's order --- owned cells through
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

from ..cliques.batchlist import expand_cliques
from ..core import batchpeel
from ..core.decomp import _ALIVE, _PEELED, _PEELING
from ..parallel.primitives import intersect_many, interleave_segments
from ..parallel.runtime import CostTracker, _log2
from .model import ENTRY_BYTES

PARLINT_PARITY = {
    "local_round_batch": {
        "oracle": "repro.distributed.peel._local_round",
        "fingerprint": {
            "_local_block": 1,
            "add_round": 1,
            "task_span": 1,
        },
    },
    "_local_block": {
        "oracle": "repro.distributed.peel._update_one_sharded",
        "fingerprint": {
            "access_sequence": 2,
            "add_atomic": 1,
            "add_probes": 1,
            "add_work_int": 3,
            "expand_cliques": 1,
            "intersect_many": 1,
        },
    },
    "exchange_batch": {
        "oracle": "repro.distributed.peel._exchange_scalar",
        "fingerprint": {
            "add_atomic": 1,
            "add_comm": 1,
            "add_work": 1,
            "add_work_int": 2,
        },
    },
}


def local_round_batch(shard: int, mine: np.ndarray, r: int, s: int,
                      graph_n: int, table, dg, working, status, owner_of,
                      ledger, outbox, tracker: CostTracker) -> None:
    """One shard's local peel work for one super-round, vectorized.

    Same arguments, charges and ledger/outbox effects as the scalar
    oracle; the peeled cells ``mine`` run in blocks of
    :data:`~repro.core.batchpeel.PEEL_BLOCK_TASKS` tasks, in task order.
    """
    comb_cols = np.asarray(list(combinations(range(s), r)), dtype=np.int64)
    cache_on = tracker.cache is not None
    with tracker.phase("local_peel"):
        tracker.add_round()
        with tracker.parallel(int(mine.size)) as region:
            block = batchpeel.PEEL_BLOCK_TASKS
            for base in range(0, int(mine.size), block):
                _local_block(shard, mine[base:base + block], comb_cols, dg,
                             working, table, status, owner_of, ledger,
                             outbox, cache_on, r, s, tracker)
            # One O(log n) intersection per completion level.
            region.task_span(_log2(graph_n) * (s - r + 1))


def _local_block(shard, peel_cells, comb_cols, dg, working, table, status,
                 owner_of, ledger, outbox, cache_on, r, s, tracker) -> None:
    """UPDATE for one block of a shard's peeled r-cliques, batched, with
    the decrements routed by owner."""
    n_tasks = peel_cells.size
    cliques, dec_addrs, dec_lens = table.decode_many(
        peel_cells, collect_addresses=cache_on)

    # -- rediscover the incident s-cliques (rows) in scalar discovery
    # order; tasks whose candidates cannot complete one are skipped
    # without charge, like the scalar early return.
    if r == 1:
        candidates = [working.neighbors(int(v)) for v in cliques[:, 0]]
        tracker.add_work_int(n_tasks)
    else:
        candidates = intersect_many(
            [[working.neighbors(int(v)) for v in row] for row in cliques],
            tracker)
    sizes = np.fromiter((c.size for c in candidates), dtype=np.int64,
                        count=n_tasks)
    eligible = np.flatnonzero(sizes >= s - r)
    cand_values = np.concatenate(
        [candidates[t] for t in eligible]).astype(np.int64) \
        if eligible.size else np.empty(0, dtype=np.int64)
    rows, base_of = expand_cliques(dg, cliques[eligible], cand_values,
                                   sizes[eligible], s - r, tracker)
    row_task = eligible[base_of]
    n_rows = rows.shape[0]
    if n_rows == 0:
        if cache_on:
            tracker.access_sequence(dec_addrs)
        return

    # -- probe every sub-clique up to the first PEELED one, charging the
    # per-subset route + probe costs in bulk.
    n_combs = comb_cols.shape[0]
    subsets = np.sort(rows, axis=1)[:, comb_cols]  # (n_rows, n_combs, r)
    cells_flat, probes_flat, slot_addrs, route_addrs = table.lookup_many(
        subsets.reshape(n_rows * n_combs, r))
    cells = cells_flat.reshape(n_rows, n_combs)
    state = status[cells]
    peeled = state == _PEELED
    has_peeled = peeled.any(axis=1)
    probed_count = np.where(has_peeled, peeled.argmax(axis=1) + 1, n_combs)
    probed_mask = np.arange(n_combs)[np.newaxis, :] < probed_count[:, None]
    probes_examined = int(probes_flat.reshape(n_rows, n_combs)[
        probed_mask].sum())
    n_probed = int(probed_count.sum())
    route_work, route_probes, route_len = table.route_charge_profile()
    tracker.add_work_int(n_rows * s + n_probed * route_work
                         + probes_examined * table.suffix_width)
    tracker.add_probes(n_probed * route_probes + probes_examined)

    # -- representative rule: a surviving row subtracts only when its base
    # r-clique is its least peeling sub-clique (the first peeling subset
    # in combination order; every row has one --- its base).
    alive = state == _ALIVE
    first_peeling = (state == _PEELING).argmax(axis=1)
    representative = subsets[np.arange(n_rows), first_peeling]
    apply_row = ~has_peeled & alive.any(axis=1) & (
        representative == rows[:, :r]).all(axis=1)
    update_cells = cells[apply_row][alive[apply_row]]  # the scalar order
    if update_cells.size:
        tracker.add_work_int(update_cells.size)
        tracker.add_atomic(update_cells.size)
        owned = owner_of[update_cells] == shard
        ledger.subtract_many(update_cells[owned], 1)
        outbox.buffer_many(update_cells[~owned])

    if cache_on:
        # Per task its decode addresses, then per discovered s-clique the
        # probed subsets' route + slot addresses (the ledger and outbox
        # touch no simulated addresses).
        addrs = np.concatenate(
            [route_addrs.reshape(n_rows, n_combs, route_len),
             slot_addrs.reshape(n_rows, n_combs, 1)], axis=2)
        task_lens = np.zeros(n_tasks, dtype=np.int64)
        np.add.at(task_lens, row_task, probed_count * (route_len + 1))
        tracker.access_sequence(interleave_segments(
            dec_addrs.astype(np.int64), dec_lens,
            addrs[probed_mask].reshape(-1).astype(np.int64), task_lens))


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
