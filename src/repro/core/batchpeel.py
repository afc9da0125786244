"""The vectorized peeling kernel: how ARB-NUCLEUS-DECOMP peels.

The scalar peel round in :mod:`repro.core.decomp` (the reference oracle)
executes one Python-level ``decode`` / intersection / ``combinations``
chain per peeled r-clique; on large frontiers the interpreter overhead
dwarfs the algorithm.  This kernel processes each peeled bucket as flat
numpy arrays instead: :func:`round_blocks` decodes the round's peeled
cells once and cuts them into blocks of about :data:`PEEL_BLOCK_WEIGHT`
gathered neighbor entries; the round loop around it is
:func:`repro.core.decomp.peel_rounds`.  :func:`update_block` is UPDATE
(Algorithm 2, lines 13-18) for one block of decoded r-cliques, and both
peels run it --- this module's :func:`peel_round_batch` and the sharded
local round (:func:`repro.distributed.batchexchange.local_round_batch`):
the live neighbor segments of the
:class:`~repro.graph.contraction.WorkingGraph` intersected with
:func:`~repro.parallel.primitives.intersect_segments`, frontier
expansion of the incident s-cliques, one vectorized probe pass over all
``comb(s, r)`` sub-cliques of every rediscovered s-clique, and the
address stream, with every charge kept per task so the sharded round
can post each shard's own.  What a surviving
s-clique does to the counts is each
peel's *apply step*, a callable: here fractional or representative
deltas through one ``np.add.at`` scatter and a vectorized first-touch
dedup feeding ``Aggregator.record_many``; in the sharded model,
representative decrements routed by owner.

The contract --- enforced by tests/test_batch_engine.py and the bench gate
--- is that a batch run's *simulated* metrics are bit-for-bit identical to
the scalar oracle's: same work, span, rounds, atomics, probes, contention,
and cache misses, same core numbers and round log.  Three mechanisms make
that possible (full rules in docs/cost-model.md):

* every work charge on the peel path is integer-valued, and integer work
  lands in :class:`~repro.parallel.runtime.PhaseStats`' exact int bin, so
  charging a closed-form *sum* per batch equals per-call charging;
* per-task span is the constant ``log2(n) * (s - r + 1)``, so the region
  max is the same constant;
* the cache simulator is order-sensitive, so the engine assembles the exact
  per-round address stream the scalar loop would emit --- decode addresses,
  then per s-clique the probe addresses of each examined sub-clique (route
  then final slot), then per applied update the count-cell address followed
  by any aggregator probe addresses --- and replays it through
  :meth:`~repro.parallel.runtime.CostTracker.access_sequence`.

Blocks run in task order, so the concatenated per-block streams and charge
sums are the whole round's (and any run of tasks, such as one shard's,
sums to what the oracle charges for exactly those tasks), and each task
keeps its *global* index for its list-buffer thread id.

The kernel requires plain ndarray peeling state, so
:func:`~repro.core.decomp.arb_nucleus_decomp` runs the scalar oracle
instead whenever the tracker
:attr:`~repro.parallel.runtime.CostTracker.runs_reference` (a race
detector's shadow arrays and per-task ownership only exist there).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..cliques.batchlist import expand_cliques, weight_blocks
from ..parallel.primitives import interleave_segments, intersect_segments
from ..parallel.runtime import CostTracker, _log2

_ALIVE, _PEELING, _PEELED = 0, 1, 2

#: Peeled r-cliques (tasks) vectorized together: a block closes once the
#: running sum of its tasks' weights reaches this bound, a task weighing
#: the live neighbor entries UPDATE gathers for it (``working.lengths``
#: summed over its r vertices) plus one --- the lister's
#: ``ROOT_BLOCK_WEIGHT`` rule.  Bounds the per-block intersection,
#: rediscovery, probe and address-replay arrays; a round runs as blocks
#: in task order.
PEEL_BLOCK_WEIGHT = 1 << 15

#: Batch kernel -> the scalar oracle whose answers and tracker charges it
#: must reproduce bit for bit.  ``tests/test_parity_registry.py`` runs
#: both paths and compares them; every top-level function of a ``batch*``
#: module that takes a ``tracker`` needs an entry.
PARLINT_PARITY = {
    "peel_round_batch": "repro.core.decomp._peel_round",
    "contract_round_batch": "repro.core.decomp._contract_round",
    "_edges_alive_many": "repro.core.tables.CliqueTable.cell_of",
    "update_block": "repro.core.decomp._update_one",
}


def peel_round_batch(round_id: int, peel_cells: np.ndarray, graph_n: int,
                     dg, working, table, aggregator, status, last_round,
                     threads: int, fractional: bool, r: int, s: int,
                     tracker: CostTracker) -> None:
    """One round's UPDATE region, vectorized: the peeled cells run through
    :func:`update_block` in the blocks of :func:`round_blocks`, in task
    order.  Same arguments, charges and effects as the scalar oracle
    :func:`repro.core.decomp._peel_round`."""
    comb_cols = np.asarray(list(combinations(range(s), r)), dtype=np.int64)
    cache_on = tracker.cache is not None

    def apply(row_task, cells, state, live, representative):
        """UPDATE-FUNC's count updates (Algorithm 2, lines 5-12) for one
        block's discovered s-clique rows in round ``round_id``; returns
        the per-row update addresses when the cache simulator is on."""
        alive = state == _ALIVE
        if fractional:
            apply_row = live
            row_delta = -1.0 / np.maximum((state == _PEELING).sum(axis=1), 1)
        else:
            apply_row = live & representative
            row_delta = np.full(cells.shape[0], -1.0)
        update_rows = np.flatnonzero(apply_row)
        alive_sel = alive[update_rows]
        update_cells = cells[update_rows][alive_sel]  # row-major: scalar order
        update_row_of = np.repeat(update_rows, alive_sel.sum(axis=1))
        n_updates = update_cells.size
        # PAR010 waiver: row_delta (-1/n_peeling) is the batch replay of the
        # scalar engine's fractional delta --- order-dependent in float
        # arithmetic, but np.add.at applies it in fixed row-major order and
        # every consumer re-rounds with np.rint, so the engine-parity gate
        # (bit-for-bit batch == scalar metrics) already pins the result.
        count_addrs = table.add_count_at_many(  # parlint: disable=PAR010
            update_cells, row_delta[update_row_of],
            collect_addresses=cache_on)

        # -- first-touch dedup and aggregation (vectorized last_round stamp).
        sink = [] if (cache_on and aggregator.name == "hash") else None
        record_mask = first_touches(update_cells, last_round, round_id)
        if n_updates:
            # Thread ids come from the task's index within the whole round.
            aggregator.record_many(
                update_cells[record_mask],
                row_task[update_row_of[record_mask]] % threads,
                address_sink=sink)
        if not cache_on:
            return None

        # -- per applied update the count-cell address followed by the
        # aggregator's captured probe addresses, grouped by row.
        update_lens = np.ones(n_updates, dtype=np.int64)
        update_flat = count_addrs.astype(np.int64)
        if sink:
            agg_flat, record_lens = sink[0]
            agg_lens = np.zeros(n_updates, dtype=np.int64)
            agg_lens[record_mask] = record_lens
            update_flat = interleave_segments(update_flat, update_lens,
                                              agg_flat, agg_lens)
            update_lens += agg_lens
        row_lens = np.zeros(cells.shape[0], dtype=np.int64)
        np.add.at(row_lens, update_row_of, update_lens)
        return update_flat, row_lens

    with tracker.parallel(int(peel_cells.size)) as region:
        for base, decoded in round_blocks(peel_cells, table, working,
                                          cache_on):
            update_block(decoded, base, comb_cols, dg, working, table,
                         status, apply, r, s, cache_on, tracker)
        # One O(log n) intersection per completion level.
        region.task_span(_log2(graph_n) * (s - r + 1))


def round_blocks(peel_cells: np.ndarray, table, working,
                 collect_addresses: bool):
    """Decode a round's peeled cells once, uncharged, and cut them into
    blocks of :data:`PEEL_BLOCK_WEIGHT` in task order.

    Yields ``(task_base, decoded)``: the block's first task index within
    the round and its slice of
    :meth:`~repro.core.tables.CliqueTable.decode_uncharged`'s ``(cliques,
    work, addresses, address_lens)``, the input of :func:`update_block`.
    Nothing a block does changes a weight: the working graph only
    changes between rounds (contraction).
    """
    cliques, work, addresses, address_lens = table.decode_uncharged(
        peel_cells, collect_addresses)
    weights = working.lengths[cliques].sum(axis=1) + 1
    address_ends = np.cumsum(address_lens)
    for start, stop in weight_blocks(weights, PEEL_BLOCK_WEIGHT):
        lo = int(address_ends[start - 1]) if start else 0
        yield start, (cliques[start:stop], work[start:stop],
                      addresses[lo:int(address_ends[stop - 1])],
                      address_lens[start:stop])


def first_touches(cells: np.ndarray, stamp: np.ndarray,
                  round_id: int) -> np.ndarray:
    """The round's first-touch dedup, for a whole batch: mark the entries
    of ``cells`` that touch their cell first in round ``round_id`` (its
    ``stamp`` differs and no earlier entry names it), stamp those cells,
    and return the mask.

    The batch form of the per-update test-and-set ``if stamp[cell] !=
    round_id: stamp[cell] = round_id``, so the marked cells come out in
    the order the scalar loop would record them.  Charges nothing.
    """
    fresh = np.flatnonzero(stamp[cells] != round_id)
    if fresh.size > 1:
        _, first = np.unique(cells[fresh], return_index=True)
        fresh = fresh[first]
    mask = np.zeros(cells.size, dtype=bool)
    mask[fresh] = True
    stamp[cells[fresh]] = round_id
    return mask


def contract_round_batch(peel_cells: np.ndarray, contraction, table, status,
                         tracker: CostTracker) -> None:
    """Graph contraction after a round (Section 5.6), batched: one
    ``decode_many`` for the peeled edges (its addresses replayed in scalar
    order) and :func:`_edges_alive_many` for the liveness checks.  Same
    charges as the scalar oracle :func:`repro.core.decomp._contract_round`.
    """
    cache_on = tracker.cache is not None
    edges, dec_addrs, _ = table.decode_many(peel_cells,
                                            collect_addresses=cache_on)
    if cache_on:
        tracker.access_sequence(dec_addrs)
    contraction.note_peeled_edges(edges)
    contraction.maybe_contract(
        None, edges_alive_many=lambda pairs: _edges_alive_many(
            pairs, table, status, tracker, cache_on))


def _edges_alive_many(pairs, table, status, tracker, cache_on) -> np.ndarray:
    """Batch form of the contraction liveness lambda.

    Charges exactly what ``m`` scalar ``cell_of`` calls would --- per pair
    the routing profile plus ``probes * suffix_width`` work and ``probes``
    table probes, with the route-then-slot addresses replayed in pair
    order.  Every checked pair is an original edge of G, hence present.
    """
    rows = np.sort(np.asarray(pairs, dtype=np.int64), axis=1)
    cells, probes, slot_addrs, route_addrs = table.lookup_many(rows)
    route_work, route_probes, _ = table.route_charge_profile()
    m = rows.shape[0]
    total_probes = int(probes.sum())
    tracker.add_work_int(m * route_work + total_probes * table.suffix_width)
    tracker.add_probes(m * route_probes + total_probes)
    if cache_on:
        tracker.access_sequence(np.concatenate(
            [route_addrs, slot_addrs[:, None]], axis=1).reshape(-1))
    return status[cells] != _PEELED


def update_block(decoded, task_base, comb_cols, dg, working, table, status,
                 apply, r, s, collect_addresses, tracker=None):
    """UPDATE for one block of a round's peeled r-cliques, batched
    (Algorithm 2, lines 13-18); both peels run it.

    ``decoded`` is the block's slice of
    :meth:`~repro.core.tables.CliqueTable.decode_uncharged`'s ``(cliques,
    work, addresses, address_lens)``, as :func:`round_blocks` yields it.
    Rediscovers every incident s-clique in scalar discovery order, probes
    their sub-cliques and hands the rows that survive to the peel's
    *apply step*::

        apply(row_task, cells, state, live, representative)

    ``row_task`` is each row's task index within the round (the block
    starts at ``task_base``), ``cells`` / ``state`` the ``(rows, C(s,r))``
    sub-clique cells and statuses, ``live`` marks rows with no PEELED and
    some ALIVE sub-clique, and ``representative`` rows whose base
    r-clique is their least peeling sub-clique.  The apply step accounts
    for its own updates and returns ``(addresses, per-row lengths)`` of
    the simulated addresses they touch, or None.

    Returns the block's charges per task, in task order: ``(work,
    probes, s_cliques, addresses, address_lens)`` --- work (decode
    included), table probes and discovered s-cliques, and the simulated
    address stream (each task's segment in scalar order, ``address_lens``
    long; empty unless ``collect_addresses``).  Given a ``tracker``, it
    also posts their sums and replays the stream there (the single-node
    peel); without one it charges nothing and the caller posts them (the
    sharded round, shard by shard).
    """
    cliques, dec_work, dec_addrs, dec_lens = decoded
    n_tasks = cliques.shape[0]

    # -- candidates: the intersection of the clique's live neighbor
    # segments, charged min_i |N(v_i)| + 1 per task (one unit for r = 1).
    lens = working.lengths[cliques]
    cand_values = working.gather(cliques[:, 0])
    cand_lens = lens[:, 0]
    if r == 1:
        work = dec_work + 1
    else:
        work = dec_work + lens.min(axis=1) + 1
        for j in range(1, r):
            cand_values, cand_lens = intersect_segments(
                cand_values, cand_lens, working.gather(cliques[:, j]),
                lens[:, j])

    # -- enumerate incident s-cliques (rows) in scalar discovery order;
    # tasks whose candidates cannot complete one are skipped without
    # charge, like the scalar early return.
    keep = cand_lens >= s - r
    eligible = np.flatnonzero(keep)
    rows, base_of, base_work = expand_cliques(
        dg, cliques[eligible], cand_values[np.repeat(keep, cand_lens)],
        cand_lens[eligible], s - r)
    work[eligible] += base_work
    row_task = eligible[base_of]
    n_rows = rows.shape[0]
    probes = np.zeros(n_tasks, dtype=np.int64)
    addresses, address_lens = dec_addrs.astype(np.int64), dec_lens
    if n_rows:
        # -- probe every sub-clique until the scalar loop would stop
        # (first PEELED): per row the examined subsets' route + probe
        # costs.
        n_combs = comb_cols.shape[0]
        subsets = np.sort(rows, axis=1)[:, comb_cols]  # (rows, combs, r)
        cells_flat, probes_flat, slot_addrs, route_addrs = \
            table.lookup_many(subsets.reshape(n_rows * n_combs, r))
        cells = cells_flat.reshape(n_rows, n_combs)
        state = status[cells]
        peeled = state == _PEELED
        has_peeled = peeled.any(axis=1)
        probed_count = np.where(has_peeled, peeled.argmax(axis=1) + 1,
                                n_combs)
        probed_mask = np.arange(n_combs)[np.newaxis, :] \
            < probed_count[:, None]
        examined = (probes_flat.reshape(n_rows, n_combs)
                    * probed_mask).sum(axis=1)
        route_work, route_probes, route_len = table.route_charge_profile()
        work += np.bincount(row_task, s + probed_count * route_work
                            + examined * table.suffix_width,
                            n_tasks).astype(np.int64)
        probes = np.bincount(row_task, probed_count * route_probes
                             + examined, n_tasks).astype(np.int64)

        # -- the apply step; the representative rule compares each row's
        # base with its first peeling subset in combination order (every
        # row has one: its base).
        live = ~has_peeled & (state == _ALIVE).any(axis=1)
        first_peeling = (state == _PEELING).argmax(axis=1)
        representative = (subsets[np.arange(n_rows), first_peeling]
                          == rows[:, :r]).all(axis=1)
        updates = apply(task_base + row_task, cells, state, live,
                        representative)

        if collect_addresses:
            # -- the exact scalar address stream: per task its decode
            # addresses, then per discovered s-clique the probed subsets'
            # route + slot addresses followed by its updates' addresses.
            row_flat = np.concatenate(
                [route_addrs.reshape(n_rows, n_combs, route_len),
                 slot_addrs.reshape(n_rows, n_combs, 1)], axis=2)[
                probed_mask].reshape(-1).astype(np.int64)
            row_lens = probed_count * (route_len + 1)
            if updates is not None:
                update_flat, update_lens = updates
                row_flat = interleave_segments(row_flat, row_lens,
                                               update_flat, update_lens)
                row_lens = row_lens + update_lens
            task_lens = np.bincount(row_task, row_lens,
                                    n_tasks).astype(np.int64)
            addresses = interleave_segments(addresses, dec_lens, row_flat,
                                            task_lens)
            address_lens = dec_lens + task_lens

    if tracker is not None:
        tracker.add_work_int(int(work.sum()))
        tracker.add_probes(int(probes.sum()))
        tracker.add_cliques(n_rows)
        if collect_addresses:
            tracker.access_sequence(addresses)
    return work, probes, np.bincount(row_task, minlength=n_tasks), \
        addresses, address_lens
