"""The vectorized peeling kernel: how ARB-NUCLEUS-DECOMP peels.

The scalar peel loop in :mod:`repro.core.decomp` (the reference oracle)
executes one Python-level ``decode`` / intersection / ``combinations``
chain per peeled r-clique; on large frontiers the interpreter overhead
dwarfs the algorithm.  This kernel processes each peeled bucket as flat
numpy arrays instead, in blocks of :data:`PEEL_BLOCK_TASKS` tasks.
:func:`update_block` is UPDATE (Algorithm 2, lines 13-18) for one block,
and both peels run it --- this module's :func:`peel_batch` and the
sharded local round
(:func:`repro.distributed.batchexchange.local_round_batch`): batch
decode, the live neighbor segments of the
:class:`~repro.graph.contraction.WorkingGraph` intersected with
:func:`~repro.parallel.primitives.intersect_segments`, frontier
expansion of the incident s-cliques, one vectorized probe pass over all
``comb(s, r)`` sub-cliques of every rediscovered s-clique, and the
address replay.  What a surviving s-clique does to the counts is each
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
sums are the whole round's, and each task keeps its *global* index for its
list-buffer thread id.

The kernel requires plain ndarray peeling state, so
:func:`~repro.core.decomp.arb_nucleus_decomp` runs the scalar oracle
instead whenever the tracker
:attr:`~repro.parallel.runtime.CostTracker.runs_reference` (a race
detector's shadow arrays and per-task ownership only exist there).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from ..cliques.batchlist import expand_cliques
from ..parallel.primitives import interleave_segments, intersect_segments
from ..parallel.runtime import CostTracker, _log2

_ALIVE, _PEELING, _PEELED = 0, 1, 2

#: Peeled r-cliques (tasks) vectorized together.  Bounds the per-block
#: rediscovery, probe and address-replay arrays; a round of more tasks
#: runs as several blocks in task order.
PEEL_BLOCK_TASKS = 256

#: Batch kernel -> the scalar oracle whose answers and tracker charges it
#: must reproduce bit for bit.  ``tests/test_parity_registry.py`` runs
#: both paths and compares them; every top-level function of a ``batch*``
#: module that takes a ``tracker`` needs an entry.
PARLINT_PARITY = {
    "peel_batch": "repro.core.decomp._peel_scalar",
    "_edges_alive_many": "repro.core.tables.CliqueTable.cell_of",
    "update_block": "repro.core.decomp._update_one",
}


def peel_batch(*, graph, dg, working, table, buckets, aggregator, meter,
               status, last_round, cores, contraction, config,
               tracker: CostTracker, n_r: int, r: int, s: int,
               fractional: bool) -> tuple[int, int, list]:
    """Run the peeling phase vectorized; returns (rho, max_core, log).

    Mirrors the scalar loop round for round: same bucket extractions, same
    begin_round/settle/finish_round sequence, same contraction triggers.
    """
    subsets_per_s = comb(s, r)
    comb_cols = np.asarray(list(combinations(range(s), r)), dtype=np.int64)
    task_span = _log2(graph.n) * (s - r + 1)
    cache_on = tracker.cache is not None
    finished = 0
    rho = 0
    round_id = 0
    max_core = 0
    round_log: list[tuple[int, int, int]] = []

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
        record_mask = np.zeros(n_updates, dtype=bool)
        if n_updates:
            fresh = last_round[update_cells] != round_id
            _, first_index = np.unique(update_cells, return_index=True)
            first_in_batch = np.zeros(n_updates, dtype=bool)
            first_in_batch[first_index] = True
            record_mask = fresh & first_in_batch
            record_cells = update_cells[record_mask]
            last_round[record_cells] = round_id
            # Thread ids come from the task's index within the whole round.
            aggregator.record_many(
                record_cells, row_task[update_row_of[record_mask]]
                % config.threads, address_sink=sink)
        if not cache_on:
            return None

        # -- per applied update the count-cell address followed by the
        # aggregator's captured probe addresses, grouped by row.
        update_lens = np.ones(n_updates, dtype=np.int64)
        update_flat = count_addrs.astype(np.int64)
        if sink:
            agg_lens = np.zeros(n_updates, dtype=np.int64)
            agg_lens[record_mask] = np.fromiter(
                (seg.size for seg in sink), dtype=np.int64, count=len(sink))
            update_flat = interleave_segments(
                update_flat, update_lens,
                np.concatenate(sink).astype(np.int64), agg_lens)
            update_lens += agg_lens
        row_lens = np.zeros(cells.shape[0], dtype=np.int64)
        np.add.at(row_lens, update_row_of, update_lens)
        return update_flat, row_lens

    while finished < n_r:
        level, peel_cells = buckets.next_bucket()
        rho += 1
        tracker.add_round()
        max_core = max(max_core, level)
        cores[peel_cells] = level
        status[peel_cells] = _PEELING
        finished += peel_cells.size
        estimate = int(peel_cells.size) * max(1, level) * \
            max(1, subsets_per_s - 1)
        aggregator.begin_round(int(peel_cells.size), estimate)

        with tracker.parallel(int(peel_cells.size)) as region:
            for base in range(0, int(peel_cells.size), PEEL_BLOCK_TASKS):
                update_block(peel_cells[base:base + PEEL_BLOCK_TASKS], base,
                             comb_cols, dg, working, table, status, apply,
                             r, s, tracker)
            region.task_span(task_span)

        meter.settle(tracker)
        updated = aggregator.finish_round()
        round_log.append((level, int(peel_cells.size), int(updated.size)))
        status[peel_cells] = _PEELED
        if updated.size:
            new_values = np.rint(table.counts[updated]).astype(np.int64)
            buckets.update(updated, new_values)
        if contraction is not None:
            edges, dec_addrs, _ = table.decode_many(
                peel_cells, collect_addresses=cache_on)
            if cache_on:
                tracker.access_sequence(dec_addrs)
            for u, v in edges:
                contraction.note_peeled_edge(int(u), int(v))
            contraction.maybe_contract(
                lambda a, b: status[table.cell_of(
                    (a, b) if a < b else (b, a))] != _PEELED,
                edges_alive_many=lambda pairs: _edges_alive_many(
                    pairs, table, status, tracker, cache_on))
        round_id += 1
    return rho, max_core, round_log


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


def update_block(peel_cells, task_base, comb_cols, dg, working, table,
                 status, apply, r, s, tracker) -> None:
    """UPDATE for one block of a round's peeled r-cliques, batched
    (Algorithm 2, lines 13-18); both peels run it.

    Decodes the block, rediscovers every incident s-clique in scalar
    discovery order, probes their sub-cliques and hands the rows that
    survive to the peel's *apply step*::

        apply(row_task, cells, state, live, representative)

    ``row_task`` is each row's task index within the round (the block
    starts at ``task_base``), ``cells`` / ``state`` the ``(rows, C(s,r))``
    sub-clique cells and statuses, ``live`` marks rows with no PEELED and
    some ALIVE sub-clique, and ``representative`` rows whose base
    r-clique is their least peeling sub-clique.  The apply step charges
    its own updates and returns ``(addresses, per-row lengths)`` of the
    simulated addresses they touch, or None; the block's stream is then
    replayed in scalar order.
    """
    n_tasks = peel_cells.size
    cache_on = tracker.cache is not None
    cliques, dec_addrs, dec_lens = table.decode_many(
        peel_cells, collect_addresses=cache_on)

    # -- candidates: the intersection of the clique's live neighbor
    # segments, charged min_i |N(v_i)| + 1 per task (one unit for r = 1).
    lens = working.lengths[cliques]
    cand_values = working.gather(cliques[:, 0])
    cand_lens = lens[:, 0]
    if r == 1:
        tracker.add_work_int(n_tasks)
    else:
        tracker.add_work_int(int(lens.min(axis=1).sum()) + n_tasks)
        for j in range(1, r):
            cand_values, cand_lens = intersect_segments(
                cand_values, cand_lens, working.gather(cliques[:, j]),
                lens[:, j])

    # -- enumerate incident s-cliques (rows) in scalar discovery order;
    # tasks whose candidates cannot complete one are skipped without
    # charge, like the scalar early return.
    eligible = cand_lens >= s - r
    rows, base_of = expand_cliques(
        dg, cliques[eligible], cand_values[np.repeat(eligible, cand_lens)],
        cand_lens[eligible], s - r, tracker)
    row_task = np.flatnonzero(eligible)[base_of]
    n_rows = rows.shape[0]
    if n_rows == 0:
        if cache_on:
            tracker.access_sequence(dec_addrs)
        return

    # -- probe every sub-clique until the scalar loop would stop (first
    # PEELED), charging the per-subset route + probe costs in bulk.
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

    # -- the apply step; the representative rule compares each row's base
    # with its first peeling subset in combination order (every row has
    # one: its base).
    live = ~has_peeled & (state == _ALIVE).any(axis=1)
    first_peeling = (state == _PEELING).argmax(axis=1)
    representative = (subsets[np.arange(n_rows), first_peeling]
                      == rows[:, :r]).all(axis=1)
    updates = apply(task_base + row_task, cells, state, live, representative)
    if not cache_on:
        return

    # -- replay the exact scalar address stream: per task its decode
    # addresses, then per discovered s-clique the probed subsets' route +
    # slot addresses followed by its updates' addresses.
    row_flat = np.concatenate(
        [route_addrs.reshape(n_rows, n_combs, route_len),
         slot_addrs.reshape(n_rows, n_combs, 1)], axis=2)[
        probed_mask].reshape(-1).astype(np.int64)
    row_lens = probed_count * (route_len + 1)
    if updates is not None:
        update_flat, update_lens = updates
        row_flat = interleave_segments(row_flat, row_lens, update_flat,
                                       update_lens)
        row_lens = row_lens + update_lens
    task_lens = np.zeros(n_tasks, dtype=np.int64)
    np.add.at(task_lens, row_task, row_lens)
    tracker.access_sequence(interleave_segments(
        dec_addrs.astype(np.int64), dec_lens, row_flat, task_lens))
