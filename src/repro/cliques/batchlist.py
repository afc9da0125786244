"""The vectorized frontier clique lister: how REC-LIST-CLIQUES runs.

:mod:`repro.cliques.listing` keeps REC-LIST-CLIQUES (Algorithm 1) as a
per-vertex Python recursion with one callback per discovered clique ---
correct, and the cost-model **reference oracle**, but interpreter-bound
on the two hottest call sites: the s-clique count of Algorithm 2 (lines
21--22) and every UPDATE completion during peeling (line 17).  This
module is the iterative, level-synchronous equivalent the library runs:
each recursion level lives as one flat *frontier*

    ``bases``        -- an ``(k, d)`` int64 matrix of partial cliques,
    ``cand_values``  -- the k candidate sets, concatenated,
    ``cand_lens``    -- their lengths,

and a whole level is expanded at once with the row-keyed segment
intersection of :func:`repro.parallel.primitives.intersect_segments`.
Discovered cliques come out as ``(count, c)`` int64 blocks for array-aware
sinks (bulk table updates in the count phase, ``record_many``-style
consumers in UPDATE) instead of one Python tuple per clique.

The contract is the same one the batch *peeling* engine established
(docs/cost-model.md): bit-for-bit identical simulated costs versus the
scalar recursion --- work, span, rounds, atomics, contention, table
probes, and cache misses --- and the identical clique discovery order.
Level-synchronous expansion preserves discovery order because every level
keeps its frontier in parent order and appends children in candidate
order, so the leaves of the final level enumerate exactly the depth-first
preorder the recursion would visit.  All listing charges are
integer-valued (per-vertex ``out + 1`` roots, per-intersection ``min + 1``,
per-emission ``1``), so closed-form sums through
:meth:`~repro.parallel.runtime.CostTracker.add_work_int` equal the scalar
loop's per-call charges exactly; the one fractional charge on the counting
path (COUNT-FUNC's ``s·log₂s`` sort) is replayed with
:meth:`~repro.parallel.runtime.CostTracker.add_work_frac_repeated`.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..graph.csr import DirectedGraph
from ..parallel.primitives import intersect_segments, segment_gather
from ..parallel.runtime import CostTracker, _log2

#: Rows per sink block: bounds the sink's temporaries (e.g. the count
#: phase's ``rows x C(s,r) x r`` subset matrix).
BLOCK_ROWS = 65536

#: Roots expanded together by :func:`batch_list_cliques`: a block of roots
#: closes once the running sum of their squared out-degrees (the size of
#: their second frontier level) reaches this bound.  Blocks run in root
#: order, so discovery order and charge sums are those of one expansion.
ROOT_BLOCK_WEIGHT = 1 << 15

#: Batch kernel -> scalar oracle, checked by running both paths; see
#: :data:`repro.core.batchpeel.PARLINT_PARITY`.
PARLINT_PARITY = {
    "expand_cliques": "repro.cliques.listing.rec_list_cliques",
    "batch_list_cliques": "repro.cliques.listing.list_cliques",
    "batch_count_phase": "repro.core.decomp._count_scalar",
}


def expand_cliques(dg: DirectedGraph, bases: np.ndarray,
                   cand_values: np.ndarray, cand_lens: np.ndarray,
                   levels: int, tracker: CostTracker | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Complete every base with ``levels`` more vertices, level by level.

    The batch form of calling :func:`~repro.cliques.listing.rec_list_cliques`
    once per base.  Returns ``(rows, base_of)``: the completed cliques as a
    ``(total, d + levels)`` matrix in exactly the scalar discovery order,
    and the originating base index of each row.  Charges bit-for-bit what
    the per-base recursions would.
    """
    bases = np.asarray(bases, dtype=np.int64)
    if bases.ndim != 2:
        raise ValueError("bases must be a (k, d) matrix")
    cand_values = np.asarray(cand_values, dtype=np.int64)
    cand_lens = np.asarray(cand_lens, dtype=np.int64)
    base_of = np.arange(bases.shape[0], dtype=np.int64)
    if levels <= 0:
        # rec_list_cliques(levels=0): emit each base as-is, one clique each.
        if tracker is not None:
            tracker.add_cliques(bases.shape[0])
        return bases.copy(), base_of

    out_width = bases.shape[1] + levels
    level = levels
    while level >= 2 and cand_lens.size:
        # Each candidate v of each frontier entry spawns one child whose
        # candidate set is intersect(cands, N+(v)) --- the pruning step of
        # Algorithm 1, for the whole level in one keyed merge.
        parent_of = np.repeat(np.arange(cand_lens.size, dtype=np.int64),
                              cand_lens)
        chosen = cand_values
        out_lens = dg.offsets[chosen + 1] - dg.offsets[chosen]
        parent_cands = segment_gather(
            cand_values, _segment_starts(cand_lens)[parent_of],
            cand_lens[parent_of])
        out_values = segment_gather(dg.targets, dg.offsets[chosen], out_lens)
        child_values, child_lens = intersect_segments(
            parent_cands, cand_lens[parent_of], out_values, out_lens, tracker)
        keep = child_lens >= level - 1
        bases = np.column_stack([bases[parent_of], chosen])[keep]
        base_of = base_of[parent_of][keep]
        cand_values = child_values[np.repeat(keep, child_lens)]
        cand_lens = child_lens[keep]
        level -= 1

    # Emission level: every remaining candidate completes one clique.
    total = int(cand_lens.sum())
    if tracker is not None:
        tracker.add_work_int(total)
        tracker.add_cliques(total)
    # If the frontier drained early (total == 0), bases may be narrower than
    # out_width; the empty result still carries the full clique width.
    rows = np.empty((total, out_width), dtype=np.int64)
    if total:
        rows[:, :-1] = np.repeat(bases, cand_lens, axis=0)
        rows[:, -1] = cand_values
    return rows, np.repeat(base_of, cand_lens)


def _segment_starts(lengths: np.ndarray) -> np.ndarray:
    starts = np.zeros(lengths.size, dtype=np.int64)
    if lengths.size:
        np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def batch_list_cliques(dg: DirectedGraph, c: int,
                       tracker: CostTracker | None = None,
                       sink=None) -> int:
    """List every c-clique of ``dg``; the batch form of ``list_cliques``.

    Discovered cliques are delivered to ``sink`` as ``(count, c)`` int64
    blocks in discovery order (at most :data:`BLOCK_ROWS` rows each, and
    at least one block, possibly empty); with ``sink=None`` only the count
    is returned.  Roots are expanded in blocks of bounded frontier size
    (:data:`ROOT_BLOCK_WEIGHT`).  Simulated charges are bit-for-bit those
    of :func:`~repro.cliques.listing.list_cliques`.
    """
    if c < 1:
        raise ValueError("c must be at least 1")
    if tracker is not None:
        # Analytic span charge: c levels of intersections, log n span each.
        tracker.add_span(c * _log2(dg.n))
    if c == 1:
        if tracker is not None:
            tracker.add_work(float(dg.n))
            tracker.add_cliques(dg.n)
        if sink is not None:
            rows = np.arange(dg.n, dtype=np.int64)[:, np.newaxis]
            _emit_blocks(rows, sink)
        return dg.n
    out_degs = dg.out_degrees
    if tracker is not None:
        # The root loop charges out.size + 1 per vertex before descending.
        tracker.add_work_int(int(out_degs.sum()) + dg.n)
    roots = np.flatnonzero(out_degs >= c - 1)
    lens = out_degs[roots]
    total = 0
    for start, stop in _root_blocks(lens):
        cand_lens = lens[start:stop]
        cand_values = segment_gather(dg.targets, dg.offsets[roots[start:stop]],
                                     cand_lens)
        rows, _ = expand_cliques(dg, roots[start:stop, np.newaxis],
                                 cand_values, cand_lens, c - 1, tracker)
        if sink is not None and rows.shape[0]:
            _emit_blocks(rows, sink)
        total += rows.shape[0]
    if sink is not None and total == 0:
        _emit_blocks(np.empty((0, c), dtype=np.int64), sink)
    return total


def _root_blocks(lens: np.ndarray):
    """``(start, stop)`` bounds of consecutive roots, each block closing at
    the first root whose running squared out-degree sum reaches
    :data:`ROOT_BLOCK_WEIGHT` (so every block holds at least one root)."""
    weight = np.cumsum(lens * lens)
    start = 0
    while start < lens.size:
        done = int(weight[start - 1]) if start else 0
        stop = int(np.searchsorted(weight, done + ROOT_BLOCK_WEIGHT)) + 1
        yield start, min(stop, lens.size)
        start = stop


def _emit_blocks(rows: np.ndarray, sink) -> None:
    for start in range(0, rows.shape[0], BLOCK_ROWS):
        sink(rows[start:start + BLOCK_ROWS])
    if rows.shape[0] == 0:
        sink(rows)


def batch_count_phase(dg: DirectedGraph, table, r: int, s: int,
                      relabeled: bool, tracker: CostTracker | None) -> int:
    """Algorithm 2's s-clique count (COUNT-FUNC, line 22), batched.

    Lists all s-cliques with the frontier engine and applies the
    ``C(s, r)`` per-clique count increments through
    :meth:`~repro.core.tables.CliqueTable.add_count_many`, whose charges
    and route-then-slot address stream are exactly those of one scalar
    ``add_count`` per subset.  Without relabeling, the scalar COUNT-FUNC
    charges ``s·log₂s`` per actually-unsorted tuple; the batch path
    replays those fractional charges with ``add_work_frac_repeated``.
    Returns the s-clique count.
    """
    comb_cols = np.asarray(list(combinations(range(s), r)), dtype=np.int64)
    sort_charge = s * _log2(s)

    def sink(rows: np.ndarray) -> None:
        if rows.shape[0] == 0:
            return
        if relabeled:
            ordered = rows
        else:
            ordered = np.sort(rows, axis=1)
            if tracker is not None:
                unsorted = int((ordered != rows).any(axis=1).sum())
                tracker.add_work_frac_repeated(sort_charge, unsorted)
        table.add_count_many(ordered[:, comb_cols].reshape(-1, r), 1.0)

    return batch_list_cliques(dg, s, tracker, sink=sink)
