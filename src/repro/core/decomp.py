"""ARB-NUCLEUS-DECOMP: the paper's parallel (r,s) nucleus decomposition.

Algorithm 2, with every Section 5 optimization available through
:class:`~repro.core.config.NucleusConfig`:

1. orient the graph with an O(alpha)-orientation (optionally relabeling
   vertices by rank, Section 5.4);
2. enumerate all r-cliques and build the clique table ``T``
   (one/two/multi-level, Sections 5.1--5.3);
3. count the s-cliques incident on every r-clique with REC-LIST-CLIQUES
   (``COUNT-FUNC`` increments C(s,r) cells per discovered s-clique);
4. bucket r-cliques by count and peel: each round extracts the minimum
   bucket ``A``, re-discovers the s-cliques incident to each peeled
   r-clique, and applies ``UPDATE-FUNC`` --- subtracting ``1/a`` per
   discovery so simultaneously-peeled r-cliques never over-count --- while
   aggregating the updated set ``U`` (Section 5.5) to re-bucket.

The bucket value at extraction is the r-clique's (r,s)-clique-core number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from ..bucketing import make_bucketing
from ..cliques.batchlist import batch_count_phase, batch_list_cliques
from ..cliques.listing import list_cliques, rec_list_cliques
from ..cliques.orient import orientation_rank
from ..graph.contraction import ContractionManager, WorkingGraph
from ..graph.csr import CSRGraph, DirectedGraph
from ..graph.relabel import relabel_by_rank
from ..machine.cache import AddressSpace
from ..parallel.atomics import ContentionMeter
from ..parallel.primitives import intersect_many
from ..parallel.runtime import CostTracker, _log2
from ..sanitize.racecheck import maybe_shadow
from .aggregation import make_aggregator
from .batchpeel import contract_round_batch, peel_round_batch
from .config import NucleusConfig
from .tables import CliqueTable

_ALIVE, _PEELING, _PEELED = 0, 1, 2


class CoreReport:
    """Core numbers reported in *original* vertex ids (ascending within
    each clique), regardless of relabeling.

    The reporting half of :class:`NucleusResult` and
    :class:`~repro.distributed.peel.ShardedResult`: both hold ``r``, the
    occupied cells ``_cells`` (ascending), their ``_cores``, the clique
    ``_table`` and the relabeling ``_original_of``.
    """

    def as_dict(self) -> dict[tuple[int, ...], int]:
        """Map every r-clique to its (r,s)-clique-core number."""
        cliques, _, _ = self._table.decode_many(self._cells)
        original = np.sort(self._original_of[cliques], axis=1)
        return dict(zip(map(tuple, original.tolist()),
                        self._cores.tolist()))

    @cached_property
    def _rank(self) -> np.ndarray:
        """The inverse of ``_original_of``: working id of each vertex."""
        rank = np.empty_like(self._original_of)
        rank[self._original_of] = np.arange(self._original_of.size)
        return rank

    def core_of(self, clique) -> int:
        """Core number of one r-clique given in original vertex ids.

        Raises ``KeyError`` naming the clique unless it holds ``r`` vertex
        ids in ``[0, n)`` that form an r-clique.
        """
        ids = tuple(clique)
        n = self._original_of.size
        if len(ids) != self.r or not all(0 <= v < n for v in ids):
            raise KeyError(f"{ids} is not an {self.r}-clique")
        cell = self._table.cell_of(tuple(sorted(int(self._rank[v])
                                                for v in ids)))
        if cell < 0:
            raise KeyError(f"{ids} is not an {self.r}-clique")
        return int(self._cores[np.searchsorted(self._cells, cell)])

    def core_histogram(self) -> dict[int, int]:
        """Number of r-cliques at each core value."""
        values, counts = np.unique(self._cores, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


@dataclass
class NucleusResult(CoreReport):
    """Output of one nucleus decomposition run.

    ``core_of`` / ``as_dict`` report cliques in *original* vertex ids
    (ascending within each clique), regardless of relabeling.
    """

    r: int
    s: int
    n_r_cliques: int
    n_s_cliques: int
    rho: int  # peeling rounds (the paper's rho_{(r,s)})
    max_core: int
    table_memory_units: int
    tracker: CostTracker
    config: NucleusConfig
    #: Per-round trace: (core level, r-cliques peeled, r-cliques updated).
    round_log: list[tuple[int, int, int]] = field(default_factory=list)
    _cells: np.ndarray = field(repr=False, default=None)
    _cores: np.ndarray = field(repr=False, default=None)
    _table: CliqueTable = field(repr=False, default=None)
    #: The oriented working graph the peel listed s-cliques on.
    _dg: DirectedGraph = field(repr=False, default=None)
    _original_of: np.ndarray = field(repr=False, default=None)


@dataclass
class PreparedDecomposition:
    """Phases 1--3 of ARB-NUCLEUS-DECOMP, packaged for a peeling driver.

    Both the single-node driver (:func:`arb_nucleus_decomp`) and the
    sharded multi-node driver
    (:func:`repro.distributed.peel.sharded_nucleus_decomp`) consume this:
    the oriented graph, the populated clique table with its s-clique
    counts, and the bookkeeping needed to report results in original
    vertex ids.  All charges land on :attr:`tracker` in the same phases
    (``orient`` / ``relabel`` / ``enumerate_r`` / ``build_table`` /
    ``count_s``) and the same order as before the extraction, so the
    pinned bench trajectory is unchanged.
    """

    config: NucleusConfig
    tracker: CostTracker
    work_graph: CSRGraph
    dg: DirectedGraph
    original_of: np.ndarray
    table: CliqueTable
    n_r: int
    n_s: int


def prepare_decomposition(graph: CSRGraph, r: int, s: int,
                          config: NucleusConfig | None = None,
                          tracker: CostTracker | None = None
                          ) -> PreparedDecomposition:
    """Run phases 1--3 (orient, enumerate r-cliques + build T, count
    s-cliques) and return the shared state every peeling driver needs."""
    if config is None:
        config = NucleusConfig.optimal(r, s)
    config = config.validated(graph.n, r, s)
    if tracker is None:
        tracker = CostTracker()

    # -- Phase 1: orientation (Algorithm 2, line 20) and relabeling (5.4).
    with tracker.phase("orient"):
        rank = orientation_rank(graph, config.orientation, tracker)
    if config.relabel:
        with tracker.phase("relabel"):
            work_graph, original_of = relabel_by_rank(graph, rank, tracker)
            work_rank = np.arange(graph.n)
    else:
        work_graph = graph
        original_of = np.arange(graph.n)
        work_rank = rank
    dg = DirectedGraph.orient(work_graph, work_rank)
    reference = tracker.runs_reference

    # -- Phase 2: enumerate r-cliques and build T (line 21).
    with tracker.phase("enumerate_r"):
        if r == 1:
            n_r = graph.n
            cliques = np.arange(graph.n, dtype=np.int64)[:, np.newaxis]
        elif reference:
            rows: list[tuple] = []
            n_r = list_cliques(dg, r, rows.append, tracker)
            cliques = np.asarray(rows, dtype=np.int64).reshape(n_r, r)
        else:
            blocks: list[np.ndarray] = []
            n_r = batch_list_cliques(dg, r, tracker, sink=blocks.append)
            cliques = np.concatenate(blocks, axis=0)
        cliques = cliques.reshape(n_r, r)
        if not config.relabel and n_r:
            # Discovery order is rank order; keys need ascending ids.
            tracker.add_work(n_r * r * _log2(r))
            cliques = np.sort(cliques, axis=1)
    with tracker.phase("build_table"):
        table = CliqueTable(
            work_graph.n, r, cliques, levels=config.levels,
            style=config.table_style, contiguous=config.contiguous,
            inverse_map=config.inverse_map, tracker=tracker,
            address_space=AddressSpace())

    if n_r == 0:
        return PreparedDecomposition(config, tracker, work_graph, dg,
                                     original_of, table, 0, 0)

    # -- Phase 3: count s-cliques per r-clique (COUNT-FUNC, line 22).
    relabeled = config.relabel
    with tracker.phase("count_s"):
        if reference:
            n_s = _count_scalar(dg, table, r, s, relabeled, tracker)
        else:
            n_s = batch_count_phase(dg, table, r, s, relabeled, tracker)
    return PreparedDecomposition(config, tracker, work_graph, dg,
                                 original_of, table, n_r, n_s)


def arb_nucleus_decomp(graph: CSRGraph, r: int, s: int,
                       config: NucleusConfig | None = None,
                       tracker: CostTracker | None = None) -> NucleusResult:
    """Compute the (r, s) nucleus decomposition of ``graph``.

    Parameters
    ----------
    graph:
        The undirected input graph.
    r, s:
        Nucleus parameters, ``1 <= r < s``; (1,2) is k-core, (2,3) k-truss.
    config:
        Optimization knobs; defaults to :meth:`NucleusConfig.optimal`.
    tracker:
        Optional cost tracker (a fresh one is created otherwise); attach a
        cache simulator to it *before* calling to model cache behavior.
    """
    prep = prepare_decomposition(graph, r, s, config, tracker)
    config, tracker = prep.config, prep.tracker
    dg, table = prep.dg, prep.table

    # -- Phase 4: bucket and peel (lines 23-29).  Shared peeling state.
    # Under race checking (repro.sanitize) the arrays are shadow-wrapped:
    # ``status`` is written only at round barriers and read inside tasks
    # (plain accesses), while the first-touch stamp ``last_round`` is
    # test-and-set state that the real implementation mediates with a
    # CAS, hence ``atomic=True``.
    status = maybe_shadow(np.zeros(table.total_cells, dtype=np.int8),
                          tracker, label="status")
    last_round = maybe_shadow(np.full(table.total_cells, -1, dtype=np.int64),
                              tracker, atomic=True, label="last_round")
    meter = ContentionMeter(detector=tracker.race_detector)
    aggregator = make_aggregator(
        config.aggregation, table.total_cells, threads=config.threads,
        tracker=tracker, meter=meter, buffer_size=config.buffer_size)
    working = WorkingGraph(prep.work_graph)
    reference = tracker.runs_reference
    peel_round = _peel_round if reference else peel_round_batch
    fractional = config.update_arithmetic == "fractional"
    subsets_per_s = comb(s, r)

    def step(round_id, level, peel_cells):
        """One round's UPDATE inside the aggregator's round (Section 5.5);
        returns the updated set ``U``."""
        peeled = int(peel_cells.size)
        aggregator.begin_round(
            peeled, peeled * max(1, level) * max(1, subsets_per_s - 1))
        peel_round(round_id, peel_cells, graph.n, dg, working, table,
                   aggregator, status, last_round, config.threads,
                   fractional, r, s, tracker)
        meter.settle(tracker)
        return aggregator.finish_round()

    after_round = None
    if config.contraction and (r, s) == (2, 3):
        contraction = ContractionManager(working, tracker)
        contract = _contract_round if reference else contract_round_batch

        def after_round(peel_cells):
            contract(peel_cells, contraction, table, status, tracker)

    cells = table.occupied_cells()
    rho, max_core, round_log, cores = peel_rounds(
        config, cells, table, status, step, tracker, after_round)
    return NucleusResult(
        r=r, s=s, n_r_cliques=prep.n_r, n_s_cliques=prep.n_s, rho=rho,
        max_core=max_core, table_memory_units=table.memory_units,
        tracker=tracker, config=config, round_log=round_log,
        _cells=cells, _cores=cores, _table=table, _dg=dg,
        _original_of=prep.original_of)


def peel_rounds(config: NucleusConfig, cells: np.ndarray,
                table: CliqueTable, status, step, tracker: CostTracker,
                after_round=None) -> tuple[int, int, list, np.ndarray]:
    """Phase 4 of ARB-NUCLEUS-DECOMP (Algorithm 2, lines 23-29): the
    bucketing and round loop of every peel, single-node and sharded.

    In the ``bucket`` phase it buckets the occupied ``cells`` (ascending)
    by their s-clique counts; the structure holds their positions
    ``0 .. k-1``.  Then, in the ``peel`` phase and until the structure
    is empty, a round extracts the minimum bucket, gives its r-cliques
    that level as their core number and marks them PEELING, and runs
    ``step(round_id, level, peel_cells)`` --- the peel's UPDATE, which
    returns the distinct cells whose counts changed.  It then marks the
    bucket PEELED, re-buckets the changed cells from the table's counts,
    and calls ``after_round(peel_cells)`` if given.  At the end the
    table stops charging ``tracker``, so post-run queries are free.

    Returns ``(rho, max_core, round_log, cores)``: one ``(level,
    peeled, updated)`` log entry per round, and the core number of each
    of ``cells``.
    """
    # Per position; written only at round barriers (plain accesses under
    # race checking).
    cores = maybe_shadow(np.zeros(cells.size, dtype=np.int64), tracker,
                         label="cores")
    with tracker.phase("bucket"):
        buckets = make_bucketing(
            config.bucketing, np.rint(table.counts[cells]).astype(np.int64),
            tracker=tracker, window=config.bucket_window)
        position_of = np.empty(table.total_cells, dtype=np.int64)
        position_of[cells] = np.arange(cells.size)
    rho = max_core = 0
    round_log: list[tuple[int, int, int]] = []
    with tracker.phase("peel"):
        while len(buckets):
            level, positions = buckets.next_bucket()
            peel_cells = cells[positions]
            tracker.add_round()
            max_core = max(max_core, level)
            cores[positions] = level
            status[peel_cells] = _PEELING
            updated = step(rho, level, peel_cells)
            round_log.append((level, int(peel_cells.size), int(updated.size)))
            status[peel_cells] = _PEELED
            if updated.size:
                buckets.update(position_of[updated],
                               np.rint(table.counts[updated]).astype(np.int64))
            if after_round is not None:
                after_round(peel_cells)
            rho += 1
    table.tracker = None
    return rho, max_core, round_log, cores[:]


def _count_scalar(dg, table, r: int, s: int, relabeled: bool,
                  tracker) -> int:
    """Algorithm 2's s-clique count (COUNT-FUNC, line 22), one clique at a
    time --- the scalar oracle whose charges
    :func:`repro.cliques.batchlist.batch_count_phase` replays in bulk."""
    sort_charge = s * _log2(s)

    def count_func(clique):
        if relabeled:
            ordered = clique
        else:
            ordered = tuple(sorted(clique))
            # Charge the sort only when one actually happens: without
            # relabeling, discovery order often *is* ascending-id order
            # (e.g. when orientation rank coincides with vertex id), and
            # sorted() on a sorted tuple is a linear verification already
            # covered by the per-clique work below.
            if ordered != clique:
                tracker.add_work(sort_charge)
        for subset in combinations(ordered, r):
            table.add_count(subset, 1.0)

    return list_cliques(dg, s, count_func, tracker)


def _peel_round(round_id: int, peel_cells: np.ndarray, graph_n: int, dg,
                working, table, aggregator, status, last_round, threads: int,
                fractional: bool, r: int, s: int,
                tracker: CostTracker) -> None:
    """One round's UPDATE region (Algorithm 2, lines 24-28), one peeled
    r-clique per task.

    The reference oracle of :func:`repro.core.batchpeel.peel_round_batch`,
    which must match it cost for cost.  Runs when the tracker
    :attr:`~repro.parallel.runtime.CostTracker.runs_reference` (race
    detector attached, or a test or the bench gate asking for the
    reference).
    """

    def apply(alive_cells, n_peeling, representative):
        """UPDATE-FUNC's count updates (Algorithm 2, lines 5-12) for one
        surviving s-clique of the current task (``thread`` is the loop's
        current value)."""
        if fractional:
            delta = -1.0 / n_peeling
        elif representative:
            delta = -1.0
        else:
            return
        # PAR010 waiver: the fractional delta (-1/a) makes the atomic
        # accumulation order-dependent in float arithmetic, but every
        # consumer re-rounds (np.rint at the bucket update and at result
        # extraction), and the fractional-vs-exact agreement gate in
        # tests/test_decomp.py pins the re-rounded totals; interleaving
        # noise cannot reach a reported number.
        for cell in alive_cells:
            table.add_count_at(cell, delta)  # parlint: disable=PAR010
            if last_round[cell] != round_id:
                last_round[cell] = round_id
                aggregator.record(int(cell), thread)

    with tracker.parallel(int(peel_cells.size)) as region:
        for task, cell in enumerate(peel_cells):
            thread = task % threads
            with region.task():
                clique = table.decode(int(cell))
                _update_one(table, dg, working, clique, r, s, status, apply,
                            tracker)
                # One O(log n) intersection per completion level.
                tracker.add_span(_log2(graph_n) * (s - r + 1))


def _contract_round(peel_cells: np.ndarray, contraction, table, status,
                    tracker: CostTracker) -> None:
    """Graph contraction after a round (Section 5.6), one peeled edge at a
    time --- the reference oracle of
    :func:`repro.core.batchpeel.contract_round_batch` (here ``table`` and
    ``contraction`` charge ``tracker`` themselves)."""
    for cell in peel_cells:
        u, v = table.decode(int(cell))
        contraction.note_peeled_edge(u, v)
    contraction.maybe_contract(
        lambda a, b: status[table.cell_of((a, b) if a < b else (b, a))]
        != _PEELED)


def _update_one(table: CliqueTable, dg: DirectedGraph, working: WorkingGraph,
                clique: tuple, r: int, s: int, status: np.ndarray, apply,
                tracker: CostTracker) -> None:
    """UPDATE for one peeled r-clique (Algorithm 2, lines 13-18), one
    s-clique at a time --- the reference oracle of
    :func:`repro.core.batchpeel.update_block`, for both peels.

    Every discovered s-clique with no PEELED and some ALIVE sub-clique
    goes to the peel's apply step as ``apply(alive_cells, n_peeling,
    representative)``: its ALIVE cells, its number of PEELING
    sub-cliques, and whether its base (the peeled clique, its prefix in
    discovery order) is the least of those.
    """
    if r == 1:
        candidates = working.neighbors(clique[0])
        tracker.add_work(1.0)
    else:
        candidates = intersect_many(
            [working.neighbors(v) for v in clique], tracker)
    if candidates.size < s - r:
        return

    def update_func(s_clique):
        ordered = tuple(sorted(s_clique))
        tracker.add_work(float(len(s_clique)))
        alive_cells = []
        peeling = []
        for subset in combinations(ordered, r):
            cell = table.cell_of(subset)
            state = status[cell]
            if state == _PEELED:
                return  # an r-clique of this s-clique was peeled earlier
            if state == _PEELING:
                peeling.append(subset)
            else:
                alive_cells.append(cell)
        if alive_cells:
            apply(alive_cells, len(peeling),
                  tuple(sorted(s_clique[:r])) == min(peeling))

    rec_list_cliques(dg, candidates, s - r, clique, update_func, tracker)
