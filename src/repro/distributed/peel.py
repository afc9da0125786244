"""Sharded (r,s) nucleus peeling with batched cross-shard exchanges.

The distributed execution model (docs/sharding.md):

* the graph itself is replicated read-only on every shard; the clique
  table's *count cells* are partitioned by owner --- the shard of the
  r-clique's minimum vertex under the chosen vertex partition;
* peeling runs the single-node round loop
  (:func:`~repro.core.decomp.peel_rounds`); only the round's step
  differs: each shard re-discovers the s-cliques incident to the peeled
  r-cliques *it owns* (``local_peel`` phase), applying count decrements
  for owned cells directly and buffering decrements for remote cells in
  a per-shard outbox that persists, coalescing per cell, across rounds;
* then, only when a shard with nothing left to peel at the round's level
  (an *idle* shard, see :func:`_must_exchange`) has mail waiting, one
  batched ``exchange`` ships every outbox to the owning shards --- one
  message per (source, destination) pair, priced by the charged
  communication term (:meth:`MachineModel.comm_cost`) --- and the owners
  apply the deltas before the loop re-buckets.

``sharded_nucleus_decomp`` forces ``update_arithmetic="representative"``
(exact integer deltas, so the count sums are independent of application
order), a held-back decrement only ever leaves a count too high, and a
round with mail pending never lets the level rise; so the core numbers
are **identical** to the single-node
:func:`~repro.core.decomp.arb_nucleus_decomp` (Algorithm 2 gives the
same cores for any peel order within a level).  The number of rounds,
the round log and the exchange log may differ from one node's.  The
differential suite and the seeded property test in
tests/test_distributed.py pin the cores on every graph/(r,s)/shard-count
combination they run.

Both steps of a super-round have a vectorized kernel in
:mod:`repro.distributed.batchexchange` and a scalar reference oracle
here: :func:`_local_round` (one shard at a time) for
:func:`~repro.distributed.batchexchange.local_round_batch` (every shard
at once) and :func:`_exchange_scalar` (one sender at a time) for
:func:`~repro.distributed.batchexchange.exchange_batch` (every sender at
once).  Each kernel must match its oracle charge-for-charge on every
tracker (``PARLINT_PARITY``); the oracles run when the coordinator's
tracker :attr:`~repro.parallel.runtime.CostTracker.runs_reference` (the
shard trackers inherit its setting).
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.batchpeel import first_touches
from ..core.config import NucleusConfig
from ..core.decomp import (_ALIVE, CoreReport, _update_one, peel_rounds,
                           prepare_decomposition)
from ..core.tables import CliqueTable
from ..graph.contraction import WorkingGraph
from ..graph.csr import CSRGraph
from ..observe.trace import TraceRecorder
from ..parallel.runtime import CostTracker, _log2
from ..sanitize.racecheck import maybe_shadow
from .batchexchange import exchange_batch, local_round_batch
from .model import ENTRY_BYTES
from .partition import PARTITIONERS, Partition


@dataclass
class ShardedResult(CoreReport):
    """Output of one sharded nucleus decomposition run.

    Core numbers (``as_dict`` / ``core_of``) are reported exactly like
    :class:`~repro.core.decomp.NucleusResult`, in original vertex ids.
    ``tracker`` is the coordinator (setup + partition + bucketing +
    barriers); per-shard peel and exchange charges live on
    ``shard_trackers`` and are priced by
    :class:`~repro.distributed.model.DistributedMachineModel`.
    """

    r: int
    s: int
    n_shards: int
    n_r_cliques: int
    n_s_cliques: int
    rho: int
    max_core: int
    tracker: CostTracker
    shard_trackers: list[CostTracker]
    partition: Partition
    config: NucleusConfig
    #: Per-round trace: (core level, r-cliques peeled, r-cliques updated).
    round_log: list[tuple[int, int, int]] = field(default_factory=list)
    #: Per-round exchange record: round / level / messages / bytes, and
    #: ``pending``, the outbox entries held for a later round (0 messages
    #: in a round that deferred its exchange).
    exchange_log: list[dict] = field(default_factory=list)
    #: Per-round, per-shard (work delta, span delta) for the BSP max.
    round_compute: list[list[tuple[float, float]]] = \
        field(default_factory=list)
    comm_messages: int = 0
    comm_bytes: int = 0
    shard_traces: list[TraceRecorder] | None = None
    _cells: np.ndarray = field(repr=False, default=None)
    _cores: np.ndarray = field(repr=False, default=None)
    _table: CliqueTable = field(repr=False, default=None)
    _original_of: np.ndarray = field(repr=False, default=None)

    @property
    def exchanges(self) -> int:
        """Super-rounds that ran an exchange (each ships some mail)."""
        return sum(1 for record in self.exchange_log if record["messages"])


class UpdateLedger:
    """The owner-side count store plus the per-round updated set ``U``.

    ``counts`` aliases the clique table's raw count array, so applying a
    delta here is applying it to the table.  ``fetch_sub`` simulates the
    owning shard's atomic fetch-and-subtract combined with a first-touch
    stamp (the same CAS pattern as the single-node ``last_round`` array)
    so each cell enters ``U`` at most once per super-round.
    """

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.stamp = np.full(counts.shape[0], -1, dtype=np.int64)
        self.updated: list[int] = []
        self.round_id = -1

    def begin_round(self, round_id: int) -> None:
        self.round_id = round_id
        self.updated = []

    def fetch_sub(self, cell: int, amount: int, tracker: CostTracker) -> None:
        tracker.add_work_int(1)
        tracker.add_atomic(1)
        self.counts[cell] -= amount
        if self.stamp[cell] != self.round_id:
            self.stamp[cell] = self.round_id
            self.updated.append(int(cell))

    def subtract_many(self, cells: np.ndarray, amounts) -> None:
        """:meth:`fetch_sub` over ``cells`` in order, without the charges
        (the vectorized kernels charge in bulk): each cell enters ``U`` at
        its first touch this round, as the per-call stamps would order it.
        """
        # Integer amounts cast to the counts' float type first: the same
        # exact values, and ``subtract.at`` skips its slow casting loop.
        np.subtract.at(self.counts, cells,
                       np.asarray(amounts, dtype=self.counts.dtype))
        fresh = first_touches(cells, self.stamp, self.round_id)
        self.updated.extend(cells[fresh].tolist())


class ExchangeBuffer:
    """One shard's outbox of cross-shard count decrements.

    A sparse outbox: ``pending`` maps each remote cell to its decrement
    in first-touch order (an insertion-ordered ``Counter``), so
    decrements for the same cell coalesce locally and the wire carries
    one entry per distinct remote cell --- the batching that amortizes
    the per-message latency.  It keeps its entries, still coalescing,
    across the rounds that defer their exchange; an exchange drains it.
    ``waiting[k]`` counts the buffered decrements owned by shard
    ``owner_of[cell] == k``: nonzero exactly when the outbox holds mail
    for shard ``k``, so the deferral rule reads it in O(shards).
    """

    def __init__(self, owner_of: np.ndarray, n_shards: int):
        self.pending: Counter[int] = Counter()
        self.owner_of = owner_of
        self.waiting = np.zeros(n_shards, dtype=np.int64)

    def buffer_remote(self, cell: int, tracker: CostTracker) -> None:
        tracker.add_work_int(1)
        tracker.add_atomic(1)
        self.pending[cell] += 1
        self.waiting[self.owner_of[cell]] += 1

    def buffer_many(self, cells: np.ndarray) -> None:
        """:meth:`buffer_remote` over ``cells`` in order, without the
        charges: one pending decrement per entry, each new cell entering
        at its first touch."""
        self.pending.update(cells.tolist())
        self.waiting += np.bincount(self.owner_of[cells],
                                    minlength=self.waiting.size)

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Pop the buffered (cells, deltas), clearing the outbox."""
        n = len(self.pending)
        cells = np.fromiter(self.pending.keys(), dtype=np.int64, count=n)
        deltas = np.fromiter(self.pending.values(), dtype=np.int64, count=n)
        self.pending.clear()
        self.waiting[:] = 0
        return cells, deltas


def _exchange_scalar(cells, deltas, owner_of, ledger, dst_trackers,
                     tracker: CostTracker) -> tuple[int, int]:
    """Ship one shard's outbox to the owning shards, one entry at a time.

    The oracle for :func:`repro.distributed.batchexchange.exchange_batch`
    --- keep the two in lockstep when changing charges.  Entries are
    sorted by (destination, cell) and grouped into one message per
    destination shard; the *sender* pays the sort, the per-entry
    serialization work, and the communication charge (one
    ``add_comm(1, entries * ENTRY_BYTES)`` per message, so the total comm
    volume is exactly the sum of per-shard batch sizes --- nothing is
    double-charged); each *receiver* pays one work unit and one atomic
    per entry to apply the delta at the owned cell.

    Returns ``(messages, bytes)`` sent.
    """
    k = int(cells.size)
    if k == 0:
        return 0, 0
    tracker.add_work(k * _log2(k))  # sort the outbox by (dst, cell)
    order = sorted(range(k),
                   key=lambda i: (int(owner_of[cells[i]]), int(cells[i])))
    messages = 0
    total_bytes = 0
    start = 0
    while start < k:
        dst = int(owner_of[cells[order[start]]])
        end = start
        while end < k and int(owner_of[cells[order[end]]]) == dst:
            end += 1
        entries = end - start
        tracker.add_work_int(entries)  # serialize the batch
        tracker.add_comm(1, entries * ENTRY_BYTES)
        for i in order[start:end]:
            # The receiver locates the cell and fetch-and-subtracts.
            ledger.fetch_sub(int(cells[i]), int(deltas[i]),
                             dst_trackers[dst])
        messages += 1
        total_bytes += entries * ENTRY_BYTES
        start = end
    return messages, total_bytes


def _local_round(shard: int, mine: np.ndarray, r: int, s: int, graph_n: int,
                 table, dg, working, status, owner_of, ledger, outbox,
                 tracker: CostTracker) -> None:
    """One shard's local peel work for one super-round, one peeled
    r-clique at a time --- the reference oracle of
    :func:`repro.distributed.batchexchange.local_round_batch`."""

    def apply(alive_cells, n_peeling, representative):
        """Route one surviving s-clique's decrements by owner: only the
        representative subtracts (exact integer deltas, so the cross-shard
        application order cannot perturb the sums); owned cells apply
        through the ledger, remote cells buffer into the outbox."""
        if not representative:
            return
        for cell in alive_cells:
            if owner_of[cell] == shard:
                ledger.fetch_sub(cell, 1, tracker)
            else:
                outbox.buffer_remote(cell, tracker)

    # The table's own charges (decode, probes) go to this shard.
    coordinator, table.tracker = table.tracker, tracker
    try:
        with tracker.phase("local_peel"):
            tracker.add_round()
            with tracker.parallel(int(mine.size)) as region:
                for cell in mine:
                    with region.task():
                        clique = table.decode(int(cell))
                        _update_one(table, dg, working, clique, r, s, status,
                                    apply, tracker)
                        # One O(log n) intersection per completion level.
                        tracker.add_span(_log2(graph_n) * (s - r + 1))
    finally:
        table.tracker = coordinator


def _must_exchange(updated: np.ndarray, counts: np.ndarray, level: int,
                   owner_of: np.ndarray,
                   outboxes: list[ExchangeBuffer]) -> bool:
    """The deferral rule, read after the local peel: exchange only when an
    idle shard has mail waiting.

    ``updated`` holds the cells the local peel updated this round.  A
    shard is *ready* when it owns one whose count is now at or below
    ``level`` (the round extracted every other live cell at that level,
    so a ready shard peels again at this level); any other shard is
    *idle*.  The input is one ready bit per shard and each outbox's
    destination mask, carried by the round barrier, so no message is
    priced for it.  With every shard idle, any mail at all forces the
    exchange, so the level never rises while mail is pending.
    """
    idle = np.ones(len(outboxes), dtype=bool)
    idle[owner_of[updated[counts[updated] <= level]]] = False
    return bool(sum(outbox.waiting for outbox in outboxes)[idle].any())


def _exchange_round(sts, outboxes, owner_of, ledger) -> tuple[int, int]:
    """Run the batched exchange for every shard's outbox.

    Every shard's ``exchange`` phase is open for the duration (the BSP
    communication step involves all nodes), entered dynamically so the
    per-shard phase bookkeeping stays symmetric.
    """
    drained = [outbox.drain() for outbox in outboxes]
    with ExitStack() as stack:
        for st in sts:
            stack.enter_context(st.phase("exchange"))
        if not sts[0].runs_reference:  # the shards share the setting
            return exchange_batch(drained, owner_of, ledger, sts)
        total_messages = total_bytes = 0
        for src, (cells, deltas) in enumerate(drained):
            messages, n_bytes = _exchange_scalar(cells, deltas, owner_of,
                                                 ledger, sts, sts[src])
            total_messages += messages
            total_bytes += n_bytes
    return total_messages, total_bytes


def _check_partition(partition: Partition, n: int, n_shards: int) -> None:
    """Reject a partition that does not map ``n`` vertices to shards
    ``0 .. n_shards - 1``."""
    if partition.n_shards != n_shards:
        raise ValueError("partition.n_shards != n_shards")
    shard_of = np.asarray(partition.shard_of)
    if not np.issubdtype(shard_of.dtype, np.integer):
        raise ValueError(f"partition.shard_of must hold integer shard ids, "
                         f"got dtype {shard_of.dtype}")
    if shard_of.shape != (n,):
        raise ValueError(f"partition.shard_of must hold one shard id per "
                         f"vertex (shape ({n},)), got shape "
                         f"{shard_of.shape}")
    bad = np.flatnonzero((shard_of < 0) | (shard_of >= n_shards))
    if bad.size:
        vertex = int(bad[0])
        raise ValueError(f"partition.shard_of must lie in [0, {n_shards}); "
                         f"vertex {vertex} is on shard "
                         f"{int(shard_of[vertex])} ({bad.size} vertices "
                         f"out of range)")


def sharded_nucleus_decomp(graph: CSRGraph, r: int, s: int, n_shards: int,
                           partitioner: str = "mincut",
                           config: NucleusConfig | None = None,
                           tracker: CostTracker | None = None,
                           partition: Partition | None = None
                           ) -> ShardedResult:
    """Compute the (r, s) nucleus decomposition on ``n_shards`` nodes.

    Setup (orientation, enumeration, table build, counting) runs on the
    coordinator ``tracker`` exactly as on one node; peeling runs as BSP
    super-rounds with per-shard trackers and batched exchanges, each run
    only when an idle shard has mail waiting.  The core numbers are
    identical to :func:`~repro.core.decomp.arb_nucleus_decomp`'s on the
    same graph; ``rho`` and the round log may differ from one node's.

    ``config`` is validated as on one node, then ``update_arithmetic``
    is forced to ``"representative"`` (exact integer deltas commute
    across shards) and ``contraction`` off (a shared-memory-only
    optimization).  Shard trackers inherit the coordinator's
    ``race_detector`` and ``reference`` settings.

    A caller-supplied ``partition`` must give every vertex of ``graph``
    an integer shard id in ``[0, n_shards)``; anything else raises
    ``ValueError``.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if partitioner not in PARTITIONERS:
        raise ValueError(f"unknown partitioner {partitioner!r}; "
                         f"choose from {sorted(PARTITIONERS)}")
    if partition is not None:
        _check_partition(partition, graph.n, n_shards)
    if config is None:
        config = NucleusConfig.optimal(r, s)
    config = replace(config.validated(graph.n, r, s),
                     update_arithmetic="representative", contraction=False)
    prep = prepare_decomposition(graph, r, s, config, tracker)
    config, tracker = prep.config, prep.tracker
    work_graph, dg, table = prep.work_graph, prep.dg, prep.table
    original_of, n_r, n_s = prep.original_of, prep.n_r, prep.n_s

    with tracker.phase("partition"):
        if partition is None:
            partition = PARTITIONERS[partitioner](graph, n_shards, tracker)

    shard_trackers = [CostTracker() for _ in range(n_shards)]
    shard_traces = None
    for st in shard_trackers:
        st.race_detector = tracker.race_detector
        st.reference = tracker.reference
    if tracker.trace is not None:
        shard_traces = [TraceRecorder(task_limit=tracker.trace.task_limit,
                                      lanes=tracker.trace.lanes, shard=k)
                        for k in range(n_shards)]
        for st, recorder in zip(shard_trackers, shard_traces):
            st.trace = recorder

    cells = table.occupied_cells()
    with tracker.phase("shard_map"):
        # Cell ownership: the shard of the r-clique's minimum vertex (in
        # original ids).  decode_many charges the coordinator for the
        # one-time ownership scan.
        cliques, _, _ = table.decode_many(cells)
        shard_of_work = partition.shard_of[original_of]
        owner_of = np.full(table.total_cells, -1, dtype=np.int64)
        owner_of[cells] = shard_of_work[np.min(cliques, axis=1)]

    status = maybe_shadow(np.zeros(table.total_cells, dtype=np.int8),
                          tracker, label="status")
    ledger = UpdateLedger(table.counts)
    outboxes = [ExchangeBuffer(owner_of, n_shards) for _ in range(n_shards)]
    working = WorkingGraph(work_graph)
    exchange_log: list[dict] = []
    round_compute: list[list[tuple[float, float]]] = []

    def step(round_id, level, peel_cells):
        """One BSP super-round: every shard's local peel of the cells it
        owns, then the exchange if :func:`_must_exchange`; returns the
        ledger's updated set, less the cells no longer live."""
        ledger.begin_round(round_id)
        starts = [(st.total.work, st.span) for st in shard_trackers]
        # Shard k's peeled cells, in round order, are
        # by_owner[bounds[k]:bounds[k + 1]].
        by_owner = peel_cells[np.argsort(owner_of[peel_cells], kind="stable")]
        bounds = np.searchsorted(owner_of[by_owner], np.arange(n_shards + 1))
        if tracker.runs_reference:  # the shards inherit the setting
            for shard, st in enumerate(shard_trackers):
                mine = by_owner[bounds[shard]:bounds[shard + 1]]
                if mine.size:
                    _local_round(shard, mine, r, s, graph.n, table, dg,
                                 working, status, owner_of, ledger,
                                 outboxes[shard], st)
        else:
            local_round_batch(by_owner, bounds, r, s, graph.n, table, dg,
                              working, status, owner_of, ledger, outboxes,
                              shard_trackers)
        # The local peel updates live cells only.
        updated = np.asarray(ledger.updated, dtype=np.int64)
        messages = n_bytes = 0
        if _must_exchange(updated, table.counts, level, owner_of, outboxes):
            messages, n_bytes = _exchange_round(shard_trackers, outboxes,
                                                owner_of, ledger)
            # Held-back mail may reach a cell after its extraction.
            mail = np.asarray(ledger.updated[updated.size:], dtype=np.int64)
            updated = np.concatenate([updated,
                                      mail[status[mail] == _ALIVE]])
        exchange_log.append({
            "round": round_id, "level": int(level), "messages": messages,
            "bytes": n_bytes,
            "pending": sum(len(outbox.pending) for outbox in outboxes)})
        round_compute.append(
            [(st.total.work - w0, st.span - s0)
             for st, (w0, s0) in zip(shard_trackers, starts)])
        return updated

    rho, max_core, round_log, cores = peel_rounds(config, cells, table,
                                                  status, step, tracker)
    return ShardedResult(
        r=r, s=s, n_shards=n_shards, n_r_cliques=n_r, n_s_cliques=n_s,
        rho=rho, max_core=max_core, tracker=tracker,
        shard_trackers=shard_trackers, partition=partition, config=config,
        round_log=round_log,
        exchange_log=exchange_log, round_compute=round_compute,
        comm_messages=sum(st.total.comm_messages for st in shard_trackers),
        comm_bytes=sum(st.total.comm_bytes for st in shard_trackers),
        shard_traces=shard_traces, _cells=cells, _cores=cores,
        _table=table, _original_of=original_of)
