"""Work-span cost accounting: the simulated parallel machine.

The paper evaluates its algorithms on a 30-core shared-memory machine and
reasons about them in the classic work-span model (Section 3): the *work* W
is the total number of operations, the *span* S is the longest dependency
path, and Brent's theorem bounds the running time on P processors by
``W/P + S``.

Pure Python cannot express fine-grained shared-memory parallelism (the GIL
serializes it), so this module provides the substitution described in
DESIGN.md: algorithms execute sequentially but charge every operation to a
:class:`CostTracker`, and a :class:`MachineModel` converts the accumulated
work, span, rounds, contention, and cache statistics into a simulated
running time for any thread count.  All of the paper's evaluation quantities
(self-relative speedup, slowdown factors of baselines, scalability curves)
are functions of these counters.

Typical usage::

    tracker = CostTracker()
    with tracker.phase("count"):
        tracker.add_work(123)
        with tracker.parallel(n_tasks) as region:
            for item in items:
                with region.task():
                    ...  # add_work / add_span inside charges this task

    machine = MachineModel()
    t30 = machine.time(tracker, threads=30)
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


def _log2(n: float) -> float:
    """``log2(n)`` clamped below at 1, used for span of size-n primitives."""
    return max(1.0, math.log2(max(2.0, float(n))))


class _Frame:
    """One level of the span-accounting stack.

    A frame accumulates the span of the serial segment currently executing.
    Parallel regions push child frames (one per task), take the maximum over
    their spans, and charge ``max + log2(k)`` to the parent frame --- the
    fork-join rule of the work-span model.
    """

    __slots__ = ("span",)

    def __init__(self) -> None:
        self.span = 0.0


class _ParallelRegion:
    """Accounting context for one parallel-for; see :meth:`CostTracker.parallel`."""

    __slots__ = ("_tracker", "_n", "_max_task_span", "_detector",
                 "_region_id", "_task_counter", "_trace")

    def __init__(self, tracker: "CostTracker", n_tasks: int) -> None:
        self._tracker = tracker
        self._n = max(1, n_tasks)
        self._max_task_span = 0.0
        # Optional race detector (repro.sanitize): regions and tasks report
        # their lifetimes so shadow-logged accesses carry task ownership.
        self._detector = tracker.race_detector
        self._region_id = (self._detector.begin_region()
                           if self._detector is not None else 0)
        self._task_counter = 0
        # Optional trace recorder (repro.observe): same opt-in pattern.
        self._trace = tracker.trace
        if self._trace is not None:
            self._trace.begin_region(tracker, self._n)

    @contextmanager
    def task(self):
        """Run one parallel task; its span contributes via a max, not a sum."""
        frame = _Frame()
        self._tracker._frames.append(frame)
        detector = self._detector
        task_index = self._task_counter
        self._task_counter += 1
        if detector is not None:
            detector.begin_task(self._region_id, task_index)
        if self._trace is not None:
            self._trace.begin_task(self._tracker, task_index)
        try:
            yield frame
        finally:
            if self._trace is not None:
                self._trace.end_task(self._tracker, task_index)
            if detector is not None:
                detector.end_task()
            self._tracker._frames.pop()
            if frame.span > self._max_task_span:
                self._max_task_span = frame.span

    def task_span(self, span: float) -> None:
        """Record a task's span without a context manager (cheaper in loops)."""
        if span > self._max_task_span:
            self._max_task_span = span

    def close(self) -> None:
        self._tracker.add_span(self._max_task_span + _log2(self._n))
        if self._detector is not None:
            self._detector.end_region()
        if self._trace is not None:
            self._trace.end_region(self._tracker, self._max_task_span)


@dataclass
class PhaseStats:
    """Counters for one named phase of an algorithm.

    Work is kept in two bins: an exact integer bin (``work_int``, a Python
    int, so accumulation order cannot change it) and a float bin
    (``work_frac``) for genuinely fractional charges such as ``log2`` terms.
    Integer-valued charges dominate the hot paths, and binning them exactly
    is what lets the batch peeling engine charge a closed-form *sum* per
    batch yet still match the scalar loop's per-call charging bit for bit
    (see docs/cost-model.md).  :attr:`work` presents the combined total.
    """

    work_int: int = 0
    work_frac: float = 0.0
    span: float = 0.0
    rounds: int = 0
    atomic_ops: int = 0
    contention: float = 0.0
    cliques_enumerated: int = 0
    table_probes: int = 0
    #: Cache misses attributed to this phase (scaled by the simulator's
    #: sampling rate, like the simulator's own counters).
    cache_misses: int = 0
    #: Cross-shard messages / payload bytes charged to this phase by the
    #: distributed execution model (zero on single-node runs).  Messages
    #: pay a per-message latency, bytes a bandwidth term; batching many
    #: count-decrements into one message is what the amortization models.
    comm_messages: int = 0
    comm_bytes: int = 0

    @property
    def work(self) -> float:
        """Total work: the exact integer bin plus the fractional bin."""
        return self.work_int + self.work_frac

    def merge(self, other: "PhaseStats") -> None:
        self.work_int += other.work_int
        self.work_frac += other.work_frac
        self.span += other.span
        self.rounds += other.rounds
        self.atomic_ops += other.atomic_ops
        self.contention += other.contention
        self.cliques_enumerated += other.cliques_enumerated
        self.table_probes += other.table_probes
        self.cache_misses += other.cache_misses
        self.comm_messages += other.comm_messages
        self.comm_bytes += other.comm_bytes


class CostTracker:
    """Accumulates work, span, and auxiliary counters for one algorithm run.

    The tracker is the single point through which all simulated-machine
    accounting flows.  Algorithms charge costs with :meth:`add_work` and
    :meth:`add_span`; structured parallelism uses :meth:`parallel`.

    Counters beyond work/span:

    * ``rounds`` -- peeling rounds (each implies a barrier on a real machine).
    * ``atomic_ops`` / ``contention`` -- simulated fetch-and-adds and the
      serialized span they add when they collide on one address.
    * ``cliques_enumerated`` -- how many s-cliques were discovered; the paper
      reports this to explain why AND/AND-NN are not work-efficient.
    * ``table_probes`` -- hash-table probe count (cache-pressure proxy).
    * ``cache`` -- optional :class:`repro.machine.cache.CacheSimulator`; when
      attached, data structures feed it their address streams.
    * ``race_detector`` -- optional
      :class:`repro.sanitize.racecheck.RaceDetector`; when attached,
      parallel regions report task lifetimes to it and instrumented
      structures shadow-log their accesses (accounting is unchanged).
    * ``trace`` -- optional :class:`repro.observe.trace.TraceRecorder`;
      when attached, phases, parallel regions, and tasks report their
      begin/end to it so a Chrome-trace timeline can be exported
      (accounting is unchanged).
    * ``reference`` -- when set, every kernel runs its scalar reference
      oracle instead of its vectorized batch form (see
      :attr:`runs_reference`); differential tests and the bench engine
      gate set it, nothing else does.
    """

    def __init__(self) -> None:
        self.total = PhaseStats()
        self.phases: dict[str, PhaseStats] = {}
        self.cache = None  # optional CacheSimulator
        self.race_detector = None  # optional sanitize.RaceDetector
        self.trace = None  # optional observe.TraceRecorder
        self.reference = False  # run the scalar reference oracles
        self.peak_memory_units = 0
        #: Measured wall-clock seconds per phase (host time, *not* part of
        #: the simulated-machine model; see docs/profiling.md).
        self.phase_wall: dict[str, float] = {}
        self._frames: list[_Frame] = [_Frame()]
        self._phase_stack: list[str] = []
        self._access_sink: list | None = None

    @property
    def runs_reference(self) -> bool:
        """Whether kernels charging this tracker run their scalar oracles.

        The one implementation selector in the library: every kernel with
        a batch form and a scalar reference twin dispatches on this
        predicate (a ``None`` tracker means the batch form).  The oracles
        run when :attr:`reference` is set, and whenever a race detector is
        attached --- only the per-task scalar loops perform the
        shadow-logged accesses the detector checks.  Both forms charge
        bit-for-bit identical simulated costs (docs/cost-model.md).
        """
        return self.reference or self.race_detector is not None

    # -- charging ---------------------------------------------------------

    def add_work(self, amount: float) -> None:
        """Charge ``amount`` operations of work.

        Integer-valued amounts land in the exact integer bin, fractional
        amounts in the float bin (see :class:`PhaseStats`); either way the
        combined :attr:`work` total is what callers observe.
        """
        amount = float(amount)
        if amount.is_integer():
            self.add_work_int(int(amount))
            return
        self.total.work_frac += amount
        if self._phase_stack:
            self.phases[self._phase_stack[-1]].work_frac += amount

    def add_work_int(self, amount: int) -> None:
        """Charge an exactly-integer amount of work (bulk-charge friendly).

        Because the bin is a Python int, ``add_work_int(a + b)`` is
        indistinguishable from ``add_work_int(a); add_work_int(b)`` --- the
        property the batch peeling engine's closed-form charges rely on.
        """
        self.total.work_int += amount
        if self._phase_stack:
            self.phases[self._phase_stack[-1]].work_int += amount

    def add_work_frac_repeated(self, amount: float, count: int) -> None:
        """Charge ``count`` sequential copies of one fractional amount.

        Bit-for-bit equal to a loop of ``count`` :meth:`add_work` calls:
        binary64 addition is not associative, so the batch engines replay
        the repeated sum (``np.add.accumulate`` is strictly sequential)
        instead of multiplying.  This is how the batch listing engine
        reproduces the scalar COUNT-FUNC's per-clique ``s·log₂s`` sort
        charges without a Python-level loop.
        """
        if count <= 0:
            return
        amount = float(amount)
        if amount.is_integer():
            self.add_work_int(int(amount) * count)
            return
        seq = np.empty(count + 1, dtype=np.float64)
        seq[1:] = amount
        seq[0] = self.total.work_frac
        self.total.work_frac = float(np.add.accumulate(seq)[-1])
        if self._phase_stack:
            stats = self.phases[self._phase_stack[-1]]
            seq[0] = stats.work_frac
            stats.work_frac = float(np.add.accumulate(seq)[-1])

    def add_work_sequence(self, amounts) -> None:
        """Charge an ordered batch of work amounts, one :meth:`add_work`
        call per element, bit for bit.

        The two bins are independent, so the batch form splits the stream:
        integer-valued elements collapse into one exact int-bin sum, and
        the fractional elements are replayed sequentially (in their
        original relative order) through ``np.add.accumulate``, exactly as
        a Python loop of :meth:`add_work` calls would accumulate them.
        This is how the batch baseline engines reproduce interleaved
        per-triangle charge streams such as PKT's
        ``intersection, log-degree, log-degree, ...`` without a Python
        loop (docs/cost-model.md).
        """
        arr = np.asarray(amounts, dtype=np.float64)
        if arr.size == 0:
            return
        int_mask = arr == np.floor(arr)
        if int_mask.any():
            self.add_work_int(int(arr[int_mask].astype(np.int64).sum()))
        frac = arr[~int_mask]
        if frac.size == 0:
            return
        seq = np.empty(frac.size + 1, dtype=np.float64)
        seq[1:] = frac
        seq[0] = self.total.work_frac
        self.total.work_frac = float(np.add.accumulate(seq)[-1])
        if self._phase_stack:
            stats = self.phases[self._phase_stack[-1]]
            seq[0] = stats.work_frac
            stats.work_frac = float(np.add.accumulate(seq)[-1])

    def add_span_sequence(self, amounts) -> None:
        """Charge an ordered batch of span amounts, one :meth:`add_span`
        call per element, bit for bit.

        Span has no exact integer bin (the critical path is one float
        accumulator), so the whole sequence is replayed sequentially with
        ``np.add.accumulate`` --- once seeded from the current frame's
        span, and, when the charge reaches the root frame inside a phase,
        once more seeded from the phase's span tally.  Batch baseline
        engines use this to reproduce per-peel span streams such as PND's
        ``16, log2(touched + 2), ...`` exactly.
        """
        arr = np.asarray(amounts, dtype=np.float64)
        if arr.size == 0:
            return
        seq = np.empty(arr.size + 1, dtype=np.float64)
        seq[1:] = arr
        frame = self._frames[-1]
        seq[0] = frame.span
        frame.span = float(np.add.accumulate(seq)[-1])
        if self._phase_stack and len(self._frames) == 1:
            stats = self.phases[self._phase_stack[-1]]
            seq[0] = stats.span
            stats.span = float(np.add.accumulate(seq)[-1])

    def add_span(self, amount: float) -> None:
        """Charge span to the current frame.

        Inside a parallel task, the charge lands on the task's frame and
        combines with sibling tasks by *max* when the region closes; the
        authoritative critical-path length is the root frame's
        (:attr:`span`).  Phase tallies follow the same rule: only charges
        that reach the root frame --- serial segments and the
        ``max + log2(k)`` a closing region contributes --- are attributed
        to the current phase, so per-phase spans are critical-path
        fragments that sum to :attr:`span` (not flat per-task sums, which
        would overstate span-heavy phases by the task count).
        """
        self._frames[-1].span += amount
        if self._phase_stack and len(self._frames) == 1:
            self.phases[self._phase_stack[-1]].span += amount

    def add_round(self, count: int = 1) -> None:
        self.total.rounds += count
        if self._phase_stack:
            self.phases[self._phase_stack[-1]].rounds += count

    def add_atomic(self, count: int = 1) -> None:
        self.total.atomic_ops += count
        if self._phase_stack:
            self.phases[self._phase_stack[-1]].atomic_ops += count

    def add_contention(self, serialized_span: float) -> None:
        """Charge span serialized by atomics colliding on a single address."""
        self.total.contention += serialized_span
        if self._phase_stack:
            self.phases[self._phase_stack[-1]].contention += serialized_span

    def add_cliques(self, count: int) -> None:
        self.total.cliques_enumerated += count
        if self._phase_stack:
            self.phases[self._phase_stack[-1]].cliques_enumerated += count

    def add_probes(self, count: int) -> None:
        self.total.table_probes += count
        if self._phase_stack:
            self.phases[self._phase_stack[-1]].table_probes += count

    def add_comm(self, messages: int, n_bytes: int) -> None:
        """Charge cross-shard communication: ``messages`` network messages
        carrying ``n_bytes`` payload bytes in total.

        Single-node algorithms never call this, so their ``comm`` term is
        exactly zero and every pre-sharding figure is unchanged.  The
        distributed exchange charges one message per non-empty
        (source, destination) shard pair per exchange round and the summed
        batch entry bytes --- batching is the point: the latency term is
        paid per batch, not per count-decrement (docs/sharding.md).
        """
        self.total.comm_messages += messages
        self.total.comm_bytes += n_bytes
        if self._phase_stack:
            stats = self.phases[self._phase_stack[-1]]
            stats.comm_messages += messages
            stats.comm_bytes += n_bytes

    def note_memory_units(self, units: int) -> None:
        """Record a high-water mark of data-structure memory (paper units)."""
        if units > self.peak_memory_units:
            self.peak_memory_units = units

    def access(self, address: int) -> None:
        """Feed one memory access to the attached cache simulator, if any.

        Sampled misses are attributed to the current phase (scaled by the
        simulator's sampling rate, matching its global counters) so
        :meth:`MachineModel.time_breakdown` can localize cache pressure.
        """
        if self._access_sink is not None:
            self._access_sink.append(int(address))
            return
        if self.cache is not None:
            hit = self.cache.access(address)
            if hit is False:
                self.total.cache_misses += self.cache.sample
                if self._phase_stack:
                    self.phases[self._phase_stack[-1]].cache_misses += \
                        self.cache.sample

    def access_sequence(self, addresses) -> None:
        """Feed an ordered batch of addresses to the cache simulator.

        Equivalent to calling :meth:`access` once per element in order ---
        the simulator replays the whole stream in one
        :meth:`~repro.machine.cache.CacheSimulator.access_many` call, so
        miss counts, LRU state, and sampling phase come out identical.
        This is how the batch peeling engine preserves cache-simulation
        exactness while charging per batch.
        """
        if self._access_sink is not None:
            self._access_sink.extend(int(a) for a in addresses)
            return
        if self.cache is None:
            return
        raw_misses = self.cache.access_many(addresses)
        if raw_misses:
            scaled = raw_misses * self.cache.sample
            self.total.cache_misses += scaled
            if self._phase_stack:
                self.phases[self._phase_stack[-1]].cache_misses += scaled

    def begin_access_capture(self) -> list[int]:
        """Divert subsequent :meth:`access` calls into a list (no simulation).

        Used by batch kernels that must *interleave* a sub-structure's
        address stream (e.g. the hash aggregator's probe addresses) into a
        larger batch stream before replaying it via :meth:`access_sequence`.
        Always pair with :meth:`end_access_capture`.
        """
        self._access_sink = []
        return self._access_sink

    def end_access_capture(self) -> list[int]:
        """Stop diverting accesses; returns the captured address list."""
        captured = self._access_sink if self._access_sink is not None else []
        self._access_sink = None
        return captured

    # -- structure --------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Attribute costs charged inside the block to a named phase.

        Also records measured wall-clock seconds for the block into
        :attr:`phase_wall` (nested phases are included in their parent's
        time).  Wall-clock is an observation of the host interpreter, kept
        strictly outside the simulated cost model.
        """
        if name not in self.phases:
            self.phases[name] = PhaseStats()
        self._phase_stack.append(name)
        if self.trace is not None:
            self.trace.begin_phase(self, name)
        wall_start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - wall_start
            self.phase_wall[name] = self.phase_wall.get(name, 0.0) + elapsed
            if self.trace is not None:
                self.trace.end_phase(self, name)
            self._phase_stack.pop()

    @contextmanager
    def parallel(self, n_tasks: int):
        """A parallel-for over ``n_tasks``; spans of tasks combine by max."""
        region = _ParallelRegion(self, n_tasks)
        try:
            yield region
        finally:
            region.close()

    # -- results ----------------------------------------------------------

    @property
    def work(self) -> float:
        return self.total.work

    @property
    def span(self) -> float:
        """Critical-path length: the root frame's accumulated span."""
        return self._frames[0].span

    @property
    def rounds(self) -> int:
        return self.total.rounds

    def summary(self) -> dict:
        """A plain-dict snapshot, convenient for harness tables and tests."""
        out = {
            "work": self.total.work,
            "span": self.span,
            "rounds": self.total.rounds,
            "atomic_ops": self.total.atomic_ops,
            "contention": self.total.contention,
            "cliques_enumerated": self.total.cliques_enumerated,
            "table_probes": self.total.table_probes,
            "peak_memory_units": self.peak_memory_units,
            "comm_messages": self.total.comm_messages,
            "comm_bytes": self.total.comm_bytes,
        }
        if self.cache is not None:
            out["cache_accesses"] = self.cache.accesses
            out["cache_misses"] = self.cache.misses
        return out


@dataclass
class MachineModel:
    """Converts :class:`CostTracker` counters into simulated running time.

    The model follows Brent's bound ``W/P + S`` with three realism terms the
    paper's evaluation depends on:

    * a per-round barrier cost growing with ``log2(P)`` (global peeling
      synchronizes every round -- this is what makes PND's 10^4x round
      blowup catastrophic);
    * serialized contention span from colliding atomics (what the simple
      array aggregation of Section 5.5 suffers from);
    * a cache-miss penalty applied to the tracked miss count (what the
      contiguous-space / stored-pointer / relabeling optimizations of
      Sections 5.2--5.4 improve).

    Hyper-threads past the physical core count contribute at a discounted
    rate (``ht_yield``), reproducing the paper's 30-core/60-thread shape.

    Times are in abstract "operation" units; only ratios are meaningful,
    which is all the paper's figures report.
    """

    cores: int = 30
    ht_yield: float = 0.35
    span_factor: float = 1.0
    barrier_base: float = 40.0
    barrier_per_log_thread: float = 12.0
    miss_penalty: float = 40.0
    contention_factor: float = 8.0
    #: Cross-shard communication: each message pays a fixed latency and
    #: each payload byte a bandwidth cost (operation units, like the other
    #: parameters).  Single-node trackers charge no comm, so the sixth
    #: ``comm`` term is exactly zero for them and every pre-sharding
    #: figure is unchanged (docs/sharding.md).
    comm_latency: float = 400.0
    comm_byte_time: float = 0.5

    def effective_parallelism(self, threads: int) -> float:
        """Physical-core-equivalent throughput of ``threads`` threads."""
        threads = max(1, threads)
        if threads <= self.cores:
            return float(threads)
        return self.cores + self.ht_yield * (threads - self.cores)

    def barrier_cost(self, threads: int) -> float:
        """Cost of one global round barrier at ``threads`` threads."""
        return self.barrier_base + self.barrier_per_log_thread * _log2(threads)

    def comm_cost(self, messages: int, n_bytes: int) -> float:
        """Simulated time of ``messages`` messages carrying ``n_bytes``.

        ``messages * comm_latency + n_bytes * comm_byte_time``: the
        closed-form the exchange unit tests pin.  Latency is paid per
        batch, which is why batching cross-shard count-decrements
        amortizes it.
        """
        return self.comm_latency * messages + self.comm_byte_time * n_bytes

    def _terms(self, work: float, span: float, rounds: int,
               contention: float, cache_misses: int,
               threads: int, comm_messages: int = 0,
               comm_bytes: int = 0) -> dict[str, float]:
        """The six additive components of the time estimate.

        ``time()`` is by construction the exact sum of these terms; the
        per-phase rows of :meth:`time_breakdown` reuse the same formula on
        :class:`PhaseStats` counters.  ``comm`` is zero unless the tracker
        was charged by the distributed exchange (:mod:`repro.distributed`).
        """
        p = self.effective_parallelism(threads)
        parallel = threads > 1  # barriers/collisions only hurt parallel runs
        return {
            "work": work / p,
            "span": self.span_factor * span,
            "barrier": rounds * self.barrier_cost(threads) if parallel
            else 0.0,
            "contention": self.contention_factor * contention if parallel
            else 0.0,
            "cache": self.miss_penalty * cache_misses / p,
            "comm": self.comm_cost(comm_messages, comm_bytes),
        }

    def time(self, tracker: CostTracker, threads: int = 1) -> float:
        """Simulated running time of a tracked run on ``threads`` threads."""
        misses = tracker.cache.misses if tracker.cache is not None else 0
        terms = self._terms(tracker.total.work, tracker.span,
                            tracker.total.rounds, tracker.total.contention,
                            misses, threads, tracker.total.comm_messages,
                            tracker.total.comm_bytes)
        return (terms["work"] + terms["span"] + terms["barrier"]
                + terms["contention"] + terms["cache"] + terms["comm"])

    def time_breakdown(self, tracker: CostTracker,
                       threads: int = 1) -> dict:
        """Decompose :meth:`time` into its six terms, per phase and total.

        Returns a dict with keys:

        * ``"threads"`` / ``"effective_parallelism"``;
        * ``"total"`` -- the six terms (``work``, ``span``, ``barrier``,
          ``contention``, ``cache``, ``comm``) plus their exact sum
          ``time``, equal to :meth:`time` for the same tracker and thread
          count;
        * ``"phases"`` -- the same six terms evaluated on each
          :class:`PhaseStats`.  Phase counters (including span, see
          :meth:`CostTracker.add_span`) partition the totals, so phase
          ``time`` entries sum to the total up to float error and any
          charges recorded outside all phases.
        """
        misses = tracker.cache.misses if tracker.cache is not None else 0
        total = self._terms(tracker.total.work, tracker.span,
                            tracker.total.rounds, tracker.total.contention,
                            misses, threads, tracker.total.comm_messages,
                            tracker.total.comm_bytes)
        total["time"] = (total["work"] + total["span"] + total["barrier"]
                         + total["contention"] + total["cache"]
                         + total["comm"])
        phases = {}
        for name, stats in tracker.phases.items():
            terms = self._terms(stats.work, stats.span, stats.rounds,
                                stats.contention, stats.cache_misses, threads,
                                stats.comm_messages, stats.comm_bytes)
            terms["time"] = (terms["work"] + terms["span"] + terms["barrier"]
                             + terms["contention"] + terms["cache"]
                             + terms["comm"])
            phases[name] = terms
        return {
            "threads": threads,
            "effective_parallelism": self.effective_parallelism(threads),
            "total": total,
            "phases": phases,
        }

    def speedup(self, tracker: CostTracker, threads: int) -> float:
        """Self-relative speedup ``T(1)/T(threads)`` for one tracked run."""
        return self.time(tracker, 1) / self.time(tracker, threads)
