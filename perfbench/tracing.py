"""Spans around the public calls of a pass, and the per-layer metrics
derived from them.

The recorder wraps each public call of a pass.  Untraced (timed) passes
only collect the calls; traced passes also stamp each call's start and
end, and the allocation pass takes each call's ``tracemalloc`` peak.
After a traced pass, :func:`pass_spans` turns the calls into spans ---
the pass, its calls, and each call's ``CostTracker.phase_wall`` entries
as child spans carrying their ``PhaseStats`` counters --- and
:func:`layer_metrics` reduces them to the per-layer metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from repro import MachineModel
from repro.distributed import DistributedMachineModel
from repro.graph.stats import partition_statistics

from workloads import THREADS, sharded_results, single_node_trackers

#: The layers a span can belong to: the package's modules, plus the
#: benchmark itself (time in a pass outside every public call).
LAYERS = ("graph", "cliques", "core", "bucketing", "analysis",
          "distributed", "bench")

#: Layer of each ``phase_wall`` entry; phases not listed (``peel``)
#: belong to the layer of the call that ran them.
PHASE_LAYER = {
    "orient": "cliques", "enumerate_r": "cliques", "count_s": "cliques",
    "relabel": "graph", "build_table": "core", "bucket": "bucketing",
    "hier_list": "analysis", "hier_levels": "analysis",
    "hier_emit": "analysis", "partition": "distributed",
    "shard_map": "distributed", "local_peel": "distributed",
    "exchange": "distributed",
}
#: Phases every shard tracker holds open at once (the BSP exchange):
#: their ``phase_wall`` entries cover one interval, so they count once.
SHARED_PHASES = {"exchange"}


@dataclass
class Call:
    """One public call of a pass: what it returned and, when traced, when
    it ran and how much it allocated at its peak."""

    layer: str
    name: str
    #: The verified operation the output belongs to (None: not checked).
    op: str | None = None
    output: object = None
    tracker: object = None
    graph: object = None
    latencies: list | None = None
    start: float = 0.0
    end: float = 0.0
    alloc_mb: float = 0.0


class Recorder:
    """Collects the calls of one pass."""

    def __init__(self, traced: bool = False, alloc: bool = False):
        self.calls: list[Call] = []
        self.traced = traced or alloc
        self.alloc = alloc

    @contextmanager
    def call(self, layer: str, name: str, op: str | None = None):
        call = Call(layer, name, op)
        self.calls.append(call)
        if not self.traced:
            yield call
            return
        if self.alloc:
            tracemalloc.start()
        call.start = time.perf_counter()
        try:
            yield call
        finally:
            call.end = time.perf_counter()
            if self.alloc:
                call.alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    counters: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _phase_spans(spans: list, parent: int, layer: str, trackers: list,
                 pass_id: int) -> None:
    """Append one child span per ``phase_wall`` entry of ``trackers``.

    ``phase_wall`` holds durations, not timestamps, so children are laid
    end to end from the parent's start in first-entry order.  The same
    phase of several trackers (shards run one after another) adds up,
    except a shared phase, which counts once, at the longest.
    """
    walls: dict[str, float] = {}
    stats: dict[str, dict] = {}
    for tracker in trackers:
        for name, seconds in tracker.phase_wall.items():
            if name in SHARED_PHASES:
                walls[name] = max(walls.get(name, 0.0), seconds)
            else:
                walls[name] = walls.get(name, 0.0) + seconds
            counters = stats.setdefault(name, {})
            for key, value in asdict(tracker.phases[name]).items():
                counters[key] = counters.get(key, 0) + value
    cursor = spans[parent].start
    for name, seconds in walls.items():
        spans.append(Span(name, PHASE_LAYER.get(name, layer), cursor,
                          cursor + seconds, parent, pass_id, stats[name]))
        cursor += seconds


def pass_spans(calls: list, start: float, end: float,
               pass_id: int) -> list[Span]:
    """The span tree of one traced pass (index 0 is the pass)."""
    spans = [Span("pass", "bench", start, end, None, pass_id)]
    for call in calls:
        spans.append(Span(call.name, call.layer, call.start, call.end, 0,
                          pass_id, {"alloc_mb": call.alloc_mb}))
        index = len(spans) - 1
        if call.output is None:
            continue
        if call.name == "nucleus_hierarchy":
            _phase_spans(spans, index, call.layer, [call.tracker], pass_id)
        elif call.name.endswith("nucleus_decomp"):
            _phase_spans(spans, index, call.layer, [call.output.tracker],
                         pass_id)
        if call.name == "sharded_nucleus_decomp":
            peel = next(i for i in range(index + 1, len(spans))
                        if spans[i].name == "peel")
            _phase_spans(spans, peel, call.layer,
                         call.output.shard_trackers, pass_id)
    return spans


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Each layer's self time: its spans minus their children."""
    out = dict.fromkeys(LAYERS, 0.0)
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.seconds
    for span, child in zip(spans, children):
        out[span.layer] += span.seconds - child
    return out


def _phase_wall(trackers: list, phase: str) -> float:
    return sum(t.phase_wall.get(phase, 0.0) for t in trackers)


def _phase_stat(trackers: list, phase: str, stat: str) -> float:
    return sum(getattr(t.phases[phase], stat) for t in trackers
               if phase in t.phases)


def _call_seconds(calls: list, name: str) -> float:
    return sum(c.end - c.start for c in calls if c.name == name)


def layer_metrics(calls: list, spans: list[Span],
                  single_t60: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (seconds, counts, ratios).

    Counts and seconds are summed over the pass's calls; ratios are
    taken of the sums; imbalance is the worst call's.  A layer the
    workload does not exercise reports 0.
    """
    machine = MachineModel()
    distributed = DistributedMachineModel(machine)
    single = single_node_trackers(calls)
    decomps = [c.output for c in calls
               if c.name == "arb_nucleus_decomp" and c.output is not None]
    decomp_trackers = [res.tracker for res in decomps]
    hier_calls = [c for c in calls
                  if c.name == "nucleus_hierarchy" and c.output is not None]
    hier_trackers = [c.tracker for c in hier_calls]
    shard_calls = [c for c in calls if c.name == "sharded_nucleus_decomp"
                   and c.output is not None]
    sharded = sharded_results(calls)
    coordinators = [res.tracker for res in sharded]
    setup = decomp_trackers + coordinators  # orient .. count_s, bucket

    m: dict[str, float] = {}
    m["graph.read_s"] = _call_seconds(calls, "read_edge_list")
    m["graph.read_alloc_mb"] = sum(c.alloc_mb for c in calls
                                   if c.name == "read_edge_list")

    m["cliques.orient_s"] = _phase_wall(setup, "orient")
    m["cliques.enumerate_s"] = _phase_wall(setup, "enumerate_r")
    m["cliques.count_s"] = _phase_wall(setup, "count_s")
    m["cliques.count.work"] = _phase_stat(setup, "count_s", "work")
    m["cliques.n_s"] = sum(res.n_s_cliques for res in decomps + sharded)

    m["core.decomp_s"] = _call_seconds(calls, "arb_nucleus_decomp")
    m["core.build_table_s"] = _phase_wall(setup, "build_table")
    m["core.peel_s"] = _phase_wall(decomp_trackers, "peel")
    m["core.rho"] = sum(res.rho for res in decomps)
    m["core.peel.work"] = _phase_stat(decomp_trackers, "peel", "work")
    m["core.peel.span"] = _phase_stat(decomp_trackers, "peel", "span")
    m["core.contention"] = sum(t.total.contention for t in decomp_trackers)
    m["core.atomic_ops"] = sum(t.total.atomic_ops for t in decomp_trackers)
    m["core.table_probes"] = sum(t.total.table_probes
                                 for t in decomp_trackers)
    m["core.table_memory_units"] = sum(res.table_memory_units
                                       for res in decomps)
    m["core.decomp_alloc_mb"] = sum(c.alloc_mb for c in calls
                                    if c.name == "arb_nucleus_decomp")

    m["bucketing.bucket_s"] = _phase_wall(setup, "bucket")

    terms = dict.fromkeys(("work", "span", "barrier", "contention",
                           "cache"), 0.0)
    for tracker in single:
        total = machine.time_breakdown(tracker, THREADS)["total"]
        for term in terms:
            terms[term] += total[term]
    for term, value in terms.items():
        m[f"parallel.T60.{term}"] = value

    cached = [t.cache for t in single if t.cache is not None]
    accesses = sum(cache.accesses for cache in cached)
    misses = sum(cache.misses for cache in cached)
    m["machine.cache_accesses"] = accesses
    m["machine.cache_misses"] = misses
    m["machine.miss_rate"] = misses / accesses if accesses else 0.0

    m["analysis.hierarchy_s"] = _call_seconds(calls, "nucleus_hierarchy")
    m["analysis.hier_list_s"] = _phase_wall(hier_trackers, "hier_list")
    m["analysis.hier_levels_s"] = _phase_wall(hier_trackers, "hier_levels")
    m["analysis.hier_emit_s"] = _phase_wall(hier_trackers, "hier_emit")
    m["analysis.hierarchy.work"] = sum(t.total.work for t in hier_trackers)
    m["analysis.n_nuclei"] = sum(len(c.output) for c in hier_calls)
    m["analysis.hierarchy_alloc_mb"] = sum(
        c.alloc_mb for c in calls if c.name == "nucleus_hierarchy")
    m["analysis.save_s"] = _call_seconds(calls, "save_hierarchy_json")
    m["analysis.load_s"] = _call_seconds(calls, "load_hierarchy_json")
    m["analysis.index_s"] = _call_seconds(calls, "HierarchyIndex")
    latencies = [x for c in calls if c.latencies for x in c.latencies]
    batch_s = _call_seconds(calls, "query_batch")
    if latencies:
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        m["analysis.query_p50_us"] = cuts[49] * 1e6
        m["analysis.query_p99_us"] = cuts[98] * 1e6
        m["analysis.query_qps"] = len(latencies) / batch_s
    else:
        m["analysis.query_p50_us"] = m["analysis.query_p99_us"] = 0.0
        m["analysis.query_qps"] = 0.0

    m["distributed.sharded_s"] = _call_seconds(calls,
                                               "sharded_nucleus_decomp")
    m["distributed.partition_s"] = _phase_wall(coordinators, "partition")
    m["distributed.peel_s"] = _phase_wall(coordinators, "peel")
    m["distributed.comm_messages"] = sum(res.comm_messages for res in sharded)
    m["distributed.comm_bytes"] = sum(res.comm_bytes for res in sharded)
    quality = [partition_statistics(c.graph, c.output.partition.shard_of,
                                    c.output.n_shards) for c in shard_calls]
    m["distributed.edge_cut"] = sum(q["edge_cut"] for q in quality)
    m["distributed.imbalance"] = max((q["imbalance"] for q in quality),
                                     default=0.0)
    parts = dict.fromkeys(("coordinator", "compute", "comm"), 0.0)
    for res in sharded:
        breakdown = distributed.time_breakdown(res, THREADS)
        for part in parts:
            parts[part] += breakdown[part]
    for part, value in parts.items():
        m[f"distributed.T60.{part}"] = value
    sharded_t60 = sum(parts.values())
    m["distributed.speedup_vs_single"] = (
        sum(single_t60[c.op] for c in shard_calls) / sharded_t60
        if sharded_t60 else 0.0)
    m["distributed.sharded_alloc_mb"] = sum(
        c.alloc_mb for c in calls if c.name == "sharded_nucleus_decomp")

    own = self_seconds(spans)
    total = spans[0].seconds
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own[layer]
        m[f"{layer}.self_share"] = own[layer] / total if total else 0.0
    return m


#: Metrics the allocation pass supplies (the span pass reports them as 0).
ALLOC_METRICS = ("graph.read_alloc_mb", "core.decomp_alloc_mb",
                 "analysis.hierarchy_alloc_mb", "distributed.sharded_alloc_mb")

_S, _MB, _N, _SIM = ("s", "lower"), ("MB", "lower"), ("count", "lower"), \
    ("sim_units", "lower")

#: Metrics of the benchmark itself, taken over a run's passes (by
#: ``run.py``), not from one pass by ``layer_metrics``.
RUN_METRICS = ("bench.trace_overhead", "bench.wall_run_s", "bench.probe_s")

#: Per-layer metrics: name -> (unit, better).  ``layer_metrics`` yields
#: all but ``RUN_METRICS``.
PER_LAYER: dict[str, tuple[str, str]] = {
    "graph.read_s": _S, "graph.read_alloc_mb": _MB,
    "cliques.orient_s": _S, "cliques.enumerate_s": _S,
    "cliques.count_s": _S, "cliques.count.work": _SIM, "cliques.n_s": _N,
    "core.decomp_s": _S, "core.build_table_s": _S, "core.peel_s": _S,
    "core.rho": _N, "core.peel.work": _SIM, "core.peel.span": _SIM,
    "core.contention": _SIM, "core.atomic_ops": _N, "core.table_probes": _N,
    "core.table_memory_units": ("words", "lower"),
    "core.decomp_alloc_mb": _MB,
    "bucketing.bucket_s": _S,
    "parallel.T60.work": _SIM, "parallel.T60.span": _SIM,
    "parallel.T60.barrier": _SIM, "parallel.T60.contention": _SIM,
    "parallel.T60.cache": _SIM,
    "machine.cache_accesses": _N, "machine.cache_misses": _N,
    "machine.miss_rate": ("ratio", "lower"),
    "analysis.hierarchy_s": _S, "analysis.hier_list_s": _S,
    "analysis.hier_levels_s": _S, "analysis.hier_emit_s": _S,
    "analysis.hierarchy.work": _SIM, "analysis.n_nuclei": _N,
    "analysis.hierarchy_alloc_mb": _MB,
    "analysis.save_s": _S, "analysis.load_s": _S, "analysis.index_s": _S,
    "analysis.query_p50_us": ("us", "lower"),
    "analysis.query_p99_us": ("us", "lower"),
    "analysis.query_qps": ("1/s", "higher"),
    "distributed.sharded_s": _S, "distributed.partition_s": _S,
    "distributed.peel_s": _S, "distributed.comm_messages": _N,
    "distributed.comm_bytes": ("bytes", "lower"),
    "distributed.edge_cut": _N, "distributed.imbalance": ("ratio", "lower"),
    "distributed.T60.coordinator": _SIM, "distributed.T60.compute": _SIM,
    "distributed.T60.comm": _SIM,
    "distributed.speedup_vs_single": ("ratio", "higher"),
    "distributed.sharded_alloc_mb": _MB,
    **{f"{layer}.self_s": _S for layer in LAYERS},
    **{f"{layer}.self_share": ("share", "lower") for layer in LAYERS},
    "bench.trace_overhead": ("ratio", "lower"),
    "bench.wall_run_s": _S, "bench.probe_s": _S,
}
