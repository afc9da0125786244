"""PKT-family k-truss baselines (Kabir--Madduri PKT, Che et al. PKT-OPT-CPU).

These are (2,3)-only competitors (Figure 12, "Comparison to k-truss
implementations").  Both follow the standard parallel truss template:

1. reorder the graph (a multi-pass parallel sample sort) and count per-edge
   triangle support;
2. peel level by level: scan the edge array to build each level's frontier,
   then process the frontier in bulk-synchronous sub-rounds, decrementing
   the supports of the two surviving edges of each triangle.

The cost model separates the two variants exactly where the paper does:

* both pay for the sample-sort **reordering**, modeled as extra work plus
  multi-pass synchronization rounds --- the subroutine the paper measures
  as 3.07--5.16x slower than ARB's orientation-based reordering, and the
  reason ARB wins on *small* graphs where fixed costs dominate;
* **PKT** locates the edge id of each triangle's side with a binary search
  in the adjacency array (``log deg`` work per lookup) and uses plain merge
  intersections;
* **PKT-OPT-CPU** precomputes eid arrays (O(1) lookups) and uses hand-tuned
  SIMD-style intersections (discounted per-element cost), which is why it
  overtakes ARB on *large* graphs (the paper measures up to 2.27x).

Each sub-round's frontier is deduplicated before the next sub-round: a
triangle decrement used to append one frontier entry per decrement, so hot
edges were processed (and re-skipped) once per duplicate, inflating
frontier lengths.  The sub-round body runs as the vectorized
:func:`repro.baselines.batchtruss.pkt_subround_batch`; its scalar
reference oracle :func:`_pkt_subround_scalar` runs when the tracker
:attr:`~repro.parallel.runtime.CostTracker.runs_reference`, with
bit-for-bit simulated-cost parity enforced by
tests/test_batch_baselines.py and rule PAR007.
"""

from __future__ import annotations

import numpy as np

from ..cliques.counting import edge_support
from ..cliques.orient import orient
from ..graph.csr import CSRGraph
from ..parallel.atomics import ContentionMeter
from ..parallel.primitives import intersect_sorted
from ..parallel.runtime import CostTracker, _log2
from ..sanitize.racecheck import maybe_shadow
from .common import BaselineResult

#: Synchronization passes of the parallel sample sort used for reordering.
_REORDER_ROUNDS = 40


def _pkt_like(graph: CSRGraph, name: str, intersection_cost: float,
              eid_binary_search: bool, rescan_per_subround: bool = False,
              tracker: CostTracker | None = None) -> BaselineResult:
    tracker = tracker or CostTracker()
    use_batch = not tracker.runs_reference
    with tracker.phase("reorder"):
        dg, _ = orient(graph, "degree", tracker)
        # Multi-pass parallel sample sort: extra work plus one barrier per
        # pass (paper: 3.07-5.16x slower than ARB's reorder subroutine).
        tracker.add_work(4.0 * 2.0 * graph.m)
        tracker.add_round(_REORDER_ROUNDS)
        tracker.add_span(_log2(graph.m) ** 2)
    with tracker.phase("count"):
        support = edge_support(graph, tracker, dg=dg)
        tracker.add_cliques(sum(support.values()) // 3)
    edges = list(support)
    index = None if use_batch else {e: i for i, e in enumerate(edges)}
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
    # Support decrements are the fetch-and-subs of the real PKT; shadow
    # them (mediated) when a race detector rides along on the tracker.
    sup = maybe_shadow(np.asarray([support[e] for e in edges],
                                  dtype=np.int64),
                       tracker, atomic=True, label="pkt_support")
    alive = np.ones(len(edges), dtype=bool)
    core = {}
    rounds = 0
    visits = 0
    remaining = len(edges)
    level = 0
    meter = ContentionMeter()
    log_degree = np.maximum(1.0, np.log2(np.maximum(2, graph.degrees)))
    if use_batch:
        from .batchtruss import build_edge_index, pkt_subround_batch
        eidx = build_edge_index(edge_arr, graph.n)

    with tracker.phase("peel"):
        while remaining:
            # Scan the whole edge array to build this level's frontier.
            live = np.flatnonzero(alive)
            level = max(level, int(sup[live].min()))
            tracker.add_work(float(len(edges)))
            tracker.add_span(_log2(len(edges) + 2))
            frontier = live[sup[live] <= level]
            while frontier.size:
                rounds += 1
                tracker.add_round()
                # One bulk-synchronous sub-round; frontier edges process
                # concurrently, so the span is one edge's update chain.
                tracker.add_span(2.0 * _log2(len(edges) + 2))
                if rescan_per_subround:
                    # PKT re-filters the whole edge array every sub-round;
                    # frontier propagation is one of PKT-OPT-CPU's wins.
                    tracker.add_work(float(len(edges)))
                for i in frontier:
                    core[edges[int(i)]] = level
                remaining -= int(frontier.size)
                if use_batch:
                    sub_visits, cand = pkt_subround_batch(
                        frontier, graph, edge_arr, eidx, sup, alive, level,
                        intersection_cost, eid_binary_search, log_degree,
                        meter, tracker)
                else:
                    sub_visits, cand = _pkt_subround_scalar(
                        frontier, graph, edges, index, sup, alive, level,
                        intersection_cost, eid_binary_search, log_degree,
                        meter, tracker)
                visits += sub_visits
                meter.settle(tracker)
                # Dedup before the next sub-round: each dropped edge is
                # scheduled once, in ascending id order.
                cand = np.unique(np.asarray(cand, dtype=np.int64))
                frontier = cand[alive[cand]]
    return BaselineResult(name, 2, 3, core, tracker, rounds, 1, visits,
                          memory_words=3 * len(edges))


def _pkt_subround_scalar(frontier, graph: CSRGraph, edges, index, sup,
                         alive, level: int, intersection_cost: float,
                         eid_binary_search: bool, log_degree, meter,
                         tracker: CostTracker):
    """Process one frontier sub-round one edge at a time, ascending id.

    The batch kernel's registered oracle (PAR007).  Returns
    ``(triangle_visits, dropped_candidates)``; candidates may repeat and
    are deduplicated by the driver.
    """
    visits = 0
    cand: list[int] = []
    for i in frontier:
        i = int(i)
        alive[i] = False
        u, v = edges[i]
        nbrs_u = graph.neighbors(u)
        nbrs_v = graph.neighbors(v)
        common = intersect_sorted(nbrs_u, nbrs_v, tracker=None)
        tracker.add_work(
            intersection_cost
            * float(min(nbrs_u.size, nbrs_v.size)) + 1.0)
        for w in map(int, common):
            # PKT finds the edge id with a binary search over the
            # adjacency array (log deg work); PKT-OPT-CPU keeps
            # precomputed eid arrays (constant time).
            tracker.add_work(log_degree[u] if eid_binary_search else 1.0)
            iu = index[(u, w) if u < w else (w, u)]
            tracker.add_work(log_degree[v] if eid_binary_search else 1.0)
            iv = index[(v, w) if v < w else (w, v)]
            if not alive[iu] or not alive[iv]:
                continue  # triangle already destroyed
            visits += 1
            tracker.add_cliques(1)
            for other in (iu, iv):
                sup[other] -= 1
                tracker.add_atomic()
                # Raw atomic decrements contend on hot edges
                # (no update aggregation, unlike ARB 5.5).
                meter.record(other)
                if sup[other] <= level:
                    cand.append(other)
    return visits, cand


def pkt_decomposition(graph: CSRGraph,
                      tracker: CostTracker | None = None) -> BaselineResult:
    """Kabir--Madduri PKT (parallel k-truss)."""
    return _pkt_like(graph, "PKT", intersection_cost=1.0,
                     eid_binary_search=True, rescan_per_subround=True,
                     tracker=tracker)


def pkt_opt_cpu_decomposition(graph: CSRGraph,
                              tracker: CostTracker | None = None
                              ) -> BaselineResult:
    """Che et al.'s PKT-OPT-CPU (eid arrays + hand-optimized intersections)."""
    return _pkt_like(graph, "PKT-OPT-CPU", intersection_cost=0.35,
                     eid_binary_search=False, tracker=tracker)
