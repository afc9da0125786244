"""MSP-style k-truss baseline (Smith et al., HPEC 2017).

A bulk-synchronous truss decomposition: for each support level ``k``, the
whole live edge set is *rescanned* to build the deletion frontier, and the
sub-rounds within a level synchronize globally.  The repeated full scans
are what make MSP slower than the frontier-propagating PKT variants (the
paper measures ARB 2.35--7.65x faster than MSP), and they appear here as
genuine extra work rather than as a fudge factor.

Unlike PKT, a sub-round's kills land at the *end* of the sub-round
(frontier edges stay visible to every triangle check within it), so the
per-edge charge stream depends only on the sub-round's starting state and
the body is order-independent across frontier edges.  The body runs as
the vectorized :func:`repro.baselines.batchtruss.msp_subround_batch`; its
scalar reference oracle :func:`_msp_subround_scalar` runs when the
tracker :attr:`~repro.parallel.runtime.CostTracker.runs_reference`, with
bit-for-bit simulated-cost parity enforced by
tests/test_batch_baselines.py and tests/test_parity_registry.py.
"""

from __future__ import annotations

import numpy as np

from ..cliques.counting import edge_support
from ..graph.csr import CSRGraph
from ..parallel.atomics import ContentionMeter
from ..parallel.primitives import intersect_sorted
from ..parallel.runtime import CostTracker, _log2
from ..sanitize.racecheck import maybe_shadow
from .common import BaselineResult


def msp_decomposition(graph: CSRGraph,
                      tracker: CostTracker | None = None) -> BaselineResult:
    """MSP-style bulk-synchronous truss decomposition ((2,3) only)."""
    tracker = tracker or CostTracker()
    use_batch = not tracker.runs_reference
    with tracker.phase("count"):
        support = edge_support(graph, tracker)
        tracker.add_cliques(sum(support.values()) // 3)
    edges = list(support)
    index = {e: i for i, e in enumerate(edges)}
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
    # MSP's support decrements are atomics too; shadow them (mediated)
    # when a race detector rides along on the tracker.
    sup = maybe_shadow(np.asarray([support[e] for e in edges],
                                  dtype=np.int64),
                       tracker, atomic=True, label="msp_support")
    alive = np.ones(len(edges), dtype=bool)
    core = {}
    rounds = 0
    visits = 0
    remaining = len(edges)
    level = 0
    meter = ContentionMeter()
    log_degree = np.maximum(1.0, np.log2(np.maximum(2, graph.degrees)))
    if use_batch:
        from .batchtruss import build_edge_index, msp_subround_batch
        eidx = build_edge_index(edge_arr, graph.n)

    with tracker.phase("peel"):
        while remaining:
            live = np.flatnonzero(alive)
            level = max(level, int(sup[live].min()))
            while True:
                # MSP keeps full-size support/bitmap arrays and rescans all
                # of them to build each sub-frontier -- the repeated full
                # scans that make it the slowest of the truss baselines.
                live = np.flatnonzero(alive)
                tracker.add_work(3.0 * len(edges))
                tracker.add_span(_log2(len(edges) + 2))
                frontier = live[sup[live] <= level]
                if frontier.size == 0:
                    break
                rounds += 1
                tracker.add_round()
                for i in frontier:
                    core[edges[int(i)]] = level
                if use_batch:
                    visits += msp_subround_batch(
                        frontier, graph, edge_arr, eidx, sup, alive,
                        log_degree, meter, tracker)
                else:
                    visits += _msp_subround_scalar(
                        frontier, graph, edges, index, sup, alive,
                        log_degree, meter, tracker)
                meter.settle(tracker)
                alive[frontier] = False
                remaining -= int(frontier.size)
    return BaselineResult("MSP", 2, 3, core, tracker, rounds, 1, visits,
                          memory_words=3 * len(edges))


def _msp_subround_scalar(frontier, graph: CSRGraph, edges, index, sup,
                         alive, log_degree, meter,
                         tracker: CostTracker) -> int:
    """Process one frontier sub-round one edge at a time, ascending id.

    The batch kernel's registered oracle (``PARLINT_PARITY``).  Kills are applied by
    the driver after the sub-round; returns the triangle visit count.
    """
    visits = 0
    frontier_set = {int(i) for i in frontier}
    for i in frontier:
        i = int(i)
        u, v = edges[i]
        nbrs_u = graph.neighbors(u)
        nbrs_v = graph.neighbors(v)
        common = intersect_sorted(nbrs_u, nbrs_v, tracker=None)
        # Naive merge intersections, like PKT's but un-tuned.
        tracker.add_work(
            1.5 * float(min(nbrs_u.size, nbrs_v.size)) + 1.0)
        for w in map(int, common):
            # Binary searches over the adjacency array, like PKT's lookups.
            tracker.add_work(log_degree[u])
            iu = index[(u, w) if u < w else (w, u)]
            tracker.add_work(log_degree[v])
            iv = index[(v, w) if v < w else (w, v)]
            if ((not alive[iu] and iu not in frontier_set)
                    or (not alive[iv] and iv not in frontier_set)):
                continue  # triangle destroyed in an earlier round
            # Simultaneously-peeled triangles are handled by the
            # least frontier edge of the triangle.
            peers = [j for j in (iu, iv) if j in frontier_set]
            if any(j < i for j in peers):
                continue
            visits += 1
            tracker.add_cliques(1)
            for j in (iu, iv):
                if j not in frontier_set:
                    sup[j] -= 1
                    tracker.add_atomic()
                    meter.record(j)
    return visits
