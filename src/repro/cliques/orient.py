"""Low out-degree (O(alpha)) orientation algorithms.

The clique-listing algorithm (paper Algorithm 1) first directs the graph so
every out-degree is O(alpha), where alpha is the arboricity; intersections
on out-neighborhoods then cost O(alpha) instead of O(max degree).  The
paper uses the work-efficient parallel orientation algorithms of Shi et al.
[60]; we implement all the orderings the evaluation mentions:

* :func:`degeneracy_order` -- the exact Matula--Beck peeling order (serial,
  O(m)); out-degrees are bounded by the degeneracy d <= 2*alpha - 1.
* :func:`goodrich_pszona_order` -- parallel: each round peels the epsilon
  fraction of lowest-degree vertices; O(log n) rounds, O(m) work.
* :func:`barenboim_elkin_order` -- parallel: each round peels every vertex
  whose induced degree is at most (2 + epsilon) * (2m'/n'); O(log n)
  rounds, O(m) work.
* :func:`degree_order` -- the simple non-decreasing-degree ordering used by
  several baselines.

Each returns a *rank* permutation; edges directed from lower to higher rank
give the orientation (see :class:`repro.graph.csr.DirectedGraph`).
"""

from __future__ import annotations

import math

import numpy as np

from ..graph.csr import CSRGraph, DirectedGraph
from ..parallel.primitives import segment_gather
from ..parallel.runtime import CostTracker, _log2


def degree_order(graph: CSRGraph, tracker: CostTracker | None = None) -> np.ndarray:
    """Rank vertices by (degree, id) ascending."""
    if tracker is not None:
        tracker.add_work(float(graph.n))
        tracker.add_span(_log2(graph.n))
    order = np.lexsort((np.arange(graph.n), graph.degrees))
    rank = np.empty(graph.n, dtype=np.int64)
    rank[order] = np.arange(graph.n)
    return rank


def identity_order(graph: CSRGraph, tracker: CostTracker | None = None
                   ) -> np.ndarray:
    """Rank vertices by id: an *arbitrary* acyclic orientation.

    This is what clique enumeration without a low-out-degree orientation
    amounts to (Sariyuce et al.'s counting subroutine); out-degrees are
    not bounded by O(alpha), so intersections cost more --- the paper's
    Section 6.3 subroutine-swap experiment measures exactly this gap
    (up to 3.04x, median 1.03x).
    """
    if tracker is not None:
        tracker.add_work(float(graph.n))
        tracker.add_span(1.0)
    return np.arange(graph.n, dtype=np.int64)


def degeneracy_order(graph: CSRGraph, tracker: CostTracker | None = None) -> np.ndarray:
    """Exact degeneracy (smallest-last) ordering via Matula--Beck peeling.

    O(n + m) work; inherently sequential (span = work), which is why the
    parallel algorithms below exist.
    """
    n = graph.n
    degree = graph.degrees.copy()
    max_deg = int(degree.max()) if n else 0
    # Classic bucket queue over degrees.
    buckets: list[list[int]] = [[] for _ in range(max_deg + 1)]
    for v in range(n):
        buckets[degree[v]].append(v)
    removed = np.zeros(n, dtype=bool)
    rank = np.empty(n, dtype=np.int64)
    cursor = 0
    for position in range(n):
        v = -1
        while v < 0:
            while cursor <= max_deg and not buckets[cursor]:
                cursor += 1
            candidate = buckets[cursor].pop()
            # Skip stale entries left behind by degree decrements.
            if not removed[candidate] and degree[candidate] == cursor:
                v = candidate
        rank[v] = position
        removed[v] = True
        # Decrement the live neighbors in bulk (same per-neighbor push
        # order and cursor trajectory as the element-wise loop).
        nbrs = graph.neighbors(v)
        live = nbrs[~removed[nbrs]]
        if live.size:
            degree[live] -= 1
            dropped = degree[live]
            dmin = int(dropped.min())
            if dmin < cursor:
                cursor = dmin
            for u, d in zip(live.tolist(), dropped.tolist()):
                buckets[d].append(u)
    if tracker is not None:
        tracker.add_work(float(graph.n + 2 * graph.m))
        tracker.add_span(float(graph.n + 2 * graph.m))
    return rank


def _peeling_rounds_order(graph: CSRGraph, choose_peel, tracker: CostTracker | None):
    """Shared round-based peeling: ``choose_peel`` picks each round's set."""
    n = graph.n
    degree = graph.degrees.astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    rank = np.empty(n, dtype=np.int64)
    assigned = 0
    remaining = n
    rounds = 0
    while remaining > 0:
        rounds += 1
        peel = choose_peel(degree, alive, remaining)
        if peel.size == 0:  # guard against stalls on adversarial inputs
            peel = np.flatnonzero(alive)[
                np.argsort(degree[alive], kind="stable")[:max(1, remaining // 2)]]
        # Vertices peeled in the same round are ranked by id (deterministic).
        rank[peel] = assigned + np.arange(peel.size)
        assigned += peel.size
        alive[peel] = False
        remaining -= peel.size
        # Every surviving neighbor loses one degree per peeled neighbor.
        nbrs = segment_gather(graph.targets, graph.offsets[peel],
                              graph.degrees[peel])
        degree -= np.bincount(nbrs[alive[nbrs]], minlength=n)
        if tracker is not None:
            tracker.add_work(float(nbrs.size + n))
            tracker.add_span(_log2(n))
            tracker.add_round()
    return rank, rounds


def goodrich_pszona_order(graph: CSRGraph, epsilon: float = 1.0,
                          tracker: CostTracker | None = None) -> np.ndarray:
    """Parallel Goodrich--Pszona ordering.

    Each round peels the ``epsilon/(2+epsilon)`` fraction of vertices with
    the smallest induced degree; O(log n) rounds w.h.p., out-degree
    O((2+epsilon) * alpha).
    """
    fraction = epsilon / (2.0 + epsilon)

    def choose(degree, alive, remaining):
        count = max(1, int(math.ceil(fraction * remaining)))
        live_ids = np.flatnonzero(alive)
        order = np.argsort(degree[live_ids], kind="stable")
        return live_ids[order[:count]]

    rank, _ = _peeling_rounds_order(graph, choose, tracker)
    return rank


def barenboim_elkin_order(graph: CSRGraph, epsilon: float = 1.0,
                          tracker: CostTracker | None = None) -> np.ndarray:
    """Parallel Barenboim--Elkin ordering.

    Each round peels all vertices with induced degree at most
    ``(2 + epsilon) * (2 m' / n')`` where m', n' are the surviving counts;
    O(log n) rounds, out-degree O((2+epsilon) * alpha).
    """

    def choose(degree, alive, remaining):
        live_ids = np.flatnonzero(alive)
        live_deg = degree[live_ids]
        avg = live_deg.sum() / max(1, remaining)
        return live_ids[live_deg <= (2.0 + epsilon) * avg]

    rank, _ = _peeling_rounds_order(graph, choose, tracker)
    return rank


_ORDERINGS = {
    "degeneracy": degeneracy_order,
    "goodrich_pszona": goodrich_pszona_order,
    "barenboim_elkin": barenboim_elkin_order,
    "degree": degree_order,
    "identity": identity_order,
}


def orientation_rank(graph: CSRGraph, method: str = "goodrich_pszona",
                     tracker: CostTracker | None = None) -> np.ndarray:
    """The rank permutation for a named orientation algorithm."""
    if method not in _ORDERINGS:
        raise ValueError(
            f"unknown orientation {method!r}; options: {sorted(_ORDERINGS)}")
    return _ORDERINGS[method](graph, tracker=tracker) if method != "degeneracy" \
        else degeneracy_order(graph, tracker)


def orient(graph: CSRGraph, method: str = "goodrich_pszona",
           tracker: CostTracker | None = None) -> tuple[DirectedGraph, np.ndarray]:
    """Orient ``graph`` with the named algorithm; returns (DG, rank)."""
    rank = orientation_rank(graph, method, tracker)
    return DirectedGraph.orient(graph, rank), rank


def degeneracy(graph: CSRGraph) -> int:
    """The degeneracy d of the graph (max out-degree under the exact
    smallest-last orientation); satisfies alpha <= d <= 2*alpha - 1."""
    rank = degeneracy_order(graph)
    return DirectedGraph.orient(graph, rank).max_out_degree


def arboricity_bounds(graph: CSRGraph) -> tuple[float, int]:
    """(lower, upper) bounds on the arboricity: m/(n-1) and the degeneracy."""
    lower = graph.m / max(1, graph.n - 1)
    return lower, max(1, degeneracy(graph))
