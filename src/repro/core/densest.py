"""k-clique densest subgraph via nucleus peeling.

Section 2 notes that the k-clique densest subgraph problem (Tsourakakis,
WWW 2015) admits efficient parallel peeling algorithms through the same
machinery [60].  The standard 1/k-approximation falls straight out of the
(1, k) nucleus decomposition: peel vertices by incident k-clique count and
return the suffix of the peeling order maximizing k-clique density
(k-cliques per vertex).

This module implements that peeling-based approximation, exercising the
(1, s) path of ARB-NUCLEUS-DECOMP on a second real problem.  The suffix
scan is fully charged: every candidate threshold pays for building its
induced subgraph, re-orienting it, and re-listing its k-cliques on the
same tracker as the peel (the re-listing used to run off the books,
understating the scan phase by its entire cost).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cliques.listing import count_cliques
from ..cliques.orient import orient
from ..graph.csr import CSRGraph
from ..parallel.runtime import CostTracker, _log2
from .config import NucleusConfig
from .decomp import arb_nucleus_decomp


@dataclass
class DensestResult:
    """Output of the k-clique densest subgraph approximation."""

    k: int
    vertices: list[int]
    density: float  # k-cliques per vertex inside the chosen subgraph
    clique_count: int


def k_clique_densest(graph: CSRGraph, k: int,
                     tracker: CostTracker | None = None) -> DensestResult:
    """A peeling (1/k-approximate) k-clique densest subgraph.

    Peels vertices in (1,k)-nucleus order; among the suffixes of that
    order, returns the one with the highest k-clique density.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    tracker = tracker or CostTracker()
    result = arb_nucleus_decomp(graph, 1, k, NucleusConfig.optimal(1, k),
                                tracker)
    best = DensestResult(k, [], 0.0, 0)
    with tracker.phase("scan"):
        cores = np.zeros(graph.n, dtype=np.int64)
        for (v,), value in result.as_dict().items():
            cores[v] = value
        # Peeling order: ascending core, ties by id; suffixes are candidate
        # subgraphs.  Evaluate each distinct core threshold.
        order = np.lexsort((np.arange(graph.n), cores))
        for threshold in np.unique(cores):
            members = order[cores[order] >= threshold]
            if members.size < k:
                continue
            # Building the induced subgraph filters every edge of the
            # input against the member set; parallel, so log span.
            tracker.add_work(float(graph.m + members.size))
            tracker.add_span(_log2(members.size + 2))
            sub, originals = graph.induced_subgraph(members)
            dg, _ = orient(sub, "degeneracy", tracker)
            count = count_cliques(dg, k, tracker)
            density = count / members.size
            if density > best.density:
                best = DensestResult(k, [int(v) for v in originals],
                                     density, count)
    return best
