"""Graph contraction for (2,3) nucleus (truss) decomposition (Section 5.6).

When many edges have been peeled, iterating over them during neighborhood
intersections is wasted work.  The paper periodically filters peeled edges
out of adjacency lists, using two heuristics chosen on real graphs:

* contract only when the number of edges peeled since the previous
  contraction is at least ``2 n``;
* rebuild only the adjacency lists of vertices that lost at least a
  quarter of their neighbors since the previous contraction.

This optimization is specific to r = 2: a peeled r-clique for r > 2 has no
natural edge to remove, since its edges may support other live r-cliques.
"""

from __future__ import annotations

import numpy as np

from ..parallel.primitives import segment_gather, segment_offsets
from ..parallel.runtime import CostTracker, _log2
from .csr import CSRGraph


class WorkingGraph:
    """The peel's adjacency: CSR slots plus live lengths.

    Vertex ``v``'s live neighbors are ``targets[offsets[v] :
    offsets[v] + lengths[v]]``, sorted ascending.  Offsets never move:
    contraction packs a vertex's surviving neighbors to the front of its
    own slot (:meth:`compact`), so a slot can only shrink.  Discovery reads
    many live lists at once with :meth:`gather`.
    """

    def __init__(self, graph: CSRGraph):
        self.n = graph.n
        self.offsets = graph.offsets
        self.targets = graph.targets.copy()
        self.lengths = graph.degrees

    def neighbors(self, v: int) -> np.ndarray:
        start = self.offsets[v]
        return self.targets[start:start + self.lengths[v]]

    def gather(self, vertices: np.ndarray) -> np.ndarray:
        """The live lists of ``vertices``, concatenated in order (segment
        ``i`` has length ``lengths[vertices[i]]``)."""
        return segment_gather(self.targets, self.offsets[vertices],
                              self.lengths[vertices])

    def compact(self, vertices: np.ndarray, keep: np.ndarray) -> None:
        """Keep the live entries of ``vertices`` (distinct ids, laid out as
        :meth:`gather` returns them) where ``keep`` is true, packing each
        vertex's survivors in order to the front of its slot."""
        kept = self.gather(vertices)[keep]
        owner = np.repeat(np.arange(vertices.size), self.lengths[vertices])
        new_lens = np.bincount(owner[keep], minlength=vertices.size)
        self.targets[np.repeat(self.offsets[vertices], new_lens)
                     + segment_offsets(new_lens)] = kept
        self.lengths[vertices] = new_lens


class ContractionManager:
    """Implements the Section 5.6 heuristics over a :class:`WorkingGraph`."""

    #: Contract when peeled-since-last >= PEEL_FACTOR * n.
    PEEL_FACTOR = 2
    #: Rebuild a vertex that lost >= its degree / LOSS_DIVISOR neighbors.
    LOSS_DIVISOR = 4

    def __init__(self, working: WorkingGraph, tracker: CostTracker | None = None):
        self.working = working
        self.tracker = tracker
        self._peeled_since = 0
        self._lost_since = np.zeros(working.n, dtype=np.int64)
        self.contractions = 0

    def note_peeled_edge(self, u: int, v: int) -> None:
        """Record that edge (u, v) was peeled this round."""
        self._peeled_since += 1
        self._lost_since[u] += 1
        self._lost_since[v] += 1

    def note_peeled_edges(self, edges) -> None:
        """Batch :meth:`note_peeled_edge` over an ``(m, 2)`` array of
        peeled edges: one scatter-add."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self._peeled_since += edges.shape[0]
        np.add.at(self._lost_since, edges.reshape(-1), 1)

    def maybe_contract(self, edge_alive, edges_alive_many=None) -> bool:
        """Contract if the heuristics fire.

        ``edge_alive(u, v)`` must report whether the undirected edge still
        carries a live (unpeeled) 2-clique.  ``edges_alive_many``, if given,
        answers the same question for an ``(m, 2)`` batch of edges at once
        (returning a boolean mask) and must charge the identical simulated
        costs in the identical order as ``m`` ``edge_alive`` calls --- the
        batch engine supplies one built on ``CliqueTable.lookup_many``
        (and ``edge_alive=None``, which is then unused).
        Rebuild decisions only read each vertex's own adjacency list, so
        batching the liveness checks cannot change which vertices rebuild.
        Returns True if a contraction happened.
        """
        if self._peeled_since < self.PEEL_FACTOR * self.working.n:
            return False
        self.contractions += 1
        working = self.working
        lengths = working.lengths
        rebuild = np.flatnonzero(
            (lengths > 0) & (self._lost_since * self.LOSS_DIVISOR >= lengths))
        rebuilt_work = int(lengths[rebuild].sum())
        if rebuild.size:
            if edges_alive_many is not None:
                pairs = np.column_stack([np.repeat(rebuild, lengths[rebuild]),
                                         working.gather(rebuild)])
                keep = edges_alive_many(pairs)
            else:
                keep = np.asarray([edge_alive(int(v), int(w))
                                   for v in rebuild
                                   for w in working.neighbors(v)], dtype=bool)
            working.compact(rebuild, keep)
            self._lost_since[rebuild] = 0
        if self.tracker is not None:
            # Checking every vertex plus the parallel filters that rebuilt.
            self.tracker.add_work(float(self.working.n + rebuilt_work))
            self.tracker.add_span(_log2(self.working.n + rebuilt_work))
        self._peeled_since = 0
        return True
