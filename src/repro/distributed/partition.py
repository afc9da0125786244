"""Graph partitioners for the sharded execution model.

Both partitioners assign every vertex to one of ``n_shards`` shards and
are fully deterministic (no RNG, no iteration-order dependence), so the
partition -- and therefore the simulated communication volume of the
distributed peel -- is reproducible bit for bit:

* :func:`hash_partition` -- the cheap baseline: a multiplicative hash of
  the vertex id, oblivious to structure.  Expected cut fraction is
  ``1 - 1/n_shards``.
* :func:`mincut_partition` -- greedy label-propagation refinement of the
  hash seed: sweep vertices in id order and move each to the shard
  holding the plurality of its neighbors, subject to a balance cap.
  Minimizing cut edges keeps s-cliques shard-local, which directly cuts
  the cross-shard count-decrement traffic (docs/sharding.md).

Partition quality is measured by
:func:`repro.graph.stats.partition_statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import ceil

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.runtime import CostTracker

#: Knuth's multiplicative hash constant (golden ratio of 2^32).
_HASH_MULT = 2654435761
_HASH_MOD = 1 << 32


@dataclass(frozen=True)
class Partition:
    """A vertex -> shard assignment (``shard_of[v]`` in ``[0, n_shards)``)."""

    n_shards: int
    shard_of: np.ndarray
    partitioner: str

    def shard_sizes(self) -> np.ndarray:
        """Vertices per shard."""
        return np.bincount(self.shard_of, minlength=self.n_shards)


def hash_partition(graph: CSRGraph, n_shards: int,
                   tracker: CostTracker | None = None) -> Partition:
    """Structure-oblivious baseline: shard by multiplicative vertex hash."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    ids = np.arange(graph.n, dtype=np.uint64)
    shard = ((ids * _HASH_MULT) % _HASH_MOD) % n_shards
    if tracker is not None:
        tracker.add_work_int(graph.n)
    return Partition(n_shards, shard.astype(np.int64), "hash")


def mincut_partition(graph: CSRGraph, n_shards: int,
                     tracker: CostTracker | None = None,
                     sweeps: int = 4, slack: float = 1.1) -> Partition:
    """Greedy label propagation minimizing cut edges.

    Starting from :func:`hash_partition`, run up to ``sweeps`` passes over
    the vertices in ascending id order; move a vertex to the shard owning
    strictly more of its neighbors than its current shard does, unless the
    target shard is already at the balance cap
    ``ceil(n / n_shards * slack)``.  Ties break toward the lowest shard id
    (the first maximum of the tallies), and sweeps stop early once a full
    pass moves nothing -- both choices keep the result deterministic.
    Each sweep charges one unit per vertex and per neighbor entry.

    Each vertex's neighbor-shard tallies are counted once, with one
    ``bincount``, and kept across sweeps: a move shifts one count of
    each neighbor's tallies from the old shard to the new one, so every
    visit reads exactly the tallies a fresh count would give.  A sweep
    visits only the vertices that can move: those whose tallies favor
    another shard when it starts (one pass over the tally matrix), plus
    each later neighbor of a vertex that moves (a heap keeps the visits
    in id order).  Every other vertex keeps the tallies and the shard it
    started the sweep with, so the full sweep would skip it too.
    """
    seed = hash_partition(graph, n_shards, tracker)
    if n_shards == 1 or graph.n == 0:
        return Partition(n_shards, seed.shard_of.copy(), "mincut")
    shard = seed.shard_of.copy()
    sizes = np.bincount(shard, minlength=n_shards).tolist()
    cap = int(ceil(graph.n / n_shards * slack))
    offsets, targets = graph.offsets, graph.targets
    sources = np.repeat(np.arange(graph.n), graph.degrees)
    tallies = np.bincount(
        sources * n_shards + shard[targets],
        minlength=graph.n * n_shards).reshape(graph.n, n_shards)
    for _ in range(sweeps):
        if tracker is not None:
            tracker.add_work_int(graph.n + int(targets.size))
        # Ascending ids, so already a heap.
        queue = np.flatnonzero(tallies.max(axis=1) > tallies[
            np.arange(graph.n), shard]).tolist()
        queued = set(queue)
        moved = 0
        while queue:
            v = heappop(queue)
            row = tallies[v].tolist()
            current = int(shard[v])
            top = max(row)
            # The first maximum beats the current shard only when it is
            # strictly larger (an isolated vertex's tallies are all 0).
            if top <= row[current]:
                continue
            best = row.index(top)
            if sizes[best] >= cap:
                continue
            shard[v] = best
            sizes[best] += 1
            sizes[current] -= 1
            neighbors = targets[offsets[v]:offsets[v + 1]]
            np.add.at(tallies, (neighbors, current), -1)
            np.add.at(tallies, (neighbors, best), 1)
            for w in neighbors[neighbors > v].tolist():
                if w not in queued:
                    queued.add(w)
                    heappush(queue, w)
            moved += 1
        if moved == 0:
            break
    return Partition(n_shards, shard, "mincut")


PARTITIONERS = {
    "hash": hash_partition,
    "mincut": mincut_partition,
}
