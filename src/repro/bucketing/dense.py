"""Dense-array bucketing with doubling-region minimum search.

The paper's appendix observes that when space proportional to the number of
s-cliques is allowed, the bucketing structure can simply be an array indexed
by bucket value.  To keep extract-min work-efficient *and* low-span in
parallel, the next non-empty bucket is found by scanning geometrically
growing regions ``[2^i, 2^{i+1})`` ahead of the previous minimum with a
parallel reduce over each region --- O(x) total work over the whole peeling
process for an array of x buckets, O(log y) span per pop.

This is the structure that makes ARB-NUCLEUS-DECOMP fully work-efficient
(O(m alpha^{s-2}) work) when s-clique-proportional space is acceptable.
"""

from __future__ import annotations

import numpy as np

from ..parallel.runtime import CostTracker, _log2
from .julienne import take_valid


class DenseBucketing:
    """Array-of-buckets keyed directly by value; doubling search for the min."""

    def __init__(self, values, tracker: CostTracker | None = None,
                 window: int = 0):
        del window  # interface compatibility
        self.tracker = tracker
        self.values = np.asarray(values, dtype=np.int64).copy()
        self.alive = np.ones(self.values.size, dtype=bool)
        self.remaining = self.values.size
        max_value = int(self.values.max()) if self.values.size else 0
        #: bucket value -> list of positions (lazily maintained, may be stale)
        self._buckets: list[list[int]] = [[] for _ in range(max_value + 1)]
        for k, value in enumerate(self.values.tolist()):
            self._buckets[value].append(k)
        self._floor = 0  # no live position has value below this

    def _charge(self, work: float, span: float = 0.0) -> None:
        if self.tracker is not None:
            self.tracker.add_work(work)
            if span:
                self.tracker.add_span(span)

    def __len__(self) -> int:
        return self.remaining

    def next_bucket(self) -> tuple[int, np.ndarray]:
        """Extract the minimum non-empty bucket via doubling-region search."""
        if self.remaining == 0:
            raise IndexError("bucketing structure is empty")
        n_buckets = len(self._buckets)
        start = self._floor
        # Search regions [start, start+1), [start+1, start+2), [start+2,
        # start+4), ... each with one parallel reduce (log-span charge).
        width = 1
        lo = start
        while lo < n_buckets:
            hi = min(n_buckets, lo + width)
            self._charge(float(hi - lo), _log2(hi - lo))
            for value in range(lo, hi):
                bucket = self._buckets[value]
                if not bucket:
                    continue
                positions = take_valid(bucket, self.alive, self.values,
                                       value)
                self._charge(float(len(bucket)))
                bucket.clear()
                if positions.size:
                    self.alive[positions] = False
                    self.remaining -= positions.size
                    self._floor = value
                    return value, positions
            lo = hi
            width *= 2
        raise IndexError("bucketing structure is empty")  # pragma: no cover

    def update(self, positions, new_values) -> None:
        """Decrease the values at ``positions`` (distinct) and re-bucket,
        clamped at the current floor; extracted positions are skipped."""
        positions = np.atleast_1d(np.asarray(positions, dtype=np.int64))
        new_values = np.atleast_1d(np.asarray(new_values, dtype=np.int64))
        self._charge(float(positions.size), _log2(max(1, positions.size)))
        for k, value in zip(positions.tolist(), new_values.tolist()):
            if not self.alive[k]:
                continue
            value = max(value, self._floor)
            self.values[k] = value
            self._buckets[value].append(k)

    def value_of(self, position: int) -> int:
        return int(self.values[position])
