"""The practical bucketing structure (Dhulipala et al., "Julienne").

Algorithm 2 repeatedly extracts the bucket of r-cliques with the minimum
s-clique count and moves r-cliques between buckets as counts drop.  The
paper's implementation uses Julienne's strategy: only a constant window of
the lowest buckets is materialized (lazily, with stale entries filtered on
extraction), and refilling the window skips over large empty ranges ---
both behaviors are reproduced and cost-accounted here.

Like GBBS's Julienne, the structure buckets the identifiers ``0 .. k-1``
directly: ``values[i]`` is position ``i``'s bucket value, and the caller
maps positions to whatever they stand for.  Values only ever *decrease*
between extractions (peeling is monotone), and extracted positions are
implicitly assigned the bucket's value as their core number by the
caller.
"""

from __future__ import annotations

import numpy as np

from ..parallel.runtime import CostTracker, _log2


def take_valid(bucket: list[int], alive: np.ndarray, values: np.ndarray,
               value: int) -> np.ndarray:
    """The positions of ``bucket`` still valid for extraction at
    ``value``, each once, in first-entry order.

    Buckets are filtered lazily: an entry is stale once its position is
    dead or its value has moved, and a position updated to a value it
    already had holds two valid entries, of which only the first counts.
    """
    positions = np.asarray(bucket, dtype=np.int64)
    positions = positions[alive[positions] & (values[positions] == value)]
    if positions.size > 1:
        _, first = np.unique(positions, return_index=True)
        if first.size < positions.size:
            positions = positions[np.sort(first)]
    return positions


class JulienneBucketing:
    """Lazy bucket queue materializing a window of the lowest buckets.

    Parameters
    ----------
    values:
        Initial bucket value of each position ``0 .. k-1`` (the s-clique
        counts).
    window:
        How many consecutive buckets to materialize at once (the "constant
        number of the lowest buckets").
    """

    def __init__(self, values, window: int = 64,
                 tracker: CostTracker | None = None):
        self.values = np.asarray(values, dtype=np.int64).copy()
        self.alive = np.ones(self.values.size, dtype=bool)
        self.window = max(1, window)
        self.tracker = tracker
        self.remaining = self.values.size
        self.base = 0
        self.peel_floor = 0  # value of the most recently extracted bucket
        self._buckets: list[list[int]] = []
        self.refills = 0
        if self.values.size:
            self._refill()

    # -- internals ----------------------------------------------------------

    def _charge(self, work: float) -> None:
        if self.tracker is not None:
            self.tracker.add_work(work)

    def _refill(self) -> None:
        """Rebuild the window starting at the minimum live value.

        Skips every empty bucket below that minimum in one step (the
        "skips over large ranges of empty buckets" behavior).
        """
        self.refills += 1
        live = np.flatnonzero(self.alive)
        self._charge(float(live.size) + 1.0)
        if self.tracker is not None:
            self.tracker.add_span(_log2(max(1, live.size)))
        if live.size == 0:
            self._buckets = []
            return
        offsets = self.values[live]
        self.base = int(offsets.min())
        offsets -= self.base
        in_window = offsets < self.window
        self._buckets = [[] for _ in range(self.window)]
        self._append(offsets[in_window], live[in_window])

    def _append(self, offsets: np.ndarray, positions: np.ndarray) -> None:
        """Append ``positions`` to the window buckets at ``offsets``, in
        their given order within each bucket (one stable argsort)."""
        if not offsets.size:
            return
        order = np.argsort(offsets, kind="stable")
        offsets = offsets[order]
        positions = positions[order].tolist()
        starts = np.flatnonzero(np.r_[True, offsets[1:] != offsets[:-1]])
        bounds = starts.tolist() + [len(positions)]
        for g, offset in enumerate(offsets[starts].tolist()):
            self._buckets[offset].extend(positions[bounds[g]:bounds[g + 1]])

    # -- public API ----------------------------------------------------------

    def __len__(self) -> int:
        return self.remaining

    def next_bucket(self) -> tuple[int, np.ndarray]:
        """Extract the minimum non-empty bucket: ``(value, positions)``.

        Raises :class:`IndexError` when the structure is empty.
        """
        if self.remaining == 0:
            raise IndexError("bucketing structure is empty")
        while True:
            for offset, bucket in enumerate(self._buckets):
                if not bucket:
                    continue
                value = self.base + offset
                self._charge(float(len(bucket)))
                positions = take_valid(bucket, self.alive, self.values, value)
                bucket.clear()
                if not positions.size:
                    continue
                self.alive[positions] = False
                self.remaining -= positions.size
                self.peel_floor = value
                return value, positions
            self._refill()
            if not any(self._buckets):
                if self.remaining == 0:
                    raise IndexError("bucketing structure is empty")

    def update(self, positions, new_values) -> None:
        """Decrease the values at ``positions`` to ``new_values`` and
        re-bucket.  ``positions`` must be distinct; extracted ones are
        skipped.

        Values are clamped below at the current peel level (an r-clique
        whose count falls beneath the bucket being peeled belongs to that
        bucket: its core number cannot drop below the peel level).  A
        clamped value below the materialized window's base raises
        ``ValueError`` before anything changes: the peeling protocol
        cannot reach that state (``peel_floor >= base`` after every
        extraction, and updates follow extractions), so it means the
        caller broke monotonicity.
        """
        positions = np.atleast_1d(np.asarray(positions, dtype=np.int64))
        new_values = np.atleast_1d(np.asarray(new_values, dtype=np.int64))
        self._charge(float(positions.size))
        if self.tracker is not None:
            self.tracker.add_span(_log2(max(1, positions.size)))
        live = self.alive[positions]
        positions = positions[live]
        values = np.maximum(new_values[live], self.peel_floor)
        offsets = values - self.base
        below = offsets < 0
        if below.any():
            k = int(below.argmax())
            raise ValueError(
                f"update({int(positions[k])}) to value {int(values[k])} "
                f"below the current window base {self.base}; values must "
                f"stay >= the materialized window's base (peel_floor="
                f"{self.peel_floor})")
        self.values[positions] = values
        in_window = offsets < self.window
        self._append(offsets[in_window], positions[in_window])

    def value_of(self, position: int) -> int:
        """Current bucket value of a position (alive or not)."""
        return int(self.values[position])
