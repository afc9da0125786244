"""The practical bucketing structure (Dhulipala et al., "Julienne").

Algorithm 2 repeatedly extracts the bucket of r-cliques with the minimum
s-clique count and moves r-cliques between buckets as counts drop.  The
paper's implementation uses Julienne's strategy: only a constant window of
the lowest buckets is materialized (lazily, with stale entries filtered on
extraction), and refilling the window skips over large empty ranges ---
both behaviors are reproduced and cost-accounted here.

Values only ever *decrease* between extractions (peeling is monotone), and
extracted ids are implicitly assigned the bucket's value as their core
number by the caller.
"""

from __future__ import annotations

import numpy as np

from ..parallel.runtime import CostTracker, _log2


def take_valid(bucket: list[int], alive: np.ndarray, values: np.ndarray,
               value: int) -> np.ndarray:
    """The positions of ``bucket`` still valid for extraction at
    ``value``, each once, in first-entry order.

    Buckets are filtered lazily: an entry is stale once its id is dead or
    its value has moved, and an id updated to a value it already had
    holds two valid entries, of which only the first counts.
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
    ids:
        Identifiers (arbitrary non-negative ints, e.g. table cell indices).
    values:
        Initial bucket value of each id (the s-clique counts).
    window:
        How many consecutive buckets to materialize at once (the "constant
        number of the lowest buckets").
    """

    def __init__(self, ids, values, window: int = 64,
                 tracker: CostTracker | None = None):
        self.ids = np.asarray(ids, dtype=np.int64)
        self._pos_map: dict[int, int] | None = None
        self._pos_arr: np.ndarray | None = None
        self.values = np.asarray(values, dtype=np.int64).copy()
        if self.values.size != self.ids.size:
            raise ValueError("ids and values must have equal length")
        self.alive = np.ones(self.ids.size, dtype=bool)
        self.window = max(1, window)
        self.tracker = tracker
        self.remaining = self.ids.size
        self.base = 0
        self.peel_floor = 0  # value of the most recently extracted bucket
        self._buckets: list[list[int]] = []
        self.refills = 0
        if self.ids.size:
            self._refill()

    # -- internals ----------------------------------------------------------

    @property
    def _pos(self) -> dict[int, int]:
        """id -> position, built on first use: only the per-id update loop
        and :meth:`value_of` read it."""
        if self._pos_map is None:
            self._pos_map = dict(zip(self.ids.tolist(), range(self.ids.size)))
        return self._pos_map

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
        """Extract the minimum non-empty bucket: ``(value, ids)``.

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
                return value, self.ids[positions]
            self._refill()
            if not any(self._buckets):
                if self.remaining == 0:
                    raise IndexError("bucketing structure is empty")

    def update(self, ids, new_values) -> None:
        """Decrease the values of ``ids`` to ``new_values`` and re-bucket.

        Values are clamped below at the current peel level (an r-clique
        whose count falls beneath the bucket being peeled belongs to that
        bucket: its core number cannot drop below the peel level).

        Distinct in-range ids take a vectorized fast path; bucket-append
        order, value clamping, and error behavior are identical to the
        per-id loop, which remains the fallback (and the oracle for the
        partial-mutation semantics of mid-batch errors).
        """
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        new_values = np.atleast_1d(np.asarray(new_values, dtype=np.int64))
        self._charge(float(ids.size))
        if self.tracker is not None:
            self.tracker.add_span(_log2(max(1, ids.size)))
        if ids.size > 1 and self._update_fast(ids, new_values):
            return
        self._update_slow(ids, new_values)

    def _pos_array(self) -> np.ndarray | None:
        """Dense id -> position map (lazy; None when ids are too sparse)."""
        if self._pos_arr is None:
            if self.ids.size == 0:
                return None
            top = int(self.ids.max()) + 1
            if top > 4 * self.ids.size + 1024:
                return None  # dict stays cheaper for very sparse id spaces
            arr = np.full(top, -1, dtype=np.int64)
            arr[self.ids] = np.arange(self.ids.size, dtype=np.int64)
            self._pos_arr = arr
        return self._pos_arr

    def _update_fast(self, ids: np.ndarray, new_values: np.ndarray) -> bool:
        """Apply a batch update without the per-id loop; returns False when
        the batch needs the loop's semantics (unknown/duplicate ids, or a
        below-window value whose partial-mutation error the loop owns)."""
        arr = self._pos_array()
        if arr is None or int(ids.min()) < 0 or int(ids.max()) >= arr.size:
            return False
        positions = arr[ids]
        if (positions < 0).any():
            return False
        if np.unique(ids).size != ids.size:
            return False
        live = self.alive[positions]
        values = np.maximum(new_values, self.peel_floor)
        offsets = values - self.base
        if (offsets[live] < 0).any():
            return False
        self.values[positions[live]] = values[live]
        in_window = live & (offsets < self.window)
        self._append(offsets[in_window], positions[in_window])
        return True

    def _update_slow(self, ids: np.ndarray, new_values: np.ndarray) -> None:
        for ident, value in zip(ids, new_values):
            k = self._pos[int(ident)]
            if not self.alive[k]:
                continue
            value = max(int(value), self.peel_floor)
            offset = value - self.base
            if offset < 0:
                # A clamped value below the materialized window would index
                # self._buckets[offset] with a *negative* offset, silently
                # appending to the wrong (top-of-window) bucket via Python
                # negative indexing and corrupting extraction order.  The
                # peeling loop cannot reach this state (peel_floor >= base
                # after every extraction, and updates follow extractions),
                # so a value below base means the caller broke the monotone
                # protocol --- fail loudly instead of mis-bucketing.
                raise ValueError(
                    f"update({int(ident)}) to value {value} below the "
                    f"current window base {self.base}; values must stay "
                    f">= the materialized window's base (peel_floor="
                    f"{self.peel_floor})")
            self.values[k] = value
            if offset < self.window:
                self._buckets[offset].append(k)

    def value_of(self, ident: int) -> int:
        """Current bucket value of an id (alive or not)."""
        return int(self.values[self._pos[int(ident)]])
