"""Tests for the three bucketing backends (Julienne, Fibonacci, dense)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketing import (BUCKETING_BACKENDS, DenseBucketing,
                             FibonacciBucketing, JulienneBucketing,
                             make_bucketing)
from repro.parallel.runtime import CostTracker, _log2

BACKENDS = list(BUCKETING_BACKENDS.values())


@pytest.mark.parametrize("backend", BACKENDS)
class TestBasics:
    def test_extracts_minimum_first(self, backend):
        b = backend([5, 2, 9])
        value, positions = b.next_bucket()
        assert value == 2
        assert list(positions) == [1]

    def test_groups_equal_values(self, backend):
        b = backend([7, 3, 7, 3])
        value, positions = b.next_bucket()
        assert value == 3
        assert sorted(positions) == [1, 3]

    def test_drains_in_nondecreasing_order(self, backend):
        values = [4, 1, 3, 1, 9, 4, 0]
        b = backend(values)
        seen = []
        while len(b):
            value, _ = b.next_bucket()
            seen.append(value)
        assert seen == sorted(set(values))

    def test_len_counts_remaining(self, backend):
        b = backend([1, 1, 5])
        assert len(b) == 3
        b.next_bucket()
        assert len(b) == 1

    def test_empty_raises(self, backend):
        b = backend([1])
        b.next_bucket()
        with pytest.raises(IndexError):
            b.next_bucket()

    def test_update_moves_to_lower_bucket(self, backend):
        b = backend([1, 10])
        b.next_bucket()  # peel position 0 at value 1
        b.update([1], [4])
        value, positions = b.next_bucket()
        assert value == 4
        assert list(positions) == [1]

    def test_update_clamps_to_peel_floor(self, backend):
        b = backend([5, 10])
        value, _ = b.next_bucket()
        assert value == 5
        b.update([1], [2])  # below the current peel level
        value, positions = b.next_bucket()
        assert value == 5  # clamped: core numbers never go backwards
        assert list(positions) == [1]

    def test_update_on_extracted_id_ignored(self, backend):
        b = backend([1, 3])
        b.next_bucket()
        b.update([0], [0])  # position 0 already peeled
        value, positions = b.next_bucket()
        assert value == 3 and list(positions) == [1]

    def test_value_of(self, backend):
        b = backend([2, 6])
        assert b.value_of(0) == 2
        b.update([1], [4])
        assert b.value_of(1) == 4

    def test_large_value_gap_skipped(self, backend):
        b = backend([0, 100000])
        assert b.next_bucket()[0] == 0
        assert b.next_bucket()[0] == 100000

    def test_same_value_update_extracts_once(self, backend):
        """An update that leaves a live position's value unchanged adds a
        second bucket entry; the position is still extracted once, and no
        live position is lost."""
        b = backend([6, 9, 9])
        b.next_bucket()
        b.update([1], [7])
        b.update([1], [7])
        value, positions = b.next_bucket()
        assert (value, list(positions), len(b)) == (7, [1], 1)
        value, positions = b.next_bucket()
        assert (value, list(positions), len(b)) == (9, [2], 0)

    def test_tracker_charged(self, backend):
        tracker = CostTracker()
        b = backend([3, 1, 2], tracker=tracker)
        b.next_bucket()
        assert tracker.work > 0


class TestJulienneSpecifics:
    def test_window_refills(self):
        b = JulienneBucketing([i * 50 for i in range(10)], window=4)
        drained = []
        while len(b):
            drained.append(b.next_bucket()[0])
        assert drained == [i * 50 for i in range(10)]
        assert b.refills >= 2  # values span far beyond one window

    def test_stale_entries_filtered(self):
        b = JulienneBucketing([2, 5, 5], window=16)
        b.next_bucket()
        b.update([1], [3])
        b.update([1], [2])  # moved twice: the first entry is now stale
        value, positions = b.next_bucket()
        assert value == 2 and list(positions) == [1]

    def test_update_below_window_base_raises(self):
        # Regression: a clamped value below the materialized window's base
        # used to index self._buckets with a *negative* offset, silently
        # appending to a top-of-window bucket and corrupting extraction
        # order.  The monotone peeling protocol cannot produce this state,
        # so it must fail loudly instead of mis-bucketing.
        b = JulienneBucketing([50, 60], window=4)  # base = 50
        assert b.base == 50
        with pytest.raises(ValueError, match="below the current window"):
            b.update([1], [10])
        # The structure was not corrupted: position 1 still drains at its
        # original value and nothing landed in a wrong bucket.
        value, positions = b.next_bucket()
        assert value == 50 and list(positions) == [0]
        value, positions = b.next_bucket()
        assert value == 60 and list(positions) == [1]

    def test_below_window_batch_raises_before_changing(self):
        b = JulienneBucketing(np.arange(20), window=8)
        b.next_bucket()  # extracts only the value-0 bucket
        # Force still-alive positions below base to simulate protocol
        # breakage: the batch raises at position 2 and leaves position 1,
        # which it lists first with a valid value, as it was.
        b.base = 50
        before = _state(b)
        with pytest.raises(ValueError, match=r"update\(2\) to value 32"):
            b.update(np.array([1, 2]), np.array([60, 32]))
        assert _state(b) == before

    def test_clamp_vs_refill_interaction(self):
        # After a refill jumps the window past a gap, updates clamped to
        # the pre-refill peel level must stay inside the new window: the
        # clamp floor (peel_floor) is raised to each extracted value, which
        # is always >= the refilled base.
        b = JulienneBucketing([2, 100, 101], window=4)
        value, positions = b.next_bucket()     # peel_floor = 2
        assert value == 2 and list(positions) == [0]
        value, positions = b.next_bucket()     # refilled: base = 100
        assert value == 100 and list(positions) == [1]
        assert b.base == 100
        assert b.peel_floor == 100
        b.update([2], [5])  # decreases far below base; clamps to 100
        value, positions = b.next_bucket()
        assert value == 100 and list(positions) == [2]
        assert b.value_of(2) == 100


class TestDenseSpecifics:
    def test_doubling_search_charges_work(self):
        tracker = CostTracker()
        b = DenseBucketing([0, 4096], tracker=tracker)
        b.next_bucket()
        before = tracker.work
        b.next_bucket()  # long empty-range search
        assert tracker.work > before


class TestFibonacciSpecifics:
    def test_heap_consolidation_under_churn(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 30, size=100)
        b = FibonacciBucketing(values)
        floor = 0
        drained = 0
        while len(b):
            value, positions = b.next_bucket()
            assert value >= floor
            floor = value
            drained += len(positions)
        assert drained == 100


def test_make_bucketing_by_name():
    b = make_bucketing("julienne", [1])
    assert isinstance(b, JulienneBucketing)
    with pytest.raises(ValueError):
        make_bucketing("nope", [1])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=40), st.data())
def test_backends_agree_under_peeling(values, data):
    """All three backends peel identically under the same update stream,
    also when an update leaves a value unchanged: every position is
    extracted exactly once, and len() agrees after every extraction."""
    structures = [cls(values) for cls in BACKENDS]
    extracted: list[int] = []
    while len(structures[0]):
        extractions = [s.next_bucket() for s in structures]
        value0, positions0 = extractions[0]
        for value, positions in extractions[1:]:
            assert value == value0
            assert sorted(positions) == sorted(positions0)
        extracted.extend(positions0.tolist())
        assert [len(s) for s in structures] \
            == [len(values) - len(extracted)] * len(structures)
        # Lower some still-alive positions by 0, 1 or 2, in one or two
        # updates.
        alive = [i for i in range(len(values)) if structures[0].alive[i]]
        for _ in range(data.draw(st.integers(1, 2)) if alive else 0):
            chosen = data.draw(st.lists(st.sampled_from(alive), max_size=5,
                                        unique=True))
            if chosen:
                new_values = [max(0, structures[0].value_of(i)
                                  - data.draw(st.integers(0, 2)))
                              for i in chosen]
                for s in structures:
                    s.update(chosen, new_values)
    assert sorted(extracted) == list(range(len(values)))


class _ElementwiseJulienne(JulienneBucketing):
    """Julienne with the per-element window refill, stale filter and
    update loop it had before all three became array operations: the
    reference below."""

    def _refill(self):
        self.refills += 1
        live = np.flatnonzero(self.alive)
        self._charge(float(live.size) + 1.0)
        if self.tracker is not None:
            self.tracker.add_span(_log2(max(1, live.size)))
        if live.size == 0:
            self._buckets = []
            return
        vals = self.values[live]
        self.base = int(vals.min())
        self._buckets = [[] for _ in range(self.window)]
        in_window = live[vals < self.base + self.window]
        for k in in_window:
            self._buckets[int(self.values[k]) - self.base].append(int(k))

    def next_bucket(self):
        if self.remaining == 0:
            raise IndexError("bucketing structure is empty")
        while True:
            for offset, bucket in enumerate(self._buckets):
                if not bucket:
                    continue
                value = self.base + offset
                self._charge(float(len(bucket)))
                valid = list(dict.fromkeys(  # each once, first entry
                    k for k in bucket
                    if self.alive[k] and self.values[k] == value))
                bucket.clear()
                if not valid:
                    continue
                positions = np.asarray(valid, dtype=np.int64)
                self.alive[positions] = False
                self.remaining -= len(valid)
                self.peel_floor = value
                return value, positions
            self._refill()
            if not any(self._buckets):
                if self.remaining == 0:
                    raise IndexError("bucketing structure is empty")

    def update(self, positions, new_values):
        positions = np.atleast_1d(np.asarray(positions, dtype=np.int64))
        new_values = np.atleast_1d(np.asarray(new_values, dtype=np.int64))
        self._charge(float(positions.size))
        if self.tracker is not None:
            self.tracker.add_span(_log2(max(1, positions.size)))
        for k, value in zip(positions.tolist(), new_values.tolist()):
            if not self.alive[k]:
                continue
            value = max(value, self.peel_floor)
            offset = value - self.base
            if offset < 0:  # the loop stops here, part-way through
                raise ValueError(
                    f"update({k}) to value {value} below the current "
                    f"window base {self.base}; values must stay >= the "
                    f"materialized window's base (peel_floor="
                    f"{self.peel_floor})")
            self.values[k] = value
            if offset < self.window:
                self._buckets[offset].append(k)


def _state(structure):
    """Everything a Julienne structure's next extraction depends on."""
    return (structure.values.tolist(), structure.alive.tolist(),
            [list(bucket) for bucket in structure._buckets], structure.base,
            structure.peel_floor, structure.remaining, structure.refills)


def _draw_update(data, structure):
    """A batch of 1..n distinct positions (extracted ones included, which
    ``update`` skips), each lowered by 1..30."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    n = structure.values.size
    chosen = rng.permutation(n)[:data.draw(st.integers(1, n))]
    return chosen, structure.values[chosen] - rng.integers(1, 31, chosen.size)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=80),
       st.sampled_from([1, 2, 8, 64]), st.data())
def test_julienne_matches_elementwise_window(values, window, data):
    """The array-based window refill, stale filter and update extract the
    same ``(value, positions in order)`` sequence as the per-element ones,
    with the same work, span and refill count, under the peel's protocol
    (each update lowers a batch of distinct positions, clamped at the
    peel floor).  Before the first extraction the floor is 0, so an
    update can fall below the window's base: both raise at the same
    position, and the array update leaves the structure as it was."""
    trackers = [CostTracker(), CostTracker()]
    structures = [cls(values, window=window, tracker=tracker)
                  for cls, tracker in zip(
                      (_ElementwiseJulienne, JulienneBucketing), trackers)]
    chosen, new_values = _draw_update(data, structures[1])
    if (np.maximum(new_values, 0) < structures[1].base).any():
        # On copies: the per-element loop stops part-way.
        copies = copy.deepcopy(structures)
        before = _state(copies[1])
        errors = []
        for structure in copies:
            with pytest.raises(ValueError) as info:
                structure.update(chosen, new_values)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert _state(copies[1]) == before
        assert copies[0].tracker.total == copies[1].tracker.total
    else:
        for structure in structures:
            structure.update(chosen, new_values)
    logs: list[list] = [[], []]
    while len(structures[0]):
        for log, structure in zip(logs, structures):
            value, out = structure.next_bucket()
            log.append((value, out.tolist()))
        assert logs[0][-1] == logs[1][-1]
        if len(structures[0]):
            chosen, new_values = _draw_update(data, structures[1])
            for structure in structures:
                structure.update(chosen, new_values)
        assert _state(structures[0]) == _state(structures[1])
    assert len(structures[1]) == 0
    assert logs[0] == logs[1]
    assert trackers[0].total == trackers[1].total
    assert structures[0].refills == structures[1].refills
