"""Tests for the three bucketing backends (Julienne, Fibonacci, dense)."""

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
        b = backend([10, 20, 30], [5, 2, 9])
        value, ids = b.next_bucket()
        assert value == 2
        assert list(ids) == [20]

    def test_groups_equal_values(self, backend):
        b = backend([1, 2, 3, 4], [7, 3, 7, 3])
        value, ids = b.next_bucket()
        assert value == 3
        assert sorted(ids) == [2, 4]

    def test_drains_in_nondecreasing_order(self, backend):
        values = [4, 1, 3, 1, 9, 4, 0]
        b = backend(list(range(7)), values)
        seen = []
        while len(b):
            value, ids = b.next_bucket()
            seen.append(value)
        assert seen == sorted(set(values))

    def test_len_counts_remaining(self, backend):
        b = backend([0, 1, 2], [1, 1, 5])
        assert len(b) == 3
        b.next_bucket()
        assert len(b) == 1

    def test_empty_raises(self, backend):
        b = backend([0], [1])
        b.next_bucket()
        with pytest.raises(IndexError):
            b.next_bucket()

    def test_update_moves_to_lower_bucket(self, backend):
        b = backend([0, 1], [1, 10])
        b.next_bucket()  # peel id 0 at value 1
        b.update([1], [4])
        value, ids = b.next_bucket()
        assert value == 4
        assert list(ids) == [1]

    def test_update_clamps_to_peel_floor(self, backend):
        b = backend([0, 1], [5, 10])
        value, _ = b.next_bucket()
        assert value == 5
        b.update([1], [2])  # below the current peel level
        value, ids = b.next_bucket()
        assert value == 5  # clamped: core numbers never go backwards
        assert list(ids) == [1]

    def test_update_on_extracted_id_ignored(self, backend):
        b = backend([0, 1], [1, 3])
        b.next_bucket()
        b.update([0], [0])  # id 0 already peeled
        value, ids = b.next_bucket()
        assert value == 3 and list(ids) == [1]

    def test_value_of(self, backend):
        b = backend([7, 8], [2, 6])
        assert b.value_of(7) == 2
        b.update([8], [4])
        assert b.value_of(8) == 4

    def test_large_value_gap_skipped(self, backend):
        b = backend([0, 1], [0, 100000])
        assert b.next_bucket()[0] == 0
        assert b.next_bucket()[0] == 100000

    def test_same_value_update_extracts_once(self, backend):
        """An update that leaves a live id's value unchanged adds a second
        bucket entry; the id is still extracted once, and no live id is
        lost."""
        b = backend([0, 1, 2], [6, 9, 9])
        b.next_bucket()
        b.update([1], [7])
        b.update([1], [7])
        value, ids = b.next_bucket()
        assert (value, list(ids), len(b)) == (7, [1], 1)
        value, ids = b.next_bucket()
        assert (value, list(ids), len(b)) == (9, [2], 0)

    def test_tracker_charged(self, backend):
        tracker = CostTracker()
        b = backend([0, 1, 2], [3, 1, 2], tracker=tracker)
        b.next_bucket()
        assert tracker.work > 0


class TestJulienneSpecifics:
    def test_window_refills(self):
        b = JulienneBucketing(list(range(10)), [i * 50 for i in range(10)],
                              window=4)
        drained = []
        while len(b):
            drained.append(b.next_bucket()[0])
        assert drained == [i * 50 for i in range(10)]
        assert b.refills >= 2  # values span far beyond one window

    def test_stale_entries_filtered(self):
        b = JulienneBucketing([0, 1, 2], [2, 5, 5], window=16)
        b.next_bucket()
        b.update([1], [3])
        b.update([1], [2])  # moved twice: the first entry is now stale
        value, ids = b.next_bucket()
        assert value == 2 and list(ids) == [1]

    def test_update_below_window_base_raises(self):
        # Regression: a clamped value below the materialized window's base
        # used to index self._buckets with a *negative* offset, silently
        # appending to a top-of-window bucket and corrupting extraction
        # order.  The monotone peeling protocol cannot produce this state,
        # so it must fail loudly instead of mis-bucketing.
        b = JulienneBucketing([0, 1], [50, 60], window=4)  # base = 50
        assert b.base == 50
        with pytest.raises(ValueError, match="below the current window"):
            b.update([1], [10])
        # The structure was not corrupted: id 1 still drains at its
        # original value and nothing landed in a wrong bucket.
        value, ids = b.next_bucket()
        assert value == 50 and list(ids) == [0]
        value, ids = b.next_bucket()
        assert value == 60 and list(ids) == [1]

    def test_clamp_vs_refill_interaction(self):
        # After a refill jumps the window past a gap, updates clamped to
        # the pre-refill peel level must stay inside the new window: the
        # clamp floor (peel_floor) is raised to each extracted value, which
        # is always >= the refilled base.
        b = JulienneBucketing([0, 1, 2], [2, 100, 101], window=4)
        value, ids = b.next_bucket()           # peel_floor = 2
        assert value == 2 and list(ids) == [0]
        value, ids = b.next_bucket()           # refilled: base = 100
        assert value == 100 and list(ids) == [1]
        assert b.base == 100
        assert b.peel_floor == 100
        b.update([2], [5])  # decreases far below base; clamps to 100
        value, ids = b.next_bucket()
        assert value == 100 and list(ids) == [2]
        assert b.value_of(2) == 100


class TestDenseSpecifics:
    def test_doubling_search_charges_work(self):
        tracker = CostTracker()
        b = DenseBucketing([0, 1], [0, 4096], tracker=tracker)
        b.next_bucket()
        before = tracker.work
        b.next_bucket()  # long empty-range search
        assert tracker.work > before


class TestFibonacciSpecifics:
    def test_heap_consolidation_under_churn(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 30, size=100)
        b = FibonacciBucketing(list(range(100)), values)
        floor = 0
        drained = 0
        while len(b):
            value, ids = b.next_bucket()
            assert value >= floor
            floor = value
            drained += len(ids)
        assert drained == 100


def test_make_bucketing_by_name():
    b = make_bucketing("julienne", [0], [1])
    assert isinstance(b, JulienneBucketing)
    with pytest.raises(ValueError):
        make_bucketing("nope", [0], [1])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=40), st.data())
def test_backends_agree_under_peeling(values, data):
    """All three backends peel identically under the same update stream,
    also when an update leaves a value unchanged: every id is extracted
    exactly once, and len() agrees after every extraction."""
    structures = [cls(list(range(len(values))), values) for cls in BACKENDS]
    extracted: list[int] = []
    while len(structures[0]):
        extractions = [s.next_bucket() for s in structures]
        value0, ids0 = extractions[0]
        for value, ids in extractions[1:]:
            assert value == value0
            assert sorted(ids) == sorted(ids0)
        extracted.extend(ids0.tolist())
        assert [len(s) for s in structures] \
            == [len(values) - len(extracted)] * len(structures)
        # Lower some still-alive ids by 0, 1 or 2, in one or two updates.
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
    """Julienne with the per-element window refill and stale filter it had
    before both became array operations: the reference below."""

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
                valid = [k for k in bucket
                         if self.alive[k] and self.values[k] == value]
                bucket.clear()
                if not valid:
                    continue
                positions = np.asarray(valid, dtype=np.int64)
                self.alive[positions] = False
                self.remaining -= len(valid)
                self.peel_floor = value
                return value, self.ids[positions]
            self._refill()
            if not any(self._buckets):
                if self.remaining == 0:
                    raise IndexError("bucketing structure is empty")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=80),
       st.sampled_from([1, 2, 8, 64]), st.sampled_from([1, 5000]),
       st.data())
def test_julienne_matches_elementwise_window(values, window, id_stride,
                                             data):
    """The array-based window refill and stale filter extract the same
    ``(value, ids in order)`` sequence as the per-element ones, with the
    same work, span and refill count, under the peel's protocol (each
    update lowers live ids, clamped at the peel floor)."""
    ids = [3 + id_stride * k for k in range(len(values))]
    trackers = [CostTracker(), CostTracker()]
    structures = [cls(ids, values, window=window, tracker=tracker)
                  for cls, tracker in zip(
                      (_ElementwiseJulienne, JulienneBucketing), trackers)]
    logs: list[list] = [[], []]
    while len(structures[0]):
        for log, structure in zip(logs, structures):
            value, out = structure.next_bucket()
            log.append((value, out.tolist()))
        assert logs[0][-1] == logs[1][-1]
        live = np.flatnonzero(structures[0].alive).tolist()
        if live:
            chosen = data.draw(st.lists(st.sampled_from(live), max_size=8,
                                        unique=True))
            new_values = [int(structures[0].values[k])
                          - data.draw(st.integers(1, 30)) for k in chosen]
            for structure in structures:
                structure.update([ids[k] for k in chosen], new_values)
    assert len(structures[1]) == 0
    assert logs[0] == logs[1]
    assert trackers[0].total == trackers[1].total
    assert structures[0].refills == structures[1].refills
