"""Tests for the open-addressing parallel hash table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import CacheSimulator
from repro.parallel.hashtable import (EMPTY_KEY, MAX_LOAD, ParallelHashTable,
                                      hash64)
from repro.parallel.runtime import CostTracker


class TestHash64:
    def test_deterministic(self):
        assert hash64(12345) == hash64(12345)

    def test_spreads_consecutive_keys(self):
        values = {hash64(i) & 0xFF for i in range(100)}
        assert len(values) > 50

    def test_in_range(self):
        assert 0 <= hash64(2**63) < 2**64


class TestBasicOperations:
    def test_insert_and_get(self):
        t = ParallelHashTable(8)
        t.insert_or_add(42, 3.0)
        assert t.get(42) == 3.0
        assert len(t) == 1

    def test_insert_or_add_accumulates(self):
        t = ParallelHashTable(8)
        t.insert_or_add(7, 1.0)
        t.insert_or_add(7, 1.0)
        assert t.get(7) == 2.0
        assert len(t) == 1

    def test_get_missing_returns_default(self):
        t = ParallelHashTable(8)
        assert t.get(99) is None
        assert t.get(99, -1.0) == -1.0

    def test_set_overwrites(self):
        t = ParallelHashTable(8)
        t.set(5, 1.0)
        t.set(5, 9.0)
        assert t.get(5) == 9.0

    def test_contains(self):
        t = ParallelHashTable(8)
        t.insert_or_add(1, 1.0)
        assert 1 in t
        assert 2 not in t

    def test_items_and_slots(self):
        t = ParallelHashTable(16)
        for k in (10, 20, 30):
            t.insert_or_add(k, float(k))
        assert dict(t.items()) == {10: 10.0, 20: 20.0, 30: 30.0}
        assert t.occupied_slots().size == 3

    def test_slot_of_and_key_at(self):
        t = ParallelHashTable(8)
        slot = t.insert_or_add(77, 1.0)
        assert t.slot_of(77) == slot
        assert t.key_at(slot) == 77
        assert t.slot_of(78) == -1

    def test_clear(self):
        t = ParallelHashTable(8)
        t.insert_or_add(1, 1.0)
        t.clear()
        assert len(t) == 0
        assert 1 not in t


class TestGrowth:
    def test_grows_past_load_factor(self):
        t = ParallelHashTable(4)
        for k in range(100):
            t.insert_or_add(k, 1.0)
        assert len(t) == 100
        assert all(t.get(k) == 1.0 for k in range(100))

    def test_frozen_slab_refuses_growth(self):
        t = ParallelHashTable(4, resizable=False)
        with pytest.raises(RuntimeError):
            for k in range(1000):
                t.insert_or_add(k, 1.0)

    def test_power_of_two_capacity(self):
        t = ParallelHashTable(100)
        assert t.n_slots & (t.n_slots - 1) == 0

    def test_max_load_is_not_an_argument(self):
        """The load limit is the module's MAX_LOAD: a caller's value could
        fill the table (1.0, and a missing key's probe never ends),
        divide by zero (0) or grow on every insert (negative)."""
        assert 0 < MAX_LOAD < 1
        with pytest.raises(TypeError):
            ParallelHashTable(8, max_load=0.5)
        with pytest.raises(TypeError):
            ParallelHashTable(8, None, 0, 1.0)

    def test_load_stays_below_one(self):
        t = ParallelHashTable(1)
        t.insert_many(np.arange(500), 1.0)
        assert t.size / t.n_slots <= MAX_LOAD
        assert t.get(10_000) is None


class TestAccounting:
    def test_probes_charged(self):
        tr = CostTracker()
        t = ParallelHashTable(64, tracker=tr)
        t.insert_or_add(5, 1.0)
        assert tr.total.table_probes >= 1
        assert tr.total.atomic_ops == 1

    def test_clear_charges_capacity(self):
        tr = CostTracker()
        t = ParallelHashTable(64, tracker=tr)
        before = tr.work
        t.clear()
        assert tr.work - before == t.n_slots


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**40), st.floats(-100, 100)),
                max_size=200))
def test_model_equivalence(pairs):
    """The table behaves exactly like a dict under insert_or_add."""
    table = ParallelHashTable(4)
    model: dict[int, float] = {}
    for key, delta in pairs:
        table.insert_or_add(key, delta)
        model[key] = model.get(key, 0.0) + delta
    assert len(table) == len(model)
    for key, value in model.items():
        assert table.get(key) == pytest.approx(value)


def test_empty_key_reserved():
    t = ParallelHashTable(8)
    assert np.uint64(EMPTY_KEY) == np.uint64(0xFFFFFFFFFFFFFFFF)
    assert (t.keys == EMPTY_KEY).all()


class TestKeyRange:
    """Keys must lie in ``[0, EMPTY_KEY)``: the reserved pattern would read
    as an empty slot, and a negative key would wrap onto it."""

    @pytest.mark.parametrize("key", [2**64 - 1, 2**64, -1])
    @pytest.mark.parametrize("insert", ["insert_or_add", "set"])
    def test_scalar_insert_rejects(self, insert, key):
        tr = CostTracker()
        t = ParallelHashTable(8, tracker=tr)
        with pytest.raises(ValueError, match=f"key {key} is outside"):
            getattr(t, insert)(key, 1.0)
        assert (len(t), (t.keys == EMPTY_KEY).all(), t.values.any(),
                tr.work) == (0, True, False, 0)

    @pytest.mark.parametrize("keys", [
        [2**64 - 1], np.array([2**64 - 1], dtype=np.uint64),
        np.array([-1]), [3, -1, 4]])
    def test_batch_insert_rejects_before_inserting(self, keys):
        tr = CostTracker()
        t = ParallelHashTable(8, tracker=tr)
        key = [k for k in np.asarray(keys).tolist() if not 0 <= k < 2**64 - 1]
        with pytest.raises(ValueError, match=f"key {key[0]} is outside"):
            t.insert_many(keys)
        assert (len(t), (t.keys == EMPTY_KEY).all(), t.values.any(),
                tr.work) == (0, True, False, 0)

    @pytest.mark.parametrize("big", [2**63 + 1, 2**64 - 2])
    def test_batch_insert_converts_big_keys_exactly(self, big):
        """A list mixing small keys with keys at or above 2**63 must not
        round through float64: the big key is stored as itself."""
        t = ParallelHashTable(8)
        t.insert_many([0, big], 2.0)
        assert (t.get(0), t.get(big), len(t)) == (2.0, 2.0, 2)
        assert big - 1 not in t
        assert sorted(key for key, _ in t.items()) == [0, big]

    @pytest.mark.parametrize("keys", [[1.5], [0, 2.0], np.array([3.0]),
                                      ["7"]])
    def test_batch_insert_rejects_non_integers(self, keys):
        tr = CostTracker()
        t = ParallelHashTable(8, tracker=tr)
        with pytest.raises(ValueError, match="is not an integer"):
            t.insert_many(keys)
        assert (len(t), (t.keys == EMPTY_KEY).all(), tr.work) == (0, True, 0)

    @pytest.mark.parametrize("key", [2**64 - 1, 2**64, -1])
    @pytest.mark.parametrize("filled", [False, True])
    def test_lookup_answers_absent(self, key, filled):
        """No such key can be stored, so a lookup answers "absent" without
        probing: no empty slot reads as a match, no key overflows."""
        tr = CostTracker()
        t = ParallelHashTable(8, tracker=tr)
        if filled:
            for stored in (0, 3, 2**64 - 2):
                t.insert_or_add(stored, 1.0)
        work, probes = tr.work, tr.total.table_probes
        assert (t.get(key), t.get(key, 7.0), t.slot_of(key), key in t) == \
            (None, 7.0, -1, False)
        assert (tr.work, tr.total.table_probes) == (work, probes)


class TestInsertMany:
    def test_adds_to_repeated_keys(self):
        t = ParallelHashTable(8)
        t.insert_many([5, 9, 5, 5], 2.0)
        assert (t.get(5), t.get(9), len(t)) == (6.0, 2.0, 2)

    def test_access_counts_name_the_growing_key(self):
        t = ParallelHashTable(1)  # 4 slots: the third key grows the table
        assert t.insert_many([1, 2, 3, 4]).tolist() == [1, 1, 3, 1]

    def test_empty_batch(self):
        tr = CostTracker()
        t = ParallelHashTable(8, tracker=tr)
        assert t.insert_many(np.array([], dtype=np.int64)).size == 0
        assert (len(t), tr.work, tr.total.atomic_ops) == (0, 0, 0)

    def test_scalar_insert_between_batches(self):
        """A scalar insert between two batches drops the batch's slot map;
        the next batch sees the scalar insert's key."""
        t = ParallelHashTable(8)
        t.insert_many([1, 2])
        t.insert_or_add(3, 1.0)
        t.insert_many([3, 4])
        assert (t.get(3), len(t)) == (2.0, 4)


def _table_state(table, tracker, captured, raised):
    cache = tracker.cache
    return {"keys": table.keys.tobytes(), "values": table.values.tobytes(),
            "size": table.size, "n_slots": table.n_slots,
            "charges": tracker.total, "addresses": captured,
            "raised": raised,
            "cache": None if cache is None else (cache.accesses,
                                                 cache.misses)}


def _run_inserts(keys, delta, cuts, hint, mode, resizable, batched):
    """Insert ``keys`` into a fresh table, per key through insert_or_add
    or in batches split at ``cuts`` (each batch's first key inserted by
    insert_or_add), under ``mode``: no cache, an exact cache simulator,
    or address capture."""
    tracker = CostTracker()
    if mode == "cache":
        tracker.cache = CacheSimulator(sample=1)
    if mode == "capture":
        tracker.begin_access_capture()
    table = ParallelHashTable(hint, tracker=tracker, base_address=64,
                              resizable=resizable)
    raised = False
    try:
        if batched:
            for lo, hi in zip([0] + cuts, cuts + [len(keys)]):
                if lo < hi:
                    table.insert_or_add(keys[lo], delta)
                    table.insert_many(keys[lo + 1:hi], delta)
        else:
            for key in keys:
                table.insert_or_add(key, delta)
    except RuntimeError:
        raised = True
    captured = tracker.end_access_capture() if mode == "capture" else None
    return _table_state(table, tracker, captured, raised)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_insert_many_matches_insert_or_add(data):
    """insert_many equals a loop of insert_or_add bit for bit: layout,
    size, slots, work/probe/atomic totals and the address stream, over
    at least two growths, and a frozen slab fails at the same key with
    the same partial state."""
    distinct = data.draw(st.lists(st.integers(0, 2**62), min_size=24,
                                  max_size=48, unique=True))
    repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=40))
    keys = data.draw(st.permutations(distinct + repeats))
    delta = data.draw(st.floats(-100, 100))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(keys) - 1),
                                    max_size=3)))
    hint = data.draw(st.integers(1, 8))
    first_slots = ParallelHashTable(hint).n_slots
    for mode in ("none", "cache", "capture"):
        for resizable in (True, False):
            runs = [_run_inserts(keys, delta, cuts, hint, mode, resizable,
                                 batched) for batched in (False, True)]
            assert runs[0] == runs[1]
            assert runs[0]["raised"] is (not resizable)
            if resizable:
                assert runs[0]["n_slots"] >= 4 * first_slots  # 2+ growths
