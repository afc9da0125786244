"""Tests for the cache simulator and simulated address space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import AddressSpace, CacheSimulator


class TestCacheSimulator:
    def test_cold_miss_then_hit(self):
        c = CacheSimulator()
        assert c.access(0) is False
        assert c.access(0) is True
        assert c.misses == 1
        assert c.accesses == 2

    def test_line_granularity(self):
        c = CacheSimulator(line_words=8)
        c.access(0)
        assert c.access(7) is True  # same line
        assert c.access(8) is False  # next line

    def test_lru_eviction(self):
        c = CacheSimulator(line_words=1, n_sets=1, ways=2)
        c.access(0)
        c.access(1)
        c.access(0)  # refresh 0
        c.access(2)  # evicts 1
        assert c.access(0) is True
        assert c.access(1) is False

    def test_sequential_beats_scattered(self):
        seq = CacheSimulator()
        for a in range(4096):
            seq.access(a)
        scat = CacheSimulator()
        for a in range(4096):
            scat.access((a * 7919) % (1 << 20))
        assert seq.miss_rate < scat.miss_rate

    def test_sampling_scales_counts(self):
        c = CacheSimulator(sample=4)
        for a in range(1000):
            c.access(a * 100)
        assert c.accesses == pytest.approx(1000, abs=4)
        assert c.misses > 0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheSimulator(line_words=3)
        with pytest.raises(ValueError):
            CacheSimulator(n_sets=100)

    @pytest.mark.parametrize("param", ["line_words", "n_sets", "ways",
                                       "sample"])
    @pytest.mark.parametrize("value", [0, -1, -8])
    def test_non_positive_parameter_is_rejected(self, param, value):
        # Zero used to pass the power-of-two check and fail at the first
        # access; a non-positive sample used to be clamped to 1.
        with pytest.raises(ValueError, match=param):
            CacheSimulator(**{param: value})

    @pytest.mark.parametrize("sample", [1, 3])
    def test_negative_address_is_rejected(self, sample):
        # -1 is the empty-way tag: a cold access(-1) used to hit.
        c = CacheSimulator(sample=sample)
        with pytest.raises(ValueError, match="address"):
            c.access(-1)
        with pytest.raises(ValueError, match="address"):
            c.access_many([-1, -1])
        with pytest.raises(ValueError, match="address"):
            c.access_many(np.array([5, 6, -3]))
        # Rejected before any state changed.
        assert (c._clock, c._skip, c.accesses, c.misses) == (0, 0, 0, 0)
        assert all(tag == -1 for row in c._tags for tag in row)

    def test_reset_counters(self):
        c = CacheSimulator()
        c.access(0)
        c.reset_counters()
        assert c.accesses == 0
        assert c.misses == 0

    def test_unsampled_access_returns_none(self):
        c = CacheSimulator(sample=4)
        results = [c.access(0) for _ in range(8)]
        # Only every 4th access is simulated; the rest are skipped, and a
        # skipped access must not masquerade as a hit.
        assert results.count(None) == 6
        sampled = [r for r in results if r is not None]
        assert sampled == [False, True]  # cold miss, then a line hit

    def test_reset_clears_sampling_phase(self):
        # Regression: reset_counters used to leave _skip mid-phase, so the
        # same access stream measured before and after a reset sampled
        # *different* accesses and produced different counts.
        def measure(c):
            c.reset_counters()
            for a in range(0, 1000, 3):
                c.access(a * 17)
            return c.accesses, c.misses

        c = CacheSimulator(sample=4)
        c.access(0)  # leave the sampling phase mid-window
        first = measure(c)
        second = measure(c)
        assert first[0] == second[0]  # identical sampled-access counts

    def test_reset_clears_lru_clock(self):
        c = CacheSimulator()
        for a in range(4096):
            c.access(a)
        c.reset_counters()
        assert c._clock == 0
        # Stamps were re-zeroed with the clock, so recency comparisons
        # after the reset are internally consistent: a line touched now is
        # strictly newer than everything resident.
        assert max(map(max, c._stamp)) == 0
        assert c.access(0) in (True, False)
        assert max(map(max, c._stamp)) == 1

    def test_full_reset_drops_contents(self):
        c = CacheSimulator()
        c.access(0)
        assert c.access(0) is True
        c.reset()
        assert c.access(0) is False  # cold again: tags were dropped
        assert c.misses == 1

    def test_miss_rate_empty(self):
        assert CacheSimulator().miss_rate == 0.0


class TestCacheAccessMany:
    @pytest.mark.parametrize("sample", [1, 3, 13])
    def test_equivalent_to_scalar_loop(self, sample):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 50_000, size=700)
        a = CacheSimulator(sample=sample)
        b = CacheSimulator(sample=sample)
        for x in addrs:
            a.access(int(x))
        b.access_many(addrs)
        assert a.misses == b.misses
        assert a.accesses == b.accesses
        assert a._tags == b._tags
        assert a._stamp == b._stamp

    @pytest.mark.parametrize("sample", [1, 4])
    def test_interleaved_with_scalar_accesses(self, sample):
        """Batched and scalar accesses mix freely: sampling phase and LRU
        clocks carry across the boundary."""
        rng = np.random.default_rng(1)
        chunks = [rng.integers(0, 9_000, size=k) for k in (7, 1, 120, 3)]
        a = CacheSimulator(sample=sample)
        b = CacheSimulator(sample=sample)
        for i, chunk in enumerate(chunks):
            for x in chunk:
                a.access(int(x))
            if i % 2:
                b.access_many(chunk)
            else:
                for x in chunk:
                    b.access(int(x))
        assert a.misses == b.misses
        assert a._stamp == b._stamp

    def test_empty_batch(self):
        sim = CacheSimulator()
        assert sim.access_many(np.empty(0, dtype=np.int64)) == 0
        assert sim.accesses == 0


class ReferenceLRU:
    """The documented cache, written out way by way.

    Address ``a`` is on line ``a // line_words``, in set ``line % n_sets``.
    A set's ways start empty (tag -1, stamp 0).  Every ``sample``-th access
    is simulated: it advances the clock by one, a hit restamps its way, and
    a miss replaces the lowest-numbered way with the smallest stamp.
    ``reset_counters`` zeroes counters, phase, clock and stamps; ``reset``
    also empties every way.
    """

    def __init__(self, line_words, n_sets, ways, sample):
        self.line_words = line_words
        self.n_sets = n_sets
        self.ways = ways
        self.sample = sample
        self.reset()

    def reset(self):
        self.tags = [[-1] * self.ways for _ in range(self.n_sets)]
        self.reset_counters()

    def reset_counters(self):
        self.stamps = [[0] * self.ways for _ in range(self.n_sets)]
        self.clock = 0
        self.phase = 0
        self.accesses = 0
        self.misses = 0

    def access(self, address):
        self.phase += 1
        if self.phase < self.sample:
            return None
        self.phase = 0
        self.clock += 1
        self.accesses += 1
        line = address // self.line_words
        tags = self.tags[line % self.n_sets]
        stamps = self.stamps[line % self.n_sets]
        for way in range(self.ways):
            if tags[way] == line:
                stamps[way] = self.clock
                return True
        victim = 0
        for way in range(1, self.ways):
            if stamps[way] < stamps[victim]:
                victim = way
        tags[victim] = line
        stamps[victim] = self.clock
        self.misses += 1
        return False


@st.composite
def cache_scripts(draw):
    """A geometry and a script of operations whose address streams are
    runs of repeated lines over a few hot sets, with more distinct lines
    per set than ways, so both the run collapse and eviction are hit."""
    line_words = draw(st.sampled_from([1, 2, 4, 8, 16]))
    n_sets = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    ways = draw(st.integers(1, 8))
    sample = draw(st.integers(1, 5))
    hot_sets = draw(st.lists(st.integers(0, n_sets - 1), min_size=1,
                             max_size=3, unique=True))
    line = st.builds(lambda tag, s: tag * n_sets + s,
                     st.integers(0, ways + 2), st.sampled_from(hot_sets))
    # A run touches one line 1-6 times, at varying words of the line.
    run = st.tuples(line, st.integers(0, line_words - 1), st.integers(1, 6))
    stream = st.lists(run, max_size=12).map(
        lambda runs: [ln * line_words + (off + 3 * i) % line_words
                      for ln, off, count in runs for i in range(count)])
    address = st.builds(lambda ln, off: ln * line_words + off,
                        line, st.integers(0, line_words - 1))
    op = st.one_of(
        st.tuples(st.just("access"), address),
        st.tuples(st.just("access_many"), stream, st.booleans()),
        st.tuples(st.just("reset_counters")),
        st.tuples(st.just("reset")))
    return (line_words, n_sets, ways, sample), draw(st.lists(op, max_size=14))


@settings(max_examples=200, deadline=None)
@given(cache_scripts())
def test_replay_matches_reference_lru(script):
    geometry, ops = script
    sim = CacheSimulator(*geometry)
    ref = ReferenceLRU(*geometry)
    for op in ops:
        if op[0] == "access":
            assert sim.access(op[1]) is ref.access(op[1])
        elif op[0] == "access_many":
            _, addrs, as_array = op
            expected = sum(ref.access(a) is False for a in addrs)
            batch = np.array(addrs, dtype=np.int64) if as_array else addrs
            assert sim.access_many(batch) == expected
        else:
            getattr(sim, op[0])()
            getattr(ref, op[0])()
        assert sim._tags == ref.tags
        assert sim._stamp == ref.stamps
        assert sim._clock == ref.clock
        assert sim._skip == ref.phase
        assert sim.accesses == ref.accesses * ref.sample
        assert sim.misses == ref.misses * ref.sample


class TestAddressSpace:
    def test_disjoint_allocations(self):
        space = AddressSpace()
        a = space.alloc(100)
        b = space.alloc(100)
        assert b >= a + 100

    def test_scatter_gap(self):
        space = AddressSpace()
        a = space.alloc(10)
        b = space.alloc(10)
        assert b - (a + 10) >= AddressSpace.SCATTER_GAP - 10

    def test_contiguous_packing(self):
        space = AddressSpace()
        a = space.alloc(10)
        b = space.alloc(10, contiguous_with_previous=True)
        assert b == a + 10

    def test_negative_size_is_rejected(self):
        # A negative size used to move the allocation cursor backwards,
        # so the next block overlapped the previous one.
        space = AddressSpace()
        a = space.alloc(10)
        with pytest.raises(ValueError, match="words"):
            space.alloc(-5, contiguous_with_previous=True)
        assert space.alloc(1, contiguous_with_previous=True) == a + 10
