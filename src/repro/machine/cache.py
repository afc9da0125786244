"""Set-associative LRU cache simulator.

The practical optimizations of Section 5 are, at heart, cache optimizations:
contiguous slabs for the last-level tables (5.2), stored up-pointers instead
of binary searches (5.3), and orientation-order relabeling (5.4) all change
*which simulated addresses are touched in what order* when the clique table
``T`` is accessed.  Since we cannot observe a real machine's caches from
Python, this module simulates one: data structures map their cells into a
flat simulated address space, and every access is fed through a classic
set-associative LRU model.  Miss counts then feed the
:class:`~repro.parallel.runtime.MachineModel` time estimate.

The default geometry is a small L2-like cache; the figures only compare
configurations against each other, so the geometry's role is to make
locality differences visible, not to match Cascade Lake byte-for-byte.
"""

from __future__ import annotations

import operator

import numpy as np


def _lru_step(tags: list[int], stamps: list[int], line: int,
              clock: int) -> bool:
    """Touch ``line`` in one set at time ``clock``; True on a hit.

    A hit restamps the line's way.  A miss evicts the first way (in way
    order) holding the smallest stamp and installs ``line`` there.
    """
    if line in tags:
        stamps[tags.index(line)] = clock
        return True
    way = stamps.index(min(stamps))
    tags[way] = line
    stamps[way] = clock
    return False


class CacheSimulator:
    """A ``n_sets x ways`` LRU cache over a flat word-addressed space.

    Address ``a`` lies on line ``a >> log2(line_words)``, which maps to set
    ``line % n_sets``.  Each set has ``ways`` ways, each holding a tag (a
    line, or -1 when empty) and a stamp (initially 0).  Every simulated
    access advances a clock by one; a hit sets its way's stamp to the
    clock, and a miss replaces the first way with the smallest stamp.

    Parameters
    ----------
    line_words:
        Words (table cells) per cache line; a power of two.
    n_sets:
        Number of sets; a power of two.
    ways:
        Associativity; at least 1.
    sample:
        Simulate only every ``sample``-th access (1 = all); at least 1.
        Miss and access counts are scaled back up so ratios remain
        comparable.

    Every invalid parameter raises a :class:`ValueError` naming it.
    """

    def __init__(self, line_words: int = 8, n_sets: int = 256, ways: int = 8,
                 sample: int = 1):
        for name, value in (("line_words", line_words), ("n_sets", n_sets)):
            if value < 1 or value & (value - 1):
                raise ValueError(f"{name} must be a power of two, "
                                 f"got {value}")
        for name, value in (("ways", ways), ("sample", sample)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        self.line_bits = line_words.bit_length() - 1
        self.set_mask = n_sets - 1
        self.ways = ways
        self.sample = sample
        # Per-set Python lists, so one LRU step is a few list operations.
        self._tags = self._rows(-1)
        self._stamp = self._rows(0)
        self._clock = 0
        self._skip = 0
        self._raw_accesses = 0
        self._raw_misses = 0

    def _rows(self, value: int) -> list[list[int]]:
        return [[value] * self.ways for _ in range(self.set_mask + 1)]

    @property
    def accesses(self) -> int:
        return self._raw_accesses * self.sample

    @property
    def misses(self) -> int:
        return self._raw_misses * self.sample

    @property
    def miss_rate(self) -> float:
        return self._raw_misses / self._raw_accesses if self._raw_accesses else 0.0

    def access(self, address: int) -> bool | None:
        """Touch ``address``, a non-negative integer.

        Returns True on a simulated hit, False on a simulated miss, and
        ``None`` when the access was skipped by sampling (``sample > 1``).
        Skipped accesses are *not* hits --- callers attributing misses (e.g.
        per-phase profiling) must only act on an explicit False.
        """
        address = operator.index(address)
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        if self.sample > 1:
            self._skip += 1
            if self._skip < self.sample:
                return None
            self._skip = 0
        self._raw_accesses += 1
        self._clock += 1
        line = address >> self.line_bits
        set_idx = line & self.set_mask
        if _lru_step(self._tags[set_idx], self._stamp[set_idx], line,
                     self._clock):
            return True
        self._raw_misses += 1
        return False

    def access_many(self, addresses) -> int:
        """Touch an ordered batch of addresses; returns the raw miss count.

        Exactly equivalent to calling :meth:`access` once per element in
        order: same sampling phase, same clock values, same tags and
        stamps.  A negative address raises :class:`ValueError` before any
        state changes.

        Accesses to different sets never interact, so the simulated
        accesses are stable-sorted by set and each set's subsequence is
        replayed on its own.  Within it, a run of consecutive accesses to
        one line is one LRU step: the run's first access decides hit or
        miss, every later one hits, and the stamp ends at the run's last
        clock, because no other access to that set comes in between.
        """
        addrs = np.asarray(addresses, dtype=np.int64).ravel()
        n = addrs.size
        if n == 0:
            return 0
        low = int(addrs.min())
        if low < 0:
            raise ValueError(f"address must be non-negative, got {low}")
        if self.sample > 1:
            # access() simulates every call where the incremented _skip
            # reaches sample; element i (0-based) is therefore simulated
            # iff (_skip + i + 1) % sample == 0, and the final phase is
            # (_skip + n) % sample regardless of how many fired.
            offsets = np.arange(1, n + 1, dtype=np.int64)
            simulated = np.flatnonzero((self._skip + offsets) % self.sample == 0)
            self._skip = (self._skip + n) % self.sample
            addrs = addrs[simulated]
            n = addrs.size
            if n == 0:
                return 0
        lines = addrs >> self.line_bits
        # The narrowest key type lets numpy's stable sort use radix sort.
        sets = (lines & self.set_mask).astype(np.min_scalar_type(self.set_mask))
        order = np.argsort(sets, kind="stable")
        lines = lines[order]
        # Last position of each run of one line in the set-sorted stream.
        ends = np.append(np.flatnonzero(lines[1:] != lines[:-1]), n - 1)
        run_lines = lines[ends]
        run_sets = (run_lines & self.set_mask).tolist()
        run_clocks = self._clock + 1 + order[ends]  # each run's last clock
        hits = sum(map(_lru_step,
                       map(self._tags.__getitem__, run_sets),
                       map(self._stamp.__getitem__, run_sets),
                       run_lines.tolist(), run_clocks.tolist()))
        misses = len(run_sets) - hits
        self._clock += n
        self._raw_accesses += n
        self._raw_misses += misses
        return misses

    def reset_counters(self) -> None:
        """Zero the counters *and* the sampling/recency state.

        Resetting must not let the sampling phase (``_skip``) or the LRU
        clock bleed from one measured region into the next, otherwise two
        identical access streams measured back to back disagree.  Cache
        *contents* (the tags) survive --- only measurement state resets; the
        recency stamps are re-zeroed with the clock so stamp comparisons
        stay consistent.
        """
        self._raw_accesses = 0
        self._raw_misses = 0
        self._skip = 0
        self._clock = 0
        self._stamp = self._rows(0)

    def reset(self) -> None:
        """Full reset: counters, sampling state, and cache contents."""
        self.reset_counters()
        self._tags = self._rows(-1)


class AddressSpace:
    """Allocates disjoint simulated address ranges to data structures.

    Non-contiguous allocations are deliberately spread out (separated by a
    random-ish stride) the way independent ``malloc`` blocks are, while
    contiguous allocation packs ranges back to back --- reproducing the
    §5.2 distinction the cache simulator is meant to observe.
    """

    #: Gap inserted between independently-allocated blocks, mimicking heap
    #: fragmentation between separate allocations.
    SCATTER_GAP = 4096 + 64

    def __init__(self) -> None:
        self._next = 0

    def alloc(self, words: int, contiguous_with_previous: bool = False) -> int:
        """Reserve ``words`` (non-negative) cells; returns the base address."""
        words = int(words)
        if words < 0:
            raise ValueError(f"words must be non-negative, got {words}")
        if not contiguous_with_previous:
            self._next += self.SCATTER_GAP
        base = self._next
        self._next += words
        return base
