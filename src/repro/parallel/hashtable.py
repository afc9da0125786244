"""Open-addressing parallel hash table (the paper's workhorse structure).

The paper assumes parallel hash tables supporting ``n`` inserts / deletes /
queries in ``O(n)`` work and ``O(log n)`` span w.h.p. (Section 3), and uses
them for adjacency intersection, the clique-count table ``T``, and the
updated-set ``U``.  This implementation is a linear-probing table over numpy
arrays, mirroring the layout of the C++ original closely enough that the
paper's layout-sensitive optimizations (contiguous allocation, stored
pointers, the reserved top bit distinguishing empty cells, Section 5.3) can
be reproduced on top of it.

Cost accounting: each probe charges one unit of work to the attached
tracker, and each insert or lookup reports its home slot to the cache
simulator as an address ``base_address + slot`` so that probe locality is
visible to the machine model.
"""

from __future__ import annotations

import numpy as np

from .runtime import CostTracker

#: Sentinel key marking an empty cell.  The paper reserves the top bit of
#: each key to flag emptiness (Section 5.3); all-ones is the canonical
#: empty pattern under that convention.
EMPTY_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)

_MASK64 = (1 << 64) - 1

#: Largest keys-per-slot load.  An insert that would push the table past
#: it doubles the table first; being below 1, it keeps an empty slot, so
#: every probe ends.
MAX_LOAD = 0.7


def hash64(key: int) -> int:
    """A splitmix64-style finalizer: deterministic, well-mixing, 64-bit."""
    h = (key + 0x9E3779B97F4A7C15) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (h ^ (h >> 31)) & _MASK64


def hash64_many(keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`hash64` over a ``uint64`` array.

    Unsigned 64-bit arithmetic wraps in numpy's C ufuncs, so the masking
    the scalar version does explicitly is implicit here; the outputs agree
    element for element.
    """
    h = np.asarray(keys, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _check_key(key: int) -> None:
    """Reject a key that is not an integer in ``[0, EMPTY_KEY)``: the
    reserved empty pattern would read as an empty slot, and any other key
    out of range does not fit a ``uint64`` slot."""
    if not isinstance(key, (int, np.integer)):
        raise ValueError(f"hash table key {key} is not an integer")
    if not 0 <= key < _MASK64:
        raise ValueError(f"hash table key {key} is outside [0, 2**64 - 1)")


def _exact_keys(keys) -> np.ndarray:
    """``keys`` as a flat ``uint64`` array, converted exactly, after
    :func:`_check_key` of every key (the first bad key raises).

    An integer ndarray converts directly.  Anything else goes through its
    Python objects: ``np.asarray`` would turn a list mixing small keys
    with keys at or above ``2**63`` into float64 and round them.
    """
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        keys = keys.reshape(-1)
        bad = np.flatnonzero((keys < 0) | (keys >= _MASK64))
        if bad.size:
            _check_key(keys[bad[0]])
        return keys.astype(np.uint64)
    items = np.asarray(keys, dtype=object).reshape(-1).tolist()
    for key in items:
        _check_key(key)
    return np.array(items, dtype=np.uint64)


def _next_power_of_two(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


def _growth_size(n_slots: int) -> int:
    """The least table size at which an insert into ``n_slots`` slots
    grows the table first: ``(size + 1) / n_slots > MAX_LOAD``."""
    size = max(0, int(MAX_LOAD * n_slots) - 2)
    while (size + 1) / n_slots <= MAX_LOAD:
        size += 1
    return size


class ParallelHashTable:
    """Linear-probing hash table with integer keys and numeric values.

    Parameters
    ----------
    capacity_hint:
        Expected number of entries; the table allocates the next power of
        two at least ``capacity_hint / MAX_LOAD``.
    tracker:
        Optional :class:`CostTracker` charged one work unit per probe.
    base_address:
        Simulated base address of slot 0 (for the cache model).
    resizable:
        When False the capacity is frozen -- required when the table is a
        slab inside a contiguous multi-level layout (Section 5.2), whose
        slots' global indices must stay stable.
    """

    def __init__(self, capacity_hint: int = 8, tracker: CostTracker | None = None,
                 base_address: int = 0, *, resizable: bool = True):
        n_slots = _next_power_of_two(max(4, int(capacity_hint / MAX_LOAD) + 1))
        self.keys = np.full(n_slots, EMPTY_KEY, dtype=np.uint64)
        self.values = np.zeros(n_slots, dtype=np.float64)
        self.size = 0
        self.tracker = tracker
        self.base_address = base_address
        self.resizable = resizable
        #: slot -> key of every occupied slot, kept across
        #: :meth:`insert_many` calls; every scalar mutation drops it.
        self._occupied: dict[int, int] | None = None

    @property
    def n_slots(self) -> int:
        return self.keys.shape[0]

    # -- internals ----------------------------------------------------------

    def _charge(self, probes: int, first_slot: int) -> None:
        if self.tracker is not None:
            self.tracker.add_work(float(probes))
            self.tracker.add_probes(probes)
            self.tracker.access(self.base_address + first_slot)

    def _probe(self, key: int) -> tuple[int, bool]:
        """Find the slot holding ``key`` or the empty slot where it belongs.

        Returns ``(slot, found)``.
        """
        mask = self.n_slots - 1
        slot = hash64(key) & mask
        first = slot
        probes = 1
        keys = self.keys
        empty = EMPTY_KEY
        key_u = np.uint64(key)
        while True:
            k = keys[slot]
            if k == key_u:
                self._charge(probes, first)
                return slot, True
            if k == empty:
                self._charge(probes, first)
                return slot, False
            slot = (slot + 1) & mask
            probes += 1

    def _grow(self) -> None:
        if not self.resizable:
            raise RuntimeError("hash table slab is full and frozen (resizable=False)")
        self._occupied = None
        old_keys, old_values = self.keys, self.values
        self.keys = np.full(self.n_slots * 2, EMPTY_KEY, dtype=np.uint64)
        self.values = np.zeros(self.n_slots * 2, dtype=np.float64)
        self.size = 0
        for k, v in zip(old_keys, old_values):
            if k != EMPTY_KEY:
                slot, found = self._probe(int(k))
                self.keys[slot] = k
                self.values[slot] = v
                self.size += 1

    def _insert_run(self, keys: list, hashes: list, delta: float,
                    start: int) -> int:
        """Insert ``keys[start:]`` until one would grow the table; returns
        that key's index (or ``len(keys)``).  Probes walk the slot -> key
        map; the arrays are written and the tracker charged once."""
        occupied = self._occupied
        if occupied is None:
            slots = np.flatnonzero(self.keys != EMPTY_KEY)
            occupied = self._occupied = dict(
                zip(slots.tolist(), self.keys[slots].tolist()))
        mask = self.n_slots - 1
        grow_at = _growth_size(self.n_slots)
        base = self.base_address
        values = self.values
        size = self.size
        probes = 0
        addresses: list[int] = []
        new_slots: list[int] = []
        new_keys: list[int] = []
        touched: dict[int, float] = {}  # slot -> value after the run
        stop = len(keys)
        for i in range(start, stop):
            if size >= grow_at:
                stop = i
                break
            key = keys[i]
            home = slot = hashes[i] & mask
            held = occupied.get(slot)
            while held is not None and held != key:
                slot = (slot + 1) & mask
                held = occupied.get(slot)
            probes += ((slot - home) & mask) + 1
            addresses.append(base + home)
            if held is None:
                occupied[slot] = key
                new_slots.append(slot)
                new_keys.append(key)
                touched[slot] = delta
                size += 1
            else:
                prior = touched.get(slot)
                touched[slot] = (float(values[slot]) if prior is None
                                 else prior) + delta
        if new_slots:
            self.keys[new_slots] = np.array(new_keys, dtype=np.uint64)
        if touched:
            values[list(touched)] = list(touched.values())
        self.size = size
        if self.tracker is not None and stop > start:
            self.tracker.add_work_int(probes)
            self.tracker.add_probes(probes)
            self.tracker.add_atomic(stop - start)
            self.tracker.access_sequence(addresses)
        return stop

    # -- public API ----------------------------------------------------------

    def insert_or_add(self, key: int, delta: float = 1.0) -> int:
        """Insert ``key`` with value ``delta``, or add ``delta`` to its value.

        This is the atomic-add insert used by ``COUNT-FUNC`` (Algorithm 2,
        line 4).  Returns the slot index.  ``key`` must be an integer in
        ``[0, EMPTY_KEY)``; anything else raises ``ValueError``.
        """
        _check_key(key)
        if (self.size + 1) / self.n_slots > MAX_LOAD:
            self._grow()
        slot, found = self._probe(key)
        if found:
            self.values[slot] += delta
        else:
            self.keys[slot] = np.uint64(key)
            self.values[slot] = delta
            self.size += 1
            self._occupied = None
        if self.tracker is not None:
            self.tracker.add_atomic()
        return slot

    def insert_many(self, keys, delta: float = 1.0) -> np.ndarray:
        """Batch :meth:`insert_or_add`: ``keys`` in order, each adding
        ``delta``.  A key that is not an integer in ``[0, EMPTY_KEY)``
        raises ``ValueError`` before anything is inserted; the others are
        converted exactly, whatever their container.

        Same layout, size, growth points, charges and address stream as
        the per-key loop.  Charges are summed per run of inserts between
        growths: every probe's work lands in the tracker's integer bin,
        and a key never moves once it lands, so the sums are exact.  A
        growth flushes the run, then doubles the table as
        :meth:`insert_or_add` would (charging each re-inserted key's
        probes and home address before the growing key's own), and a
        frozen slab raises at the same key with the same partial state.

        Returns each key's number of simulated accesses: 1, plus the live
        keys it re-inserted when it grew the table.
        """
        keys = _exact_keys(keys)
        accesses = np.ones(keys.size, dtype=np.int64)
        key_list = keys.tolist()
        hashes = hash64_many(keys).tolist()
        start = 0
        while True:
            start = self._insert_run(key_list, hashes, float(delta), start)
            if start == keys.size:
                return accesses
            accesses[start] += self.size
            self._grow()

    def set(self, key: int, value: float) -> int:
        """Insert or overwrite; returns the slot index.  ``key`` must be an
        integer in ``[0, EMPTY_KEY)``; anything else raises
        ``ValueError``."""
        _check_key(key)
        if (self.size + 1) / self.n_slots > MAX_LOAD:
            self._grow()
        slot, found = self._probe(key)
        if not found:
            self.keys[slot] = np.uint64(key)
            self.size += 1
            self._occupied = None
        self.values[slot] = value
        return slot

    def get(self, key: int, default: float | None = None) -> float | None:
        slot = self.slot_of(key)
        return default if slot < 0 else float(self.values[slot])

    def slot_of(self, key: int) -> int:
        """The slot holding ``key``, or -1.  Slots are the paper's implicit
        r-clique indices when the table is laid out contiguously (5.3).
        A key outside ``[0, EMPTY_KEY)`` cannot be stored, so it is absent
        without a probe or a charge."""
        if not 0 <= key < _MASK64:
            return -1
        slot, found = self._probe(key)
        return slot if found else -1

    def key_at(self, slot: int) -> int | None:
        k = self.keys[slot]
        return None if k == EMPTY_KEY else int(k)

    def __contains__(self, key: int) -> bool:
        return self.slot_of(key) >= 0

    def __len__(self) -> int:
        return self.size

    def items(self):
        """Iterate over (key, value) pairs in slot order."""
        occupied = np.flatnonzero(self.keys != EMPTY_KEY)
        for slot in occupied:
            yield int(self.keys[slot]), float(self.values[slot])

    def occupied_slots(self) -> np.ndarray:
        return np.flatnonzero(self.keys != EMPTY_KEY)

    def clear(self) -> None:
        """Reset the table; charges work proportional to capacity (the cost
        the hash-table aggregation option pays every round, Section 5.5)."""
        if self.tracker is not None:
            self.tracker.add_work(float(self.n_slots))
        self.keys.fill(EMPTY_KEY)
        self.values.fill(0.0)
        self.size = 0
        self._occupied = None
