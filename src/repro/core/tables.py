"""The clique table ``T``: multi-level storage of per-r-clique counts.

Algorithm 2 keys a parallel hash table by r-cliques.  Concatenating ``r``
vertex ids per key is space-infeasible for large ``r`` (Section 5.1), so the
paper introduces layered layouts, all reproduced here behind one interface:

* **one-level** -- a single hash table keyed by whole r-cliques;
* **two-level** -- an array of size ``n`` indexed by the clique's first
  vertex, pointing at hash tables keyed by the remaining (r-1)-clique;
* **l-multi-level** -- nested hash tables, one vertex per intermediate
  level, the last level keyed by the remaining (r-l+1)-clique.

Orthogonal options (Sections 5.2--5.3):

* **contiguous** -- last-level tables packed back-to-back in one slab
  (their sizes prefix-summed), versus separately-allocated blocks;
* **inverse index map** -- translating a cell index back to its clique's
  vertices either by *binary search* over the table-start prefix sums, or
  by the *stored pointers* trick: scan right from the cell to the first
  empty cell (empty cells and inter-table barriers carry up-pointers to the
  owning table), which is cache-friendlier under contiguous layout.

The cell index of an r-clique (its position among all last-level cells) is
the identifier the bucketing structure ``B`` uses; the index is identical
whether or not the layout is contiguous (Section 5.3), so contiguity only
changes *simulated addresses* and therefore cache behavior.

Memory accounting follows Figures 3--4: one unit per stored vertex id and
per pointer; the two-level top array costs ``n`` units.
"""

from __future__ import annotations

import numpy as np

from ..cliques.encode import MAX_KEY_BITS, CliqueEncoder, KeyWidthError, \
    min_levels
from ..machine.cache import AddressSpace
from ..parallel.hashtable import EMPTY_KEY, hash64, hash64_many
from ..parallel.primitives import segment_offsets
from ..parallel.runtime import CostTracker, _log2

_EMPTY = np.uint64(EMPTY_KEY)


def _next_pow2(x: int) -> int:
    return 1 << max(2, (x - 1).bit_length())


class CliqueTable:
    """Per-r-clique count storage with the paper's layout options.

    Parameters
    ----------
    n:
        Number of graph vertices.
    r:
        Clique size stored (keys are r-cliques).
    cliques:
        Array of shape (count, r); each row one r-clique, vertices ascending.
    levels:
        Number of table levels, ``1 <= levels <= r``.
    style:
        ``"array"`` -- the two-level array+hash combination (requires
        ``levels == 2``); ``"hash"`` -- nested hash tables (the
        l-multi-level option).  Ignored for ``levels == 1``.
    contiguous:
        Pack last-level tables into one address slab (Section 5.2).
    inverse_map:
        ``"binary_search"`` or ``"stored_pointers"`` (the latter requires
        ``contiguous=True``, as in the paper).
    """

    def __init__(self, n: int, r: int, cliques: np.ndarray, levels: int = 1,
                 style: str = "hash", contiguous: bool = False,
                 inverse_map: str = "binary_search",
                 tracker: CostTracker | None = None,
                 address_space: AddressSpace | None = None,
                 max_load: float = 0.7):
        cliques = np.asarray(cliques, dtype=np.int64).reshape(-1, r)
        if not 1 <= levels <= r:
            raise ValueError(f"levels must be in [1, {r}], got {levels}")
        if style not in ("array", "hash"):
            raise ValueError("style must be 'array' or 'hash'")
        if style == "array" and levels != 2:
            raise ValueError("the array+hash combination is exactly two levels")
        if inverse_map not in ("binary_search", "stored_pointers"):
            raise ValueError("inverse_map must be 'binary_search' or "
                             "'stored_pointers'")
        if inverse_map == "stored_pointers" and not contiguous:
            raise ValueError("stored pointers require contiguous memory "
                             "(paper Section 5.3)")
        if levels < min_levels(n, r):
            raise KeyWidthError(n, r - levels + 1,
                                max(1, (max(2, n) - 1).bit_length()))
        self.n = n
        self.r = r
        self.levels = levels
        self.style = style
        self.contiguous = contiguous
        self.inverse_map = inverse_map
        self.tracker = tracker
        self.suffix_width = r - levels + 1
        self._encoder = CliqueEncoder(n, self.suffix_width)
        self._build(cliques, address_space or AddressSpace(), max_load)

    # -- construction -------------------------------------------------------

    def _build(self, cliques: np.ndarray, space: AddressSpace,
               max_load: float) -> None:
        count = cliques.shape[0]
        self.n_cliques = count
        prefix_w = self.levels - 1
        if count:
            order = np.lexsort(tuple(cliques[:, c] for c in range(self.r - 1, -1, -1)))
            cliques = cliques[order]
        if prefix_w and count:
            prefixes = cliques[:, :prefix_w]
            changed = np.any(np.diff(prefixes, axis=0) != 0, axis=1)
            group_starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
            self._paths = prefixes[group_starts]
        else:
            group_starts = np.array([0] if count else [], dtype=np.int64)
            self._paths = np.zeros((1 if count else 0, 0), dtype=np.int64)
        group_sizes = np.diff(np.concatenate([group_starts, [count]])) \
            if count else np.array([], dtype=np.int64)
        self.n_tables = len(group_sizes)
        caps = np.array([_next_pow2(int(np.ceil(sz / max_load)) + 1)
                         for sz in group_sizes], dtype=np.int64)
        self._starts = np.zeros(self.n_tables + 1, dtype=np.int64)
        self._starts[1:] = np.cumsum(caps)
        self.total_cells = int(self._starts[-1])
        self._caps = caps
        self._keys = np.full(self.total_cells, _EMPTY, dtype=np.uint64)
        self._counts = np.zeros(self.total_cells, dtype=np.float64)
        # Owner array doubles as the stored up-pointers of Section 5.3.
        self._owner = np.zeros(self.total_cells, dtype=np.int64)
        for tid in range(self.n_tables):
            self._owner[self._starts[tid]:self._starts[tid + 1]] = tid

        # Simulated addresses: contiguous packs tables into one slab;
        # otherwise each table is a separate scattered allocation.
        if self.contiguous:
            base = space.alloc(self.total_cells)
            self._table_addr = base + self._starts[:-1]
        else:
            self._table_addr = np.array(
                [space.alloc(int(c)) for c in caps], dtype=np.int64)
        # Auxiliary address regions (prefix-sum array, intermediate levels).
        self._prefix_addr = space.alloc(self.n_tables + 1)
        self._level_addrs = [space.alloc(max(1, self.n))
                             for _ in range(max(0, self.levels - 1))]

        # Top-level routing: first-vertex array (two-level "array" style) or
        # a path dictionary standing in for the nested intermediate tables.
        self._path_to_tid: dict[tuple, int] = {
            tuple(int(x) for x in self._paths[tid]): tid
            for tid in range(self.n_tables)}
        if self.style == "array" and self.levels == 2:
            self._top_array = np.full(self.n, -1, dtype=np.int64)
            for tid in range(self.n_tables):
                self._top_array[int(self._paths[tid][0])] = tid

        # Insert every clique's suffix key.
        for row in cliques:
            tid = self._path_to_tid[tuple(int(x) for x in row[:prefix_w])]
            key = self._encoder.encode(row[prefix_w:])
            self._insert(tid, key)

        self.memory_units = self._memory_units()
        if self.tracker is not None:
            self.tracker.note_memory_units(self.memory_units)

        # Lazy caches for the vectorized (batch-engine) entry points; both
        # depend only on state that is frozen after construction.
        self._next_boundary: np.ndarray | None = None
        self._path_code_table: np.ndarray | None = None

    def _insert(self, tid: int, key: int) -> int:
        start = int(self._starts[tid])
        cap = int(self._caps[tid])
        slot = hash64(key) & (cap - 1)
        key_u = np.uint64(key)
        probes = 1
        while True:
            cell = start + slot
            if self._keys[cell] == _EMPTY:
                self._keys[cell] = key_u
                break
            if self._keys[cell] == key_u:
                break
            if probes >= cap:
                raise RuntimeError(
                    f"clique table sub-table {tid} is full: probed all "
                    f"{cap} slots inserting key {key} without finding it "
                    f"or an empty cell")
            slot = (slot + 1) & (cap - 1)
            probes += 1
        if self.tracker is not None:
            # Hashing/comparing a key costs work proportional to its width:
            # wide one-level keys are the expense the layered layouts avoid.
            self.tracker.add_work(float(probes * self.suffix_width))
            self.tracker.add_probes(probes)
        return cell

    def _memory_units(self) -> int:
        """Paper-convention memory units (Figures 3-4): vertices + pointers."""
        last = self.n_cliques * self.suffix_width
        if self.levels == 1:
            return last
        if self.style == "array":
            return self.n + last
        # Nested hash levels: each intermediate entry is a vertex + pointer.
        units = last
        if self.n_cliques:
            for depth in range(1, self.levels):
                prefixes = {tuple(int(x) for x in p[:depth])
                            for p in self._paths}
                units += 2 * len(prefixes)
        return units

    # -- lookup path ---------------------------------------------------------

    def _route(self, clique) -> int:
        """Table id for a clique, charging the intermediate-level walk."""
        prefix_w = self.levels - 1
        if prefix_w == 0:
            return 0 if self.n_tables else -1
        tracker = self.tracker
        if self.style == "array":
            if tracker is not None:
                tracker.add_work(1.0)
                tracker.access(self._level_addrs[0] + int(clique[0]))
            return int(self._top_array[int(clique[0])])
        if tracker is not None:
            for depth in range(prefix_w):
                tracker.add_work(1.0)
                tracker.add_probes(1)
                tracker.access(self._level_addrs[depth] + int(clique[depth]))
        return self._path_to_tid.get(
            tuple(int(x) for x in clique[:prefix_w]), -1)

    def cell_of(self, clique) -> int:
        """The global cell index of an r-clique (vertices ascending), or -1."""
        tid = self._route(clique)
        if tid < 0:
            return -1
        key = np.uint64(self._encoder.encode(clique[self.levels - 1:]))
        start = int(self._starts[tid])
        cap = int(self._caps[tid])
        slot = hash64(int(key)) & (cap - 1)
        probes = 1
        addr_base = int(self._table_addr[tid])
        while True:
            cell = start + slot
            found = self._keys[cell]
            if found == key:
                break
            if found == _EMPTY:
                cell = -1
                break
            slot = (slot + 1) & (cap - 1)
            probes += 1
        if self.tracker is not None:
            self.tracker.add_work(float(probes * self.suffix_width))
            self.tracker.add_probes(probes)
            self.tracker.access(addr_base + slot)
        return cell

    # -- counts ---------------------------------------------------------------

    def add_count(self, clique, delta: float) -> int:
        """Atomically add ``delta`` to the clique's count; returns its cell."""
        cell = self.cell_of(clique)
        if cell < 0:
            raise KeyError(f"clique {tuple(clique)} not present in table")
        self._counts[cell] += delta
        if self.tracker is not None:
            self.tracker.add_atomic()
            detector = self.tracker.race_detector
            if detector is not None:
                # The count update is a fetch-and-add in the paper's
                # implementation: shadow-log it as a mediated write.
                detector.log(self._address_of(cell), write=True, atomic=True)
        return cell

    def add_count_at(self, cell: int, delta: float) -> None:
        """Add ``delta`` at a known cell (charges the memory access only)."""
        self._counts[cell] += delta
        if self.tracker is not None:
            self.tracker.add_work(1.0)
            self.tracker.add_atomic()
            self.tracker.access(self._address_of(cell))
            detector = self.tracker.race_detector
            if detector is not None:
                detector.log(self._address_of(cell), write=True, atomic=True)

    def count_at(self, cell: int) -> float:
        return float(self._counts[cell])

    @property
    def counts(self) -> np.ndarray:
        """The raw per-cell count array (cells of absent keys hold 0)."""
        return self._counts

    def _address_of(self, cell: int) -> int:
        tid = int(self._owner[cell])
        return int(self._table_addr[tid]) + (cell - int(self._starts[tid]))

    # -- inverse index map (Section 5.3) ---------------------------------------

    def decode(self, cell: int) -> tuple[int, ...]:
        """Recover the r-clique stored at ``cell`` (vertices ascending)."""
        if self.inverse_map == "stored_pointers":
            tid = self._decode_tid_stored_pointers(cell)
        else:
            tid = self._decode_tid_binary_search(cell)
        suffix = self._encoder.decode(int(self._keys[cell]))
        path = tuple(int(x) for x in self._paths[tid])
        if self.tracker is not None:
            self.tracker.add_work(float(self.suffix_width))
        return path + suffix

    def _decode_tid_binary_search(self, cell: int) -> int:
        tid = int(np.searchsorted(self._starts, cell, side="right")) - 1
        if self.tracker is not None:
            steps = int(_log2(self.n_tables + 1))
            self.tracker.add_work(float(steps))
            # A binary search bounces across the prefix-sum array.
            lo, hi = 0, self.n_tables
            while lo < hi:
                mid = (lo + hi) // 2
                self.tracker.access(self._prefix_addr + mid)
                if self._starts[mid + 1] <= cell:
                    lo = mid + 1
                else:
                    hi = mid
        return tid

    def _decode_tid_stored_pointers(self, cell: int) -> int:
        """Linear scan right to the first empty cell / barrier (up-pointer)."""
        tid = int(self._owner[cell])
        end = int(self._starts[tid + 1])
        i = cell + 1
        steps = 1
        while i < end and self._keys[i] != _EMPTY:
            i += 1
            steps += 1
        if self.tracker is not None:
            self.tracker.add_work(float(steps))
            base = self._address_of(cell)
            for d in range(steps):
                self.tracker.access(base + 1 + d)
        return tid

    # -- vectorized entry points (batch peeling engine) ------------------------
    #
    # These methods process whole arrays of cells/cliques at once.  They
    # either charge the tracker the exact closed-form total the per-element
    # methods would (decode_many, add_count_at_many) or charge nothing and
    # hand the per-element charge profile back to the caller (lookup_many),
    # letting the batch engine splice probe/update address streams in the
    # scalar loop's order before replaying them.  See docs/cost-model.md.

    def route_charge_profile(self) -> tuple[int, int, int]:
        """Per-lookup routing charges ``(work, probes, addresses)``.

        Constants of the layout: what one :meth:`_route` call charges on
        top of the last-level probe loop.
        """
        if self.levels == 1:
            return 0, 0, 0
        if self.style == "array":
            return 1, 0, 1
        prefix_w = self.levels - 1
        return prefix_w, prefix_w, prefix_w

    def _route_addresses(self, cliques: np.ndarray) -> np.ndarray:
        """The ``(m, route_len)`` address matrix :meth:`_route` would touch."""
        if self.levels == 1:
            return np.empty((cliques.shape[0], 0), dtype=np.int64)
        if self.style == "array":
            return (self._level_addrs[0] + cliques[:, :1]).astype(np.int64)
        prefix_w = self.levels - 1
        level_addrs = np.asarray(self._level_addrs[:prefix_w], dtype=np.int64)
        return level_addrs[np.newaxis, :] + cliques[:, :prefix_w]

    def _route_many(self, cliques: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_route`: table ids per row (charging-free)."""
        m = cliques.shape[0]
        prefix_w = self.levels - 1
        if prefix_w == 0:
            return np.zeros(m, dtype=np.int64)
        if self.style == "array":
            return self._top_array[cliques[:, 0]]
        bits = self._encoder.bits_per_vertex
        if prefix_w * bits <= MAX_KEY_BITS:
            # _paths is in lexicographic row order, so fixed-width packed
            # codes are sorted and searchsorted recovers the table id.
            if self._path_code_table is None:
                packer = CliqueEncoder(self.n, prefix_w)
                self._path_code_table = packer.encode_many(self._paths) \
                    if self.n_tables else np.empty(0, dtype=np.uint64)
                self._path_packer = packer
            codes = self._path_packer.encode_many(cliques[:, :prefix_w])
            pos = np.searchsorted(self._path_code_table, codes)
            pos = np.minimum(pos, max(0, self.n_tables - 1))
            hit = self._path_code_table[pos] == codes if self.n_tables \
                else np.zeros(m, dtype=bool)
            return np.where(hit, pos, -1).astype(np.int64)
        return np.array(
            [self._path_to_tid.get(tuple(int(x) for x in row[:prefix_w]), -1)
             for row in cliques], dtype=np.int64)

    def lookup_many(self, cliques: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`cell_of` over ``(m, r)`` ascending-vertex rows.

        Returns ``(cells, probes, slot_addrs, route_addrs)``: the global
        cell per row, the linear-probe count :meth:`cell_of` would report,
        the final-slot simulated address it would touch, and the
        ``(m, route_len)`` routing addresses preceding it.  Charges nothing
        --- callers apply :meth:`route_charge_profile` and the returned
        probe counts themselves.  Every row must be present in the table
        (the batch engine only looks up sub-cliques of stored cliques);
        raises ``KeyError`` otherwise.
        """
        cliques = np.asarray(cliques, dtype=np.int64).reshape(-1, self.r)
        m = cliques.shape[0]
        if m == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy(), \
                np.empty((0, self.route_charge_profile()[2]), dtype=np.int64)
        tids = self._route_many(cliques)
        if (tids < 0).any():
            raise KeyError("lookup_many requires every row to be present")
        keys = self._encoder.encode_many(cliques[:, self.levels - 1:])
        starts = self._starts[tids]
        masks = (self._caps[tids] - 1).astype(np.uint64)
        slots = (hash64_many(keys) & masks).astype(np.int64)
        probes = np.ones(m, dtype=np.int64)
        cells = np.empty(m, dtype=np.int64)
        active = np.arange(m)
        while active.size:
            found = self._keys[starts[active] + slots[active]]
            done = (found == keys[active]) | (found == _EMPTY)
            hit = active[done]
            cells[hit] = np.where(found[done] == keys[hit],
                                  starts[hit] + slots[hit], -1)
            active = active[~done]
            slots[active] = (slots[active] + 1) \
                & masks[active].astype(np.int64)
            probes[active] += 1
        if (cells < 0).any():
            raise KeyError("lookup_many requires every row to be present")
        slot_addrs = self._table_addr[tids] + slots
        return cells, probes, slot_addrs, self._route_addresses(cliques)

    def add_count_at_many(self, cells: np.ndarray, deltas: np.ndarray,
                          collect_addresses: bool = False
                          ) -> np.ndarray | None:
        """Vectorized :meth:`add_count_at`: ``np.add.at`` scatter plus the
        exact bulk charges (1 work + 1 atomic per update, applied in index
        order so float accumulation matches the scalar loop).

        With ``collect_addresses=True`` the per-update simulated addresses
        are *returned* instead of fed to the cache, so the caller can splice
        them into a larger in-order stream (see the batch engine).
        """
        cells = np.asarray(cells, dtype=np.int64)
        np.add.at(self._counts, cells, deltas)
        if self.tracker is None:
            return None
        self.tracker.add_work_int(cells.size)
        self.tracker.add_atomic(cells.size)
        addresses = self.addresses_of_many(cells)
        if collect_addresses:
            return addresses
        self.tracker.access_sequence(addresses)
        return None

    def add_count_many(self, cliques: np.ndarray, delta: float = 1.0,
                       collect_addresses: bool = False) -> np.ndarray | None:
        """Vectorized :meth:`add_count` over ``(m, r)`` ascending rows.

        Every row must already be present.  Charges exactly what ``m``
        scalar :meth:`add_count` calls would: per row the routing profile,
        ``probes * suffix_width`` work plus ``probes`` table probes, and
        one atomic; the count scatter runs in row order (``np.add.at``) so
        float accumulation matches the scalar loop, and the simulated
        address stream is each row's route addresses followed by its final
        slot address --- :meth:`add_count` touches no address for the count
        update itself.  With ``collect_addresses=True`` the stream is
        returned instead of replayed, as in :meth:`add_count_at_many`.
        """
        cliques = np.asarray(cliques, dtype=np.int64).reshape(-1, self.r)
        m = cliques.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64) if collect_addresses else None
        cells, probes, slot_addrs, route_addrs = self.lookup_many(cliques)
        np.add.at(self._counts, cells, delta)
        if self.tracker is None:
            return np.empty(0, dtype=np.int64) if collect_addresses else None
        route_work, route_probes, _ = self.route_charge_profile()
        total_probes = int(probes.sum())
        self.tracker.add_work_int(m * route_work
                                  + total_probes * self.suffix_width)
        self.tracker.add_probes(m * route_probes + total_probes)
        self.tracker.add_atomic(m)
        addresses = np.concatenate(
            [route_addrs, slot_addrs[:, np.newaxis]], axis=1).reshape(-1)
        if collect_addresses:
            return addresses
        self.tracker.access_sequence(addresses)
        return None

    def addresses_of_many(self, cells: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_address_of`."""
        cells = np.asarray(cells, dtype=np.int64)
        tids = self._owner[cells]
        return self._table_addr[tids] + (cells - self._starts[tids])

    def decode_many(self, cells: np.ndarray, collect_addresses: bool = False
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`decode` with exact bulk charging.

        Returns ``(cliques, addresses, address_lens)`` where ``cliques`` is
        the ``(k, r)`` vertex matrix and, when ``collect_addresses`` is
        set, ``addresses`` / ``address_lens`` give the concatenated
        per-cell simulated address sequences the scalar decode would touch
        (in the same per-cell order).  Work is charged identically to ``k``
        scalar :meth:`decode` calls.
        """
        cells = np.asarray(cells, dtype=np.int64)
        k = cells.size
        empty_addr = np.empty(0, dtype=np.int64)
        zero_lens = np.zeros(k, dtype=np.int64)
        if k == 0:
            return np.empty((0, self.r), dtype=np.int64), empty_addr, zero_lens
        if self.inverse_map == "stored_pointers":
            tids = self._owner[cells]
            boundary = self._next_boundary_array()
            steps = np.minimum(boundary[cells + 1], self._starts[tids + 1]) \
                - cells
            tid_work = int(steps.sum())
            if collect_addresses:
                base = self.addresses_of_many(cells)
                addresses = np.repeat(base + 1, steps) \
                    + segment_offsets(steps)
                addr_lens = steps
            else:
                addresses, addr_lens = empty_addr, zero_lens
        else:
            tids = np.searchsorted(self._starts, cells, side="right") - 1
            tid_work = int(_log2(self.n_tables + 1)) * k
            if collect_addresses:
                addresses, addr_lens = self._bisect_addresses(cells)
            else:
                addresses, addr_lens = empty_addr, zero_lens
        if self.tracker is not None:
            self.tracker.add_work_int(tid_work + k * self.suffix_width)
        suffixes = self._encoder.decode_many(self._keys[cells])
        cliques = np.empty((k, self.r), dtype=np.int64)
        prefix_w = self.levels - 1
        if prefix_w:
            cliques[:, :prefix_w] = self._paths[tids]
        cliques[:, prefix_w:] = suffixes
        return cliques, addresses, addr_lens

    def _next_boundary_array(self) -> np.ndarray:
        """``b[p]``: smallest index >= p holding an empty key (else the cell
        count); the stored-pointer scan from ``cell`` stops at
        ``min(b[cell + 1], table end)``.  Keys are frozen after _build, so
        this is computed once."""
        if self._next_boundary is None:
            boundary = np.full(self.total_cells + 1, self.total_cells,
                               dtype=np.int64)
            empties = self._keys == _EMPTY
            idx = np.arange(self.total_cells, dtype=np.int64)
            vals = np.where(empties, idx, self.total_cells)
            boundary[:-1] = np.minimum.accumulate(vals[::-1])[::-1]
            self._next_boundary = boundary
        return self._next_boundary

    def _bisect_addresses(self, cells: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell prefix-array addresses of the binary-search decode, as
        ``(concatenated addresses, per-cell lengths)`` in scalar order."""
        k = cells.size
        lo = np.zeros(k, dtype=np.int64)
        hi = np.full(k, self.n_tables, dtype=np.int64)
        columns: list[np.ndarray] = []
        masks: list[np.ndarray] = []
        alive = lo < hi
        while alive.any():
            mid = (lo + hi) // 2
            columns.append(self._prefix_addr + mid)
            masks.append(alive.copy())
            descend = self._starts[mid + 1] <= cells
            step = alive & descend
            lo[step] = mid[step] + 1
            hi[alive & ~descend] = mid[alive & ~descend]
            alive = lo < hi
        if not columns:
            return np.empty(0, dtype=np.int64), np.zeros(k, dtype=np.int64)
        addr_matrix = np.stack(columns, axis=1)
        mask_matrix = np.stack(masks, axis=1)
        return addr_matrix[mask_matrix], mask_matrix.sum(axis=1)

    # -- iteration --------------------------------------------------------------

    def occupied_cells(self) -> np.ndarray:
        """Cell indices of every stored r-clique (ascending)."""
        return np.flatnonzero(self._keys != _EMPTY)

    def __len__(self) -> int:
        return self.n_cliques

    def __repr__(self) -> str:
        kind = "one-level" if self.levels == 1 else (
            "two-level" if self.style == "array" else
            f"{self.levels}-multi-level")
        return (f"CliqueTable(r={self.r}, cliques={self.n_cliques}, {kind}, "
                f"contiguous={self.contiguous}, inverse={self.inverse_map}, "
                f"mem={self.memory_units}u)")
