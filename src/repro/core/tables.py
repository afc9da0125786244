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

#: Cells :meth:`CliqueTable.lookup_many` gathers per chunk of keys that are
#: not at their home slot (keys x longest probe run).
_RUN_GATHER_CELLS = 1 << 17

#: Largest keys-per-cell load of a last-level sub-table.  Being below 1,
#: it gives every sub-table more cells than keys: each insert finds an
#: empty cell, and each round of the vectorized build (:meth:`CliqueTable.
#: _place`) commits at least one key per sub-table, so the build ends.
MAX_LOAD = 0.7


def _capacities(sizes: np.ndarray) -> np.ndarray:
    """Cells per sub-table for ``sizes`` keys each: the power of two
    ``1 << max(2, bit_length(ceil(size / MAX_LOAD)))``, at least
    ``ceil(size / MAX_LOAD) + 1`` and so always more than ``size``."""
    spread = np.ceil(np.asarray(sizes, dtype=np.int64) / MAX_LOAD)
    bit_length = np.frexp(spread)[1].astype(np.int64)
    return np.left_shift(1, np.maximum(2, bit_length)).astype(np.int64)


def _sorted_rows(cliques: np.ndarray, n: int) -> np.ndarray:
    """``cliques`` in lexicographic row order, after checking each row.

    Ids must lie in ``[0, n)``, every row must be strictly ascending, and
    no row may repeat; otherwise raises ``ValueError`` naming the first bad
    row by its input position (malformed rows are reported before repeats).
    """
    if cliques.shape[0] == 0:
        return cliques
    out_of_range = ((cliques < 0) | (cliques >= n)).any(axis=1)
    bad = out_of_range | (np.diff(cliques, axis=1) <= 0).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        why = f"vertex ids must lie in [0, {n})" if out_of_range[i] \
            else "vertex ids must be strictly ascending"
        raise ValueError(f"clique row {i} {tuple(cliques[i].tolist())}: "
                         f"{why}")
    # lexsort is stable: equal rows stay in input order.
    order = np.lexsort(cliques.T[::-1])
    ordered = cliques[order]
    repeats = (ordered[1:] == ordered[:-1]).all(axis=1)
    if repeats.any():
        i = int(order[1:][repeats].min())
        first = int(np.argmax((cliques == cliques[i]).all(axis=1)))
        raise ValueError(f"clique row {i} {tuple(cliques[i].tolist())} "
                         f"repeats row {first}")
    return ordered


class CliqueTable:
    """Per-r-clique count storage with the paper's layout options.

    Parameters
    ----------
    n:
        Number of graph vertices.
    r:
        Clique size stored (keys are r-cliques).
    cliques:
        Array of shape (count, r); each row one r-clique, vertices strictly
        ascending in ``[0, n)``, no row twice (``ValueError`` otherwise).
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
                 address_space: AddressSpace | None = None):
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
        self._build(_sorted_rows(cliques, n),
                    address_space or AddressSpace())

    # -- construction -------------------------------------------------------

    def _build(self, cliques: np.ndarray, space: AddressSpace) -> None:
        """Lay out ``T`` for checked rows in lexicographic order."""
        count = cliques.shape[0]
        self.n_cliques = count
        prefix_w = self.levels - 1
        if prefix_w and count:
            prefixes = cliques[:, :prefix_w]
            changed = np.any(np.diff(prefixes, axis=0) != 0, axis=1)
            group_starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
            self._paths = prefixes[group_starts]
        else:
            group_starts = np.array([0] if count else [], dtype=np.int64)
            self._paths = np.zeros((1 if count else 0, prefix_w),
                                   dtype=np.int64)
        group_sizes = np.diff(np.append(group_starts, count))
        self.n_tables = len(group_sizes)
        caps = _capacities(group_sizes)
        self._starts = np.zeros(self.n_tables + 1, dtype=np.int64)
        self._starts[1:] = np.cumsum(caps)
        self.total_cells = int(self._starts[-1])
        self._caps = caps
        self._keys = np.full(self.total_cells, _EMPTY, dtype=np.uint64)
        self._counts = np.zeros(self.total_cells, dtype=np.float64)
        # Owner array doubles as the stored up-pointers of Section 5.3.
        table_ids = np.arange(self.n_tables)
        self._owner = np.repeat(table_ids, caps)

        # Simulated addresses: contiguous packs tables into one slab;
        # otherwise each table is a separate scattered allocation.
        if self.contiguous:
            base = space.alloc(self.total_cells)
            self._table_addr = base + self._starts[:-1]
        elif self.n_tables:
            # One space.alloc per table puts each base at the running
            # offset plus SCATTER_GAP; reserve the same range in two calls.
            gaps = AddressSpace.SCATTER_GAP * table_ids
            self._table_addr = space.alloc(0) + self._starts[:-1] + gaps
            space.alloc(self.total_cells + int(gaps[-1]),
                        contiguous_with_previous=True)
        else:
            self._table_addr = np.empty(0, dtype=np.int64)
        # Auxiliary address regions (prefix-sum array, intermediate levels).
        self._prefix_addr = space.alloc(self.n_tables + 1)
        self._level_addrs = [space.alloc(max(1, self.n))
                             for _ in range(max(0, self.levels - 1))]

        # Top-level routing: first-vertex array (two-level "array" style) or
        # a path dictionary standing in for the nested intermediate tables,
        # built on first use (see _path_index).
        self._path_to_tid: dict[tuple, int] | None = None
        if self.style == "array" and self.levels == 2:
            self._top_array = np.full(self.n, -1, dtype=np.int64)
            self._top_array[self._paths[:, 0]] = table_ids

        # Insert every clique's suffix key, in row order.
        tids = np.repeat(table_ids, group_sizes)
        suffixes = cliques[:, prefix_w:]
        if self.tracker is not None and self.tracker.runs_reference:
            for tid, suffix in zip(tids.tolist(), suffixes):
                self._insert(tid, self._encoder.encode(suffix))
        else:
            probes = self._place(tids, self._encoder.encode_many(suffixes))
            if self.tracker is not None:
                # Integer work lands in the exact bin, so one bulk charge
                # equals the per-insert charges of _insert bit for bit.
                self.tracker.add_work_int(probes * self.suffix_width)
                self.tracker.add_probes(probes)

        self.memory_units = self._memory_units()
        if self.tracker is not None:
            self.tracker.note_memory_units(self.memory_units)

        # Lazy caches for the vectorized (batch-engine) entry points; all
        # depend only on state that is frozen after construction.
        self._next_boundary: np.ndarray | None = None
        self._path_code_table: np.ndarray | None = None
        self._max_probes: int | None = None

    def _insert(self, tid: int, key: int) -> int:
        """Insert one key by linear probing (the reference oracle of
        :meth:`_place`), charging its probes."""
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

    def _place(self, tids: np.ndarray, keys: np.ndarray) -> int:
        """Store distinct ``keys`` (sub-tables ``tids`` ascending) exactly
        where :meth:`_insert` calls in row order would; returns the total
        probe count those calls would charge.

        Runs in rounds (docs/cost-model.md, "Table build").  Every pending
        key advances to its *candidate*, the first empty cell from its
        slot, wrapping inside its sub-table.  A key commits there when it
        is the cell's first pending claimant and no earlier *loser* of its
        sub-table (a key beaten to its own candidate) has a candidate at
        or before it.  That is exact unless a loser's cascade could still
        wrap past the sub-table's end, which needs some candidate ``y``
        with more pending keys at or after ``y`` than free cells in
        ``[y, end)``; such a sub-table commits only the keys ahead of its
        first loser this round, which is exact either way.  The earliest
        pending key of each sub-table always commits.
        """
        m = keys.size
        if m == 0:
            return 0
        masks = self._caps[tids] - 1
        homes = self._starts[tids] \
            + (hash64_many(keys) & masks.astype(np.uint64)).astype(np.int64)
        n_cells = self.total_cells
        big = int(self._caps.max())  # above every in-table slot
        occupied = np.zeros(n_cells, dtype=bool)
        cells = np.empty(m, dtype=np.int64)
        every_cell = np.arange(n_cells)
        # Pending keys in row order: row index, current cell, sub-table.
        idx, pos, ptid = np.arange(m), homes, tids
        while idx.size:
            start, end = self._starts[ptid], self._starts[ptid + 1]
            free = ~occupied
            # next_free[x]: first free cell at or after x (n_cells if none).
            next_free = np.append(np.minimum.accumulate(
                np.where(free, every_cell, n_cells)[::-1])[::-1], n_cells)
            cand = next_free[pos]
            wrap = cand >= end
            cand[wrap] = next_free[start[wrap]]

            # First claimant of each cell: the lowest pending row.
            claim = np.full(n_cells, m)
            np.minimum.at(claim, cand, idx)
            winner = claim[cand] == idx

            # Smallest candidate slot of an earlier loser in the same
            # sub-table (``big`` if none): a running min over row order,
            # offset per sub-table so earlier sub-tables never reach it.
            slot = cand - start
            offset = (self.n_tables - ptid) * (big + 1)
            running = np.minimum.accumulate(
                np.where(winner, big, slot) + offset)
            earlier = np.full(idx.size, big)
            earlier[1:] = np.minimum(running[:-1] - offset[1:], big)

            # Parking check per suffix: surplus[x] is the pending keys with
            # candidates in [x, n_cells) less the free cells there, so a
            # candidate y with surplus[y] > surplus[end] has more keys than
            # free cells in [y, end) and its sub-table may wrap.
            excess = np.bincount(cand, minlength=n_cells) - free
            surplus = np.append(np.cumsum(excess[::-1])[::-1], 0)
            unsafe = np.zeros(self.n_tables, dtype=bool)
            unsafe[ptid[surplus[cand] > surplus[end]]] = True

            # Safe sub-tables need no earlier loser at or before the slot,
            # the others no earlier loser at all.
            limit = np.where(unsafe[ptid], big - 1, slot)
            commit = winner & (earlier > limit)
            cells[idx[commit]] = cand[commit]
            occupied[cand[commit]] = True
            keep = ~commit
            idx, pos, ptid = idx[keep], cand[keep], ptid[keep]

        self._keys[cells] = keys
        return int((((cells - homes) & masks) + 1).sum())

    def _memory_units(self) -> int:
        """Paper-convention memory units (Figures 3-4): vertices + pointers."""
        last = self.n_cliques * self.suffix_width
        if self.levels == 1:
            return last
        if self.style == "array":
            return self.n + last
        # Nested hash levels: each intermediate entry is a vertex + pointer.
        # _paths is sorted, so its distinct depth-d prefixes are the row
        # changes of its first d columns.
        units = last
        if self.n_cliques:
            for depth in range(1, self.levels):
                changes = np.diff(self._paths[:, :depth], axis=0) != 0
                units += 2 * (1 + int(np.count_nonzero(changes.any(axis=1))))
        return units

    def _path_index(self) -> dict[tuple, int]:
        """Path tuple -> table id, for the scalar :meth:`_route` and the
        wide-path fallback of :meth:`_route_many`; built on first use."""
        if self._path_to_tid is None:
            self._path_to_tid = {tuple(path): tid for tid, path
                                 in enumerate(self._paths.tolist())}
        return self._path_to_tid

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
        return self._path_index().get(
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
    # hand the per-element charge profile back to the caller (lookup_many,
    # decode_uncharged), letting the batch engine splice
    # probe/update address streams in the scalar loop's order before
    # replaying them.  See docs/cost-model.md.

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
            return np.full(m, 0 if self.n_tables else -1, dtype=np.int64)
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
        paths = self._path_index()
        return np.array(
            [paths.get(tuple(int(x) for x in row[:prefix_w]), -1)
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

        No probe loop: each key's home slot is read once, and every key
        not at home gets its whole probe run gathered at once (in chunks
        of at most ``_RUN_GATHER_CELLS`` cells), bounded by
        :meth:`_longest_run`.  Keys never move after the build and no cell
        between a stored key's home and its slot is empty, so the key's
        slot is the run's only match, and ``((slot - home) & mask) + 1``
        is the probe count the scalar loop reports.
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
        masks = self._caps[tids] - 1
        homes = (hash64_many(keys) & masks.astype(np.uint64)).astype(np.int64)
        slots = homes.copy()
        away = np.flatnonzero(self._keys[starts + homes] != keys)
        if away.size:
            steps = np.arange(1, self._longest_run(), dtype=np.int64)
            # Chunks bound the (keys x run) temporaries: a count-phase
            # block can look up C(s, r) subsets of 65,536 s-cliques.
            chunk = max(1, _RUN_GATHER_CELLS // max(1, steps.size))
            for lo in range(0, away.size, chunk):
                rows = away[lo:lo + chunk]
                run = (homes[rows, None] + steps) & masks[rows, None]
                match = self._keys[starts[rows, None] + run] \
                    == keys[rows, None]
                if not match.any(axis=1).all():
                    raise KeyError(
                        "lookup_many requires every row to be present")
                slots[rows] = run[np.arange(rows.size),
                                  match.argmax(axis=1)]
        probes = ((slots - homes) & masks) + 1
        slot_addrs = self._table_addr[tids] + slots
        return starts + slots, probes, slot_addrs, \
            self._route_addresses(cliques)

    def _longest_run(self) -> int:
        """The most probes :meth:`cell_of` takes to find a stored key (its
        displacement from its home slot, plus one).  Keys never move after
        :meth:`_build`, so this is computed once."""
        if self._max_probes is None:
            stored = np.flatnonzero(self._keys != _EMPTY)
            if stored.size == 0:
                self._max_probes = 1
            else:
                tids = self._owner[stored]
                masks = self._caps[tids] - 1
                homes = (hash64_many(self._keys[stored])
                         & masks.astype(np.uint64)).astype(np.int64)
                self._max_probes = int(
                    ((stored - self._starts[tids] - homes) & masks).max()) + 1
        return self._max_probes

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
        """Vectorized :meth:`decode` with exact bulk charging: the
        cliques and addresses of :meth:`decode_uncharged`, with the sum of
        its per-cell work charged, identically to ``k`` scalar
        :meth:`decode` calls."""
        cliques, work, addresses, addr_lens = self.decode_uncharged(
            cells, collect_addresses)
        if self.tracker is not None:
            self.tracker.add_work_int(int(work.sum()))
        return cliques, addresses, addr_lens

    def decode_uncharged(self, cells: np.ndarray,
                         collect_addresses: bool = False
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]:
        """Vectorized :meth:`decode` that charges nothing.

        Returns ``(cliques, work, addresses, address_lens)``: the ``(k,
        r)`` vertex matrix; the work :meth:`decode` charges per cell (the
        table-id search --- the stored-pointer scan's length, or
        ``log2(n_tables + 1)`` binary-search steps --- plus one unit per
        suffix vertex); and, when ``collect_addresses`` is set, the
        concatenated per-cell simulated address sequences the scalar
        decode would touch, in the same per-cell order, with their
        lengths.
        """
        cells = np.asarray(cells, dtype=np.int64)
        k = cells.size
        empty_addr = np.empty(0, dtype=np.int64)
        zero_lens = np.zeros(k, dtype=np.int64)
        if k == 0:
            return np.empty((0, self.r), dtype=np.int64), zero_lens, \
                empty_addr, zero_lens
        if self.inverse_map == "stored_pointers":
            tids = self._owner[cells]
            boundary = self._next_boundary_array()
            steps = np.minimum(boundary[cells + 1], self._starts[tids + 1]) \
                - cells
            if collect_addresses:
                base = self.addresses_of_many(cells)
                addresses = np.repeat(base + 1, steps) \
                    + segment_offsets(steps)
                addr_lens = steps
            else:
                addresses, addr_lens = empty_addr, zero_lens
        else:
            tids = np.searchsorted(self._starts, cells, side="right") - 1
            steps = np.full(k, int(_log2(self.n_tables + 1)), dtype=np.int64)
            if collect_addresses:
                addresses, addr_lens = self._bisect_addresses(cells)
            else:
                addresses, addr_lens = empty_addr, zero_lens
        suffixes = self._encoder.decode_many(self._keys[cells])
        cliques = np.empty((k, self.r), dtype=np.int64)
        prefix_w = self.levels - 1
        if prefix_w:
            cliques[:, :prefix_w] = self._paths[tids]
        cliques[:, prefix_w:] = suffixes
        return cliques, steps + self.suffix_width, addresses, addr_lens

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
