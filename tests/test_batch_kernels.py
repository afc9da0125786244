"""Unit tests for the vectorized kernels behind the batch peeling engine.

Each kernel's contract is exact equivalence with its scalar counterpart:
same outputs, same simulated charges, same order-sensitive side effects.
Also hosts the regression tests for the two hot-path overflow bugs fixed
alongside the engine (clique-table probe overflow, simple-array
aggregator growth).
"""

import dataclasses

import numpy as np
import pytest

from repro.cliques.encode import CliqueEncoder
from repro.cliques.listing import collect_cliques
from repro.cliques.orient import orient
from repro.core import tables
from repro.core.aggregation import (HashTableAggregator, ListBufferAggregator,
                                    SimpleArrayAggregator)
from repro.core.tables import CliqueTable, _capacities
from repro.graph.generators import planted_partition
from repro.machine.cache import AddressSpace, CacheSimulator
from repro.parallel.atomics import ContentionMeter
from repro.parallel.hashtable import hash64, hash64_many
from repro.parallel import primitives
from repro.parallel.primitives import (interleave_segments, intersect_many,
                                       intersect_segments, intersect_sorted,
                                       segment_gather, segment_offsets)
from repro.parallel.runtime import CostTracker


def build_table(r=2, s=3, **layout):
    dg, _ = orient(planted_partition(40, 4, 0.5, 0.03, seed=5), "degeneracy")
    cliques = np.sort(collect_cliques(dg, r), axis=1)
    return CliqueTable(40, r, cliques, tracker=CostTracker(),
                       address_space=AddressSpace(), **layout), cliques


class TestHashAndEncodeMany:
    def test_hash64_many_matches_scalar(self):
        keys = np.arange(0, 4000, 7, dtype=np.uint64)
        batch = hash64_many(keys)
        assert batch.dtype == np.uint64
        assert all(int(h) == hash64(int(k)) for k, h in zip(keys, batch))

    def test_encode_decode_many_roundtrip(self):
        enc = CliqueEncoder(97, 3)
        rng = np.random.default_rng(2)
        rows = np.sort(rng.integers(0, 97, size=(50, 3)), axis=1)
        keys = enc.encode_many(rows)
        assert all(int(k) == enc.encode(tuple(row)) for row, k in
                   zip(rows.tolist(), keys))
        assert np.array_equal(enc.decode_many(keys), rows)


class TestTableBatchKernels:
    def test_lookup_many_matches_cell_of(self):
        table, cliques = build_table()
        cells, probes, slot_addrs, route_addrs = table.lookup_many(cliques)
        for row, cell in zip(cliques.tolist(), cells):
            assert table.cell_of(tuple(row)) == int(cell)
        assert probes.min() >= 1
        assert route_addrs.shape == (cliques.shape[0],
                                     table.route_charge_profile()[2])
        assert slot_addrs.shape == (cliques.shape[0],)

    def test_lookup_many_missing_raises(self):
        table, _ = build_table()
        with pytest.raises(KeyError):
            table.lookup_many(np.array([[38, 39]]))

    @pytest.mark.parametrize("layout", [
        dict(levels=2, style="array", contiguous=True,
             inverse_map="stored_pointers"),
        dict(levels=2, style="array", contiguous=False,
             inverse_map="binary_search"),
        dict(levels=1, style="hash", contiguous=False,
             inverse_map="binary_search"),
    ])
    def test_decode_many_matches_decode_and_charges(self, layout):
        table, cliques = build_table(**layout)
        cells = table.occupied_cells()
        base_work = table.tracker.total.work
        decoded, addrs, lens = table.decode_many(cells,
                                                 collect_addresses=True)
        bulk_work = table.tracker.total.work - base_work
        scalar = [table.decode(int(c)) for c in cells]
        scalar_work = table.tracker.total.work - base_work - bulk_work
        assert [tuple(row) for row in decoded.tolist()] == scalar
        assert bulk_work == scalar_work
        assert addrs.size == int(lens.sum())
        # The uncharged form returns each cell's decode work instead.
        before = table.tracker.total.work
        _, work, _, _ = table.decode_uncharged(cells)
        assert table.tracker.total.work == before
        per_cell = []
        for cell in cells.tolist():
            table.decode(cell)
            per_cell.append(table.tracker.total.work - before)
            before = table.tracker.total.work
        assert work.tolist() == per_cell

    def test_add_count_at_many_matches_scalar(self):
        table_a, cliques = build_table()
        table_b, _ = build_table()
        cells = table_a.occupied_cells()[:10]
        deltas = np.full(10, -0.25)
        for cell, delta in zip(cells, deltas):
            table_a.add_count_at(int(cell), float(delta))
        table_b.add_count_at_many(cells, deltas)
        assert np.array_equal(table_a.counts, table_b.counts)
        assert table_a.tracker.total.work == table_b.tracker.total.work
        assert table_a.tracker.total.atomic_ops == \
            table_b.tracker.total.atomic_ops


#: (r, levels, style) of the three routing paths: one level, the
#: two-level array, and nested hash levels.
LOOKUP_LAYOUTS = {
    "one-level": (2, 1, "hash"),
    "two-level-array": (2, 2, "array"),
    "multi-level-hash": (3, 3, "hash"),
}


def _colliding_table(r, levels, style, n=2000, keys=12):
    """A table whose rows ``(0, .., r-2, v)`` share one sub-table and one
    home slot, so their probe run is ``keys`` slots long, plus a row of
    the same prefix that is absent although its home holds another key."""
    encoder = CliqueEncoder(n, r - levels + 1)
    mask = int(_capacities(np.array([keys]))[0]) - 1
    prefix = tuple(range(r - 1))
    rows = []
    for v in range(r - 1, n):
        row = prefix + (v,)
        if hash64(encoder.encode(row[levels - 1:])) & mask == 5:
            rows.append(row)
        if len(rows) == keys + 1:
            break
    table = CliqueTable(n, r, np.array(rows[:keys]), levels=levels,
                        style=style, tracker=CostTracker(),
                        address_space=AddressSpace())
    return table, np.array(rows[:keys]), np.array(rows[keys:])


class TestLookupManyProbes:
    """``lookup_many``'s probe counts and slot addresses are what
    ``cell_of`` charges and touches, row for row."""

    @staticmethod
    def _cell_of(table, row):
        """``cell_of``'s (cell, probes past the route, addresses)."""
        tracker = table.tracker
        before = tracker.total.table_probes
        captured = tracker.begin_access_capture()
        cell = table.cell_of(tuple(row))
        tracker.end_access_capture()
        probes = tracker.total.table_probes - before \
            - table.route_charge_profile()[1]
        return cell, probes, captured

    def _assert_matches_cell_of(self, table, rows):
        cells, probes, slot_addrs, route_addrs = table.lookup_many(rows)
        for i, row in enumerate(rows.tolist()):
            assert (int(cells[i]), int(probes[i]),
                    route_addrs[i].tolist() + [int(slot_addrs[i])]) \
                == self._cell_of(table, row)

    @pytest.mark.parametrize("name", sorted(LOOKUP_LAYOUTS))
    def test_matches_cell_of(self, name):
        r, levels, style = LOOKUP_LAYOUTS[name]
        table, cliques = build_table(r=r, levels=levels, style=style)
        self._assert_matches_cell_of(table, cliques)
        assert table.lookup_many(cliques)[1].max() > 1

    @pytest.mark.parametrize("name", sorted(LOOKUP_LAYOUTS))
    def test_long_probe_run(self, name):
        table, rows, absent = _colliding_table(*LOOKUP_LAYOUTS[name])
        self._assert_matches_cell_of(table, rows)
        assert sorted(table.lookup_many(rows)[1].tolist()) == \
            list(range(1, rows.shape[0] + 1))
        # The absent row's home holds another key: cell_of walks the
        # whole run to the empty slot; lookup_many reports it missing.
        cell, probes, _ = self._cell_of(table, absent[0])
        assert (cell, probes) == (-1, rows.shape[0] + 1)
        with pytest.raises(KeyError):
            table.lookup_many(np.concatenate([rows, absent]))

    def test_chunked_gather_matches(self, monkeypatch):
        """Displaced keys gathered a few at a time give the same answer."""
        table, rows, _ = _colliding_table(*LOOKUP_LAYOUTS["one-level"])
        whole = table.lookup_many(rows)
        monkeypatch.setattr(tables, "_RUN_GATHER_CELLS", 12)
        for got, want in zip(table.lookup_many(rows), whole):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(LOOKUP_LAYOUTS))
    def test_empty_table_raises_keyerror(self, name):
        r, levels, style = LOOKUP_LAYOUTS[name]
        table = CliqueTable(10, r, np.empty((0, r), dtype=np.int64),
                            levels=levels, style=style)
        row = np.arange(r)[np.newaxis, :]
        assert table.cell_of(tuple(row[0])) == -1
        with pytest.raises(KeyError):
            table.lookup_many(row)


class TestInsertProbeOverflow:
    """Satellite: a full sub-table must fail loudly, not probe forever."""

    def test_full_subtable_raises(self):
        table, _ = build_table(levels=1, style="hash", contiguous=False,
                               inverse_map="binary_search")
        # Forge a full sub-table: every slot occupied by keys that never
        # match the probe key.  The old unbounded linear probe spun forever
        # here; the bound turns it into a diagnosable RuntimeError.
        table._keys[:] = np.uint64(1) << np.uint64(60)
        with pytest.raises(RuntimeError, match="sub-table 0 is full"):
            table._insert(0, 12345)

    def test_error_names_capacity(self):
        table, _ = build_table(levels=1, style="hash", contiguous=False,
                               inverse_map="binary_search")
        table._keys[:] = np.uint64(1) << np.uint64(60)
        cap = int(table._caps[0])
        with pytest.raises(RuntimeError, match=f"probed all {cap} slots"):
            table._insert(0, 99)


class TestAggregatorGrowth:
    """Satellite: SimpleArrayAggregator must grow, not IndexError."""

    def test_records_past_initial_capacity(self):
        tracker = CostTracker()
        agg = SimpleArrayAggregator(4, tracker=tracker)
        agg.begin_round(4, 4)
        for cell in range(50):  # old code: IndexError at the 5th record
            agg.record(cell)
        assert sorted(agg.finish_round().tolist()) == list(range(50))

    def test_growth_charges_copy_work(self):
        tracker = CostTracker()
        agg = SimpleArrayAggregator(2, tracker=tracker)
        agg.begin_round(2, 2)
        for cell in range(3):
            agg.record(cell)
        # 3 records charge 1 work each; the doubling from 2 to 4 copies the
        # 2 live entries.
        assert tracker.total.work == 3 + 2

    def test_zero_capacity_never_breaks(self):
        agg = SimpleArrayAggregator(0)
        agg.begin_round(0, 0)
        agg.record(7)
        assert agg.finish_round().tolist() == [7]


AGGREGATORS = [SimpleArrayAggregator, ListBufferAggregator,
               HashTableAggregator]


class TestRecordMany:
    @pytest.mark.parametrize("cls", AGGREGATORS)
    def test_matches_scalar_records(self, cls):
        rng = np.random.default_rng(4)
        cells = rng.choice(500, size=120, replace=False)
        threads = rng.integers(0, 8, size=120)
        runs = []
        for batched in (False, True):
            tracker = CostTracker()
            meter = ContentionMeter()
            agg = cls(500, threads=8, tracker=tracker, meter=meter,
                      buffer_size=16)
            agg.begin_round(60, 120)
            if batched:
                agg.record_many(cells, threads)
            else:
                for cell, thread in zip(cells, threads):
                    agg.record(int(cell), int(thread))
            out = agg.finish_round()
            meter.settle(tracker)
            runs.append((out.tolist(), tracker.total.work,
                         tracker.total.atomic_ops,
                         tracker.total.contention))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("cls", AGGREGATORS)
    def test_multi_round_state_carries(self, cls):
        """Batched and scalar recording interleave across rounds (the list
        buffer's per-thread cursors persist between rounds)."""
        rng = np.random.default_rng(5)
        trackers = [CostTracker(), CostTracker()]
        aggs = [cls(300, threads=4, tracker=t, meter=ContentionMeter(),
                    buffer_size=8) for t in trackers]
        for round_no in range(3):
            cells = rng.choice(300, size=40, replace=False)
            threads = rng.integers(0, 4, size=40)
            outs = []
            for k, agg in enumerate(aggs):
                agg.begin_round(20, 40)
                if k:
                    agg.record_many(cells, threads)
                else:
                    for cell, thread in zip(cells, threads):
                        agg.record(int(cell), int(thread))
                outs.append(agg.finish_round().tolist())
            assert outs[0] == outs[1]
        assert trackers[0].total.work == trackers[1].total.work

    def test_hash_record_many_address_sink(self):
        """The hash aggregator hands the sink one flat address array and
        one per-record length array; split by the lengths they are the
        scalar records' address segments, and replayed in order they
        reproduce the scalar run's cache stream --- also in a round whose
        table grows (an estimate of 4 sizes it for 4 records)."""
        rng = np.random.default_rng(6)
        cells = rng.choice(200, size=50, replace=False)
        for estimate in (50, 4):
            runs = []
            for batched in (False, True):
                tracker = CostTracker()
                tracker.cache = CacheSimulator(sample=1)
                agg = HashTableAggregator(200, threads=4, tracker=tracker,
                                          meter=ContentionMeter())
                agg.begin_round(25, estimate)
                if batched:
                    sink = []
                    agg.record_many(cells, address_sink=sink)
                    (flat, lengths), = sink
                    assert lengths.size == cells.size
                    segments = np.split(flat, np.cumsum(lengths)[:-1])
                else:
                    segments = []
                    for cell in cells:
                        tracker.begin_access_capture()
                        agg.record(int(cell))
                        segments.append(tracker.end_access_capture())
                tracker.access_sequence(np.concatenate(segments))
                runs.append(([list(seg) for seg in segments],
                             agg.finish_round().tolist(), tracker.total,
                             tracker.cache.accesses, tracker.cache.misses))
            assert runs[0] == runs[1]
            grew = max(len(seg) for seg in runs[0][0]) > 1
            assert grew is (estimate == 4)


class TestSegmentPrimitives:
    def test_segment_offsets(self):
        assert segment_offsets([3, 0, 2]).tolist() == [0, 1, 2, 0, 1]
        assert segment_offsets([]).tolist() == []

    def test_interleave_segments(self):
        a = np.array([1, 2, 3, 40, 50])
        b = np.array([9, 8])
        merged = interleave_segments(a, [3, 2], b, [1, 1])
        assert merged.tolist() == [1, 2, 3, 9, 40, 50, 8]

    def test_interleave_empty_side(self):
        a = np.array([5, 6])
        merged = interleave_segments(a, [1, 1], np.empty(0, np.int64),
                                     [0, 0])
        assert merged.tolist() == [5, 6]

    def test_mismatched_segment_counts(self):
        with pytest.raises(ValueError):
            interleave_segments(np.array([1]), [1], np.array([2]), [1, 0])


class TestSegmentGather:
    def test_gathers_segments_in_order(self):
        source = np.arange(100, 120, dtype=np.int64)
        starts = np.array([5, 0, 12, 3], dtype=np.int64)
        lengths = np.array([3, 0, 4, 2], dtype=np.int64)
        want = np.concatenate([source[st:st + ln]
                               for st, ln in zip(starts, lengths)])
        assert segment_gather(source, starts, lengths).tolist() == \
            want.tolist()

    def test_all_empty(self):
        source = np.arange(5, dtype=np.int64)
        out = segment_gather(source, [1, 3], [0, 0])
        assert out.size == 0 and out.dtype == source.dtype
        assert segment_gather(source, [], []).size == 0


def _flatten(rows) -> tuple[np.ndarray, np.ndarray]:
    lens = np.array([row.size for row in rows], dtype=np.int64)
    values = np.concatenate(rows) if rows else np.empty(0, np.int64)
    return values.astype(np.int64), lens


class TestIntersectSegments:
    """``intersect_segments`` against one ``intersect_sorted`` call per
    row: the same values, lengths and charges."""

    @staticmethod
    def assert_rowwise(a_rows, b_rows):
        t_flat, t_rows = CostTracker(), CostTracker()
        values, lengths = intersect_segments(
            *_flatten(a_rows), *_flatten(b_rows), t_flat)
        want = [intersect_sorted(a, b, t_rows)
                for a, b in zip(a_rows, b_rows)]
        assert lengths.tolist() == [w.size for w in want]
        assert values.tolist() == [int(x) for w in want for x in w]
        assert dataclasses.asdict(t_flat.total) == \
            dataclasses.asdict(t_rows.total)
        assert t_flat.span == t_rows.span == 0

    def test_matches_per_row_results_and_charge(self):
        rng = np.random.default_rng(9)
        rows = [[np.unique(rng.choice(80, size=rng.integers(0, 25)))
                 for _ in range(2)] for _ in range(40)]
        self.assert_rowwise([a for a, _ in rows], [b for _, b in rows])

    def test_empty_segments(self):
        empty = np.empty(0, dtype=np.int64)
        self.assert_rowwise([empty, np.array([1, 2]), empty],
                            [np.array([1, 2]), empty, empty])
        self.assert_rowwise([], [])

    def test_negative_values_fall_back(self, monkeypatch):
        calls = _spy_loop(monkeypatch)
        self.assert_rowwise([np.array([-3, 1, 5]), np.array([-7, 0])],
                            [np.array([-3, 5]), np.array([-7, 2])])
        assert calls == [2]

    def test_int64_overflow_falls_back(self, monkeypatch):
        calls = _spy_loop(monkeypatch)
        big = 2 ** 61
        self.assert_rowwise(
            [np.array([1, big]), np.array([4, big - 1]), np.array([big])],
            [np.array([big]), np.array([4, 9]), np.array([2, big])])
        assert calls == [3]

    def test_chain_charged_once_matches_intersect_many(self):
        """The UPDATE kernel's r-way form: chain the segment lists, charge
        ``min_i |a_i| + 1`` once per row --- exactly ``intersect_many``."""
        rng = np.random.default_rng(4)
        rows = [[np.unique(rng.choice(60, size=rng.integers(0, 30)))
                 for _ in range(3)] for _ in range(30)]
        t_many = CostTracker()
        want = [intersect_many(row, t_many) for row in rows]
        columns = [_flatten([row[j] for row in rows]) for j in range(3)]
        values, lengths = columns[0]
        for other, other_lens in columns[1:]:
            values, lengths = intersect_segments(values, lengths, other,
                                                 other_lens)
        charge = int(np.minimum.reduce([lens for _, lens in columns]).sum())
        assert charge + len(rows) == t_many.total.work
        assert lengths.tolist() == [w.size for w in want]
        assert values.tolist() == [int(x) for w in want for x in w]


def _spy_loop(monkeypatch) -> list:
    """Record the row count of every per-row fallback call."""
    calls = []
    original = primitives._intersect_segments_loop

    def spy(a_values, a_lens, b_values, b_lens):
        calls.append(int(a_lens.size))
        return original(a_values, a_lens, b_values, b_lens)

    monkeypatch.setattr(primitives, "_intersect_segments_loop", spy)
    return calls
