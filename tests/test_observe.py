"""Tests for the observability layer (repro.observe): trace, bench."""

import json

import pytest

from repro.core.decomp import arb_nucleus_decomp
from repro.graph.generators import figure1_graph
from repro.machine.cache import CacheSimulator
from repro.observe import (PINNED_SUITE, TraceRecorder, breakdown_rows,
                           compare, format_breakdown, load_payload,
                           run_entry, run_payloads, run_record,
                           write_payload)
from repro.observe import bench
from repro.parallel.runtime import CostTracker, MachineModel


def _strip_host(entry):
    """Drop the host wall-clock field (the one nondeterministic value)."""
    return {k: v for k, v in entry.items() if k != "wall_clock"}


def _simulated(payload):
    return {**{k: v for k, v in payload.items() if k != "suite"},
            "suite": [_strip_host(e) for e in payload["suite"]]}


def _traced_run():
    tracker = CostTracker()
    tracker.trace = TraceRecorder()
    with tracker.phase("alpha"):
        tracker.add_work(10)
        with tracker.parallel(4) as region:
            for _ in range(4):
                with region.task():
                    tracker.add_work(5)
                    tracker.add_span(2)
    with tracker.phase("beta"):
        tracker.add_work(3)
    return tracker


class TestTraceRecorder:
    def test_phase_and_region_slices(self):
        tracker = _traced_run()
        events = tracker.trace.events
        names = [e["name"] for e in events]
        assert "alpha" in names and "beta" in names
        assert "parallel[4]" in names
        assert sum(e["cat"] == "task" for e in events) == 4

    def test_timestamps_are_work_units(self):
        tracker = _traced_run()
        alpha = next(e for e in tracker.trace.events if e["name"] == "alpha")
        assert alpha["ts"] == 0
        assert alpha["dur"] == pytest.approx(30)  # 10 + 4 tasks x 5
        beta = next(e for e in tracker.trace.events if e["name"] == "beta")
        assert beta["ts"] == pytest.approx(30)
        assert beta["dur"] == pytest.approx(3)

    def test_args_carry_counter_deltas(self):
        tracker = _traced_run()
        alpha = next(e for e in tracker.trace.events if e["name"] == "alpha")
        assert alpha["args"]["work"] == pytest.approx(30)
        region = next(e for e in tracker.trace.events
                      if e["cat"] == "region")
        assert region["args"]["max_task_span"] == pytest.approx(2)

    def test_task_limit_drops_slices(self):
        tracker = CostTracker()
        tracker.trace = TraceRecorder(task_limit=2)
        with tracker.parallel(5) as region:
            for _ in range(5):
                with region.task():
                    tracker.add_work(1)
        assert sum(e["cat"] == "task" for e in tracker.trace.events) == 2
        assert tracker.trace.dropped_tasks == 3
        # The region slice still records the true task count in its name.
        assert any(e["name"] == "parallel[5]" for e in tracker.trace.events)

    def test_accounting_neutral(self):
        graph = figure1_graph()
        plain = CostTracker()
        arb_nucleus_decomp(graph, 2, 3, tracker=plain)
        traced = CostTracker()
        traced.trace = TraceRecorder()
        arb_nucleus_decomp(graph, 2, 3, tracker=traced)
        assert plain.summary() == traced.summary()
        assert plain.phases.keys() == traced.phases.keys()
        for name in plain.phases:
            assert plain.phases[name] == traced.phases[name]

    def test_chrome_trace_is_valid_json(self, tmp_path):
        tracker = _traced_run()
        path = tmp_path / "trace.json"
        tracker.trace.write(path)
        loaded = json.loads(path.read_text())
        assert isinstance(loaded["traceEvents"], list)
        for event in loaded["traceEvents"]:
            assert event["ph"] in ("X", "M")
            if event["ph"] == "X":
                # Perfetto rejects slices with negative durations.
                assert event["dur"] >= 0
                assert event["ts"] >= 0
                assert {"name", "ts", "pid", "tid"} <= event.keys()

    def test_nested_phases_nest_slices(self):
        tracker = CostTracker()
        tracker.trace = TraceRecorder()
        with tracker.phase("outer"):
            tracker.add_work(1)
            with tracker.phase("inner"):
                tracker.add_work(2)
        inner = next(e for e in tracker.trace.events
                     if e["name"] == "inner")
        outer = next(e for e in tracker.trace.events
                     if e["name"] == "outer")
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]


class TestBreakdownRendering:
    def test_rows_total_last_and_shares(self):
        tracker = CostTracker()
        with tracker.phase("a"):
            tracker.add_work(100)
        with tracker.phase("b"):
            tracker.add_work(300)
        rows = breakdown_rows(MachineModel().time_breakdown(tracker, 1))
        assert rows[-1]["phase"] == "TOTAL"
        assert rows[0]["phase"] == "b"  # sorted by descending time
        assert sum(r["share"] for r in rows[:-1]) == pytest.approx(1.0)

    def test_format_contains_terms(self):
        tracker = CostTracker()
        with tracker.phase("a"):
            tracker.add_work(100)
        text = format_breakdown(MachineModel().time_breakdown(tracker, 60))
        for term in ("work", "span", "barrier", "contention", "cache"):
            assert term in text
        assert "TOTAL" in text


def _suite_payload() -> dict:
    # Two small pinned entries keep the tests fast; every section runs
    # in tests/test_trajectory_pin.py and the CI bench-trajectory job.
    return {"suite": [run_entry("amazon", 1, 2), run_entry("amazon", 2, 3)]}


class TestRunRecord:
    def test_fields_without_cache(self):
        tracker = _traced_run()
        record = run_record(tracker)
        assert record["work"] == tracker.total.work
        assert record["cache_accesses"] == record["cache_misses"] == 0
        assert record["speedup"] == record["T1"] / record["T60"]
        assert record["breakdown"]["time"] == pytest.approx(record["T60"])
        assert set(record["phases"]) == {"alpha", "beta"}
        assert record["wall_clock"]["total"] == pytest.approx(
            record["wall_clock"]["alpha"] + record["wall_clock"]["beta"])


class TestBenchSuite:
    @pytest.fixture(scope="class")
    def payload(self):
        return _suite_payload()

    def test_entry_metrics(self, payload):
        entry = payload["suite"][0]
        for key in ("graph", "r", "s", "rho", "work", "span", "rounds",
                    "T1", "T60", "speedup", "contention", "cache_misses",
                    "cliques", "phases", "breakdown"):
            assert key in entry
        assert entry["T1"] > entry["T60"]
        assert entry["speedup"] == pytest.approx(
            entry["T1"] / entry["T60"])

    def test_breakdown_sums_to_time(self, payload):
        for entry in payload["suite"]:
            total = entry["breakdown"]
            assert total["time"] == pytest.approx(
                total["work"] + total["span"] + total["barrier"]
                + total["contention"] + total["cache"])
            assert total["time"] == pytest.approx(entry["T60"])

    def test_phases_partition_totals(self, payload):
        for entry in payload["suite"]:
            phases = entry["phases"].values()
            assert sum(p["work"] for p in phases) == \
                pytest.approx(entry["work"])
            assert sum(p["span"] for p in phases) == \
                pytest.approx(entry["span"])
            assert sum(p["rounds"] for p in phases) == entry["rounds"]
            assert sum(p["cache_misses"] for p in phases) == \
                entry["cache_misses"]

    def test_deterministic(self, payload):
        # Everything except host wall-clock seconds is exactly repeatable.
        assert _simulated(_suite_payload()) == _simulated(payload)

    def test_roundtrip(self, payload, tmp_path):
        # The written file leaves out host wall-clock.
        path = tmp_path / "BENCH.json"
        write_payload(payload, path)
        assert load_payload(path) == _simulated(payload)

    def test_run_entry_matches_suite(self, payload, monkeypatch):
        _, run, key = bench.SECTIONS["suite"]
        monkeypatch.setattr(bench, "SECTIONS",
                            {"suite": (PINNED_SUITE[:1], run, key)})
        ran, = run_payloads(False, label="test")
        assert (ran["schema"], ran["label"]) == (bench.SCHEMA_VERSION, "test")
        assert _strip_host(ran["suite"][0]) == \
            _strip_host(payload["suite"][0])


class TestCompare:
    def _payloads(self):
        base = {"suite": [run_entry("amazon", 1, 2)]}
        current = json.loads(json.dumps(base))  # deep copy
        return current, base

    def test_identical_is_clean(self):
        current, base = self._payloads()
        assert compare(current, base) == []

    def test_flags_injected_regression(self):
        current, base = self._payloads()
        current["suite"][0]["work"] *= 1.2
        regressions = compare(current, base, tolerance=0.05)
        assert len(regressions) == 1
        assert "work" in regressions[0]

    def test_within_tolerance_is_clean(self):
        current, base = self._payloads()
        current["suite"][0]["work"] *= 1.04
        assert compare(current, base, tolerance=0.05) == []

    def test_improvement_is_clean(self):
        current, base = self._payloads()
        current["suite"][0]["work"] *= 0.5
        current["suite"][0]["speedup"] *= 2.0
        assert compare(current, base) == []

    def test_speedup_drop_is_regression(self):
        current, base = self._payloads()
        current["suite"][0]["speedup"] *= 0.8
        regressions = compare(current, base)
        assert len(regressions) == 1
        assert "speedup" in regressions[0] and "fell" in regressions[0]

    def test_missing_entry_is_regression(self):
        current, base = self._payloads()
        current["suite"] = []
        regressions = compare(current, base)
        assert regressions and "missing" in regressions[0]

    def test_new_entry_is_not_regression(self):
        current, base = self._payloads()
        current["suite"].append(dict(current["suite"][0], graph="extra"))
        assert compare(current, base) == []


class TestCacheMissAttribution:
    def test_misses_attributed_to_phase(self):
        tracker = CostTracker()
        tracker.cache = CacheSimulator(n_sets=4, ways=1)
        with tracker.phase("hot"):
            for addr in range(0, 4096, 64):
                tracker.access(addr)
        assert tracker.phases["hot"].cache_misses == tracker.cache.misses
        assert tracker.total.cache_misses == tracker.cache.misses
        assert tracker.phases["hot"].cache_misses > 0

    def test_sampled_misses_scale(self):
        tracker = CostTracker()
        tracker.cache = CacheSimulator(n_sets=4, ways=1, sample=4)
        with tracker.phase("hot"):
            for addr in range(0, 1 << 16, 64):
                tracker.access(addr)
        assert tracker.phases["hot"].cache_misses == tracker.cache.misses
