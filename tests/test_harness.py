"""Tests for the experiment harness utilities."""

import math

import pytest

from repro.core.config import NucleusConfig
from repro.experiments.harness import (FigureResult, format_table,
                                       geometric_mean, run_arb, run_baseline)
from repro.baselines import nd_decomposition
from repro.graph.generators import planted_partition


class TestFormatting:
    def test_format_table_basic(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}],
                            ["a", "b"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_missing_cells(self):
        text = format_table([{"a": 1}], ["a", "b"])
        assert "1" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([], ["a"], title="x")

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([5]) == pytest.approx(5.0)
        assert math.isnan(geometric_mean([]))
        assert geometric_mean([0, 4]) == pytest.approx(4.0)  # zeros skipped


class TestRunners:
    def test_run_arb_row(self, fig1):
        run = run_arb(fig1, 3, 4, NucleusConfig.optimal(3, 4), "fig1")
        row = run.row()
        assert row["graph"] == "fig1"
        assert row["n_r"] == 14
        assert row["rho"] == 3
        assert row["T60"] <= row["T1"]
        assert row["speedup"] >= 1.0
        assert row["work"] == run.result.tracker.total.work

    def test_run_arb_with_cache(self, fig1):
        run = run_arb(fig1, 3, 4, graph_name="fig1", with_cache=True)
        assert run.record["cache_accesses"] > 0

    def test_run_baseline(self, fig1):
        result, time = run_baseline(nd_decomposition, fig1, 3, 4, serial=True)
        assert result.name == "ND"
        assert time > 0

    def test_serial_baseline_slower_than_parallel_eval(self):
        g = planted_partition(50, 4, 0.5, 0.02, seed=1)
        result, t_serial = run_baseline(nd_decomposition, g, 2, 3,
                                        serial=True)
        _, t_parallel = run_baseline(nd_decomposition, g, 2, 3, serial=False)
        assert t_serial > t_parallel


def test_figure_result_show():
    fig = FigureResult("figX", "demo", rows=[], text="body\n")
    assert "figX" in fig.show()
    assert "body" in fig.show()


def test_figure_result_to_json(tmp_path):
    import json
    fig = FigureResult("figX", "demo", rows=[{"a": 1, "b": 2.5}])
    path = tmp_path / "fig.json"
    payload = fig.to_json(path)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(payload)
    assert loaded["rows"] == [{"a": 1, "b": 2.5}]


class TestHeadlineStatistics:
    def test_ranges(self):
        from repro.experiments.harness import headline_statistics
        rows = [
            {"graph": "g1", "rs": "(2,3)", "algorithm": "ARB",
             "slowdown": 1.0, "self_speedup": 20.0},
            {"graph": "g1", "rs": "(2,3)", "algorithm": "ND",
             "slowdown": 30.0},
            {"graph": "g1", "rs": "(2,3)", "algorithm": "AND",
             "slowdown": 2.0},
            {"graph": "g2", "rs": "(2,3)", "algorithm": "ARB",
             "slowdown": 1.0, "self_speedup": 35.0},
            {"graph": "g2", "rs": "(2,3)", "algorithm": "ND",
             "slowdown": 50.0},
            {"graph": "g2", "rs": "(2,3)", "algorithm": "AND",
             "slowdown": 1.1},
            {"graph": "g2", "rs": "(2,3)", "algorithm": "AND-NN",
             "note": "OOM (paper)"},
        ]
        from repro.experiments.harness import headline_statistics
        stats = headline_statistics(rows)
        assert stats["ND"] == (30.0, 50.0)
        assert stats["ARB self-relative"] == (20.0, 35.0)
        # Best competitor per graph: AND at 2.0 (g1) and 1.1 (g2).
        assert stats["best competitor"] == (1.1, 2.0)

    def test_empty(self):
        from repro.experiments.harness import headline_statistics
        assert headline_statistics([]) == {}

    def test_arb_serial_row_is_not_a_competitor(self):
        # Regression: the "ARB (1 thread)" row (ARB's own serial run,
        # whose slowdown *is* the self-relative speedup) was excluded from
        # the best-competitor range but still reported in the per-algorithm
        # slowdown map as if it were a competitor.
        from repro.experiments.harness import headline_statistics
        rows = [
            {"graph": "g1", "rs": "(2,3)", "algorithm": "ARB",
             "slowdown": 1.0, "self_speedup": 25.0},
            {"graph": "g1", "rs": "(2,3)", "algorithm": "ARB (1 thread)",
             "slowdown": 25.0},
            {"graph": "g1", "rs": "(2,3)", "algorithm": "ND",
             "slowdown": 8.0},
            {"graph": "g1", "rs": "(2,3)", "algorithm": "AND",
             "slowdown": 3.0},
        ]
        stats = headline_statistics(rows)
        assert "ARB (1 thread)" not in stats
        assert "ARB" not in stats
        assert stats["ND"] == (8.0, 8.0)
        assert stats["AND"] == (3.0, 3.0)
        assert stats["ARB self-relative"] == (25.0, 25.0)
        # The serial ARB row (25.0) must not win or widen either range.
        assert stats["best competitor"] == (3.0, 3.0)
