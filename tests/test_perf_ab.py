"""Tests for tools/perf_ab.py's summary of paired perfbench runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", TOOL)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

METRICS = [{"name": "run_s", "better": "lower"},
           {"name": "qps", "better": "higher"}]


def _runs(run_s, qps):
    return [{"run_s": a, "qps": b} for a, b in zip(run_s, qps)]


def test_medians_percent_and_wins():
    parent = _runs([0.25, 0.26, 0.24, 0.25, 0.27], [10, 10, 10, 10, 10])
    change = _runs([0.22, 0.21, 0.25, 0.22, 0.22], [11, 9, 10, 12, 11])
    run_s, qps = perf_ab.summarize(parent, change, METRICS)
    assert run_s["parent"] == 0.25 and run_s["change"] == 0.22
    assert run_s["change_pct"] == pytest.approx(-12.0)
    # Pair 3 (0.24 -> 0.25) is lost; lower is better.
    assert (run_s["wins"], run_s["pairs"]) == (4, 5)
    assert run_s["parent_quartiles"] == (0.25, 0.26)
    # Higher is better: 11, 12, 11 win; a tie (10 -> 10) does not.
    assert qps["change_pct"] == pytest.approx(10.0)
    assert qps["wins"] == 3


def test_zero_parent_median_has_no_percentage():
    (row,) = perf_ab.summarize(_runs([0.0], [1]), _runs([0.0], [1]),
                               METRICS[:1])
    assert row["change_pct"] is None
    assert row["wins"] == 0
    assert row["parent_quartiles"] == (0.0, 0.0)
    assert "n/a" in perf_ab.format_rows([row])


def test_unpaired_runs_rejected():
    with pytest.raises(ValueError):
        perf_ab.summarize(_runs([0.1, 0.2], [1, 1]), _runs([0.1], [1]),
                          METRICS)
    with pytest.raises(ValueError):
        perf_ab.summarize([], [], METRICS)


def test_run_length_and_metrics_come_from_the_benchmark_spec():
    seconds, metrics = perf_ab.benchmark()
    assert isinstance(seconds, int) and seconds > 0
    names = [metric["name"] for metric in metrics]
    assert names == ["run_s", "setup_s", "sim_T60", "sim_T1", "peak_rss_mb"]
