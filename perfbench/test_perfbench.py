"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench -q

Most tests run single passes in process on small graphs standing in for
the surrogates; the last ones run ``run.py`` itself on ``sharded``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from repro import load_dataset, write_edge_list  # noqa: E402
from repro.graph.generators import embed_cliques, planted_partition  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Units of metrics that are host measurements, not counts.
HOST_UNITS = {"s", "share", "us", "1/s", "MB"}


def _small(seed: int):
    return embed_cliques(planted_partition(90, 6, p_in=0.45, p_out=0.03,
                                           seed=seed), 2, 6, seed=seed + 1)


@pytest.fixture(params=workloads.WORKLOADS)
def case(request, tmp_path):
    """(inputs, references, queries, spec) of a workload, on small graphs
    standing in for the surrogates."""
    workload = request.param
    if workload == "pipeline":
        path = tmp_path / "graph.txt"
        write_edge_list(_small(5), path)
        inputs = workloads.Inputs(workload, 0, edge_list=path)
    else:
        inputs = workloads.Inputs(workload, 0, graphs={
            name: _small(11 * i + 4)
            for i, name in enumerate(("dblp", "skitter", "youtube"))})
    references, queries, single_t60 = workloads.build_references(inputs)
    spec = {"single_t60": single_t60}
    return inputs, references, queries, spec


def _pass(case, mode="traced"):
    inputs, _, queries, spec = case
    return worker.one_pass(inputs, queries, spec, mode, 0)


def test_default_seed_reproduces_named_surrogates():
    for name in ("dblp", "youtube", "skitter"):
        graph = workloads.surrogate(name, workloads.DEFAULT_SEED)
        named = load_dataset(name)
        assert (graph.n, graph.m) == (named.n, named.m)
        assert (graph.edges() == named.edges()).all()
    other = workloads.surrogate("dblp", workloads.CHECK_SEED)
    assert other.n == load_dataset("dblp").n
    assert not (other.m == load_dataset("dblp").m
                and (other.edges() == load_dataset("dblp").edges()).all())


def test_passes_verify_clean(case):
    inputs, references, _, _ = case
    record = _pass(case)
    assert record["error"] is None
    assert workloads.count_failures(inputs.workload, record["digests"],
                                    references) == 0


def test_two_passes_repeat_simulated_and_count_metrics(case):
    first, second = _pass(case), _pass(case)
    assert first["sim_T60"] == second["sim_T60"]
    assert first["sim_T1"] == second["sim_T1"]
    for name, (unit, _) in tracing.PER_LAYER.items():
        if unit not in HOST_UNITS and name not in tracing.RUN_METRICS:
            assert first["layers"][name] == second["layers"][name], name


def test_breakdown_terms_sum_to_sim_t60(case):
    inputs = case[0]
    record = _pass(case)
    layers = record["layers"]
    prefix = ("distributed.T60." if inputs.workload == "sharded"
              else "parallel.T60.")
    terms = sum(v for k, v in layers.items() if k.startswith(prefix))
    assert math.isclose(terms, record["sim_T60"], rel_tol=1e-9)


def test_no_phase_exceeds_its_call(case):
    record = _pass(case)
    spans = record["spans"]
    children = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            seconds = span["end"] - span["start"]
            parent = spans[span["parent"]]
            assert seconds <= parent["end"] - parent["start"], span["name"]
            children[span["parent"]] += seconds
    for span, total in zip(spans, children):
        assert total <= span["end"] - span["start"] + 1e-9, span["name"]


def _corrupt_core(calls):
    result = next(c.output for c in calls if c.name.endswith("nucleus_decomp"))
    result._cores[0] += 1


def _corrupt_parent(calls):
    loaded = next(c.output for c in calls if c.name == "load_hierarchy_json")
    child = next(n for n in loaded.nuclei if n.parent_id != -1)
    child.parent_id = -1


def _corrupt_answer(calls):
    batch = next(c for c in calls if c.name == "query_batch")
    batch.output[-1] = []


def _failures_after(case, corrupt) -> tuple[int, int]:
    """Failed operations of one pass before and after ``corrupt``."""
    inputs, references, queries, _ = case
    calls = workloads.run_pass(inputs, queries, tracing.Recorder())
    before = workloads.count_failures(
        inputs.workload, workloads.output_digests(inputs.workload, calls),
        references)
    corrupt(calls)
    after = workloads.count_failures(
        inputs.workload, workloads.output_digests(inputs.workload, calls),
        references)
    return before, after


def test_corrupted_core_counts_as_failure(case):
    assert _failures_after(case, _corrupt_core) == (0, 1)


@pytest.mark.parametrize("case", ["pipeline"], indirect=True)
@pytest.mark.parametrize("corrupt", [_corrupt_parent, _corrupt_answer])
def test_corrupted_hierarchy_or_answer_counts_as_failure(case, corrupt):
    assert _failures_after(case, corrupt) == (0, 1)


def test_exception_counts_as_failure(case, monkeypatch):
    inputs, references, _, _ = case

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    for name in ("nucleus_hierarchy", "sharded_nucleus_decomp"):
        monkeypatch.setattr(workloads, name, broken)
    if inputs.workload == "paper":
        monkeypatch.setattr(workloads, "arb_nucleus_decomp", broken)
    record = _pass(case, "timed")
    assert record["error"] is not None
    expected = {"pipeline": 2, "paper": 4, "sharded": 3}[inputs.workload]
    assert workloads.count_failures(inputs.workload, record["digests"],
                                    references) == expected


def test_rescale_puts_seconds_at_reference_speed():
    ref = speed.PROBE_REF_S
    assert math.isclose(speed.rescale(3.0, [ref, ref]), 3.0)
    assert math.isclose(speed.rescale(3.0, [2 * ref, 2 * ref]), 1.5)
    assert math.isclose(speed.rescale(3.0, [ref, 3 * ref]), 1.5)
    assert speed.probe() > 0


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


def test_traced_pass_yields_every_per_layer_metric(case):
    names = set(_pass(case)["layers"]) | set(tracing.RUN_METRICS)
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}


def _run_script(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_equal_benchmark_json(trace):
    done = _run_script(ROOT, "--workload", "sharded", "--seed", "0",
                       "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "end_to_end" if trace == "0" else "per_layer"
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = _run_script(tmp_path, "--workload", "pipeline", "--seed", "0",
                       "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
