"""Ablation: bucketing backends (Julienne vs Fibonacci heap vs dense array).

The paper proves Theorem 4.2 with the batch-parallel Fibonacci heap but
ships Julienne "which we found to be more efficient in practice"; the
appendix adds the dense-array variant that trades s-clique-proportional
space for full work-efficiency.  This ablation quantifies that choice on
our surrogates: identical outputs, different bucketing work.
"""

from repro.core.config import NucleusConfig
from repro.experiments.harness import format_table, run_arb
from repro.graph.datasets import load_dataset

GRAPHS = ["dblp", "skitter"]
BACKENDS = ["julienne", "fibonacci", "dense"]


def test_ablation_bucketing(benchmark):
    def run():
        rows = []
        for name in GRAPHS:
            graph = load_dataset(name)
            outputs = {}
            for backend in BACKENDS:
                cfg = NucleusConfig(bucketing=backend)
                arb = run_arb(graph, 2, 3, cfg, name)
                outputs[backend] = arb.result.max_core
                rows.append({
                    "graph": name, "backend": backend,
                    "T60": arb.record["T60"],
                    "bucket_work": arb.result.tracker.phases["peel"].work
                    + arb.result.tracker.phases["bucket"].work,
                    "max_core": arb.result.max_core,
                })
            assert len(set(outputs.values())) == 1  # identical answers
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(rows, ["graph", "backend", "T60", "bucket_work",
                              "max_core"],
                       "Bucketing backend ablation, (2,3)"))
    # Julienne (the paper's practical choice) is never the slowest option.
    for name in GRAPHS:
        times = {row["backend"]: row["T60"] for row in rows
                 if row["graph"] == name}
        assert times["julienne"] <= 1.2 * min(times.values())
