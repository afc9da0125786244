"""Ablation: fractional (-1/a) versus representative update arithmetic.

The paper's UPDATE-FUNC atomically subtracts 1/a per discovery so that
simultaneously-peeled r-cliques jointly subtract exactly 1 per destroyed
s-clique.  The exact-integer alternative (only the least peeling r-clique
subtracts 1) does the same discoveries but fewer atomic count updates.
Outputs must be identical; the ablation shows the accounting difference.
"""

from repro.core.config import NucleusConfig
from repro.experiments.harness import format_table, run_arb
from repro.graph.datasets import load_dataset

GRAPHS = ["dblp", "skitter"]


def test_ablation_update_arithmetic(benchmark):
    def run():
        rows = []
        for name in GRAPHS:
            graph = load_dataset(name)
            results = {}
            for mode in ("fractional", "representative"):
                cfg = NucleusConfig(update_arithmetic=mode)
                arb = run_arb(graph, 3, 4, cfg, name)
                results[mode] = arb.result.as_dict()
                rows.append({
                    "graph": name, "mode": mode,
                    "atomics": arb.result.tracker.total.atomic_ops,
                    "T60": arb.record["T60"],
                })
            assert results["fractional"] == results["representative"]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(rows, ["graph", "mode", "atomics", "T60"],
                       "Update arithmetic ablation, (3,4)"))
    for name in GRAPHS:
        stats = {row["mode"]: row for row in rows if row["graph"] == name}
        # The representative mode performs no more atomic count updates.
        assert stats["representative"]["atomics"] <= \
            stats["fractional"]["atomics"]
