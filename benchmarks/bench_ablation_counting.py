"""Ablation: ARB's clique-counting subroutine versus Sariyuce et al.'s.

Section 6.3 reports a subroutine-swap experiment: replacing ARB's
work-efficient (O(alpha)-oriented) clique counting with the subroutine
Sariyuce et al. use changes little on most graphs (median 1.03x) but up to
3.04x on the dense skewed ones.  Enumerating without a low-out-degree
orientation is equivalent to enumerating under an *arbitrary* acyclic
orientation, so the swap is the ``orientation="identity"`` configuration
(vertex-id order: rMAT hubs sit at low ids, which is the adversarial
placement).

The counting-phase work ratio isolates the subroutine; end to end, the
orientation's own cost partly offsets the gain on small graphs --- exactly
why the paper's median is only 1.03x.
"""

from repro.core.config import NucleusConfig
from repro.experiments.harness import format_table, run_arb
from repro.graph.datasets import load_dataset

#: Ordered small -> large/dense; the subroutine gap must grow along it.
GRAPHS = ["amazon", "dblp", "skitter", "orkut"]


def test_ablation_counting_subroutine(benchmark):
    def run():
        rows = []
        for name in GRAPHS:
            graph = load_dataset(name)
            efficient = run_arb(
                graph, 3, 4,
                NucleusConfig(orientation="goodrich_pszona", relabel=False),
                name)
            arbitrary = run_arb(
                graph, 3, 4,
                NucleusConfig(orientation="identity", relabel=False), name)
            assert efficient.result.as_dict() == arbitrary.result.as_dict()
            count_eff = efficient.result.tracker.phases["count_s"].work
            count_arb = arbitrary.result.tracker.phases["count_s"].work
            rows.append({
                "graph": name,
                "counting_work_ratio": count_arb / count_eff,
                "end_to_end_ratio": (arbitrary.record["T60"]
                                     / efficient.record["T60"]),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        rows, ["graph", "counting_work_ratio", "end_to_end_ratio"],
        "Counting-subroutine ablation, (3,4): arbitrary order vs O(alpha) "
        "orientation (ratios > 1 favor the efficient subroutine)"))
    ratios = [row["counting_work_ratio"] for row in rows]
    # The enumeration penalty of the arbitrary order grows with density
    # and skew, and is substantial on the densest surrogate...
    assert ratios[-1] > 1.1
    assert ratios[-1] > ratios[0]
    # ...while end to end the difference stays modest on small graphs
    # (the paper's median across its suite is just 1.03x).
    assert all(row["end_to_end_ratio"] < 2.0 for row in rows)