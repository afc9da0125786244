"""Determinism: every component must be bit-for-bit reproducible.

The whole evaluation pipeline (datasets, decompositions, simulated times)
is advertised as deterministic; these tests pin that down, since hidden
nondeterminism (set iteration order, unseeded RNG) would make EXPERIMENTS
tables unreproducible.
"""

import numpy as np

from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.experiments.harness import run_arb
from repro.graph.datasets import DATASETS
from repro.graph.generators import planted_partition, rmat_graph
from repro.machine.cache import CacheSimulator
from repro.parallel.runtime import CostTracker


def test_decomposition_runs_identical():
    graph = planted_partition(60, 5, 0.5, 0.02, seed=3)
    first_tracker, second_tracker = CostTracker(), CostTracker()
    first = arb_nucleus_decomp(graph, 2, 3, tracker=first_tracker)
    second = arb_nucleus_decomp(graph, 2, 3, tracker=second_tracker)
    assert first.as_dict() == second.as_dict()
    assert first_tracker.work == second_tracker.work
    assert first_tracker.span == second_tracker.span
    assert first_tracker.rounds == second_tracker.rounds
    assert first_tracker.total.contention == second_tracker.total.contention


def test_dataset_generation_identical():
    for spec in DATASETS.values():
        a, b = spec.generate(), spec.generate()
        assert np.array_equal(a.edges(), b.edges()), spec.name


def test_simulated_times_identical():
    graph = rmat_graph(7, 6, seed=2)
    a = run_arb(graph, 2, 3, NucleusConfig.optimal(2, 3), "g")
    b = run_arb(graph, 2, 3, NucleusConfig.optimal(2, 3), "g")
    assert a.record["T60"] == b.record["T60"]
    assert a.record["T1"] == b.record["T1"]


def test_cache_simulation_identical():
    graph = rmat_graph(6, 5, seed=4)
    results = []
    for _ in range(2):
        run = run_arb(graph, 2, 3, NucleusConfig(), "g",
                      cache=CacheSimulator())
        results.append((run.record["cache_misses"],
                        run.record["cache_accesses"]))
    assert results[0] == results[1]


def test_all_aggregators_deterministic():
    graph = planted_partition(50, 4, 0.5, 0.02, seed=9)
    for aggregation in ("array", "list_buffer", "hash"):
        cfg = NucleusConfig(aggregation=aggregation)
        runs = [arb_nucleus_decomp(graph, 3, 4, cfg) for _ in range(2)]
        assert runs[0].tracker.summary() == runs[1].tracker.summary()
