"""Tests for graph contraction (Section 5.6) and relabeling (Section 5.4)."""

import dataclasses

import numpy as np
import pytest

from repro.cliques.orient import orientation_rank
from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.core.verify import brute_force_nucleus
from repro.graph.contraction import ContractionManager, WorkingGraph
from repro.graph.generators import complete_graph, erdos_renyi
from repro.graph.relabel import relabel_by_rank
from repro.machine.cache import CacheSimulator
from repro.parallel.runtime import CostTracker


class TestWorkingGraph:
    def test_starts_as_views(self, fig1):
        w = WorkingGraph(fig1)
        assert list(w.neighbors(6)) == [2, 3]
        assert np.array_equal(w.lengths, fig1.degrees)
        assert np.array_equal(w.gather(np.arange(fig1.n)), fig1.targets)

    def test_compact_shrinks_slots_in_place(self, fig1):
        w = WorkingGraph(fig1)
        vertices = np.array([3, 0], dtype=np.int64)
        lists = w.gather(vertices)
        keep = np.isin(lists, [1, 2, 6])
        w.compact(vertices, keep)
        assert list(w.neighbors(3)) == [v for v in fig1.neighbors(3)
                                        if v in (1, 2, 6)]
        assert list(w.neighbors(0)) == [v for v in fig1.neighbors(0)
                                        if v in (1, 2, 6)]
        # Offsets never move, other vertices are untouched, and the
        # survivors sit at the front of their own slot.
        assert np.array_equal(w.offsets, fig1.offsets)
        assert list(w.neighbors(1)) == list(fig1.neighbors(1))
        start = int(fig1.offsets[0])
        assert list(w.targets[start:start + w.lengths[0]]) == \
            list(w.neighbors(0))

    def test_compact_does_not_touch_the_graph(self, fig1):
        before = fig1.targets.copy()
        w = WorkingGraph(fig1)
        w.compact(np.array([0]), np.zeros(fig1.degree(0), dtype=bool))
        assert w.lengths[0] == 0
        assert np.array_equal(fig1.targets, before)


class TestContractionManager:
    def test_does_not_fire_below_threshold(self, fig1):
        w = WorkingGraph(fig1)
        manager = ContractionManager(w)
        manager.note_peeled_edge(0, 1)
        assert not manager.maybe_contract(lambda u, v: True)

    def test_fires_after_enough_peels(self):
        g = complete_graph(8)
        w = WorkingGraph(g)
        manager = ContractionManager(w)
        peeled = set()
        for u, v in g.edges()[:2 * g.n + 1]:
            manager.note_peeled_edge(int(u), int(v))
            peeled.add((int(u), int(v)))
        fired = manager.maybe_contract(
            lambda u, v: ((u, v) if u < v else (v, u)) not in peeled)
        assert fired
        assert manager.contractions == 1

    def test_contraction_filters_dead_edges(self):
        g = complete_graph(6)
        w = WorkingGraph(g)
        manager = ContractionManager(w)
        # Peel every edge of vertex 0 (it loses all 5 = more than 1/4).
        for v in range(1, 6):
            manager.note_peeled_edge(0, v)
        for u, v in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]:
            manager.note_peeled_edge(u, v)
        dead = {(0, v) for v in range(1, 6)} | {
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)}
        manager.maybe_contract(lambda u, v: ((min(u, v), max(u, v))
                                             not in dead))
        assert w.lengths[0] == 0

    @pytest.mark.parametrize("edges", [
        [[0, 1], [1, 2], [0, 1], [2, 0], [5, 1]],
        np.zeros((0, 2), dtype=np.int64),
    ])
    def test_note_peeled_edges_matches_per_edge_calls(self, edges):
        """The batch tally (repeated vertices and edges, an empty batch)
        leaves the per-edge calls' counters."""
        g = complete_graph(6)
        managers = [ContractionManager(WorkingGraph(g)) for _ in range(2)]
        managers[0].note_peeled_edge(3, 4)
        managers[1].note_peeled_edges([[3, 4]])
        for u, v in np.asarray(edges).tolist():
            managers[0].note_peeled_edge(u, v)
        managers[1].note_peeled_edges(np.asarray(edges))
        assert managers[0]._peeled_since == managers[1]._peeled_since
        assert np.array_equal(managers[0]._lost_since,
                              managers[1]._lost_since)

    def test_charges_tracker(self):
        g = complete_graph(8)
        tracker = CostTracker()
        w = WorkingGraph(g)
        manager = ContractionManager(w, tracker)
        for u, v in g.edges()[:17]:
            manager.note_peeled_edge(int(u), int(v))
        manager.maybe_contract(lambda u, v: False)
        assert tracker.work >= g.n


class TestContractionInDecomposition:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_uncontracted(self, seed):
        g = erdos_renyi(50, 350, seed=seed)
        expected = brute_force_nucleus(g, 2, 3)
        cfg = NucleusConfig(contraction=True, aggregation="hash",
                            relabel=False)
        assert arb_nucleus_decomp(g, 2, 3, cfg).as_dict() == expected

    def test_contraction_happens_on_peel_heavy_graph(self, monkeypatch):
        g = erdos_renyi(40, 500, seed=9)  # dense: many peeled edges
        snapshots = _record_contractions(monkeypatch)
        cfg = NucleusConfig(contraction=True, aggregation="hash",
                            relabel=False)
        for reference in (True, False):
            tracker = CostTracker()
            tracker.reference = reference
            result = arb_nucleus_decomp(g, 2, 3, cfg, tracker=tracker)
            assert result.as_dict() == brute_force_nucleus(g, 2, 3)
            assert len(snapshots) == 5
            assert any(lost for _, _, lost in snapshots)
            snapshots.clear()


def _record_contractions(monkeypatch) -> list:
    """Spy on ``maybe_contract``: after every contraction that fired,
    record the working graph's live segments, the contraction's own
    charges, and how many adjacency entries it dropped."""
    snapshots = []
    original = ContractionManager.maybe_contract

    def counters(tracker):
        cache = tracker.cache
        return {**dataclasses.asdict(tracker.total),
                "accesses": cache.accesses if cache is not None else 0}

    def spy(self, *args, **kwargs):
        before = self.working.lengths.sum()
        totals = counters(self.tracker)
        fired = original(self, *args, **kwargs)
        if fired:
            after = counters(self.tracker)
            charged = {k: after[k] - totals[k] for k in after}
            live = [self.working.neighbors(v).tolist()
                    for v in range(self.working.n)]
            snapshots.append((live, charged,
                              int(before - self.working.lengths.sum())))
        return fired

    monkeypatch.setattr(ContractionManager, "maybe_contract", spy)
    return snapshots


class TestContractionBranchParity:
    """The scalar branch of ``maybe_contract`` (one ``edge_alive`` call
    per edge) and the batch branch (one ``edges_alive_many`` call) leave
    the same live neighbor segments and charge the same costs, cache
    misses included, after every contraction."""

    @pytest.mark.parametrize("seed", [9, 10])
    def test_branches_agree_after_every_contraction(self, monkeypatch,
                                                    seed):
        g = erdos_renyi(40, 500, seed=seed)
        cfg = NucleusConfig(contraction=True, aggregation="hash",
                            relabel=False)
        snapshots = _record_contractions(monkeypatch)
        runs = []
        for reference in (True, False):
            tracker = CostTracker()
            tracker.reference = reference
            tracker.cache = CacheSimulator(line_words=4, n_sets=16, ways=2)
            arb_nucleus_decomp(g, 2, 3, cfg, tracker=tracker)
            runs.append(list(snapshots))
            snapshots.clear()
        scalar, batch = runs
        assert len(scalar) >= 2
        assert scalar == batch
        assert all(charged["table_probes"] and charged["accesses"]
                   and charged["cache_misses"] for _, charged, _ in batch)


class TestRelabel:
    def test_round_trip(self, fig1):
        rank = orientation_rank(fig1, "degeneracy")
        relabeled, original_of = relabel_by_rank(fig1, rank)
        assert relabeled.m == fig1.m
        for u, v in relabeled.edges():
            assert fig1.has_edge(int(original_of[u]), int(original_of[v]))

    def test_identity_rank(self, fig1):
        relabeled, original_of = relabel_by_rank(fig1, np.arange(7))
        assert np.array_equal(relabeled.edges(), fig1.edges())
        assert list(original_of) == list(range(7))

    def test_decomposition_reports_original_ids(self, fig1):
        with_r = arb_nucleus_decomp(fig1, 3, 4, NucleusConfig(relabel=True))
        without = arb_nucleus_decomp(fig1, 3, 4, NucleusConfig(relabel=False))
        assert with_r.as_dict() == without.as_dict()
