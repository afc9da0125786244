"""Tests for the O(alpha)-orientation algorithms."""

import types

import numpy as np
import pytest

import repro.cliques.orient as orient_mod
from repro.graph.csr import CSRGraph, DirectedGraph
from repro.graph.generators import (complete_graph, cycle_graph, erdos_renyi,
                                    planted_partition, star_graph)
from repro.cliques.orient import (arboricity_bounds, barenboim_elkin_order,
                                  degeneracy, degeneracy_order, degree_order,
                                  goodrich_pszona_order, orient,
                                  orientation_rank)
from repro.parallel.runtime import CostTracker, _log2

ALL_METHODS = ["degeneracy", "goodrich_pszona", "barenboim_elkin", "degree"]


@pytest.mark.parametrize("method", ALL_METHODS)
class TestPermutation:
    def test_rank_is_permutation(self, method, community60):
        rank = orientation_rank(community60, method)
        assert sorted(rank) == list(range(community60.n))

    def test_every_edge_oriented_once(self, method, community60):
        dg, rank = orient(community60, method)
        assert dg.m == community60.m


class TestDegeneracy:
    def test_complete_graph(self):
        assert degeneracy(complete_graph(7)) == 6

    def test_cycle(self):
        assert degeneracy(cycle_graph(10)) == 2

    def test_star_is_one(self):
        assert degeneracy(star_graph(20)) == 1

    def test_order_peels_low_degree_first(self):
        g = star_graph(5)
        rank = degeneracy_order(g)
        # The hub peels only once its degree drops to 1: at earliest it
        # ties with the final leaf, so it ranks in the last two positions.
        assert rank[0] >= g.n - 2

    def test_out_degree_bounded_by_degeneracy(self, community60):
        rank = degeneracy_order(community60)
        dg = DirectedGraph.orient(community60, rank)
        # Smallest-last order gives max out-degree exactly the degeneracy.
        d = dg.max_out_degree
        for v in range(community60.n):
            assert dg.out_degree(v) <= d


class TestParallelOrders:
    @pytest.mark.parametrize("order_fn", [goodrich_pszona_order,
                                          barenboim_elkin_order])
    def test_out_degree_near_degeneracy(self, order_fn, community60):
        d = degeneracy(community60)
        rank = order_fn(community60)
        dg = DirectedGraph.orient(community60, rank)
        # (2 + eps)-approximations of the optimal orientation.
        assert dg.max_out_degree <= max(4, 4 * d)

    def test_rounds_logarithmic(self):
        g = erdos_renyi(500, 2000, seed=5)
        tracker = CostTracker()
        goodrich_pszona_order(g, tracker=tracker)
        assert tracker.rounds <= 4 * int(np.ceil(np.log2(g.n))) + 4

    def test_barenboim_elkin_rounds(self):
        g = planted_partition(300, 10, 0.3, 0.01, seed=2)
        tracker = CostTracker()
        barenboim_elkin_order(g, tracker=tracker)
        assert tracker.rounds <= 4 * int(np.ceil(np.log2(g.n))) + 4


def _per_vertex_rounds(graph, choose_peel, tracker):
    """``_peeling_rounds_order`` with one decrement step per peeled
    vertex: the reference for its bulk decrement."""
    n = graph.n
    degree = graph.degrees.astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    rank = np.empty(n, dtype=np.int64)
    assigned = 0
    remaining = n
    rounds = 0
    while remaining > 0:
        rounds += 1
        peel = choose_peel(degree, alive, remaining)
        if peel.size == 0:
            peel = np.flatnonzero(alive)[np.argsort(
                degree[alive], kind="stable")[:max(1, remaining // 2)]]
        rank[peel] = assigned + np.arange(peel.size)
        assigned += peel.size
        alive[peel] = False
        remaining -= peel.size
        touched = 0
        for v in peel:
            nbrs = graph.neighbors(v)
            live = nbrs[alive[nbrs]]
            degree[live] -= 1
            touched += nbrs.size
        if tracker is not None:
            tracker.add_work(float(touched + n))
            tracker.add_span(_log2(n))
            tracker.add_round()
    return rank, rounds


def _isolated_tail(seed):
    """A random graph whose top five ids are isolated."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 90))
    edges = rng.integers(0, n - 5, size=(int(rng.integers(0, 3 * n)), 2))
    return CSRGraph.from_edges(n, edges)


class TestPeelingRoundsBulk:
    """The rounds' bulk degree decrement gives the ranks and charges of
    the per-vertex loop, through both public orders."""

    GRAPHS = {
        "community": lambda: planted_partition(60, 5, 0.5, 0.02, seed=3),
        "star": lambda: star_graph(12),
        "edgeless": lambda: CSRGraph.from_edges(7, []),
        "empty": lambda: CSRGraph.from_edges(0, []),
        **{f"isolated-{seed}": (lambda seed=seed: _isolated_tail(seed))
           for seed in range(4)},
    }

    @staticmethod
    def _both(monkeypatch, graph, order_fn, **kwargs):
        runs = []
        for rounds_fn in (_per_vertex_rounds,
                          orient_mod._peeling_rounds_order):
            monkeypatch.setattr(orient_mod, "_peeling_rounds_order",
                                rounds_fn)
            tracker = CostTracker()
            runs.append((order_fn(graph, tracker=tracker, **kwargs),
                         tracker))
        return runs

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("order_fn,epsilon", [
        (goodrich_pszona_order, 1.0), (goodrich_pszona_order, 0.25),
        (barenboim_elkin_order, 1.0),
        # A negative epsilon leaves ``choose`` empty whenever edges
        # remain, so those rounds take the stall guard.
        (barenboim_elkin_order, -2.5)])
    def test_matches_per_vertex_loop(self, monkeypatch, name, order_fn,
                                     epsilon):
        graph = self.GRAPHS[name]()
        (expected, reference), (got, bulk) = self._both(
            monkeypatch, graph, order_fn, epsilon=epsilon)
        assert np.array_equal(got, expected)
        assert bulk.total == reference.total
        assert (bulk.total.work, bulk.span, bulk.rounds) == \
            (reference.total.work, reference.span, reference.rounds)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_empty_choose_takes_the_guard(self, name):
        """A chooser that never picks anything: every round peels the
        lower-degree half of the survivors."""
        graph = self.GRAPHS[name]()

        def never(degree, alive, remaining):
            return np.empty(0, dtype=np.int64)

        trackers = [CostTracker(), CostTracker()]
        expected = _per_vertex_rounds(graph, never, trackers[0])
        got = orient_mod._peeling_rounds_order(graph, never, trackers[1])
        assert np.array_equal(got[0], expected[0])
        assert got[1] == expected[1]
        assert trackers[1].total == trackers[0].total
        assert trackers[1].span == trackers[0].span


class TestDegreeOrder:
    def test_sorted_by_degree(self, star9):
        rank = degree_order(star9)
        assert rank[0] == star9.n - 1  # the hub has max degree


class TestIdentityOrder:
    def test_is_identity(self, community60):
        from repro.cliques.orient import identity_order
        assert list(identity_order(community60)) == list(range(community60.n))

    def test_looser_than_degeneracy_on_skewed_graph(self):
        """Identity order gives hubs (low rMAT ids) huge out-degrees ---
        the inefficiency of counting without an O(alpha) orientation."""
        from repro.cliques.orient import identity_order
        from repro.graph.generators import rmat_graph
        g = rmat_graph(9, 8, seed=1)
        loose = DirectedGraph.orient(g, identity_order(g)).max_out_degree
        tight = DirectedGraph.orient(g, degeneracy_order(g)).max_out_degree
        assert loose > 2 * tight


class TestArboricity:
    def test_bounds_order(self, community60):
        lower, upper = arboricity_bounds(community60)
        assert lower <= upper

    def test_complete_graph_bounds(self):
        lower, upper = arboricity_bounds(complete_graph(10))
        # alpha(K10) = 5; degeneracy = 9.
        assert lower == pytest.approx(45 / 9)
        assert upper == 9


def test_unknown_method_rejected(community60):
    with pytest.raises(ValueError):
        orientation_rank(community60, "bogus")


def test_submodule_import_binds_the_module():
    """``repro.cliques`` does not re-export the function ``orient``, so a
    plain import of the submodule binds the module, whose attributes a
    test can patch."""
    assert isinstance(orient_mod, types.ModuleType)
    assert orient_mod.__name__ == "repro.cliques.orient"
    assert orient_mod.orient is orient
