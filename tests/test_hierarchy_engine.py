"""Differential suite for the tracker-charged hierarchy engine.

``nucleus_hierarchy`` (batch kernel and scalar reference oracle) must
reproduce the post-hoc ``build_hierarchy`` oracle exactly --- same node
ids, parent links, levels and member sets --- and the two kernels must
charge the simulated machine bit-for-bit identically (the PAR007 parity
contract for ``batch_levels``).
"""

import pytest

from repro.analysis.construct import nucleus_hierarchy
from repro.analysis.hierarchy import build_hierarchy
from repro.cliques.listing import collect_cliques
from repro.cliques.orient import orient
from repro.core.decomp import arb_nucleus_decomp
from repro.graph.generators import (erdos_renyi, figure1_graph,
                                    planted_partition)
from repro.parallel.runtime import CostTracker

CASES = [
    ("fig1-2-3", figure1_graph, 2, 3),
    ("fig1-3-4", figure1_graph, 3, 4),
    ("fig1-1-2", figure1_graph, 1, 2),
    ("planted-2-3", lambda: planted_partition(40, 4, 0.5, 0.02, seed=2),
     2, 3),
    ("er-2-3", lambda: erdos_renyi(60, 180, seed=5), 2, 3),
    ("er-3-4", lambda: erdos_renyi(60, 180, seed=5), 3, 4),
]


def reference_tracker():
    tracker = CostTracker()
    tracker.reference = True
    return tracker


def hierarchy_key(hierarchy):
    return [(n.level, n.node_id, n.parent_id, n.members)
            for n in hierarchy.nuclei]


@pytest.mark.parametrize("name,make,r,s", CASES,
                         ids=[c[0] for c in CASES])
class TestEngineMatchesOracle:
    def test_scalar_engine(self, name, make, r, s):
        graph = make()
        result = arb_nucleus_decomp(graph, r, s)
        oracle = build_hierarchy(graph, result)
        engine = nucleus_hierarchy(graph, result, reference_tracker())
        assert hierarchy_key(engine) == hierarchy_key(oracle)

    def test_batch_engine(self, name, make, r, s):
        graph = make()
        result = arb_nucleus_decomp(graph, r, s)
        oracle = build_hierarchy(graph, result)
        engine = nucleus_hierarchy(graph, result)
        assert hierarchy_key(engine) == hierarchy_key(oracle)

    def test_charge_parity(self, name, make, r, s):
        # The PAR007 contract made concrete: identical simulated cost,
        # not just identical output.
        graph = make()
        result = arb_nucleus_decomp(graph, r, s)
        scalar_tracker, batch_tracker = reference_tracker(), CostTracker()
        nucleus_hierarchy(graph, result, tracker=scalar_tracker)
        nucleus_hierarchy(graph, result, tracker=batch_tracker)
        assert scalar_tracker.summary() == batch_tracker.summary()


class TestEngineOptions:
    def test_precomputed_s_cliques(self):
        graph = figure1_graph()
        result = arb_nucleus_decomp(graph, 2, 3)
        dg, _ = orient(graph, "degeneracy")
        s_cliques = collect_cliques(dg, 3)
        direct = nucleus_hierarchy(graph, result)
        provided = nucleus_hierarchy(graph, result, s_cliques=s_cliques)
        assert hierarchy_key(direct) == hierarchy_key(provided)

    def test_listing_engine_is_cosmetic(self):
        """The reference lister and the frontier lister give the same
        hierarchy and the same hier_list charges."""
        graph = planted_partition(40, 4, 0.5, 0.02, seed=2)
        result = arb_nucleus_decomp(graph, 2, 3)
        t_scalar, t_batch = reference_tracker(), CostTracker()
        scalar_list = nucleus_hierarchy(graph, result, t_scalar)
        batch_list = nucleus_hierarchy(graph, result, t_batch)
        assert hierarchy_key(scalar_list) == hierarchy_key(batch_list)
        assert t_scalar.phases["hier_list"] == t_batch.phases["hier_list"]

    def test_unknown_engine_rejected(self):
        """No keyword selects a kernel implementation."""
        graph = figure1_graph()
        result = arb_nucleus_decomp(graph, 2, 3)
        with pytest.raises(TypeError):
            nucleus_hierarchy(graph, result, engine="scalar")

    def test_charges_are_recorded_in_phases(self):
        tracker = CostTracker()
        graph = planted_partition(40, 4, 0.5, 0.02, seed=2)
        result = arb_nucleus_decomp(graph, 2, 3)
        nucleus_hierarchy(graph, result, tracker=tracker)
        assert {"hier_list", "hier_levels", "hier_emit"} <= \
            set(tracker.phases)
        assert tracker.work > 0
        assert tracker.rounds > 0


class TestOracleRouting:
    """`build_hierarchy` lists through the frontier lister by default."""

    def test_oracle_accepts_precomputed_cliques(self):
        graph = figure1_graph()
        result = arb_nucleus_decomp(graph, 2, 3)
        dg, _ = orient(graph, "degeneracy")
        s_cliques = collect_cliques(dg, 3)
        assert hierarchy_key(build_hierarchy(graph, result)) == \
            hierarchy_key(build_hierarchy(graph, result,
                                          s_cliques=s_cliques))

    def test_oracle_uses_batch_lister(self, monkeypatch):
        graph = planted_partition(40, 4, 0.5, 0.02, seed=2)
        result = arb_nucleus_decomp(graph, 2, 3)
        expected = hierarchy_key(build_hierarchy(graph, result,
                                                 tracker=reference_tracker()))

        def _forbidden(*_args, **_kwargs):
            raise AssertionError("reference recursion ran by default")

        monkeypatch.setattr("repro.cliques.listing.list_cliques", _forbidden)
        assert hierarchy_key(build_hierarchy(graph, result)) == expected
