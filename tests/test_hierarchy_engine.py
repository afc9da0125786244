"""Differential suite for the tracker-charged hierarchy engine.

``nucleus_hierarchy`` (batch kernel and scalar reference oracle) must
reproduce the post-hoc ``build_hierarchy`` oracle exactly --- same node
ids, parent links, levels and member sets --- and the two kernels must
charge the simulated machine bit-for-bit identically (the parity
contract ``PARLINT_PARITY`` registers for ``batch_levels``).  The engine
reads the decomposition's clique table, so every case runs on each of
the table's layouts.
"""

from dataclasses import replace

import pytest

import repro.cliques.orient as orient_mod
from repro.analysis.construct import nucleus_hierarchy
from repro.analysis.hierarchy import build_hierarchy
from repro.core.config import NucleusConfig
from repro.core.decomp import CoreReport, arb_nucleus_decomp
from repro.graph.csr import CSRGraph, DirectedGraph
from repro.graph.generators import (erdos_renyi, figure1_graph,
                                    planted_partition)
from repro.parallel.runtime import CostTracker


def dense_planted():
    return planted_partition(20, 2, 0.8, 0.1, seed=3)


CASES = [
    ("fig1-2-3", figure1_graph, 2, 3),
    ("fig1-3-4", figure1_graph, 3, 4),
    ("fig1-1-2", figure1_graph, 1, 2),
    ("planted-2-3", lambda: planted_partition(40, 4, 0.5, 0.02, seed=2),
     2, 3),
    ("er-2-3", lambda: erdos_renyi(60, 180, seed=5), 2, 3),
    ("er-3-4", lambda: erdos_renyi(60, 180, seed=5), 3, 4),
    ("dense-1-3", dense_planted, 1, 3),
    ("dense-2-4", dense_planted, 2, 4),
    ("dense-3-5", dense_planted, 3, 5),
    ("empty-2-3", lambda: CSRGraph.from_edges(0, []), 2, 3),
    ("edgeless-1-2", lambda: CSRGraph.from_edges(5, []), 1, 2),
]


def _flip_relabel(r, s):
    optimal = NucleusConfig.optimal(r, s)
    return replace(optimal, relabel=not optimal.relabel)


#: Clique-table layouts the hierarchy reads: the default (the bare case
#: id), the one-level table with its binary-search inverse map, the
#: default with relabeling flipped, and nested hash tables three levels
#: deep (``r`` levels when r < 3).
LAYOUTS = {
    "": lambda r, s: None,
    "unoptimized": lambda r, s: NucleusConfig.unoptimized(),
    "flip-relabel": _flip_relabel,
    "hash3": lambda r, s: replace(NucleusConfig.optimal(r, s), levels=3,
                                  table_style="hash"),
}

GRID = [pytest.param(name, make, r, s, layout,
                     id=f"{name}-{suffix}" if suffix else name)
        for name, make, r, s in CASES
        for suffix, layout in LAYOUTS.items()]


def reference_tracker():
    tracker = CostTracker()
    tracker.reference = True
    return tracker


def hierarchy_key(hierarchy):
    return [(n.level, n.node_id, n.parent_id, n.members)
            for n in hierarchy.nuclei]


@pytest.mark.parametrize("name,make,r,s,layout", GRID)
class TestEngineMatchesOracle:
    def test_scalar_engine(self, name, make, r, s, layout):
        graph = make()
        result = arb_nucleus_decomp(graph, r, s, layout(r, s))
        oracle = build_hierarchy(graph, result)
        engine = nucleus_hierarchy(graph, result, reference_tracker())
        assert hierarchy_key(engine) == hierarchy_key(oracle)

    def test_batch_engine(self, name, make, r, s, layout):
        graph = make()
        result = arb_nucleus_decomp(graph, r, s, layout(r, s))
        oracle = build_hierarchy(graph, result)
        engine = nucleus_hierarchy(graph, result)
        assert hierarchy_key(engine) == hierarchy_key(oracle)

    def test_charge_parity(self, name, make, r, s, layout):
        # The parity contract made concrete: identical simulated cost,
        # not just identical output.
        graph = make()
        result = arb_nucleus_decomp(graph, r, s, layout(r, s))
        scalar_tracker, batch_tracker = reference_tracker(), CostTracker()
        nucleus_hierarchy(graph, result, tracker=scalar_tracker)
        nucleus_hierarchy(graph, result, tracker=batch_tracker)
        assert scalar_tracker.summary() == batch_tracker.summary()


class TestEngineOptions:
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


class TestReadsTheDecomposition:
    """The hierarchy reuses the decomposition's orientation, clique table
    and cells instead of redoing them."""

    def test_no_second_orientation_or_dict(self, monkeypatch):
        graph = planted_partition(40, 4, 0.5, 0.02, seed=2)
        result = arb_nucleus_decomp(graph, 2, 3)
        expected = hierarchy_key(build_hierarchy(graph, result))

        def _forbidden(*_args, **_kwargs):
            raise AssertionError("the hierarchy redid the decomposition")

        monkeypatch.setattr(orient_mod, "orientation_rank", _forbidden)
        monkeypatch.setattr(DirectedGraph, "orient", _forbidden)
        monkeypatch.setattr(CoreReport, "as_dict", _forbidden)
        assert hierarchy_key(nucleus_hierarchy(graph, result)) == expected

    def test_table_stays_detached_and_calls_repeat(self):
        graph = figure1_graph()
        result = arb_nucleus_decomp(graph, 3, 4)
        first_tracker, second_tracker = CostTracker(), CostTracker()
        first = nucleus_hierarchy(graph, result, first_tracker)
        assert result._table.tracker is None
        second = nucleus_hierarchy(graph, result, second_tracker)
        assert hierarchy_key(first) == hierarchy_key(second)
        assert first_tracker.summary() == second_tracker.summary()

    def test_graph_of_another_size_rejected(self):
        result = arb_nucleus_decomp(figure1_graph(), 2, 3)
        with pytest.raises(ValueError, match="vertices"):
            nucleus_hierarchy(erdos_renyi(60, 180, seed=5), result)


class TestOracleRouting:
    """`build_hierarchy` lists through the frontier lister by default."""

    def test_oracle_uses_batch_lister(self, monkeypatch):
        graph = planted_partition(40, 4, 0.5, 0.02, seed=2)
        result = arb_nucleus_decomp(graph, 2, 3)
        expected = hierarchy_key(build_hierarchy(graph, result,
                                                 tracker=reference_tracker()))

        def _forbidden(*_args, **_kwargs):
            raise AssertionError("reference recursion ran by default")

        monkeypatch.setattr("repro.cliques.listing.list_cliques", _forbidden)
        assert hierarchy_key(build_hierarchy(graph, result)) == expected
