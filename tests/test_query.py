"""Tests for the nucleus query service and hierarchy serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (HierarchyIndex, hierarchy_to_payload,
                            load_hierarchy_json, nucleus_hierarchy,
                            payload_to_hierarchy, save_hierarchy_json)
from repro.core.decomp import arb_nucleus_decomp
from repro.graph.csr import CSRGraph
from repro.graph.generators import (erdos_renyi, figure1_graph,
                                    planted_partition)


@pytest.fixture(scope="module")
def fig1():
    graph = figure1_graph()
    hierarchy = nucleus_hierarchy(graph, arb_nucleus_decomp(graph, 3, 4))
    return hierarchy, HierarchyIndex(hierarchy)


@pytest.fixture(scope="module")
def community():
    graph = planted_partition(40, 4, 0.5, 0.02, seed=2)
    hierarchy = nucleus_hierarchy(graph, arb_nucleus_decomp(graph, 2, 3))
    return hierarchy, HierarchyIndex(hierarchy)


class TestBasicLookups:
    def test_node_table(self, fig1):
        hierarchy, index = fig1
        for nucleus in hierarchy.nuclei:
            assert index.node(nucleus.node_id) is nucleus
        with pytest.raises(KeyError):
            index.node(len(hierarchy) + 7)

    def test_levels(self, fig1):
        _, index = fig1
        assert index.levels() == [0, 1, 2]

    def test_children_invert_parent_links(self, community):
        hierarchy, index = community
        for nucleus in hierarchy.nuclei:
            for child in index.children_of(nucleus.node_id):
                assert child.parent_id == nucleus.node_id
        child_ids = {c.node_id for n in hierarchy.nuclei
                     for c in index.children_of(n.node_id)}
        linked = {n.node_id for n in hierarchy.nuclei if n.parent_id != -1}
        assert child_ids == linked


class TestQueryShapes:
    """The three ROADMAP query shapes, against the flat-scan answers."""

    def test_at_level_matches_scan(self, community):
        hierarchy, index = community
        for level in index.levels():
            scan = [n.node_id for n in hierarchy.nuclei
                    if n.level == level]
            assert [n.node_id for n in index.at_level(level)] == scan
        assert index.at_level(10**6) == []

    def test_nucleus_of_vertex(self, fig1):
        _, index = fig1
        # Figure 1: the level-2 nucleus is the 5-clique {a..e} = {0..4}.
        for vertex in range(5):
            found = index.nucleus_of_vertex(vertex, 2)
            assert len(found) == 1
            assert found[0].vertices == {0, 1, 2, 3, 4}
        assert index.nucleus_of_vertex(6, 2) == []   # g never reaches 2
        assert index.nucleus_of_vertex(99, 0) == []  # not in any clique

    def test_nucleus_of_vertex_matches_scan(self, community):
        hierarchy, index = community
        for vertex in range(0, 40, 7):
            for level in index.levels():
                scan = [n.node_id for n in hierarchy.nuclei
                        if n.level == level and vertex in n.vertices]
                got = [n.node_id
                       for n in index.nucleus_of_vertex(vertex, level)]
                assert got == scan

    def test_densest_containing_edge(self, fig1):
        _, index = fig1
        # a--b sit together in the 5-clique: level 2 is the densest.
        nucleus = index.densest_containing_edge(0, 1)
        assert nucleus.level == 2
        assert nucleus.vertices == {0, 1, 2, 3, 4}
        # f is only ever in the 13-triangle component, g only in cdg's
        # isolated nucleus: no shared nucleus at all.
        assert index.densest_containing_edge(5, 6) is None
        # c and g share only the level-0 cdg triangle.
        shared = index.densest_containing_edge(2, 6)
        assert shared.level == 0
        assert shared.vertices == {2, 3, 6}

    def test_densest_containing_edge_matches_scan(self, community):
        hierarchy, index = community
        for u, v in ((0, 1), (3, 17), (5, 38)):
            best = index.densest_containing_edge(u, v)
            scan = [n for n in hierarchy.nuclei
                    if u in n.vertices and v in n.vertices]
            if not scan:
                assert best is None
                continue
            top = max(n.level for n in scan)
            assert best.level == top
            assert best.node_id in {n.node_id for n in scan
                                    if n.level == top}

    def test_densest_containing_vertex(self, fig1):
        _, index = fig1
        assert index.densest_containing_vertex(0).level == 2
        assert index.densest_containing_vertex(6).level == 0
        assert index.densest_containing_vertex(99) is None


class TestHierarchySerialization:
    def test_payload_round_trip(self, fig1):
        hierarchy, _ = fig1
        loaded = payload_to_hierarchy(hierarchy_to_payload(hierarchy))
        assert loaded.r == hierarchy.r and loaded.s == hierarchy.s
        assert [(n.level, n.node_id, n.parent_id, n.members)
                for n in loaded.nuclei] == \
            [(n.level, n.node_id, n.parent_id, n.members)
             for n in hierarchy.nuclei]

    def test_json_round_trip(self, community, tmp_path):
        hierarchy, index = community
        path = tmp_path / "hierarchy.json"
        save_hierarchy_json(hierarchy, path)
        loaded = load_hierarchy_json(path)
        assert [(n.level, n.node_id, n.parent_id, n.members)
                for n in loaded.nuclei] == \
            [(n.level, n.node_id, n.parent_id, n.members)
             for n in hierarchy.nuclei]
        # The query service answers identically over the loaded copy.
        reloaded = HierarchyIndex(loaded)
        assert reloaded.levels() == index.levels()
        for level in index.levels():
            assert [n.node_id for n in reloaded.at_level(level)] == \
                [n.node_id for n in index.at_level(level)]

    @settings(max_examples=60, deadline=None)
    @given(graph=st.one_of(
        st.builds(CSRGraph.from_edges, st.integers(0, 6), st.just([])),
        st.builds(erdos_renyi, st.integers(2, 16), st.integers(0, 45),
                  st.integers(0, 2**16)),
        st.builds(planted_partition, st.integers(2, 24), st.integers(1, 4),
                  st.just(0.7), st.just(0.05), st.integers(0, 2**16))),
        rs=st.sampled_from([(1, 2), (2, 3), (3, 4)]))
    def test_json_round_trip_property(self, graph, rs):
        """Through JSON text and back, a hierarchy is equal field by field
        (``repr`` too, so every id stays a plain int and every member a
        tuple), and an index over the copy answers every query alike."""
        hierarchy = nucleus_hierarchy(graph, arb_nucleus_decomp(graph, *rs))
        copy = payload_to_hierarchy(json.loads(json.dumps(
            hierarchy_to_payload(hierarchy))))
        assert copy == hierarchy
        assert repr(copy) == repr(hierarchy)
        assert _every_answer(HierarchyIndex(copy), graph.n) == \
            _every_answer(HierarchyIndex(hierarchy), graph.n)

    def test_layout(self, hierarchy_payload):
        payload = hierarchy_to_payload(payload_to_hierarchy(
            hierarchy_payload))
        assert payload == hierarchy_payload
        assert list(payload) == ["format", "r", "s", "node_id", "parent_id",
                                 "level", "size", "members"]
        assert [len(payload[key]) for key in
                ("node_id", "parent_id", "level", "size")] == [2] * 4
        assert len(payload["members"]) == \
            payload["r"] * sum(payload["size"]) == 8

    def test_valid_small_payload_loads(self, hierarchy_payload):
        loaded = payload_to_hierarchy(hierarchy_payload)
        assert [(n.node_id, n.parent_id, n.level) for n in loaded.nuclei] \
            == [(0, -1, 1), (1, 0, 2)]
        assert [n.node_id for n in loaded.roots()] == [0]

    def test_malformed_payload_rejected(self, malformed_hierarchy):
        payload, message = malformed_hierarchy
        with pytest.raises(ValueError) as info:
            payload_to_hierarchy(payload)
        assert str(info.value) == message


def _every_answer(index: HierarchyIndex, n: int) -> list:
    """Node ids answering each query kind, over every vertex and vertex
    pair below ``n + 1`` and every level (plus one absent level)."""
    def ids(answer):
        if isinstance(answer, list):
            return [nucleus.node_id for nucleus in answer]
        return None if answer is None else answer.node_id

    levels = index.levels()
    probe_levels = levels + [max(levels, default=0) + 1]
    nodes = [nucleus.node_id for nucleus in index.hierarchy.nuclei]
    vertices = range(n + 1)
    return [levels,
            [ids(index.at_level(k)) for k in probe_levels],
            [ids(index.node(i)) for i in nodes],
            [ids(index.children_of(i)) for i in nodes],
            [ids(index.nucleus_of_vertex(v, k))
             for v in vertices for k in probe_levels],
            [ids(index.densest_containing_vertex(v)) for v in vertices],
            [ids(index.densest_containing_edge(u, v))
             for u in vertices for v in vertices if u < v]]
