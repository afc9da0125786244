"""Shared fixtures for the test suite."""

import pytest

from repro.graph.generators import (complete_graph, cycle_graph, erdos_renyi,
                                    figure1_graph, planted_partition,
                                    star_graph)


@pytest.fixture
def fig1():
    """The paper's Figure 1 example graph (7 vertices, 15 edges)."""
    return figure1_graph()


@pytest.fixture
def k6():
    return complete_graph(6)


@pytest.fixture
def community60():
    """A 60-vertex planted-partition graph rich in small cliques."""
    return planted_partition(60, 5, 0.5, 0.02, seed=3)


@pytest.fixture
def sparse100():
    """A sparse 100-vertex random graph."""
    return erdos_renyi(100, 180, seed=7)


@pytest.fixture
def ring12():
    return cycle_graph(12)


@pytest.fixture
def star9():
    return star_graph(9)


#: One load-time rule of ``payload_to_hierarchy`` each: how to break the
#: valid payload of :func:`malformed_hierarchy`.
HIERARCHY_DEFECTS = {
    "repeated-node-id": lambda p: p["nuclei"].append(
        {"node_id": 0, "parent_id": -1, "level": 2, "members": []}),
    "dangling-parent": lambda p: p["nuclei"][1].update(parent_id=99),
    "parent-above": lambda p: p["nuclei"][0].update(parent_id=1),
    "wide-member": lambda p: p["nuclei"][1].update(members=[[0, 1, 2]]),
    "missing-members": lambda p: p["nuclei"][1].pop("members"),
    "r-not-below-s": lambda p: p.update(s=2),
    "missing-r": lambda p: p.pop("r"),
}


@pytest.fixture
def hierarchy_payload():
    """A valid (2,3) hierarchy payload: a triangle at level 1 whose edge
    (0, 1) alone reaches level 2."""
    return {"r": 2, "s": 3, "nuclei": [
        {"node_id": 0, "parent_id": -1, "level": 1,
         "members": [[0, 1], [0, 2], [1, 2]]},
        {"node_id": 1, "parent_id": 0, "level": 2, "members": [[0, 1]]}]}


@pytest.fixture(params=sorted(HIERARCHY_DEFECTS))
def malformed_hierarchy(request, hierarchy_payload):
    """``hierarchy_payload`` broken by one of HIERARCHY_DEFECTS."""
    HIERARCHY_DEFECTS[request.param](hierarchy_payload)
    return hierarchy_payload
