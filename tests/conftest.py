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


def _append_nucleus(payload, node_id, parent_id, level, members):
    for key, value in (("node_id", node_id), ("parent_id", parent_id),
                       ("level", level), ("size", len(members))):
        payload[key].append(value)
    payload["members"].extend(v for clique in members for v in clique)


def _as_per_record(payload):
    """Rewrite the payload in the per-record layout that preceded
    format 2."""
    payload.clear()
    payload.update({"r": 2, "s": 3, "nuclei": [
        {"node_id": 0, "parent_id": -1, "level": 1,
         "members": [[0, 1], [0, 2], [1, 2]]},
        {"node_id": 1, "parent_id": 0, "level": 2, "members": [[0, 1]]}]})


def _wrap_size_sum(payload):
    """Sizes whose sum, taken in int64, wraps round to the true 4."""
    _append_nucleus(payload, 2, 1, 3, [])
    payload["size"] = [2**63 - 1, 2**63 - 1, 6]


def _set(key, index, value):
    """A defect writing ``value`` at ``payload[key][index]``."""
    def breaker(payload):
        payload[key][index] = value
    return breaker


_NO_FORMAT = "hierarchy payload: missing key 'format' (expected format 2)"

#: One load-time rule of ``payload_to_hierarchy`` each: how to break the
#: valid payload of :func:`hierarchy_payload`, and the exact error that
#: rule raises.
HIERARCHY_DEFECTS = {
    "repeated-node-id": (
        lambda p: _append_nucleus(p, 0, -1, 2, [[0, 1]]),
        "hierarchy record 2: node id 0 is not unique"),
    "dangling-parent": (
        _set("parent_id", 1, 99),
        "hierarchy record 1: parent_id 99 names no node below level 2"),
    "parent-above": (
        _set("parent_id", 0, 1),
        "hierarchy record 0: parent_id 1 names no node below level 1"),
    "wide-member": (
        lambda p: p["members"].append(2),
        "hierarchy payload: members holds 9 vertex ids, not r * sum(size) "
        "= 8"),
    "size-sum-beyond-int64": (
        _wrap_size_sum,
        f"hierarchy payload: members holds 8 vertex ids, not r * sum(size) "
        f"= {2 * (2**64 + 4)}"),
    "missing-members": (
        lambda p: p.pop("members"),
        "hierarchy payload: missing key 'members'"),
    "r-not-below-s": (
        lambda p: p.update(s=2),
        "hierarchy payload: need integers 1 <= r < s, got r=2, s=2"),
    "missing-r": (
        lambda p: p.pop("r"),
        "hierarchy payload: missing key 'r'"),
    "missing-format": (lambda p: p.pop("format"), _NO_FORMAT),
    "per-record-layout": (_as_per_record, _NO_FORMAT),
    "unsupported-format": (
        lambda p: p.update(format=1),
        "hierarchy payload: unsupported format 1 (expected format 2)"),
    "ragged-columns": (
        lambda p: p["level"].append(3),
        "hierarchy payload: columns node_id (2), parent_id (2), level (3), "
        "size (2) differ in length"),
    "negative-size": (
        _set("size", 1, -1),
        "hierarchy record 1: size -1 is negative"),
    "column-not-a-list": (
        lambda p: p.update(size=3),
        "hierarchy payload: size is not a list"),
    "float-id": (
        _set("node_id", 1, 1.5),
        "hierarchy record 1: node_id 1.5 is not an integer"),
    "string-id": (
        _set("members", 3, "2"),
        "hierarchy payload: members[3] '2' is not an integer"),
    "nested-id": (
        _set("parent_id", 1, [0]),
        "hierarchy record 1: parent_id [0] is not an integer"),
    "id-beyond-int64": (
        _set("members", 0, 2**64),
        "hierarchy payload: members holds an integer outside the int64 "
        "range"),
}


@pytest.fixture
def hierarchy_payload():
    """A valid (2,3) hierarchy payload: a triangle at level 1 whose edge
    (0, 1) alone reaches level 2."""
    return {"format": 2, "r": 2, "s": 3, "node_id": [0, 1],
            "parent_id": [-1, 0], "level": [1, 2], "size": [3, 1],
            "members": [0, 1, 0, 2, 1, 2, 0, 1]}


@pytest.fixture(params=sorted(HIERARCHY_DEFECTS))
def malformed_hierarchy(request, hierarchy_payload):
    """``(payload, message)``: ``hierarchy_payload`` broken by one of
    HIERARCHY_DEFECTS, and the error loading it must raise."""
    breaker, message = HIERARCHY_DEFECTS[request.param]
    breaker(hierarchy_payload)
    return hierarchy_payload, message
