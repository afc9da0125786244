"""Connectivity-refined nucleus hierarchy (the Sariyuce--Pinar notion).

The paper computes (r,s)-clique-core *numbers* and notes (Section 3,
footnote 2) that the original nucleus definition additionally requires the
r-cliques of a nucleus to be *connected through s-cliques*; partitioning
each level into connected nuclei is the hierarchy-construction problem of
Sariyuce and Pinar [54], which the paper scopes out of its algorithm.

This module provides that refinement as a post-processing step on top of
ARB-NUCLEUS-DECOMP's output: for each level c, the r-cliques with core
>= c are grouped by s-clique connectivity (two r-cliques are adjacent if
some surviving s-clique contains both, where an s-clique survives if all
its r-cliques have core >= c).  The connected groups are exactly the
c-(r,s) nuclei, and nesting across levels yields the hierarchy forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from ..cliques.listing import collect_cliques
from ..cliques.orient import orient
from ..core.decomp import NucleusResult
from ..graph.csr import CSRGraph
from ..parallel.runtime import CostTracker
from ..parallel.unionfind import UnionFind


@dataclass
class Nucleus:
    """One connected c-(r,s) nucleus."""

    level: int
    members: tuple  # r-cliques (sorted vertex tuples), sorted
    node_id: int = -1
    parent_id: int = -1  # enclosing nucleus at the next-lower level

    @property
    def vertices(self) -> set[int]:
        return {v for clique in self.members for v in clique}

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class NucleusHierarchy:
    """All connected nuclei across levels, with containment links."""

    r: int
    s: int
    nuclei: list[Nucleus] = field(default_factory=list)

    def at_level(self, level: int) -> list[Nucleus]:
        return [nucleus for nucleus in self.nuclei
                if nucleus.level == level]

    def children_of(self, node_id: int) -> list[Nucleus]:
        return [nucleus for nucleus in self.nuclei
                if nucleus.parent_id == node_id]

    def roots(self) -> list[Nucleus]:
        return [nucleus for nucleus in self.nuclei
                if nucleus.parent_id == -1]

    def leaves(self) -> list[Nucleus]:
        with_children = {nucleus.parent_id for nucleus in self.nuclei}
        return [nucleus for nucleus in self.nuclei
                if nucleus.node_id not in with_children]

    def __len__(self) -> int:
        return len(self.nuclei)


def build_hierarchy(graph: CSRGraph, result: NucleusResult,
                    method: str = "union_find",
                    tracker: CostTracker | None = None) -> NucleusHierarchy:
    """Refine a decomposition into the connected-nucleus hierarchy.

    Enumerates the graph's s-cliques once, then for each core level groups
    the surviving r-cliques that share a surviving s-clique, using either
    serial ``"union_find"`` or the parallel ``"shiloach_vishkin"``
    hook-and-compress connectivity.  Suitable for the graph sizes this
    reproduction targets (it materializes the s-clique list, the
    space/connectivity work the paper's footnote 2 refers to).

    The s-clique enumeration runs the frontier lister (its reference
    recursion when the tracker asks for it).  This per-level rescan is
    the differential *oracle* for the level-batched engine in
    :mod:`repro.analysis.construct`, which is what production callers
    should use.
    """
    if method not in ("union_find", "shiloach_vishkin"):
        raise ValueError("method must be 'union_find' or "
                         "'shiloach_vishkin'")
    r, s = result.r, result.s
    cores = result.as_dict()
    cliques = sorted(cores)
    index = {clique: i for i, clique in enumerate(cliques)}
    dg, _ = orient(graph, "degeneracy", tracker)
    s_cliques = [tuple(sorted(int(x) for x in row))
                 for row in collect_cliques(dg, s, tracker)]
    s_members = [[index[sub] for sub in combinations(big, r)]
                 for big in s_cliques]

    hierarchy = NucleusHierarchy(r, s)
    levels = sorted({core for core in cores.values()})
    #: r-clique index -> node id of its nucleus at the previous level.
    previous_node: dict[int, int] = {}
    next_id = 0
    for level in levels:
        survivor = [cores[clique] >= level for clique in cliques]
        surviving_groups = [members for members in s_members
                            if all(survivor[i] for i in members)]
        groups = _group_survivors(len(cliques), survivor, surviving_groups,
                                  method, tracker)
        current_node: dict[int, int] = {}
        for group in groups.values():
            members = tuple(cliques[i] for i in sorted(group))
            parent = previous_node.get(group[0], -1)
            nucleus = Nucleus(level=level, members=members,
                              node_id=next_id, parent_id=parent)
            hierarchy.nuclei.append(nucleus)
            for i in group:
                current_node[i] = next_id
            next_id += 1
        previous_node = current_node
    return hierarchy


def _group_survivors(n: int, survivor: list[bool], surviving_groups,
                     method: str,
                     tracker: CostTracker | None = None
                     ) -> dict[int, list[int]]:
    """Partition the surviving r-clique ids into connected groups."""
    groups: dict[int, list[int]] = {}
    if method == "shiloach_vishkin":
        from ..parallel.connectivity import components_of_sets
        labels = components_of_sets(n, surviving_groups, tracker)
        for i, alive in enumerate(survivor):
            if alive:
                groups.setdefault(int(labels[i]), []).append(i)
        return groups
    uf = UnionFind(n, tracker)
    for members in surviving_groups:
        first = members[0]
        for other in members[1:]:
            uf.union(first, other)
    for i, alive in enumerate(survivor):
        if alive:
            groups.setdefault(uf.find(i), []).append(i)
    return groups
