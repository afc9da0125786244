"""Charged, level-batched nucleus-hierarchy construction.

:func:`repro.analysis.hierarchy.build_hierarchy` is the *post-hoc*
definition of the hierarchy: for every core level it rescans all
s-cliques, re-tests survival, and regroups from scratch.  Correct, and
retained as the differential oracle, but quadratic in the number of
levels and off the simulated machine.  This module is the first-class
engine (after the parallel dendrogram construction of Sariyuce--Pinar
hierarchies, arXiv:2306.08623): every step is tracker-charged, it reads
the decomposition's r-cliques, oriented graph and clique table instead of
recomputing them, and connectivity is built *incrementally* down the
levels instead of per-level from scratch.

The key observation is that an s-clique "dies" at a single level --- the
minimum core number among its C(s, r) member r-cliques --- and survives
at every level up to it.  Processing levels in descending order, the
level-c connectivity is the level-(c+1) connectivity plus the star edges
of the s-cliques whose death level is exactly c, so each s-clique is
unioned exactly once overall.  Per level the new star edges (mapped
through the current component labels) feed one Shiloach--Vishkin
hook-and-compress pass (:func:`repro.parallel.connectivity
.connected_components`), and the resulting relabeling is composed into a
persistent label array over the growing set of alive r-cliques.

Three phases land in the tracker (and in ``phase_wall``, which the bench
trajectory's ``--min-hierarchy-speedup`` gate reads):

``hier_list``
    decoding the decomposition's cells, listing s-cliques on its oriented
    graph, and resolving every r-subset through its clique table (the
    lister's reference oracle changes only host wall-clock, never
    simulated charges).
``hier_levels``
    the descending level sweep --- the registered batch/scalar kernel
    pair (``batch_levels`` in :mod:`repro.analysis.batchhier`, with
    :func:`_levels_scalar` here as its reference oracle;
    ``tests/test_parity_registry.py`` checks their parity).
``hier_emit``
    materializing :class:`~repro.analysis.hierarchy.Nucleus` records
    from the per-level label snapshots, reproducing the oracle's node
    ids and parent links exactly (groups ordered by minimum member
    index, ids assigned ascending by level).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..cliques.listing import collect_cliques
from ..core.decomp import NucleusResult
from ..graph.csr import CSRGraph
from ..parallel.connectivity import connected_components
from ..parallel.runtime import CostTracker, _log2
from .hierarchy import Nucleus, NucleusHierarchy


def nucleus_hierarchy(graph: CSRGraph, result: NucleusResult,
                      tracker: CostTracker | None = None) -> NucleusHierarchy:
    """Build the connected-nucleus hierarchy on the simulated machine.

    Reads what the decomposition already holds --- its cells and cores,
    its clique table and its oriented graph --- so ``graph`` must be the
    graph ``result`` decomposed (``ValueError`` if its vertex count
    differs).  The level sweep and the s-clique lister run their
    vectorized kernels, or their scalar reference oracles when the
    tracker :attr:`~repro.parallel.runtime.CostTracker.runs_reference`;
    by the kernels' cost-parity contract the simulated charges are the
    same either way --- only host wall-clock differs.

    Returns the same :class:`~repro.analysis.hierarchy.NucleusHierarchy`
    (bit-identical node ids, members, and parent links) as the post-hoc
    :func:`~repro.analysis.hierarchy.build_hierarchy` oracle.
    """
    if graph.n != result._original_of.size:
        raise ValueError(f"graph has {graph.n} vertices; result decomposed "
                         f"a graph of {result._original_of.size}")
    if tracker is None:
        tracker = CostTracker()

    with tracker.phase("hier_list"):
        cliques, cores, members = _prepare(result, tracker)
    with tracker.phase("hier_levels"):
        if tracker.runs_reference:
            levels_data = _levels_scalar(cores, members, tracker)
        else:
            from .batchhier import batch_levels
            levels_data = batch_levels(cores, members, tracker)
    with tracker.phase("hier_emit"):
        hierarchy = _emit(result.r, result.s, cliques, levels_data,
                          tracker)
    return hierarchy


def _prepare(result: NucleusResult, tracker: CostTracker
             ) -> tuple[list, np.ndarray, np.ndarray]:
    """Sorted r-clique list, core array, and the (m_s, C(s,r)) member
    matrix mapping every s-clique to its r-subset indices.

    Charges the decode of every cell (:meth:`~repro.core.tables
    .CliqueTable.decode_many`), the semisort of the r-cliques, the
    s-clique listing on the decomposition's oriented graph (the same
    whichever lister runs), a per-row sort, and per r-subset what
    :meth:`~repro.core.tables.CliqueTable.cell_of` charges, its route and
    slot addresses included.
    """
    r, s, table = result.r, result.s, result._table
    table.tracker = tracker
    try:
        working, _, _ = table.decode_many(result._cells)
    finally:
        table.tracker = None  # later queries on the result charge nothing
    original = np.sort(result._original_of[working], axis=1)
    order = np.lexsort(original.T[::-1])
    cliques = list(map(tuple, original[order].tolist()))
    n_r = len(cliques)
    # Semisort the r-cliques by key and build the core array.
    tracker.add_work(float(n_r) * _log2(max(n_r, 2)))
    tracker.add_work_int(n_r)
    cores = result._cores[order]
    rows = np.sort(collect_cliques(result._dg, s, tracker), axis=1)
    m_s = int(rows.shape[0])
    # Per-row sort into ascending vertex order (s log s comparisons).
    tracker.add_work_frac_repeated(float(s) * _log2(s), m_s)
    combs = list(combinations(range(s), r))
    found, probes, slot_addrs, route_addrs = table.lookup_many(
        rows[:, combs].reshape(-1, r))
    # What cell_of charges per subset: its route, probes x key width and
    # the probes, then the route and final-slot addresses.
    route_work, route_probes, _ = table.route_charge_profile()
    total_probes = int(probes.sum())
    tracker.add_work_int(found.size * route_work
                         + total_probes * table.suffix_width)
    tracker.add_probes(found.size * route_probes + total_probes)
    tracker.access_sequence(np.concatenate(
        [route_addrs, slot_addrs[:, np.newaxis]], axis=1).reshape(-1))
    index_of_cell = np.empty(table.total_cells, dtype=np.int64)
    index_of_cell[result._cells[order]] = np.arange(n_r)
    return cliques, cores, index_of_cell[found].reshape(m_s, len(combs))


def _levels_scalar(cores: np.ndarray, members: np.ndarray,
                   tracker: CostTracker | None = None) -> list:
    """The scalar level sweep: ``batch_levels``' reference oracle.

    ``cores[i]`` is the core number of r-clique ``i`` (ids index the
    lexicographically sorted clique list); ``members[j]`` holds the
    C(s, r) r-subset ids of s-clique ``j``.  Returns, ascending by
    level, one ``(level, active_ids, labels)`` triple per present core
    value: the alive r-cliques (ordered by descending core, ties by
    ascending id --- the accumulation order of the descending sweep) and
    their connected-component label under s-clique connectivity at that
    level.

    Charge model (mirrored exactly by ``batch_levels``): ``width`` per
    s-clique death-level min, 1 per bucketed item, ``3(width-1)`` per
    dying s-clique's star-edge build-and-map, the shared
    :func:`connected_components` charges per level, 1 per alive r-clique
    for the label composition (levels with new edges only), 1 per alive
    r-clique for the snapshot, plus one round and a log-span per level.
    """
    n = int(cores.size)
    count = int(members.shape[0])
    width = int(members.shape[1])
    death = np.empty(count, dtype=np.int64)
    for j in range(count):
        row = members[j]
        low = int(cores[row[0]])
        for k in range(1, width):
            core = int(cores[row[k]])
            if core < low:
                low = core
        death[j] = low
        if tracker is not None:
            tracker.add_work(float(width))
    r_buckets: dict[int, list[int]] = {}
    for i in range(n):
        r_buckets.setdefault(int(cores[i]), []).append(i)
        if tracker is not None:
            tracker.add_work(1.0)
    s_buckets: dict[int, list[int]] = {}
    for j in range(count):
        s_buckets.setdefault(int(death[j]), []).append(j)
        if tracker is not None:
            tracker.add_work(1.0)
    label = np.arange(n, dtype=np.int64)
    active: list[int] = []
    out: list[tuple[int, np.ndarray, np.ndarray]] = []
    for level in sorted(r_buckets, reverse=True):
        if tracker is not None:
            tracker.add_round()
        for i in r_buckets[level]:
            active.append(i)
        edges: list[tuple[int, int]] = []
        for j in s_buckets.get(level, ()):
            row = members[j]
            first = int(label[row[0]])
            for k in range(1, width):
                edges.append((first, int(label[row[k]])))
            if tracker is not None:
                tracker.add_work(float(3 * (width - 1)))
        if edges:
            relabel = connected_components(n, edges, tracker)
            for a in active:
                label[a] = relabel[label[a]]
            if tracker is not None:
                tracker.add_work(float(len(active)))
        snapshot = np.empty(len(active), dtype=np.int64)
        for pos in range(len(active)):
            snapshot[pos] = label[active[pos]]
        if tracker is not None:
            tracker.add_work(float(len(active)))
            tracker.add_span(_log2(len(active) + len(edges)))
        out.append((int(level), np.array(active, dtype=np.int64),
                    snapshot))
    out.reverse()
    return out


def _emit(r: int, s: int, cliques: list, levels_data: list,
          tracker: CostTracker) -> NucleusHierarchy:
    """Materialize Nucleus records from the per-level label snapshots.

    Shared by both engines (same inputs by the kernels' parity contract,
    so same charges).  Reproduces the post-hoc oracle's numbering
    exactly: levels ascending, groups within a level ordered by their
    minimum member index, members sorted, parent looked up through the
    previous level's membership of the group's minimum member.
    """
    hierarchy = NucleusHierarchy(r, s)
    previous_node: dict[int, int] = {}
    next_id = 0
    for level, active, labels in levels_data:
        groups: dict[int, list[int]] = {}
        for pos in range(active.size):
            groups.setdefault(int(labels[pos]), []).append(int(active[pos]))
        # One pass to group plus one to emit; group-by-label is a
        # semisort (linear work in the level's alive count).
        tracker.add_work(float(2 * active.size))
        tracker.add_span(_log2(active.size + 1))
        current_node: dict[int, int] = {}
        for group in sorted(groups.values(), key=min):
            group.sort()
            nucleus = Nucleus(level=int(level),
                              members=tuple(cliques[i] for i in group),
                              node_id=next_id,
                              parent_id=previous_node.get(group[0], -1))
            hierarchy.nuclei.append(nucleus)
            for i in group:
                current_node[i] = next_id
            next_id += 1
        previous_node = current_node
    return hierarchy
