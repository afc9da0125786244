"""Vectorized truss sub-rounds: how the PKT and MSP baselines peel.

The scalar reference oracles in :mod:`repro.baselines.pkt` and
:mod:`repro.baselines.msp` walk one Python iteration per frontier edge,
per common neighbor, and per support decrement; the kernels here expand a
whole sub-round at once: one segmented gather of both endpoint
neighborhoods, one keyed segmented intersection, one vectorized edge-id
lookup (``searchsorted`` over the packed ``u * n + v`` keys), positional
liveness masks, and a ``np.unique`` scatter for the decrements.

The contract --- enforced by tests/test_batch_baselines.py and the bench
gate --- is that a batch run's *simulated* metrics are bit-for-bit
identical to the scalar oracle's.  Three facts make that possible (full
rules in docs/cost-model.md):

* the per-edge work stream (an intersection charge, then a pair of
  edge-id lookup charges per common neighbor) contains genuinely
  fractional values (``0.35 * min``, ``1.5 * min``, ``log deg``), and
  binary64 addition is order-sensitive --- so the flat charge stream is
  rebuilt in exact scalar order with
  :func:`~repro.parallel.primitives.interleave_segments` and replayed
  through
  :meth:`~repro.parallel.runtime.CostTracker.add_work_sequence`, which
  routes integer-valued elements to the exact bin and replays the
  fractional subsequence in order;
* PKT kills each frontier edge at the start of its own turn, so a
  triangle survives an event iff each side is either un-peeled or a
  *later-position* frontier edge --- a positional mask; MSP instead
  applies kills at the end of the sub-round, so its masks depend only on
  the sub-round's starting state;
* support only decreases within a sub-round, so the scalar
  append-at-crossing candidate list, deduplicated, equals the set of
  decremented edges whose final support is at or below the level.

Both kernels require plain ndarray support counters, so the drivers run
the scalar oracles instead whenever the tracker
:attr:`~repro.parallel.runtime.CostTracker.runs_reference`.
"""

from __future__ import annotations

import numpy as np

from ..parallel.primitives import (intersect_segments, interleave_segments,
                                   segment_gather)
from ..parallel.runtime import CostTracker

#: Batch<->scalar parity contract, verified statically by ``repro lint
#: --strict`` (rule PAR007); regenerate fingerprints with
#: ``repro lint --strict --emit-registry`` after editing charges.
PARLINT_PARITY = {
    "pkt_subround_batch": {
        "oracle": "repro.baselines.pkt._pkt_subround_scalar",
        "fingerprint": {
            "add_atomic": 1,
            "add_cliques": 1,
            "add_work_sequence": 1,
        },
    },
    "msp_subround_batch": {
        "oracle": "repro.baselines.msp._msp_subround_scalar",
        "fingerprint": {
            "add_atomic": 1,
            "add_cliques": 1,
            "add_work_sequence": 1,
        },
    },
}


def build_edge_index(edge_arr: np.ndarray, n: int):
    """Pack the ``(u, v)`` edge list (``u < v``) for vectorized id lookup.

    Returns ``(keys_sorted, order, n)``: ``order[searchsorted(keys_sorted,
    a * n + b)]`` is the id of edge ``(a, b)`` --- the flat-array stand-in
    for the scalar oracles' ``index`` dict.  Host-side and charge-free;
    the simulated lookup cost is charged per probe by the kernels, exactly
    as the scalar loops charge their dict lookups.
    """
    keys = edge_arr[:, 0] * np.int64(n) + edge_arr[:, 1]
    order = np.argsort(keys, kind="stable")
    return keys[order], order.astype(np.int64), n


def _expand_triangles(frontier, graph, edge_arr, eidx,
                      intersection_cost: float, eid_binary_search: bool,
                      log_degree):
    """Expand one sub-round's triangle events and build the work stream.

    Returns ``(owner, iu, iv, work_seq)``: for every common neighbor
    ``w`` of a frontier edge ``(u, v)``, the frontier position of that
    edge and the ids of the side edges ``(u, w)`` and ``(v, w)``, in
    exact scalar visit order (ascending frontier position, then
    ascending ``w``), plus the scalar-ordered work charge stream the
    caller replays.  Tracker-free: the kernels own every charge.
    """
    keys_sorted, order, n = eidx
    u = edge_arr[frontier, 0]
    v = edge_arr[frontier, 1]
    offsets = graph.offsets
    targets = graph.targets
    du = (offsets[u + 1] - offsets[u]).astype(np.int64)
    dv = (offsets[v + 1] - offsets[v]).astype(np.int64)
    nb_u = segment_gather(targets, offsets[u], du)
    nb_v = segment_gather(targets, offsets[v], dv)
    common, clens = intersect_segments(nb_u, du, nb_v, dv)

    # The scalar charge stream per frontier edge: one intersection charge,
    # then an edge-id lookup charge per side of each triangle.  Fractional
    # values must replay in this exact order (binary64 is order-sensitive).
    head = intersection_cost * np.minimum(du, dv).astype(np.float64) + 1.0
    total_c = int(clens.sum())
    if eid_binary_search:
        cost_u = log_degree[u].astype(np.float64)
        cost_v = log_degree[v].astype(np.float64)
    else:
        cost_u = np.ones(frontier.size, dtype=np.float64)
        cost_v = np.ones(frontier.size, dtype=np.float64)
    # Every per-edge (cost_u, cost_v) block has even length, so the global
    # even/odd positions of the flat tail are the u/v sides respectively.
    tail = np.empty(2 * total_c, dtype=np.float64)
    tail[0::2] = np.repeat(cost_u, clens)
    tail[1::2] = np.repeat(cost_v, clens)
    work_seq = interleave_segments(head,
                                   np.ones(frontier.size, dtype=np.int64),
                                   tail, 2 * clens)

    owner = np.repeat(np.arange(frontier.size, dtype=np.int64), clens)
    fu = np.repeat(u, clens)
    fv = np.repeat(v, clens)
    lo = np.minimum(fu, common)
    hi = np.maximum(fu, common)
    iu = order[np.searchsorted(keys_sorted, lo * np.int64(n) + hi)]
    lo = np.minimum(fv, common)
    hi = np.maximum(fv, common)
    iv = order[np.searchsorted(keys_sorted, lo * np.int64(n) + hi)]
    return owner, iu, iv, work_seq


def _apply_decrements(targets, sup, meter):
    """Scatter support decrements and their contention, one per target.

    Tracker-free (the kernels charge the atomics); returns the unique
    decremented edge ids.
    """
    uniq, cnt = np.unique(targets, return_counts=True)
    sup[uniq] -= cnt
    for addr, count in zip(uniq.tolist(), cnt.tolist()):
        meter.record(int(addr), int(count))
    return uniq


def pkt_subround_batch(frontier, graph, edge_arr, eidx, sup, alive,
                       level: int, intersection_cost: float,
                       eid_binary_search: bool, log_degree, meter,
                       tracker: CostTracker):
    """Process one PKT frontier sub-round in batch mode.

    Mirrors :func:`repro.baselines.pkt._pkt_subround_scalar` charge for
    charge; returns the same ``(triangle_visits, candidates)`` up to
    candidate dedup (which the driver applies to both engines).
    """
    owner, iu, iv, work_seq = _expand_triangles(
        frontier, graph, edge_arr, eidx, intersection_cost,
        eid_binary_search, log_degree)
    tracker.add_work_sequence(work_seq)
    # PKT kills each frontier edge at the start of its own turn: a side
    # edge is live at event time iff it is an un-peeled non-frontier edge
    # or a strictly later-position frontier edge.
    pos = np.full(edge_arr.shape[0], -1, dtype=np.int64)
    pos[frontier] = np.arange(frontier.size, dtype=np.int64)
    pu = pos[iu]
    pv = pos[iv]
    live_u = np.where(pu >= 0, pu > owner, alive[iu])
    live_v = np.where(pv >= 0, pv > owner, alive[iv])
    ev = live_u & live_v
    n_ev = int(ev.sum())
    tracker.add_cliques(n_ev)
    targets = np.concatenate([iu[ev], iv[ev]])
    tracker.add_atomic(int(targets.size))
    uniq = _apply_decrements(targets, sup, meter)
    alive[frontier] = False
    # Support only decreases within the sub-round, so the oracle's
    # append-at-crossing candidates dedup to this final-support filter.
    cand = uniq[sup[uniq] <= level]
    return n_ev, cand


def msp_subround_batch(frontier, graph, edge_arr, eidx, sup, alive,
                       log_degree, meter, tracker: CostTracker) -> int:
    """Process one MSP frontier sub-round in batch mode.

    Mirrors :func:`repro.baselines.msp._msp_subround_scalar` charge for
    charge; kills are applied by the driver after the sub-round, exactly
    as for the oracle.  Returns the triangle visit count.
    """
    owner, iu, iv, work_seq = _expand_triangles(
        frontier, graph, edge_arr, eidx, 1.5, True, log_degree)
    tracker.add_work_sequence(work_seq)
    in_f = np.zeros(edge_arr.shape[0], dtype=bool)
    in_f[frontier] = True
    # Kills land at the end of the sub-round, so liveness is the starting
    # state; simultaneously-peeled triangles are handled by the least
    # frontier edge of the triangle.
    eid = frontier[owner]
    keep = alive[iu] & alive[iv]
    blocked = (in_f[iu] & (iu < eid)) | (in_f[iv] & (iv < eid))
    ev = keep & ~blocked
    n_ev = int(ev.sum())
    tracker.add_cliques(n_ev)
    targets = np.concatenate([iu[ev & ~in_f[iu]], iv[ev & ~in_f[iv]]])
    tracker.add_atomic(int(targets.size))
    _apply_decrements(targets, sup, meter)
    return n_ev
