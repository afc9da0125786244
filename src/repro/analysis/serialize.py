"""Serializing decomposition results and hierarchies.

JSON round-tripping for :class:`~repro.core.decomp.NucleusResult` outputs
(core numbers plus run metadata) and for
:class:`~repro.analysis.hierarchy.NucleusHierarchy` dendrograms, plus a
flat-record view convenient for DataFrame-style consumers.  The tracker
and table internals are not serialized --- only the answer and its
summary statistics.
"""

from __future__ import annotations

import json

from ..core.decomp import NucleusResult
from .hierarchy import Nucleus, NucleusHierarchy


def _write_json(payload, path) -> None:
    # json.dumps runs the C encoder; json.dump streams the same bytes
    # through the pure-Python one, about 4x slower on large hierarchies.
    with open(path, "w") as handle:
        handle.write(json.dumps(payload))


def result_to_records(result: NucleusResult) -> list[dict]:
    """One flat record per r-clique: vertices plus core number."""
    return [{"clique": list(clique), "core": core}
            for clique, core in sorted(result.as_dict().items())]


def save_result_json(result: NucleusResult, path) -> None:
    """Write the decomposition (cores + metadata) as JSON."""
    payload = {
        "r": result.r,
        "s": result.s,
        "n_r_cliques": result.n_r_cliques,
        "n_s_cliques": result.n_s_cliques,
        "rho": result.rho,
        "max_core": result.max_core,
        "table_memory_units": result.table_memory_units,
        "stats": result.tracker.summary(),
        "cores": [[list(clique), core]
                  for clique, core in sorted(result.as_dict().items())],
    }
    _write_json(payload, path)


def load_result_json(path) -> dict:
    """Load a saved decomposition.

    Returns a dict with the saved metadata plus ``cores`` as a mapping
    from vertex tuples to core numbers (the natural Python form).
    """
    with open(path) as handle:
        payload = json.load(handle)
    payload["cores"] = {tuple(clique): core
                        for clique, core in payload["cores"]}
    return payload


def hierarchy_to_payload(hierarchy: NucleusHierarchy) -> dict:
    """The JSON-ready dict form of a nucleus hierarchy.

    One record per nucleus (node id, parent id, level, member r-cliques
    as vertex lists); node ids are the hierarchy's own, so parent links
    survive the round trip untouched.
    """
    return {
        "r": hierarchy.r,
        "s": hierarchy.s,
        "nuclei": [{"node_id": nucleus.node_id,
                    "parent_id": nucleus.parent_id,
                    "level": nucleus.level,
                    "members": [list(clique)
                                for clique in nucleus.members]}
                   for nucleus in hierarchy.nuclei],
    }


def payload_to_hierarchy(payload: dict) -> NucleusHierarchy:
    """Rebuild a :class:`NucleusHierarchy` from its payload dict.

    Payloads come from files, so they are checked as they are read:
    ``r``, ``s`` and ``nuclei`` must be present with ``1 <= r < s``, and
    every record needs ``node_id``, ``parent_id``, ``level`` and
    ``members``, a node id no other record has, members of ``r`` vertex
    ids each, and a ``parent_id`` that is -1 or names a node at a strictly
    lower level.  Raises ``ValueError`` naming the first bad record.
    """
    try:
        r, s = int(payload["r"]), int(payload["s"])
        records = list(payload["nuclei"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"hierarchy payload: {_reason(exc)}") from None
    if not 1 <= r < s:
        raise ValueError(f"hierarchy payload: need 1 <= r < s, got r={r}, "
                         f"s={s}")
    hierarchy = NucleusHierarchy(r, s)
    level_of: dict[int, int] = {}
    for i, record in enumerate(records):
        try:
            nucleus = Nucleus(
                level=int(record["level"]),
                members=tuple(tuple(map(int, clique))
                              for clique in record["members"]),
                node_id=int(record["node_id"]),
                parent_id=int(record["parent_id"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"hierarchy record {i}: {_reason(exc)}") \
                from None
        if nucleus.node_id in level_of:
            raise ValueError(f"hierarchy record {i}: node id "
                             f"{nucleus.node_id} is not unique")
        if any(len(clique) != r for clique in nucleus.members):
            raise ValueError(f"hierarchy record {i}: a member does not "
                             f"have {r} vertex ids")
        level_of[nucleus.node_id] = nucleus.level
        hierarchy.nuclei.append(nucleus)
    for i, nucleus in enumerate(hierarchy.nuclei):
        parent = nucleus.parent_id
        if parent != -1 and \
                level_of.get(parent, nucleus.level) >= nucleus.level:
            raise ValueError(f"hierarchy record {i}: parent_id {parent} "
                             f"names no node below level {nucleus.level}")
    return hierarchy


def _reason(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def save_hierarchy_json(hierarchy: NucleusHierarchy, path) -> None:
    """Write the hierarchy (levels, members, parent links) as JSON."""
    _write_json(hierarchy_to_payload(hierarchy), path)


def load_hierarchy_json(path) -> NucleusHierarchy:
    """Load a hierarchy saved by :func:`save_hierarchy_json`.

    Raises ``ValueError("<path>: ...")`` when the file is not JSON or
    fails :func:`payload_to_hierarchy`'s checks.
    """
    with open(path) as handle:
        try:
            return payload_to_hierarchy(json.load(handle))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
