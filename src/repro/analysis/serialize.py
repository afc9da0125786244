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
from itertools import chain

import numpy as np

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


#: The hierarchy payload layout :func:`hierarchy_to_payload` writes and
#: :func:`payload_to_hierarchy` reads: one column per nucleus field plus
#: every member r-clique flattened into one vertex-id list.
HIERARCHY_FORMAT = 2

#: The columns holding one entry per nucleus, in payload order.
_NUCLEUS_COLUMNS = ("node_id", "parent_id", "level", "size")


def hierarchy_to_payload(hierarchy: NucleusHierarchy) -> dict:
    """The JSON-ready dict form of a nucleus hierarchy (format 2).

    ``node_id``, ``parent_id``, ``level`` and ``size`` hold one entry per
    nucleus; ``members`` holds every nucleus's member r-cliques as vertex
    ids, flattened in nucleus order (``size[i]`` members of ``r`` ids
    each).  Node ids are the hierarchy's own, so parent links survive the
    round trip untouched.
    """
    nuclei = hierarchy.nuclei
    return {
        "format": HIERARCHY_FORMAT,
        "r": hierarchy.r,
        "s": hierarchy.s,
        "node_id": [nucleus.node_id for nucleus in nuclei],
        "parent_id": [nucleus.parent_id for nucleus in nuclei],
        "level": [nucleus.level for nucleus in nuclei],
        "size": [len(nucleus.members) for nucleus in nuclei],
        "members": list(chain.from_iterable(chain.from_iterable(
            nucleus.members for nucleus in nuclei))),
    }


def payload_to_hierarchy(payload: dict) -> NucleusHierarchy:
    """Rebuild a :class:`NucleusHierarchy` from its payload dict.

    Payloads come from files, so they are checked as they are read:
    ``format`` 2 (no other layout is read), integers ``1 <= r < s``, the
    four per-nucleus columns of equal length, every id an integer, no
    negative size, ``r * sum(size)`` member vertex ids, node ids no two
    nuclei share, and each ``parent_id`` -1 or naming a node at a
    strictly lower level.  Raises ``ValueError`` located at the payload
    or at the first bad nucleus (``hierarchy record i``).
    """
    if not isinstance(payload, dict) or "format" not in payload:
        raise ValueError(f"hierarchy payload: missing key 'format' "
                         f"(expected format {HIERARCHY_FORMAT})")
    if payload["format"] != HIERARCHY_FORMAT:
        raise ValueError(f"hierarchy payload: unsupported format "
                         f"{payload['format']!r} (expected format "
                         f"{HIERARCHY_FORMAT})")
    try:
        r, s = payload["r"], payload["s"]
        columns = [_id_column(payload, key) for key in _NUCLEUS_COLUMNS]
        members = _id_column(payload, "members")
    except KeyError as exc:
        raise ValueError(f"hierarchy payload: missing key {exc}") from None
    if not (isinstance(r, int) and isinstance(s, int) and 1 <= r < s):
        raise ValueError(f"hierarchy payload: need integers 1 <= r < s, "
                         f"got r={r!r}, s={s!r}")
    lengths = [column.size for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError("hierarchy payload: columns " + ", ".join(
            f"{key} ({length})" for key, length in
            zip(_NUCLEUS_COLUMNS, lengths)) + " differ in length")
    node_ids, parent_ids, levels, sizes = columns
    negative = np.flatnonzero(sizes < 0)
    if negative.size:
        i = int(negative[0])
        raise ValueError(f"hierarchy record {i}: size {sizes[i]} is "
                         f"negative")
    expected = r * sum(sizes.tolist())  # a Python sum cannot wrap
    if members.size != expected:
        raise ValueError(f"hierarchy payload: members holds {members.size} "
                         f"vertex ids, not r * sum(size) = {expected}")
    order = np.argsort(node_ids, kind="stable")
    ordered = node_ids[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        i = int(repeats.min())
        raise ValueError(f"hierarchy record {i}: node id {node_ids[i]} is "
                         f"not unique")
    at = np.minimum(np.searchsorted(ordered, parent_ids), ordered.size - 1)
    dangling = (parent_ids != -1) & (
        (ordered[at] != parent_ids) | (levels[order[at]] >= levels))
    if dangling.any():
        i = int(np.flatnonzero(dangling)[0])
        raise ValueError(f"hierarchy record {i}: parent_id {parent_ids[i]} "
                         f"names no node below level {levels[i]}")
    rows = list(zip(*[iter(members.tolist())] * r))
    hierarchy = NucleusHierarchy(r, s)
    stop = 0
    for node_id, parent_id, level, size in zip(*(column.tolist()
                                                 for column in columns)):
        start, stop = stop, stop + size
        hierarchy.nuclei.append(Nucleus(level=level,
                                        members=tuple(rows[start:stop]),
                                        node_id=node_id,
                                        parent_id=parent_id))
    return hierarchy


def _id_column(payload: dict, key: str) -> np.ndarray:
    """``payload[key]`` as a flat int64 array.  ``ValueError`` names the
    first entry that is not an integer: by nucleus in a per-nucleus
    column, by index in ``members``."""
    values = payload[key]
    if not isinstance(values, list):
        raise ValueError(f"hierarchy payload: {key} is not a list")
    try:
        column = np.asarray(values)
    except ValueError:  # a nested list of uneven lengths
        column = None
    if column is not None and column.ndim == 1 and (
            column.dtype == np.int64 or not column.size):
        return column.astype(np.int64, copy=False)
    for j, value in enumerate(values):
        if type(value) is not int:
            where = f"record {j}: {key}" if key in _NUCLEUS_COLUMNS \
                else f"payload: {key}[{j}]"
            raise ValueError(f"hierarchy {where} {value!r} is not an "
                             f"integer")
    raise ValueError(f"hierarchy payload: {key} holds an integer outside "
                     f"the int64 range")


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
