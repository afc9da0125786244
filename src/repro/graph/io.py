"""Reading and writing graphs in SNAP edge-list format.

The paper's inputs are SNAP graphs distributed as whitespace-separated
edge lists with ``#`` comment lines (often gzip-compressed).  This module
parses that format (and writes it back), compacting arbitrary vertex ids
to ``0..n-1``.
"""

from __future__ import annotations

import gzip

import numpy as np

from .csr import CSRGraph


def _open_text(path, mode: str = "rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode.rstrip("t") or "r")


def read_edge_list(path, relabel: bool = True) -> CSRGraph:
    """Read a SNAP-style edge list file into a :class:`CSRGraph`.

    Lines starting with ``#`` or ``%`` are comments.  Each remaining line
    holds two integer ids (any extra columns, e.g. weights, are ignored).
    With ``relabel=True`` (default) ids are compacted to ``0..n-1`` in
    sorted order of the original ids; without it they must be
    non-negative.  Files ending in ``.gz`` are decompressed transparently
    (SNAP's distribution format).  A malformed line raises
    ``ValueError("<path>:<line>: ...")``.
    """
    sources, targets = [], []
    with _open_text(path) as handle:
        try:
            for line in handle:
                line = line.strip()
                if not line or line[0] in "#%":
                    continue
                parts = line.split()
                sources.append(int(parts[0]))
                targets.append(int(parts[1]))
        except (IndexError, ValueError):
            raise _locate_error(path, relabel) from None
    if not sources:
        return CSRGraph.from_edges(0 if relabel else 1, [])
    u = np.asarray(sources, dtype=np.int64)
    v = np.asarray(targets, dtype=np.int64)
    if not relabel and min(int(u.min()), int(v.min())) < 0:
        raise _locate_error(path, relabel)
    if relabel:
        ids = np.unique(np.concatenate([u, v]))
        u = np.searchsorted(ids, u)
        v = np.searchsorted(ids, v)
        n = ids.size
    else:
        n = int(max(u.max(), v.max())) + 1
    return CSRGraph.from_edges(n, np.column_stack([u, v]))


def _locate_error(path, relabel: bool) -> ValueError:
    """Re-scan a file that failed to parse and name its first bad line.

    Kept off the parsing loop, which only pays for it when it fails.
    """
    lineno = 0
    try:
        with _open_text(path) as handle:
            for lineno, line in enumerate(handle, 1):
                parts = line.split()
                if not parts or parts[0][0] in "#%":
                    continue
                if len(parts) < 2:
                    return ValueError(f"{path}:{lineno}: expected two vertex "
                                      f"ids, got {line.strip()!r}")
                for token in parts[:2]:
                    try:
                        value = int(token)
                    except ValueError:
                        return ValueError(f"{path}:{lineno}: vertex id "
                                          f"{token!r} is not an integer")
                    if value < 0 and not relabel:
                        return ValueError(
                            f"{path}:{lineno}: negative vertex id {value} "
                            "(ids must be >= 0 without relabeling)")
    except UnicodeDecodeError as exc:
        return ValueError(f"{path}:{lineno + 1}: not text ({exc.reason})")
    return ValueError(f"{path}: malformed edge list")


def write_edge_list(graph: CSRGraph, path, header: str | None = None) -> None:
    """Write ``graph`` as a SNAP-style edge list (each edge once, u < v);
    a ``.gz`` suffix selects gzip compression."""
    with _open_text(path, "wt") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# n={graph.n} m={graph.m}\n")
        for u, v in graph.edges():
            handle.write(f"{u}\t{v}\n")
