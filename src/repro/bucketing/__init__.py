"""Bucketing structures for peeling algorithms.

Three interchangeable backends (see DESIGN.md), each over the positions
``0 .. k-1`` of its ``values``:

* :class:`~repro.bucketing.julienne.JulienneBucketing` -- the practical
  structure the paper's implementation uses (default);
* :class:`~repro.bucketing.fibheap.FibonacciBucketing` -- the batch-parallel
  Fibonacci heap behind Theorem 4.2's bounds;
* :class:`~repro.bucketing.dense.DenseBucketing` -- the appendix's dense
  array with doubling-region search (s-clique-proportional space).
"""

from .dense import DenseBucketing
from .fibheap import FibonacciBucketing
from .julienne import JulienneBucketing

BUCKETING_BACKENDS = {
    "julienne": JulienneBucketing,
    "fibonacci": FibonacciBucketing,
    "dense": DenseBucketing,
}


def make_bucketing(backend: str, values, tracker=None, window: int = 64):
    """Instantiate a bucketing backend by name over ``values``."""
    if backend not in BUCKETING_BACKENDS:
        raise ValueError(
            f"unknown bucketing backend {backend!r}; "
            f"options: {sorted(BUCKETING_BACKENDS)}")
    return BUCKETING_BACKENDS[backend](values, tracker=tracker, window=window)


__all__ = ["JulienneBucketing", "FibonacciBucketing", "DenseBucketing",
           "BUCKETING_BACKENDS", "make_bucketing"]
