"""A fixed probe of the host's speed, timed next to every timed pass and
set-up, so that host seconds from different minutes read on one scale.

The host this benchmark runs on shares its cores: for minutes at a time
it runs the same code up to three times as slowly, its speed swinging by
half from one pass to the next, and process CPU time slows with wall
time, so no choice of clock avoids it.  The probe is fixed work that
does not use ``repro``, of the kinds a pass does: interpreter loops over
a dict, method calls and small-array numpy calls, and numpy sorts.  Its
time measures the host's speed at that moment; :func:`rescale` puts a
measured time at the reference speed.  See README.md, "Host seconds at
the reference speed".
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The reference speed, a little under the probe's fastest time measured
#: (0.26 s) on a 2-vCPU KVM guest on an Intel Xeon (Sapphire Rapids,
#: 2.0 GHz) with CPython 3.11 and numpy 2.4.  It sets the unit only; it
#: cancels out of every comparison between two runs.
PROBE_REF_S = 0.2


class _Tally:
    """Counters bumped through a method, as a cost tracker is."""

    __slots__ = ("work", "span")

    def __init__(self):
        self.work = 0
        self.span = 0

    def add(self, amount: int) -> None:
        self.work += amount
        if amount > self.span:
            self.span = amount


def probe() -> float:
    """Seconds of one run of the probe's fixed work."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(400_000):
        key = (i * 7919) & 8191
        counts[key] = counts.get(key, 0) + 1
    tally = _Tally()
    small = np.arange(48, dtype=np.int64)
    evens = np.arange(0, 96, 2, dtype=np.int64)
    for i in range(200_000):
        key = (i * 7919) & 16383
        counts[key] = counts.get(key, 0) + 1
        tally.add(key & 7)
        if i & 7 == 0:
            tally.add(np.flatnonzero(small == (i & 63)).size)
        if i & 63 == 0:
            tally.add(np.intersect1d(small, evens, assume_unique=True).size)
    keys = (np.arange(20_000, dtype=np.int64) * 2_654_435_761) % 1_000_003
    for _ in range(120):
        order = np.argsort(keys, kind="stable")
        _, sizes = np.unique(keys[order], return_counts=True)
        np.cumsum(sizes)
    return time.perf_counter() - start


def rescale(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the reference speed, given the probes timed just
    before and after it."""
    return seconds * PROBE_REF_S / statistics.fmean(probes)
