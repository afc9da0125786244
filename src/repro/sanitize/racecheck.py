"""Dynamic race detection for the simulated parallel machine.

The work-span simulator executes "parallel" regions sequentially, so a data
race --- two simulated tasks touching the same address, at least one of them
writing, with no atomic mediation --- silently yields *some* deterministic
answer instead of crashing.  That answer is exactly the one a real parallel
execution is not guaranteed to reproduce, which breaks the fidelity contract
every number in EXPERIMENTS.md rests on (the paper's Theorems assume
race-free, linearizable parallel steps).

This module is the ThreadSanitizer analog for the simulated machine:

* :class:`RaceDetector` shadow-logs ``(address, owner, read/write, atomic)``
  tuples during parallel regions and, at each outermost region's close,
  flags write--write and read--write pairs issued by *different* simulated
  tasks to the same address that were not both mediated by an atomic.
* :class:`ShadowArray` wraps a numpy array so plain ``arr[i]`` reads and
  ``arr[i] = x`` writes are logged; it is how algorithm state (peel status,
  round stamps) becomes visible to the detector without changing the
  algorithm's accounting.

Ownership model.  Each access is attributed to the *task path* active when
it happens: a tuple of ``(region_id, task_index)`` frames maintained by
:meth:`repro.parallel.runtime.CostTracker.parallel`.  Two accesses may run
concurrently on a real machine exactly when neither owner path is a prefix
of the other (fork-join semantics: a prefix is an ancestor, and ancestors
are ordered with their descendants; the empty path is serial code, ordered
with everything).  Structures owned by a simulated *worker thread* rather
than a task (the list buffer's per-thread cursors) pass an explicit
``owner`` so tasks multiplexed onto one worker do not self-report.

The detector is opt-in and accounting-neutral: attaching one to a tracker
changes no work/span/contention counter, only observes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Cap on distinct owners remembered per (address, access kind); two are
#: enough to prove a race, a few more give better reports.
_OWNER_CAP = 4


class RaceError(RuntimeError):
    """Raised by :meth:`RaceDetector.settle` in strict mode when races exist."""

    def __init__(self, races: list["Race"]):
        self.races = races
        lines = [f"{len(races)} simulated data race(s) detected:"]
        lines += [f"  {race.describe()}" for race in races[:10]]
        if len(races) > 10:
            lines.append(f"  ... and {len(races) - 10} more")
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class Race:
    """One detected race: two concurrent unmediated accesses to one address."""

    address: int
    kind: str  # "write-write" or "read-write"
    owners: tuple  # the two conflicting owner paths
    label: str = ""  # optional human label of the address region

    def describe(self) -> str:
        where = self.label or f"address {self.address}"
        return (f"{self.kind} race at {where} between tasks "
                f"{self.owners[0]!r} and {self.owners[1]!r}")


class _AddrState:
    """Per-address access record within one outermost parallel region."""

    __slots__ = ("plain_writers", "plain_readers", "atomic_writers")

    def __init__(self) -> None:
        self.plain_writers: list[tuple] = []
        self.plain_readers: list[tuple] = []
        self.atomic_writers: list[tuple] = []


def _concurrent(a: tuple, b: tuple) -> bool:
    """True when owner paths ``a`` and ``b`` may execute concurrently.

    In fork-join execution an access is ordered with its ancestors (a
    prefix path) and with everything outside its region's lifetime; two
    paths race only when neither is a prefix of the other.
    """
    shorter = min(len(a), len(b))
    return a[:shorter] != b[:shorter]


@dataclass
class RaceStats:
    """Counters summarizing one detector run (for reports and tests)."""

    logged: int = 0
    addresses_seen: int = 0
    regions: int = 0
    tasks: int = 0
    races: int = 0


class RaceDetector:
    """Shadow-logs simulated memory accesses and flags data races.

    Usage::

        detector = RaceDetector()
        tracker = CostTracker()
        tracker.race_detector = detector     # runtime notifies task entry
        ... run the algorithm ...
        detector.settle(strict=True)         # raises RaceError on races

    Accesses are logged by instrumented structures:
    :class:`~repro.parallel.atomics.AtomicArray` (mediated),
    :class:`ShadowArray` (unmediated), the clique table's count updates and
    the update aggregators (mediated, matching the fetch-and-add/CAS the
    paper's real implementation uses at those sites).

    Address-space collisions between independently instrumented structures
    are avoided by allocating shadow bases from :meth:`allocate`, which
    starts far above the :class:`~repro.machine.cache.AddressSpace` range.
    """

    def __init__(self) -> None:
        self.races: list[Race] = []
        self.stats = RaceStats()
        self._addr: dict[int, _AddrState] = {}
        self._labels: list[tuple[int, int, str]] = []  # (base, end, label)
        self._stack: list[tuple[int, int]] = []  # active task frames
        self._open_regions = 0
        self._region_counter = 0
        self._next_base = 1 << 40

    # -- address allocation --------------------------------------------------

    def allocate(self, length: int, label: str = "") -> int:
        """Reserve ``length`` shadow addresses; returns the base address."""
        base = self._next_base
        self._next_base += max(1, int(length))
        if label:
            self._labels.append((base, self._next_base, label))
        return base

    def _label_of(self, address: int) -> str:
        for base, end, label in self._labels:
            if base <= address < end:
                return f"{label}[{address - base}]"
        return ""

    # -- region/task bookkeeping (called by the runtime) ----------------------

    def begin_region(self) -> int:
        """A ``tracker.parallel`` region opened; returns its id."""
        self._region_counter += 1
        self._open_regions += 1
        self.stats.regions += 1
        return self._region_counter

    def end_region(self) -> None:
        """A region closed; at the outermost close, analyze and reset.

        The close is a barrier: accesses before it cannot race with
        accesses after it, so per-address state is flushed here.
        """
        self._open_regions -= 1
        if self._open_regions <= 0:
            self._open_regions = 0
            self._flush()

    def begin_task(self, region_id: int, task_index: int) -> None:
        self._stack.append((region_id, task_index))
        self.stats.tasks += 1

    def end_task(self) -> None:
        self._stack.pop()

    # -- logging ---------------------------------------------------------------

    def log(self, address: int, write: bool, atomic: bool = False,
            owner: tuple | None = None) -> None:
        """Record one simulated access.

        ``atomic=True`` marks the access as mediated (fetch-and-add, CAS,
        atomic load); mediated accesses never race with each other.
        ``owner`` overrides task attribution for thread-owned state.
        """
        self.stats.logged += 1
        if owner is None:
            owner = tuple(self._stack)
        state = self._addr.get(address)
        if state is None:
            state = self._addr[address] = _AddrState()
            self.stats.addresses_seen += 1
        if atomic:
            bucket = state.atomic_writers if write else None
        else:
            bucket = state.plain_writers if write else state.plain_readers
        if bucket is not None and len(bucket) < _OWNER_CAP \
                and owner not in bucket:
            bucket.append(owner)

    # -- analysis --------------------------------------------------------------

    def _flush(self) -> None:
        """Analyze the region's access records, then clear them."""
        for address, state in self._addr.items():
            race = self._analyze(address, state)
            if race is not None:
                self.races.append(race)
                self.stats.races += 1
        self._addr.clear()

    def _analyze(self, address: int, state: _AddrState) -> Race | None:
        label = self._label_of(address)
        # write-write: two concurrent plain writers.
        for i, a in enumerate(state.plain_writers):
            for b in state.plain_writers[i + 1:]:
                if _concurrent(a, b):
                    return Race(address, "write-write", (a, b), label)
        # A plain write concurrent with an atomic write: the plain side is
        # unmediated, so the pair still races.
        for a in state.plain_writers:
            for b in state.atomic_writers:
                if _concurrent(a, b):
                    return Race(address, "write-write", (a, b), label)
        # read-write: a plain read concurrent with any write.
        for a in state.plain_readers:
            for b in state.plain_writers:
                if _concurrent(a, b):
                    return Race(address, "read-write", (a, b), label)
            for b in state.atomic_writers:
                if _concurrent(a, b):
                    return Race(address, "read-write", (a, b), label)
        return None

    def settle(self, strict: bool = False) -> list[Race]:
        """Analyze any remaining records and report all races found.

        Mirrors :meth:`ContentionMeter.settle`: call once at the end of a
        checked run.  With ``strict=True`` raises :class:`RaceError` when
        races were detected.  Returns the accumulated race list (which is
        *not* cleared, so callers can settle then inspect).
        """
        self._flush()
        if strict and self.races:
            raise RaceError(self.races)
        return self.races


class ShadowArray:
    """A numpy-backed array whose element accesses are race-checked.

    Supports the subscript protocol only (``arr[i]``, ``arr[i] = x``, with
    integer, slice, boolean-mask, or fancy indices); arithmetic should be
    done on the underlying :attr:`values`.  With ``atomic=True`` every
    access is logged as mediated --- use this for state whose real-machine
    counterpart is updated by CAS/fetch-and-add (e.g. first-touch round
    stamps), so the simulated plain mutation is not a false positive.
    """

    __slots__ = ("values", "detector", "base_address", "atomic")

    def __init__(self, values, detector: RaceDetector | None,
                 base_address: int | None = None, atomic: bool = False,
                 label: str = ""):
        self.values = np.asarray(values)
        self.detector = detector
        if base_address is None and detector is not None:
            base_address = detector.allocate(self.values.size, label)
        self.base_address = base_address or 0
        self.atomic = atomic

    def _log(self, index, write: bool) -> None:
        detector = self.detector
        if detector is None:
            return
        if isinstance(index, (int, np.integer)):
            addresses = (self.base_address + int(index),)
        else:
            if isinstance(index, slice):
                idx = np.arange(*index.indices(self.values.size))
            else:
                idx = np.atleast_1d(np.asarray(index))
                if idx.dtype == bool:
                    idx = np.flatnonzero(idx)
            addresses = (self.base_address + int(i) for i in idx)
        for address in addresses:
            detector.log(address, write=write, atomic=self.atomic)

    def __getitem__(self, index):
        self._log(index, write=False)
        return self.values[index]

    def __setitem__(self, index, value) -> None:
        self._log(index, write=True)
        self.values[index] = value

    def __len__(self) -> int:
        return len(self.values)

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return (f"ShadowArray(size={self.values.size}, "
                f"base={self.base_address}, atomic={self.atomic})")


def maybe_shadow(values, tracker, atomic: bool = False, label: str = ""):
    """Wrap ``values`` in a :class:`ShadowArray` when ``tracker`` carries a
    race detector; otherwise return ``values`` unchanged.

    This is the one-line opt-in used by algorithm code: with no detector
    attached the original ndarray is used and the run is unchanged.
    """
    detector = getattr(tracker, "race_detector", None) if tracker else None
    if detector is None:
        return values
    return ShadowArray(values, detector, atomic=atomic, label=label)
