"""The batch/oracle parity tables, checked by running both paths.

Every ``batch*`` engine module declares ``PARLINT_PARITY``, a flat
``{kernel: oracle qualname}`` table.  This module is generated from
those tables and checks three things:

* the table's keys are exactly the module's top-level functions with a
  ``tracker`` parameter, and every oracle imports as a callable;
* for each pair, some driver below runs the kernel on the default path,
  and runs the oracle but not the kernel with ``tracker.reference``
  set (calls are recorded by code object with :func:`sys.setprofile`,
  so no call site is patched);
* every driver gives the same answer on both paths, with the same
  ``summary()``, totals and per-phase stats on every tracker, under an
  exact cache simulator.

A new kernel needs a table entry, and a driver when none of the drivers
reaches it.  :class:`TestMutations` deletes one charge from a kernel and
checks that the comparison catches it.
"""

import dataclasses
import importlib
import inspect
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.construct import nucleus_hierarchy
from repro.baselines.msp import msp_decomposition
from repro.baselines.nd import nd_decomposition
from repro.baselines.pkt import pkt_decomposition
from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.core.kcore import k_core
from repro.distributed import sharded_nucleus_decomp
from repro.graph.generators import planted_partition
from repro.machine.cache import CacheSimulator
from repro.parallel.runtime import CostTracker

SRC = Path(__file__).resolve().parent.parent / "src"

ENGINE_MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts)
    for path in (SRC / "repro").rglob("batch*.py"))

#: (module, kernel, oracle qualname) for every table entry.
PAIRS = [(module, kernel, oracle)
         for module in ENGINE_MODULES
         for kernel, oracle in importlib.import_module(
             module).PARLINT_PARITY.items()]

GRAPH = planted_partition(60, 3, 0.4, 0.05, seed=3)


def _arb_2_3(tracker):
    return arb_nucleus_decomp(GRAPH, 2, 3, NucleusConfig.optimal(2, 3),
                              tracker)


#: One run per entry point that reaches a kernel.  nd (1,2) is the only
#: driver that lists 1-cliques.
DRIVERS = {
    "nd-1-2": lambda t: nd_decomposition(GRAPH, 1, 2, t),
    "nd-2-3": lambda t: nd_decomposition(GRAPH, 2, 3, t),
    "arb-2-3": _arb_2_3,
    "k-core": lambda t: k_core(GRAPH, t),
    "pkt": lambda t: pkt_decomposition(GRAPH, t),
    "msp": lambda t: msp_decomposition(GRAPH, t),
    "hierarchy-2-3": lambda t: nucleus_hierarchy(GRAPH, _arb_2_3(t), t),
    "sharded-2-3": lambda t: sharded_nucleus_decomp(GRAPH, 2, 3, 3,
                                                    tracker=t),
}


def _resolve(qualname):
    """Import the longest module prefix of *qualname*, then walk the
    attributes after it (``repro.core.tables.CliqueTable.cell_of``)."""
    parts = qualname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(qualname)


def _answer(value):
    """A driver's output with its trackers left out and arrays as lists,
    so two runs compare with ``==``.  Dataclasses are compared field by
    field (a baseline result carries its tracker); core reports add
    their core numbers, which live in private arrays."""
    if isinstance(value, CostTracker):
        return "tracker"
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        out = {f.name: _answer(getattr(value, f.name))
               for f in dataclasses.fields(value)
               if not f.name.startswith("_")}
        if hasattr(value, "as_dict"):
            out["as_dict"] = value.as_dict()
        return out
    if isinstance(value, (list, tuple)):
        return [_answer(item) for item in value]
    return value


def _charges(tracker):
    return tracker.summary(), tracker.total, tracker.phases


@dataclasses.dataclass
class Run:
    answer: object
    #: ``_charges`` of the driver's tracker, then of each shard tracker
    charges: list
    #: code objects of every Python function the run entered
    calls: frozenset


def _run(driver, reference):
    tracker = CostTracker()
    tracker.reference = reference
    tracker.cache = CacheSimulator(sample=1)
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = driver(tracker)
    finally:
        sys.setprofile(previous)
    trackers = [tracker] + list(getattr(result, "shard_trackers", []))
    return Run(_answer(result), [_charges(t) for t in trackers],
               frozenset(calls))


@cache
def _paths(name):
    """The driver's (default, reference) runs, each run once per session."""
    return _run(DRIVERS[name], False), _run(DRIVERS[name], True)


def _assert_same(default, reference, name):
    assert default.answer == reference.answer, f"{name}: answers differ"
    for k, (got, want) in enumerate(zip(default.charges,
                                        reference.charges)):
        assert got == want, f"{name}: charges of tracker {k} differ"
    assert len(default.charges) == len(reference.charges)


class TestTable:
    def test_registry_covers_every_batch_kernel(self):
        assert ENGINE_MODULES, f"no batch*.py under {SRC}"
        for name in ENGINE_MODULES:
            module = importlib.import_module(name)
            tracked = {
                fn_name for fn_name, fn in vars(module).items()
                if inspect.isfunction(fn) and fn.__module__ == name
                and "tracker" in inspect.signature(fn).parameters}
            assert set(module.PARLINT_PARITY) == tracked, name

    @pytest.mark.parametrize("module_name", ENGINE_MODULES)
    def test_oracles_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for kernel, oracle in module.PARLINT_PARITY.items():
            assert callable(getattr(module, kernel))
            assert callable(_resolve(oracle)), oracle


@pytest.mark.parametrize("module_name,kernel,oracle", PAIRS,
                         ids=[kernel for _, kernel, _ in PAIRS])
def test_some_driver_runs_both_sides(module_name, kernel, oracle):
    kernel_code = getattr(importlib.import_module(module_name),
                          kernel).__code__
    oracle_code = _resolve(oracle).__code__
    reaching = []
    for name in DRIVERS:
        default, reference = _paths(name)
        if kernel_code in default.calls \
                and oracle_code in reference.calls \
                and kernel_code not in reference.calls:
            reaching.append(name)
    assert reaching, (f"no driver runs {kernel} by default and {oracle} "
                      f"(without {kernel}) under tracker.reference; add "
                      f"one to DRIVERS")


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_paths_agree(name):
    default, reference = _paths(name)
    _assert_same(default, reference, name)


class TestMutations:
    """Deleting one charge from a kernel must break the comparison.

    The mutant is a copy of the kernel's module with the charge line
    replaced by ``pass``; it is patched in wherever a module binds the
    kernel by name, and every driver whose recorded run entered the
    kernel is re-run on that path."""

    @staticmethod
    def _mutant(module_name, kernel, line):
        module = importlib.import_module(module_name)
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert source.count(line) == 1
        namespace = {"__name__": module_name,
                     "__package__": module.__package__,
                     "__file__": module.__file__}
        exec(compile(source.replace(line, "pass"), module.__file__, "exec"),
             namespace)
        return getattr(module, kernel), namespace[kernel]

    def _breaks_parity(self, monkeypatch, module_name, kernel, line):
        recorded = {name: _paths(name) for name in sorted(DRIVERS)}
        original, mutant = self._mutant(module_name, kernel, line)
        for module in list(sys.modules.values()):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, mutant)
        code = original.__code__
        broken = []
        for name, (default, reference) in recorded.items():
            if code not in default.calls | reference.calls:
                continue
            if code in default.calls:
                default = _run(DRIVERS[name], False)
            if code in reference.calls:
                reference = _run(DRIVERS[name], True)
            try:
                _assert_same(default, reference, name)
            except AssertionError:
                broken.append(name)
        return broken

    def test_dropping_a_batchpeel_charge_breaks_parity(self, monkeypatch):
        assert self._breaks_parity(
            monkeypatch, "repro.core.batchpeel", "_edges_alive_many",
            "tracker.add_work_int(m * route_work"
            " + total_probes * table.suffix_width)")

    def test_dropping_a_batchlist_charge_breaks_parity(self, monkeypatch):
        assert self._breaks_parity(
            monkeypatch, "repro.cliques.batchlist", "batch_list_cliques",
            "tracker.add_work(float(dg.n))")
