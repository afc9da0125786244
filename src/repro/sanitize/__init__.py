"""Static and dynamic analysis for the simulated parallel machine.

Two layers guard the accounting discipline everything in EXPERIMENTS.md
depends on:

* :func:`repro.sanitize.chargeflow.analyze` -- the analyzer behind
  ``repro lint``.  A project-wide call graph
  (:mod:`~repro.sanitize.callgraph`) and per-function charge summaries
  (:mod:`~repro.sanitize.summaries`) feed the lexical rules PAR001--PAR004
  (:mod:`~repro.sanitize.parlint`: parallel regions must charge
  work/span, graph-scale loops must be cost-accounted, shared writes
  inside tasks must be mediated, contention meters must be settled), so
  charging-via-helper needs no suppression, and power the
  interprocedural rules PAR005, PAR006 and PAR008--PAR011
  (:mod:`~repro.sanitize.rules`, :mod:`~repro.sanitize.effects`).  Rule
  metadata lives in :mod:`~repro.sanitize.catalog`, the JSON/SARIF
  reporters in :mod:`~repro.sanitize.reporters`.
* :mod:`repro.sanitize.racecheck` -- a dynamic race detector (the
  ThreadSanitizer analog for the work-span simulator): instrumented
  structures shadow-log accesses per simulated task, and unmediated
  write-write / read-write pairs across tasks are flagged.

Batch/oracle cost parity is not a lint rule: each ``batch*`` module's
``PARLINT_PARITY`` table names its kernels' scalar oracles, and
``tests/test_parity_registry.py`` runs both paths and compares them.

CLI entry points: ``repro lint`` and ``repro sanitize``.
"""

from .racecheck import (Race, RaceDetector, RaceError, RaceStats,
                        ShadowArray, maybe_shadow)

__all__ = [
    "RaceDetector", "RaceError", "Race", "RaceStats",
    "ShadowArray", "maybe_shadow",
    "Finding", "analyze", "build_project", "compute_summaries",
]

_LAZY_EXPORTS = {
    "Finding": "parlint",
    "analyze": "chargeflow",
    "build_project": "callgraph",
    "compute_summaries": "summaries",
}


def __getattr__(name):
    # Lazy so the engines, which import the race detector, load none of
    # the static analyzer.
    if name in _LAZY_EXPORTS:
        import importlib
        module = importlib.import_module(
            f".{_LAZY_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
