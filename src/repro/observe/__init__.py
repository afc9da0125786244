"""Observability for the simulated machine: tracing, breakdowns, trajectory.

Three layers, all accounting-neutral (attaching them changes no counter):

* :mod:`repro.observe.trace` -- a :class:`TraceRecorder` that hooks into
  ``CostTracker.phase()`` / ``parallel()`` and exports Chrome trace-event
  JSON viewable in ``chrome://tracing`` / Perfetto;
* :mod:`repro.observe.breakdown` -- renderers for
  :meth:`MachineModel.time_breakdown`, which decomposes every simulated
  time into its six terms (work/P, span, barriers, contention, cache,
  comm);
* :mod:`repro.observe.bench` -- :func:`run_record`, the one record of a
  tracked run, and the pinned perf-trajectory sections (:data:`SECTIONS`)
  behind ``repro bench`` and the committed ``BENCH_nucleus.json``
  baseline.
"""

from .bench import (BENCH_THREADS, PINNED_SUITE, SECTIONS, SHARDED_SUITE,
                    compare, load_payload, run_entry, run_payloads,
                    run_record, run_sharded_entry, write_payload)
from .breakdown import breakdown_rows, format_breakdown
from .trace import TraceRecorder, merged_chrome_trace, write_merged_trace

__all__ = [
    "TraceRecorder", "merged_chrome_trace", "write_merged_trace",
    "breakdown_rows", "format_breakdown",
    "run_record", "SECTIONS", "PINNED_SUITE", "BENCH_THREADS",
    "SHARDED_SUITE", "run_entry", "run_sharded_entry", "run_payloads",
    "compare", "load_payload", "write_payload",
]
