"""Experiment harness reproducing every table and figure of Section 6.

* :mod:`repro.experiments.figures` -- one driver per paper figure;
* :mod:`repro.experiments.harness` -- runners (measured by
  :func:`repro.observe.bench.run_record`), formatting, and the
  paper-omission registry;
* :mod:`repro.experiments.report` -- Markdown rendering for
  EXPERIMENTS.md-style reports.
"""

from .harness import (PAPER_OMISSIONS, ArbRun, FigureResult, format_table,
                      geometric_mean, headline_statistics, run_arb,
                      run_baseline)
from .sweeps import best_per_group, config_grid, sweep

__all__ = [
    "PAPER_OMISSIONS", "ArbRun", "FigureResult", "format_table",
    "geometric_mean", "run_arb", "run_baseline", "headline_statistics",
    "sweep", "config_grid", "best_per_group",
]
