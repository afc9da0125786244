#!/usr/bin/env python3
"""Run the pinned perf-trajectory sections and maintain BENCH_nucleus.json.

A shim over ``repro bench`` (``python -m repro.cli bench``), which takes
the same arguments; from the repo root::

    python tools/bench_trajectory.py                      # write baseline
    python tools/bench_trajectory.py --compare BENCH_nucleus.json \
        --output BENCH_current.json                       # gate a change
    python tools/bench_trajectory.py --engine-gate --compare BENCH_nucleus.json

Exit status is non-zero when ``--compare`` detects a regression beyond
``--tolerance`` or the engine gate fails, so the script doubles as the
CI gate.  See docs/profiling.md for the workflow.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
