"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 20 --trace 0

Run from anywhere; the repository root is this file's parent directory.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Progress goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout; removed run by run, except spans.
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: A run stops its workers after this many seconds, so it ends within
#: three minutes even when a worker hangs.
DEADLINE_S = 170.0

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "sim_T60": ("sim_units", "lower"),
    "sim_T1": ("sim_units", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run_worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` to completion within the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the worker")
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=remaining)
    return last_json_line(done.stdout)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set up, build references, run the worker, and check its passes."""
    import speed
    import tracing
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
        workdir = Path(tmp)
        setup_s = []
        if not trace:
            before = speed.probe()
            for i in range(SETUP_REPEATS):
                scratch = workdir / f"setup{i}"
                scratch.mkdir()
                took = _run_worker(
                    ["setup", workload, str(seed), str(scratch)],
                    deadline)["setup_s"]
                after = speed.probe()
                setup_s.append(speed.rescale(took, [before, after]))
                before = after
        print(f"perfbench: {workload} seed {seed}: building references",
              file=sys.stderr)
        inputs = workloads.build_inputs(workload, seed, workdir)
        references, queries, single_t60 = workloads.build_references(inputs)
        spec = {"workload": workload, "seed": seed, "seconds": seconds,
                "trace": trace, "workdir": str(workdir),
                "edge_list": str(inputs.edge_list or ""),
                "queries": queries, "single_t60": single_t60}
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        print(f"perfbench: {workload} seed {seed}: measuring for "
              f"{seconds} s", file=sys.stderr)
        out = _run_worker(["passes", str(spec_path)], deadline)

    passes = out["passes"]
    failed = sum(workloads.count_failures(workload, p["digests"], references)
                 for p in passes)
    attempted = len(passes) * len(workloads.operations(workload))
    timed = [p for p in passes if p["mode"] == "timed" and not p["error"]]
    run_s = _median(speed.rescale(p["run_s"], p["probes"]) for p in timed)
    if trace:
        traced = [p for p in passes if p["mode"] == "traced" and "layers" in p]
        alloc = [p for p in passes if p["mode"] == "alloc" and "layers" in p]
        metrics = {name: _median(p["layers"][name] for p in traced)
                   for name in tracing.PER_LAYER
                   if name not in tracing.RUN_METRICS}
        for name in tracing.ALLOC_METRICS:
            metrics[name] = _median(p["layers"][name] for p in alloc)
        traced_s = _median(speed.rescale(p["run_s"], p["probes"])
                           for p in traced)
        metrics["bench.trace_overhead"] = (
            traced_s / run_s - 1.0 if run_s and traced else 0.0)
        metrics["bench.wall_run_s"] = _median(p["run_s"] for p in timed)
        metrics["bench.probe_s"] = _median(p["probes"][1] for p in passes)
        table = tracing.PER_LAYER
        spans = [span for p in passes for span in p.get("spans", [])]
        spans_path = BUILD_DIR / f"{workload}-seed{seed}.spans.json"
        spans_path.write_text(json.dumps(spans))
        print(f"perfbench: spans written to {spans_path}", file=sys.stderr)
    else:
        metrics = {
            "run_s": run_s,
            "setup_s": _median(setup_s),
            "sim_T60": _median(p["sim_T60"] for p in timed),
            "sim_T1": _median(p["sim_T1"] for p in timed),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        table = END_TO_END
    return {
        "correct": failed == 0 and bool(timed),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in metrics.items()},
        "passes": len(timed),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; options: "
                     f"{', '.join(workloads.WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    passes = result.pop("passes")
    print(f"perfbench: {args.workload}: {passes} timed passes, "
          f"{result['failed']}/{result['attempted']} operations failed",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
