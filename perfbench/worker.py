"""The process that runs a workload, so that its peak resident memory is
its own and not that of the references built beforehand.

    python3 perfbench/worker.py setup <workload> <seed> <workdir>
        Import repro, build the workload's inputs, print the seconds taken.
    python3 perfbench/worker.py passes <spec.json>
        Run passes for the spec's seconds; print one JSON line of results.

``run.py`` starts both and reads the last line of their output.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(workload: str, seed: int, workdir: str) -> float:
    # Modules that import repro are imported inside functions, so that
    # this import is the first and falls inside the set-up timing.
    start = time.perf_counter()
    import workloads
    workloads.build_inputs(workload, seed, Path(workdir))
    return time.perf_counter() - start


def one_pass(inputs, queries, spec, mode: str, pass_id: int) -> dict:
    """Run one pass (``mode``: timed, traced or alloc) and check it."""
    import tracing
    import workloads

    recorder = tracing.Recorder(traced=mode == "traced",
                                alloc=mode == "alloc")
    error = None
    gc.collect()  # every pass starts from a collected heap
    start = time.perf_counter()
    try:
        workloads.run_pass(inputs, queries, recorder)
    except Exception:  # a failing pass is counted, not fatal
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    end = time.perf_counter()
    calls = recorder.calls
    digests = workloads.output_digests(inputs.workload, calls)
    record = {
        "mode": mode,
        "run_s": end - start,
        "error": error,
        "digests": digests,
        "sim_T60": workloads.simulated_time(calls, workloads.THREADS),
        "sim_T1": workloads.simulated_time(calls, 1),
    }
    if mode != "timed" and error is None:
        spans = tracing.pass_spans(calls, start, end, pass_id)
        record["layers"] = tracing.layer_metrics(calls, spans,
                                                 spec["single_t60"])
        record["spans"] = [vars(span) for span in spans]
    return record


def _mode(index: int, trace: bool) -> str:
    """The kind of pass number ``index``.

    An untraced run times every pass.  A traced run starts with a timed,
    a span-traced and an allocation pass, then alternates timed and
    traced passes while time remains, so both kinds see the same machine.
    ``tracemalloc`` slows allocation several-fold, so the allocation pass
    gives the allocation peaks and no seconds.
    """
    if not trace:
        return "timed"
    if index == 2:
        return "alloc"
    return ("timed", "traced")[(index - (index > 2)) % 2]


def passes(spec_path: str) -> dict:
    """Run passes for the spec's seconds, with a speed probe before the
    first and after each; every record keeps the two probes around it."""
    import speed
    import workloads

    spec = json.loads(Path(spec_path).read_text())
    workload, seconds, trace = spec["workload"], spec["seconds"], spec["trace"]
    if workload == "pipeline":
        inputs = workloads.Inputs(workload, spec["seed"],
                                  edge_list=Path(spec["edge_list"]))
    else:
        inputs = workloads.build_inputs(workload, spec["seed"],
                                        Path(spec["workdir"]))
    records = []
    start = time.perf_counter()
    before = speed.probe()
    while True:
        mode = _mode(len(records), trace)
        record = one_pass(inputs, spec["queries"], spec, mode, len(records))
        after = speed.probe()
        record["probes"] = [before, after]
        before = after
        records.append(record)
        print(f"perfbench: pass {len(records)} ({mode}) "
              f"{record['run_s']:.3f} s, probe {after:.3f} s",
              file=sys.stderr)
        if trace and len(records) < 3:
            continue
        typical = statistics.median(r["run_s"] for r in records
                                    if r["mode"] != "alloc")
        if time.perf_counter() - start + typical + after > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"passes": records, "peak_rss_mb": peak_rss_mb}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 4:
        print(json.dumps({"setup_s": setup(argv[1], int(argv[2]), argv[3])}))
        return 0
    if argv[:1] == ["passes"] and len(argv) == 2:
        print(json.dumps(passes(argv[1])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
