"""Report and compare benchmark results.

    python3 perfbench/report.py run [--seed N] [--seconds S] [--out FILE]
        Run every workload untraced and traced, save the results to FILE
        (default perfbench/results/seed<N>.json) and print the report.
    python3 perfbench/report.py show FILE
        Print a saved report: each workload's end-to-end metrics, then its
        per-layer table from the traced pass.
    python3 perfbench/report.py diff A B
        Print per-workload, per-metric deltas from result file A to B.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: name -> (unit, better) for every metric of either section.
METRICS = {**run.END_TO_END, **tracing.PER_LAYER}
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text()
                         )["run_seconds"]


def _run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return run.last_json_line(done.stdout)


def run_all(seed: int, seconds: int) -> dict:
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        plain = _run_one(workload, seed, seconds, 0)
        traced = _run_one(workload, seed, seconds, 1)
        results["workloads"][workload] = {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    return results


def _line(name: str, value: float) -> str:
    unit, better = METRICS.get(name, ("", ""))
    return f"  {name:32s} {value:14.6g} {unit:10s} {better}"


def show(results: dict) -> None:
    for workload, data in results["workloads"].items():
        failed, attempted = data["failed"], data["attempted"]
        print(f"== {workload} (seed {results['seed']}, "
              f"{results['seconds']} s per run)")
        print(f"  failed_frac {failed / attempted:.4g} "
              f"({failed} of {attempted} operations)")
        print("end-to-end:")
        for name, value in data["end_to_end"].items():
            print(_line(name, value))
        layers = data["per_layer"]
        print("layer self time (traced pass):")
        for layer in tracing.LAYERS:
            print(f"  {layer:12s} {layers[layer + '.self_s']:10.4f} s "
                  f"{100 * layers[layer + '.self_share']:6.1f} %")
        print("per-layer:")
        for name, value in layers.items():
            if not name.endswith(("self_s", "self_share")):
                print(_line(name, value))
        print()


def diff(old: dict, new: dict) -> None:
    print(f"seed {old['seed']} -> seed {new['seed']}")
    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload)
        if after is None:
            print(f"== {workload}: missing from the second file")
            continue
        print(f"== {workload}")
        for section in ("end_to_end", "per_layer"):
            for name, a in before[section].items():
                b = after[section].get(name)
                if b is None:
                    continue
                _, better = METRICS.get(name, ("", "lower"))
                change = (b - a) / abs(a) if a else (0.0 if b == a else None)
                if change is None:
                    verdict = "new"
                    shown = "      n/a"
                else:
                    shown = f"{100 * change:+8.2f}%"
                    gain = -change if better == "lower" else change
                    verdict = ("same" if change == 0 else
                               "better" if gain > 0 else "worse")
                print(f"  {name:32s} {a:12.6g} -> {b:12.6g} {shown} "
                      f"{verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="benchmark report and diff")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p_run.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p_run.add_argument("--out")
    p_show = sub.add_parser("show")
    p_show.add_argument("file")
    p_diff = sub.add_parser("diff")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "run":
        results = run_all(args.seed, args.seconds)
        out = Path(args.out or HERE / "results" / f"seed{args.seed}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=1) + "\n")
        show(results)
        print(f"saved {out}")
    elif args.command == "show":
        show(json.loads(Path(args.file).read_text()))
    else:
        diff(json.loads(Path(args.old).read_text()),
             json.loads(Path(args.new).read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
