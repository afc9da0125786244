#!/usr/bin/env python3
"""A/B one perfbench workload: a parent revision against the staged tree.

From the repo root, after ``git add -A``::

    python tools/perf_ab.py --workload sharded --seed 0
    python tools/perf_ab.py --workload paper --base HEAD~1

Both sides run from fresh ``git archive`` copies (``--base``, default
``HEAD``, and the index's tree from ``git write-tree``), so neither holds
``__pycache__`` bytecode, and every run sets ``PYTHONDONTWRITEBYTECODE=1``
so neither writes any: ``setup_s`` times fresh imports, and a side with
stale bytecode would import faster.  Each pair (``--pairs``, default 10)
runs ``perfbench/run.py --trace 0`` once per side for the benchmark's
``run_seconds``, swapping which side runs first from pair to pair.  The
table gives, per end-to-end metric of ``BENCHMARK.json``, both medians,
the change in percent, the parent's interquartile range and the pairs
the change won (strictly better in the metric's direction).
Nothing under ``perfbench/`` is changed; the copies live in a temporary
directory (``--workdir`` keeps them).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark(root: Path = ROOT) -> tuple[int, list[dict]]:
    """``BENCHMARK.json``'s run length (``run_seconds``) and end-to-end
    metrics (``name``, ``better``)."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["run_seconds"], spec["end_to_end"]


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list[dict], change: list[dict],
              metrics: list[dict]) -> list[dict]:
    """One row per metric from paired runs (``parent[i]`` and
    ``change[i]`` are pair ``i``'s ``{metric: value}``): both medians,
    the change in percent of the parent's median (None when that is 0),
    the parent's quartiles, and the pairs the change won."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        base, new = statistics.median(before), statistics.median(after)
        wins = sum((b < a) if lower else (b > a)
                   for a, b in zip(before, after))
        rows.append({
            "metric": name, "better": metric["better"],
            "parent": base, "change": new,
            "change_pct": 100.0 * (new - base) / base if base else None,
            "parent_quartiles": _quartiles(before),
            "wins": wins, "pairs": len(before)})
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = ["metric        parent      change      change   parent IQR"
             "               wins"]
    for row in rows:
        pct = ("n/a" if row["change_pct"] is None
               else f"{row['change_pct']:+.1f}%")
        q1, q3 = row["parent_quartiles"]
        lines.append(
            f"{row['metric']:<12}  {row['parent']:<10.4g}  "
            f"{row['change']:<10.4g}  {pct:>7}   {q1:.4g}-{q3:<14.4g}  "
            f"{row['wins']}/{row['pairs']} ({row['better']} is better)")
    return "\n".join(lines)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def export(tree: str, dest: Path) -> Path:
    """Extract ``git archive tree`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = io.BytesIO(_git("archive", "--format=tar", tree))
    with tarfile.open(fileobj=archive) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(checkout: Path, workload: str, seed: int,
             seconds: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run: ``{metric: value}``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, check=True, stdout=subprocess.PIPE,
        text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of "
                           f"{result['attempted']} operations failed")
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD",
                        help="parent revision (default HEAD)")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="keep the two copies here (must not exist)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seconds, metrics = benchmark()
    staged = _git("write-tree").decode().strip()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.workdir or Path(tmp)
        sides = {"parent": export(args.base, workdir / "parent"),
                 "change": export(staged, workdir / "change")}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], args.workload,
                                           args.seed, seconds))
                print(f"perf_ab: pair {pair + 1}/{args.pairs} {side}: "
                      f"{json.dumps(runs[side][-1])}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"{args.base} -> staged tree {staged[:12]}")
    print(format_rows(summarize(runs["parent"], runs["change"],
                                metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
