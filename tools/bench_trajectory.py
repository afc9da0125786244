#!/usr/bin/env python3
"""Run the pinned perf-trajectory suite and maintain BENCH_nucleus.json.

Usage (from the repo root)::

    python tools/bench_trajectory.py                      # write baseline
    python tools/bench_trajectory.py --compare BENCH_nucleus.json \
        --output BENCH_current.json                       # gate a change
    python tools/bench_trajectory.py --label "$(git rev-parse --short HEAD)"

Exit status is non-zero when ``--compare`` detects a regression beyond
``--tolerance``, so the script doubles as the CI gate.  See
docs/profiling.md for the workflow.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.observe import bench  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_nucleus.json",
                        help="where to write the canonical metrics "
                             "(default: BENCH_nucleus.json)")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="baseline payload to diff against; exits "
                             "non-zero on regressions")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="relative regression tolerance (default 0.05)")
    parser.add_argument("--threads", type=int, default=bench.BENCH_THREADS,
                        help="parallel thread count for the T column")
    parser.add_argument("--label", default="",
                        help="free-form label stored in the payload "
                             "(e.g. a git revision)")
    parser.add_argument("--engine-gate", action="store_true",
                        help="run every suite twice, once on the default "
                             "path (the batch kernels) and once on the "
                             "scalar reference oracles; require "
                             "bit-for-bit identical simulated metrics, a "
                             "peel wall-clock speedup of at least "
                             "--min-speedup, a count-phase speedup of at "
                             "least --min-listing-speedup, a baseline "
                             "hot-phase speedup of at least "
                             "--min-baseline-speedup and a hierarchy "
                             "level-sweep speedup of at least "
                             "--min-hierarchy-speedup; writes the default "
                             "payload to --output and the reference "
                             "payload next to it as *.reference.json")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="minimum suite-total peel wall-clock speedup "
                             "of the default path over the reference in "
                             "--engine-gate mode (default 1.0: strictly "
                             "faster)")
    parser.add_argument("--min-listing-speedup", type=float, default=1.0,
                        help="minimum suite-total count-phase wall-clock "
                             "speedup of the default path over the "
                             "reference in --engine-gate mode (default "
                             "1.0: strictly faster)")
    parser.add_argument("--min-baseline-speedup", type=float, default=1.0,
                        help="minimum baseline-suite hot-phase wall-clock "
                             "speedup of the default path over the "
                             "reference in --engine-gate mode (default "
                             "1.0: strictly faster)")
    parser.add_argument("--min-hierarchy-speedup", type=float, default=1.0,
                        help="minimum hierarchy-suite level-sweep "
                             "wall-clock speedup of the default path over "
                             "the reference in --engine-gate mode "
                             "(default 1.0: strictly faster)")
    parser.add_argument("--min-comm-reduction", type=float, default=1.0,
                        help="minimum simulated comm-time reduction "
                             "(hash comm time / mincut comm time) every "
                             "sharded-suite entry must reach in "
                             "--engine-gate mode (default 1.0: mincut no "
                             "worse than hash)")
    args = parser.parse_args(argv)

    # Load the baseline up front: --output may name the same file.
    baseline = bench.load_payload(args.compare) if args.compare else None

    if args.engine_gate:
        return _engine_gate(args, baseline)

    payload, = _run(args, False)
    bench.write_payload(payload, args.output)
    print(f"wrote {len(payload['suite'])} suite entries, "
          f"{len(payload['baselines'])} baseline entries, "
          f"{len(payload['hierarchy'])} hierarchy entries and "
          f"{len(payload['sharded'])} sharded entries to "
          f"{args.output}")

    if baseline is not None:
        regressions = bench.compare(payload, baseline,
                                    tolerance=args.tolerance)
        if regressions:
            print(f"REGRESSIONS vs {args.compare}:")
            for line in regressions:
                print(f"  {line}")
            return 1
        print(f"no regressions vs {args.compare} "
              f"(tolerance {100.0 * args.tolerance:.1f}%)")
    return 0


def _run(args, *references: bool) -> list[dict]:
    """One payload of every pinned section per ``reference`` flag.

    Runs section by section, so the runs the engine gate compares by
    wall-clock sit next to each other in time (host speed drifts).
    """
    progress = lambda msg: print(msg, flush=True)  # noqa: E731
    payloads = [bench.run_suite(threads=args.threads, label=args.label,
                                progress=progress, reference=reference)
                for reference in references]
    for section, run in (("baselines", bench.run_baseline_suite),
                         ("hierarchy", bench.run_hierarchy_suite),
                         ("sharded", bench.run_sharded_suite)):
        for payload, reference in zip(payloads, references):
            payload[section] = run(threads=args.threads, progress=progress,
                                   reference=reference)
    return payloads


def _simulated_view(entry: dict) -> dict:
    """An entry without host wall-clock, the one field the reference and
    the default path are *supposed* to differ in."""
    return {k: v for k, v in entry.items() if k != "wall_clock"}


def _phase_wall_total(payload: dict, phase: str) -> float:
    return sum(e["wall_clock"].get(phase, 0.0) for e in payload["suite"])


_SECTION_KEYS = {
    "suite": bench.entry_key,
    "baselines": bench.baseline_entry_key,
    "hierarchy": bench.hierarchy_entry_key,
    "sharded": bench.sharded_entry_key,
}


def _parity_failures(reference: dict, candidate: dict,
                     section: str) -> list[str]:
    """Bit-for-bit simulated-metric differences between two runs."""
    key_of = _SECTION_KEYS[section]
    failures = []
    for ref_entry, cand_entry in zip(reference[section], candidate[section]):
        key = key_of(ref_entry)
        if _simulated_view(ref_entry) != _simulated_view(cand_entry):
            diffs = [k for k in _simulated_view(ref_entry)
                     if ref_entry.get(k) != cand_entry.get(k)]
            failures.append(f"{key}: simulated metrics differ between "
                            f"the reference and the default path in "
                            f"fields {diffs}")
    return failures


def _wall_total(payload: dict, section: str) -> float:
    return sum(e["wall_clock"]["total"] for e in payload[section])


def _hot_total(payload: dict, section: str) -> float:
    return sum(e["wall_clock"].get(e["hot_phase"], 0.0)
               for e in payload[section])


def _speedup(label: str, reference: float, default: float,
             floor: float | None, failures: list[str]) -> float:
    """Print one reference-vs-default wall-clock line; with a ``floor``,
    record a failure when the speedup falls below it."""
    ratio = reference / default if default > 0 else float("inf")
    print(f"{label} wall-clock: reference {reference:.3f}s, default "
          f"{default:.3f}s (speedup x{ratio:.2f})")
    if floor is not None and ratio < floor:
        failures.append(f"{label} speedup x{ratio:.2f} below the required "
                        f"x{floor:.2f}")
    return ratio


def _engine_gate(args, baseline) -> int:
    """Run the default path and the reference oracles; enforce the
    cost-parity invariants plus the wall-clock speedup floors."""
    reference, default = _run(args, True, False)
    bench.write_payload(default, args.output)
    root, ext = os.path.splitext(args.output)
    reference_path = f"{root}.reference{ext or '.json'}"
    bench.write_payload(reference, reference_path)
    print(f"wrote default payload to {args.output}, reference payload to "
          f"{reference_path}")

    failures = []
    for section in _SECTION_KEYS:
        failures += _parity_failures(reference, default, section)
    ratio = _speedup("suite peel", _phase_wall_total(reference, "peel"),
                     _phase_wall_total(default, "peel"), args.min_speedup,
                     failures)
    listing_ratio = _speedup(
        "suite count_s", _phase_wall_total(reference, "count_s"),
        _phase_wall_total(default, "count_s"), args.min_listing_speedup,
        failures)
    # Reported only: the table build has no speedup floor.
    build_ratio = _speedup(
        "suite build_table", _phase_wall_total(reference, "build_table"),
        _phase_wall_total(default, "build_table"), None, failures)
    baseline_ratio = _speedup(
        "baseline-suite hot-phase", _hot_total(reference, "baselines"),
        _hot_total(default, "baselines"), args.min_baseline_speedup,
        failures)
    hierarchy_ratio = _speedup(
        "hierarchy-suite level-sweep", _hot_total(reference, "hierarchy"),
        _hot_total(default, "hierarchy"), args.min_hierarchy_speedup,
        failures)
    # Reported only: the sharded suite's host time has no floor.
    sharded_ratio = _speedup(
        "sharded total", _wall_total(reference, "sharded"),
        _wall_total(default, "sharded"), None, failures)
    worst_reduction = float("inf")
    for entry in default["sharded"]:
        reduction = entry["comm_reduction"]
        worst_reduction = min(worst_reduction, reduction)
        print(f"sharded {bench.sharded_entry_key(entry)}: comm time "
              f"hash {entry['hash']['comm_time']:.0f} -> mincut "
              f"{entry['mincut']['comm_time']:.0f} (x{reduction:.2f}), "
              f"speedup vs 1 node x{entry['speedup']:.2f}, "
              f"oracle match {entry['matches_oracle']}")
        if not entry["matches_oracle"]:
            failures.append(f"{bench.sharded_entry_key(entry)}: sharded "
                            f"cores differ from the single-node oracle")
        if reduction < args.min_comm_reduction:
            failures.append(f"{bench.sharded_entry_key(entry)}: mincut "
                            f"comm reduction x{reduction:.2f} below the "
                            f"required x{args.min_comm_reduction:.2f}")

    if baseline is not None:
        for name, payload in (("default", default),
                              ("reference", reference)):
            regressions = bench.compare(payload, baseline,
                                        tolerance=args.tolerance)
            failures.extend(f"[{name}] {line}" for line in regressions)

    if failures:
        print("ENGINE GATE FAILURES:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("engine gate passed: identical simulated metrics, peel "
          f"x{ratio:.2f} faster, count phase x{listing_ratio:.2f} faster, "
          f"table build x{build_ratio:.2f} faster (no floor), "
          f"baselines x{baseline_ratio:.2f} faster, hierarchy level sweep "
          f"x{hierarchy_ratio:.2f} faster, sharded x{sharded_ratio:.2f} "
          f"faster (no floor), worst mincut comm reduction "
          f"x{worst_reduction:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
