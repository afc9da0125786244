"""Regenerate EXPERIMENTS.md from live runs of every figure driver.

Runs each experiment at the same scope the benchmark suite uses, renders
the measured rows next to the paper-reported values, and writes
EXPERIMENTS.md at the repository root.

Usage:  python tools/generate_experiments.py  [--fast]

``--fast`` shrinks the graph lists to smoke-test the report pipeline.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.experiments import figures
from repro.experiments.harness import geometric_mean
from repro.experiments.report import figure_section, render_report

ROOT = Path(__file__).resolve().parent.parent

PREAMBLE = """
This file records, for every table and figure in the paper's evaluation
(Section 6), what the paper reports versus what this reproduction measures.

**Reading guide.** Absolute values are *not* comparable: the paper runs
C++ on a 30-core Cascade Lake machine over SNAP graphs up to 1.8B edges,
while this reproduction runs a deterministic work-span simulation over
deterministic surrogate graphs thousands of times smaller (see DESIGN.md
for the substitutions). The reproduction targets the *shape* of each
result: who wins, in which regime, and by roughly what factor. Simulated
times are in abstract operation units; only ratios are meaningful.

Rows marked "OOM (paper)" follow the paper's reported omissions: whether a
competitor exhausts memory depends on machine constants that a scaled-down
surrogate cannot reveal, so those rows are marked rather than fabricated.

Regenerate with `python tools/generate_experiments.py` (about 30 minutes),
or run `pytest benchmarks/ --benchmark-only` for the asserted versions.

The canonical simulated metrics behind these tables are tracked across
PRs in `BENCH_nucleus.json` (regenerate and gate with `make bench`); to
decompose any run's simulated time into its five cost-model terms or
export a Perfetto timeline, see [docs/profiling.md](docs/profiling.md).
The payload also carries a `baselines` section: the pinned competitor
suite (`bench.BASELINE_SUITE` — ND/PND on dblp, the truss family and
k-core on youtube, the densest scan on amazon and dblp), each run
recording its simulated metrics plus host wall-clock per phase, on the
library's default path: the vectorized batch kernels. The engine gate
reruns every suite on the scalar reference oracles and requires the
default path to reproduce their simulated metrics bit-for-bit *and* to
beat them by at least 3x aggregate wall-clock on the baselines' hot
(vectorized) phases — so host-speed regressions in the competitor
implementations fail CI just like simulated-cost regressions do. Note
the fig12 numbers predating the baseline accounting fixes (PKT's
duplicated frontier entries, the uncharged densest scan) were
regenerated; the corrected charges are the pinned trajectory.
"""


def _fig07():
    fig = figures.fig07()
    columns = ["graph", "n", "m", "rho(2,3)", "max(2,3)", "rho(3,4)",
               "max(3,4)", "rho(2,4)", "max(2,4)"]
    commentary = """
**Paper:** seven SNAP graphs from amazon (n=335K, m=926K) to friendster
(n=65.6M, m=1.8B), with rho and max (r,s)-core for all r < s <= 7; e.g.
dblp stands out with very high max cores (its large co-author cliques).
**Measured:** the surrogates preserve the size ordering and dblp's
standout core numbers (planted co-author cliques). Pairs whose runs the
paper reports as timeouts/OOMs on large graphs are likewise restricted
here (see RS_BY_GRAPH in repro/experiments/figures.py).
"""
    return figure_section(fig, columns, commentary)


def _fig08(fast):
    fig = figures.fig08(graphs=["amazon", "dblp"] if fast else None)
    commentary = """
**Paper (Fig. 8):** for (3,4), the best T layout is two-level + contiguous
+ stored pointers, up to 1.32x over one-level (1.34x for 3-multi-level on
orkut); space savings up to 2.15x; amazon is too small to benefit.
**Measured:** same ordering --- layered tables save space everywhere except
the smallest surrogate and speed up the mid/large graphs modestly; amazon
shows the paper's too-small-to-benefit behavior.
"""
    return figure_section(
        fig, ["graph", "combo", "speedup", "space_saving", "memory_units",
              "miss_rate"], commentary)


def _fig09_10(fast):
    fig = figures.fig09_fig10(graphs=["amazon", "dblp"] if fast else None)
    commentary = """
**Paper (Figs. 9-10):** for (4,5), space savings grow to 2.51x and the
3-multi-level table becomes competitive (1.46x on dblp); livejournal,
orkut, friendster OOM. **Measured:** the 3-multi-level layout saves the
most space on the clique-rich surrogates, matching the r=4 sharing effect.
"""
    return figure_section(
        fig, ["graph", "combo", "speedup", "space_saving", "memory_units",
              "miss_rate"], commentary)


def _fig11(fast):
    fig = figures.fig11(graphs=["amazon", "dblp"] if fast else None)
    rows = fig.rows
    agg = [r["speedup"] for r in rows if r["variant"].startswith("U=")]
    combined = [r["speedup"] for r in rows
                if r["variant"] == "combined(best/unopt)"]
    commentary = f"""
**Paper (Fig. 11):** list buffer up to 3.98x and hash table up to 4.12x
over the simple array; relabeling up to 1.29x (slight slowdowns on (2,3));
contraction up to 1.08x ((2,3) only); all optimizations combined up to
5.10x over unoptimized. **Measured:** aggregation speedups reach
{max(agg):.2f}x (geo-mean {geometric_mean(agg):.2f}x) and the combined
configuration reaches {max(combined):.2f}x --- same ranking: aggregation
dominates, relabeling is mild, contraction is near break-even.
"""
    return figure_section(fig, ["rs", "graph", "variant", "speedup"],
                          commentary)


def _fig12(fast):
    fig = figures.fig12(graphs=["amazon", "dblp"] if fast else None)
    commentary = """
**Paper (Fig. 12 + Section 6.3):** ARB beats ND by 8.19-58.02x, PND by
3.84-54.96x, AND by 1.32-60.44x, AND-NN by 1.04-8.78x; self-relative
speedups 3.31-40.14x. PND performs 5,608-84,170x more rounds; AND
discovers 1.69-46x more s-cliques (median ~15x), AND-NN <= 3.45x (median
~1.4x). ARB beats PKT 1.07-2.88x and MSP 2.35-7.65x everywhere;
PKT-OPT-CPU wins on large graphs (up to 2.27x) and loses on small (up to
1.64x). **Measured:** identical ordering and regime structure; the
magnitudes are compressed by the smaller surrogates (e.g. PND's round
blowup is in the hundreds rather than thousands), and the ARB-vs-PKT-OPT
crossover lands between the two smallest surrogates rather than between
youtube and skitter.
"""
    return figure_section(
        fig, ["rs", "graph", "algorithm", "slowdown", "self_speedup",
              "round_ratio", "visit_ratio", "note"], commentary)


def _fig13(fast):
    fig = figures.fig13(graphs=["amazon"] if fast else None)
    commentary = """
**Paper (Fig. 13):** across r < s <= 7, per-graph slowdowns over the
fastest (r,s) span one to three orders of magnitude, with many large-(r,s)
bars missing (OOM/timeout) on bigger graphs. **Measured:** the same wide
spread, with the expensive pairs being those with the most s-cliques.
"""
    return figure_section(fig, ["graph", "rs", "slowdown_vs_fastest", "T60"],
                          commentary)


def _fig14(fast):
    fig = figures.fig14(graphs=["dblp"] if fast else None)
    commentary = """
**Paper (Fig. 14):** near-linear scaling to 30 cores, flattening across
the hyper-threading region; overall self-relative speedups 3.31-40.14x.
**Measured:** the same curve shape from the Brent-bound machine model with
discounted hyper-threads; larger graphs scale better.
"""
    columns = ["graph", "rs"] + [f"S{p}" for p in (1, 2, 4, 8, 16, 30, 60)]
    return figure_section(fig, columns, commentary)


def _fig15(fast):
    fig = figures.fig15(scales=[7, 8] if fast else None)
    commentary = """
**Paper (Fig. 15):** rMAT graphs (a=0.5, b=c=0.1, d=0.3, duplicates
removed) at increasing size and density; running time scales with the
number of s-cliques. **Measured:** time grows monotonically in both scale
and edge factor, and log-time correlates strongly with log s-clique count.
"""
    columns = ["scale", "edge_factor", "n", "m", "T(2,3)", "T(3,4)",
               "T(4,5)"]
    return figure_section(fig, columns, commentary)


def main() -> int:
    fast = "--fast" in sys.argv
    sections = []
    for name, builder in [("fig07", _fig07), ("fig08", _fig08),
                          ("fig09_10", _fig09_10), ("fig11", _fig11),
                          ("fig12", _fig12), ("fig13", _fig13),
                          ("fig14", _fig14), ("fig15", _fig15)]:
        start = time.time()
        if name == "fig07":
            sections.append(builder() if not fast else
                            figure_section(figures.fig07(["amazon"]),
                                           ["graph", "n", "m", "rho(2,3)",
                                            "max(2,3)"]))
        else:
            sections.append(builder(fast))
        print(f"{name} done in {time.time() - start:.0f}s", flush=True)
    text = render_report(
        "EXPERIMENTS — paper versus measured", PREAMBLE, sections)
    (ROOT / "EXPERIMENTS.md").write_text(text + "\n")
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
