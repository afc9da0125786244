"""The perf-trajectory harness: pinned suites of tracked runs.

Every future performance PR is judged against the numbers this module
produces, so the suites are deliberately **pinned**: fixed surrogate
graphs, fixed (r, s) pairs covering the paper's three headline workloads
(k-core, k-truss, and (3,4) nucleus), the default
:class:`~repro.parallel.runtime.MachineModel`, and an exact (unsampled)
cache simulator.  Everything simulated is deterministic, so two runs of
the same tree write byte-identical payloads and any drift in
``--compare`` mode is a real accounting change.

Every tracked run --- a suite, baseline or hierarchy entry, the sharded
entry's single-node reference, :func:`repro.experiments.harness.run_arb`
and the CLI's reports --- is measured by one function,
:func:`run_record`: work, span, rounds, contention, cache misses,
simulated T1/T60 and self-relative speedup (the quantities the paper's
evaluation is built from), plus the per-phase counters and the
five-term :meth:`~repro.parallel.runtime.MachineModel.time_breakdown`
so a regression can be localized, not just detected.

:data:`SECTIONS` names the four sections of the canonical output
(``BENCH_nucleus.json`` at the repo root), each with its pinned suite,
entry runner and entry key.  :func:`compare` flags regressions beyond a
relative tolerance; ``repro bench --compare`` runs it against the
committed baseline.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from ..analysis.construct import nucleus_hierarchy
from ..baselines.msp import msp_decomposition
from ..baselines.nd import nd_decomposition, pnd_decomposition
from ..baselines.pkt import pkt_decomposition, pkt_opt_cpu_decomposition
from ..core.config import NucleusConfig
from ..core.decomp import arb_nucleus_decomp
from ..core.densest import k_clique_densest
from ..core.kcore import k_core
from ..graph.datasets import load_dataset
from ..graph.stats import partition_statistics
from ..machine.cache import CacheSimulator
from ..parallel.runtime import CostTracker, MachineModel

#: Schema version of the payload; bump on incompatible layout changes.
#: Version 2 stores no host ``wall_clock`` and gives every entry the
#: full run record.
SCHEMA_VERSION = 2

#: The simulated machine of every record: the paper's 30-core /
#: 60-hyper-thread box.
DEFAULT_MACHINE = MachineModel()

#: Parallel thread count of the record's T_P column (the paper's 60).
BENCH_THREADS = 60

#: The pinned suite: (graph, r, s).  k-core (1,2), k-truss (2,3), and
#: (3,4) nucleus on three surrogate graphs of increasing size; youtube's
#: (3,4) run is included to keep one mid-size high-(r,s) point.
PINNED_SUITE: tuple[tuple[str, int, int], ...] = (
    ("amazon", 1, 2), ("amazon", 2, 3), ("amazon", 3, 4),
    ("dblp", 1, 2), ("dblp", 2, 3), ("dblp", 3, 4),
    ("youtube", 1, 2), ("youtube", 2, 3), ("youtube", 3, 4),
)

#: Scalar metrics compared by :func:`compare`; True means lower-is-better.
#: ``comm_time`` / ``comm_reduction`` only appear in sharded entries;
#: entries without a metric skip it.
COMPARED_METRICS: dict[str, bool] = {
    "work": True, "span": True, "rho": True, "T1": True,
    "T60": True, "contention": True, "cache_misses": True,
    "speedup": False, "comm_time": True, "comm_reduction": False,
}

_PHASE_FIELDS = ("work", "span", "rounds", "contention", "cache_misses")

#: The pinned baseline suite: (baseline, graph).  The ND-family
#: competitors run on the mid-size dblp surrogate, the truss family and
#: k-core on the largest (youtube), and the densest-subgraph scan on both
#: amazon and dblp (its suffix re-listings grow quickly with graph size).
BASELINE_SUITE: tuple[tuple[str, str], ...] = (
    ("nd", "dblp"),
    ("pnd", "dblp"),
    ("pkt", "youtube"),
    ("pkt-opt-cpu", "youtube"),
    ("msp", "youtube"),
    ("kcore", "youtube"),
    ("densest", "amazon"),
    ("densest", "dblp"),
)

#: Each baseline's hot phase: the one its batch kernel vectorizes, whose
#: wall-clock the engine gate's --min-baseline-speedup floor is over.
BASELINE_HOT_PHASE: dict[str, str] = {
    "nd": "peel", "pnd": "peel", "pkt": "peel", "pkt-opt-cpu": "peel",
    "msp": "peel", "kcore": "peel", "densest": "scan",
}

#: The pinned hierarchy-construction suite: (graph, r, s).  The k-truss
#: hierarchy on the two smaller surrogates plus one higher-(r,s) point;
#: entries measure hierarchy construction only (the decomposition that
#: feeds it runs off the books on a throwaway tracker).
HIERARCHY_SUITE: tuple[tuple[str, int, int], ...] = (
    ("amazon", 2, 3), ("amazon", 3, 4), ("dblp", 2, 3),
)

#: The hierarchy engine's hot phase: the level-sweep kernel the batch
#: form vectorizes, whose wall-clock the engine gate's
#: --min-hierarchy-speedup floor is over (``hier_emit`` is shared code
#: between the kernel and its reference oracle).
HIERARCHY_HOT_PHASE = "hier_levels"

#: The pinned sharded suite: (graph, r, s, shards).  Covers two shard
#: counts (4 and 8) so the --min-comm-reduction floor --- how much the
#: mincut partitioner must cut simulated comm time versus the hash
#: baseline --- is enforced on both.
SHARDED_SUITE: tuple[tuple[str, int, int, int], ...] = (
    ("amazon", 2, 3, 4), ("amazon", 2, 3, 8),
    ("dblp", 1, 2, 4), ("dblp", 2, 3, 8),
)


def run_record(tracker: CostTracker) -> dict:
    """The run record of a finished tracked run.

    Simulated counters, T1 and T60 on :data:`DEFAULT_MACHINE`, the
    self-relative speedup, per-phase counters and the total of the
    five-term breakdown at :data:`BENCH_THREADS` threads, plus the one
    host-side field, ``wall_clock`` (seconds per phase).  Cache fields
    read 0 when no cache simulator is attached.
    """
    t1 = DEFAULT_MACHINE.time(tracker, 1)
    tp = DEFAULT_MACHINE.time(tracker, BENCH_THREADS)
    total, cache = tracker.total, tracker.cache
    return {
        "wall_clock": {"total": sum(tracker.phase_wall.values()),
                       **dict(sorted(tracker.phase_wall.items()))},
        "work": total.work,
        "span": tracker.span,
        "rounds": total.rounds,
        "atomic_ops": total.atomic_ops,
        "contention": total.contention,
        "table_probes": total.table_probes,
        "cliques": total.cliques_enumerated,
        "cache_accesses": cache.accesses if cache is not None else 0,
        "cache_misses": cache.misses if cache is not None else 0,
        "T1": t1, "T60": tp, "speedup": t1 / tp,
        "phases": {
            name: {field: getattr(stats, field) for field in _PHASE_FIELDS}
            for name, stats in tracker.phases.items()
        },
        "breakdown": DEFAULT_MACHINE.time_breakdown(
            tracker, BENCH_THREADS)["total"],
    }


def _tracker(reference: bool) -> CostTracker:
    """A fresh tracker with an exact cache simulator; ``reference`` runs
    every kernel's scalar oracle (the engine gate's parity side)."""
    tracker = CostTracker()
    tracker.cache = CacheSimulator()  # exact: sample=1
    tracker.reference = reference
    return tracker


def run_entry(graph_name: str, r: int, s: int,
              reference: bool = False) -> dict:
    """Run one pinned decomposition; its record plus the result's shape.

    ``reference`` runs the scalar reference oracles instead of the batch
    kernels; by their cost-parity invariant (docs/cost-model.md) every
    *simulated* field of the entry is the same either way --- only
    ``wall_clock`` (host seconds per phase, outside the machine model)
    may differ, and it is neither compared nor written.
    """
    tracker = _tracker(reference)
    result = arb_nucleus_decomp(load_dataset(graph_name), r, s,
                                NucleusConfig.optimal(r, s), tracker)
    return {
        "graph": graph_name, "r": r, "s": s,
        "n_r": result.n_r_cliques, "n_s": result.n_s_cliques,
        "rho": result.rho, "max_core": result.max_core,
        "memory_units": result.table_memory_units,
        **run_record(tracker),
    }


def run_baseline_entry(name: str, graph_name: str,
                       reference: bool = False) -> dict:
    """Run one pinned baseline; its record (see :func:`run_entry` for
    ``reference``)."""
    runs = {
        "nd": lambda graph, t: nd_decomposition(graph, 2, 3, t),
        "pnd": lambda graph, t: pnd_decomposition(graph, 2, 3, t),
        "pkt": pkt_decomposition,
        "pkt-opt-cpu": pkt_opt_cpu_decomposition,
        "msp": msp_decomposition,
        "kcore": k_core,
        "densest": lambda graph, t: k_clique_densest(graph, 3, t),
    }
    if name not in runs:
        raise ValueError(f"unknown baseline {name!r}")
    tracker = _tracker(reference)
    runs[name](load_dataset(graph_name), tracker)
    return {"baseline": name, "graph": graph_name,
            "hot_phase": BASELINE_HOT_PHASE[name],
            "rho": tracker.total.rounds, **run_record(tracker)}


def run_hierarchy_entry(graph_name: str, r: int, s: int,
                        reference: bool = False) -> dict:
    """Run one pinned hierarchy construction; its record.

    The decomposition feeding the hierarchy runs on a throwaway tracker
    so the record covers hierarchy construction only (see
    :func:`run_entry` for ``reference``).
    """
    graph = load_dataset(graph_name)
    throwaway = CostTracker()
    throwaway.reference = reference
    result = arb_nucleus_decomp(graph, r, s, NucleusConfig.optimal(r, s),
                                throwaway)
    tracker = _tracker(reference)
    hierarchy = nucleus_hierarchy(graph, result, tracker)
    return {"graph": graph_name, "r": r, "s": s,
            "hot_phase": HIERARCHY_HOT_PHASE,
            "n_nuclei": len(hierarchy),
            "n_levels": len({nucleus.level for nucleus in hierarchy.nuclei}),
            "rho": tracker.total.rounds, **run_record(tracker)}


def run_sharded_entry(graph_name: str, r: int, s: int, shards: int,
                      reference: bool = False) -> dict:
    """Run one pinned sharded decomposition under both partitioners.

    The entry records, per partitioner, the simulated communication
    volume/time, the ``coordinator`` / ``compute`` / ``comm`` terms of
    :meth:`DistributedMachineModel.time_breakdown`, ``rho`` and
    ``exchanges`` (the rounds that shipped mail) and partition quality,
    plus the headline comparison metrics: ``comm_time`` (mincut's ---
    lower is better),
    ``comm_reduction`` (hash comm time over mincut comm time --- the
    quantity the engine gate's ``--min-comm-reduction`` floor pins), and
    ``speedup`` (the single-node record's T60 over the mincut distributed
    time).  See :func:`run_entry` for ``reference``.
    """
    # Imported here: repro.distributed pulls in repro.observe.trace, so a
    # module-level import would be circular through the package __init__.
    from ..distributed import DistributedMachineModel, sharded_nucleus_decomp
    distributed = DistributedMachineModel(DEFAULT_MACHINE)
    graph = load_dataset(graph_name)
    single_tracker = CostTracker()
    single_tracker.reference = reference
    single = arb_nucleus_decomp(graph, r, s, tracker=single_tracker)
    single_time = run_record(single_tracker)["T60"]
    single_cores = single.as_dict()
    per_partitioner = {}
    wall = 0.0
    for name in ("hash", "mincut"):
        coordinator = CostTracker()
        coordinator.reference = reference
        result = sharded_nucleus_decomp(graph, r, s, shards,
                                        partitioner=name,
                                        tracker=coordinator)
        quality = partition_statistics(graph, result.partition.shard_of,
                                       shards, s=s)
        breakdown = distributed.time_breakdown(result, BENCH_THREADS)
        per_partitioner[name] = {
            "comm_messages": result.comm_messages,
            "comm_bytes": result.comm_bytes,
            "comm_time": distributed.comm_time(result.comm_messages,
                                               result.comm_bytes),
            "T60": breakdown["time"],
            "coordinator": breakdown["coordinator"],
            "compute": breakdown["compute"],
            "comm": breakdown["comm"],
            "rho": result.rho,
            "exchanges": result.exchanges,
            "edge_cut": quality["edge_cut"],
            "cut_fraction": quality["cut_fraction"],
            "imbalance": quality["imbalance"],
            "triangle_spill_fraction": quality["triangle_spill_fraction"],
            "s_clique_spill_estimate": quality["s_clique_spill_estimate"],
            "matches_oracle": result.as_dict() == single_cores,
        }
        wall += sum(result.tracker.phase_wall.values()) + sum(
            sum(st.phase_wall.values()) for st in result.shard_trackers)
    # ``result`` is the mincut run, the loop's last.
    hash_stats = per_partitioner["hash"]
    mincut_stats = per_partitioner["mincut"]
    if mincut_stats["comm_time"] > 0:
        comm_reduction = hash_stats["comm_time"] / mincut_stats["comm_time"]
    else:
        comm_reduction = 1.0 if hash_stats["comm_time"] == 0 else \
            float("inf")
    return {
        "graph": graph_name, "r": r, "s": s, "shards": shards,
        "wall_clock": {"total": wall},
        "n_r": result.n_r_cliques, "n_s": result.n_s_cliques,
        "rho": result.rho, "exchanges": result.exchanges,
        "max_core": result.max_core,
        "comm_messages": mincut_stats["comm_messages"],
        "comm_bytes": mincut_stats["comm_bytes"],
        "comm_time": mincut_stats["comm_time"],
        "comm_reduction": comm_reduction,
        "T60_single": single_time,
        "T60": mincut_stats["T60"],
        "speedup": single_time / mincut_stats["T60"],
        "matches_oracle": (hash_stats["matches_oracle"]
                           and mincut_stats["matches_oracle"]),
        "hash": hash_stats,
        "mincut": mincut_stats,
    }


#: The payload's sections: name -> (pinned suite, entry runner, entry
#: key).  Each suite item is the runner's positional arguments; the key
#: (formatted with the entry) identifies an entry across payloads.
SECTIONS: dict[str, tuple[tuple, object, str]] = {
    "suite": (PINNED_SUITE, run_entry, "{graph}({r},{s})"),
    "baselines": (BASELINE_SUITE, run_baseline_entry, "{baseline}@{graph}"),
    "hierarchy": (HIERARCHY_SUITE, run_hierarchy_entry,
                  "hier:{graph}({r},{s})"),
    "sharded": (SHARDED_SUITE, run_sharded_entry,
                "shard:{graph}({r},{s})x{shards}"),
}


def run_payloads(*references: bool, label: str = "",
                 progress=None) -> list[dict]:
    """One payload holding every section of :data:`SECTIONS` per
    ``reference`` flag.

    Runs section by section, so the runs the engine gate compares by
    wall-clock sit next to each other in time (host speed drifts).
    """
    payloads = [{"schema": SCHEMA_VERSION, "label": label,
                 "threads": BENCH_THREADS,
                 "machine": asdict(DEFAULT_MACHINE)} for _ in references]
    for section, (suite, run, _) in SECTIONS.items():
        for payload, reference in zip(payloads, references):
            payload[section] = []
            for item in suite:
                if progress is not None:
                    progress(f"bench {section}: "
                             + " ".join(map(str, item))
                             + (" [reference]" if reference else ""))
                payload[section].append(run(*item, reference=reference))
    return payloads


def write_payload(payload: dict, path) -> None:
    """Write ``payload`` without host ``wall_clock``: the written file
    holds only simulated, byte-for-byte repeatable fields."""
    stored = dict(payload)
    for section in SECTIONS.keys() & stored.keys():
        stored[section] = [{k: v for k, v in entry.items()
                            if k != "wall_clock"}
                           for entry in stored[section]]
    with open(path, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_payload(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def compare(current: dict, baseline: dict,
            tolerance: float = 0.05) -> list[str]:
    """Regressions of ``current`` against ``baseline`` beyond ``tolerance``.

    Returns human-readable descriptions (empty when clean).  A metric
    regresses when it worsens by more than ``tolerance`` relative to the
    baseline --- grows for lower-is-better metrics (work, span, rho, times,
    contention, cache misses), shrinks for speedup.  A section or entry
    present in the baseline but missing from the current run is a
    regression; a section the baseline predates is skipped, and entries
    new in the current run are not regressions.
    """
    regressions = []
    for section, (_, _, key) in SECTIONS.items():
        if section not in baseline:
            continue
        if section not in current:
            regressions.append(f"{section}: section missing from current "
                               f"run")
            continue
        cur_by_key = {key.format_map(e): e for e in current[section]}
        for base in baseline[section]:
            name = key.format_map(base)
            cur = cur_by_key.get(name)
            if cur is None:
                regressions.append(f"{name}: entry missing from current run")
                continue
            for metric, lower_is_better in COMPARED_METRICS.items():
                if metric not in base or metric not in cur:
                    continue
                old, new = float(base[metric]), float(cur[metric])
                scale = abs(old) if old else 1.0
                if lower_is_better:
                    worsened = new - old > tolerance * scale
                else:
                    worsened = old - new > tolerance * scale
                if worsened:
                    direction = "rose" if lower_is_better else "fell"
                    regressions.append(
                        f"{name}: {metric} {direction} "
                        f"{old:.6g} -> {new:.6g} "
                        f"({100.0 * (new - old) / scale:+.1f}%, "
                        f"tolerance {100.0 * tolerance:.1f}%)")
    return regressions
