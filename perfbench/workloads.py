"""The benchmark's three workloads: seeded inputs, one pass of each, and
the verified references every pass is checked against.

A pass calls the public API the way a caller does: library defaults, no
``engine`` / ``listing_engine`` / ``exchange_engine`` flags and no
``NucleusConfig``.  The only objects the benchmark hands in are the
``CostTracker`` (and, for ``paper``, its ``CacheSimulator``) through
which the library exposes its counters.

Each public call runs inside ``recorder.call(layer, name)``; the
recorder (:mod:`tracing`) either does nothing (timed passes) or records
a span and, in the allocation pass, a ``tracemalloc`` peak.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import (CostTracker, MachineModel, arb_nucleus_decomp,
                   read_edge_list, write_edge_list)
from repro.analysis import (HierarchyIndex, build_hierarchy,
                            load_hierarchy_json, nucleus_hierarchy,
                            save_hierarchy_json)
from repro.core.validate import validate_nucleus_decomposition
from repro.distributed import DistributedMachineModel, sharded_nucleus_decomp
from repro.graph.datasets import DATASETS
from repro.machine.cache import CacheSimulator

WORKLOADS = ("pipeline", "paper", "sharded")

#: Seed 0 reproduces the named surrogates of ``graph/datasets.py``; seed 1
#: is the documented second seed for checking a claim on inputs that were
#: not used while the change was written.
DEFAULT_SEED = 0
CHECK_SEED = 1
#: Workload seed k draws recipe seed ``recipe.seed + SEED_STRIDE * k``.
#: The stride keeps the recipes' own seeds (12, 13, 14, ...) and their
#: planted-clique offset (+1000) from colliding across workload seeds.
SEED_STRIDE = 7919

#: The paper's parallel machine: T60 is simulated time at 60 threads.
THREADS = 60

PIPELINE = ("skitter", 2, 3)
PAPER = (("dblp", 1, 2), ("dblp", 2, 3), ("dblp", 3, 4), ("youtube", 2, 3))
#: ``sharded`` runs the skitter-like graph, not the dblp-like one: a
#: dblp-like draw's mincut partition, and with it the comm term, varies
#: from draw to draw (over 24 seeds, simulated T60 of dblp x8 ranged from
#: 58,852 to 135,015, a coefficient of variation of 22%; dblp x4 17%),
#: while skitter x4 and x8 vary by 4-5% and youtube x4 by 7%.
SHARDED = (("skitter", 2, 3, 4), ("skitter", 2, 3, 8), ("youtube", 2, 3, 4))

#: Queries of each of the three kinds in the pipeline batch.  1,200
#: queries leave 12 samples beyond the 99th percentile.
QUERIES_PER_KIND = 400


def operations(workload: str) -> tuple[str, ...]:
    """The verified operations of one pass, in pass order."""
    if workload == "pipeline":
        return ("decomposition", "hierarchy", "queries")
    if workload == "paper":
        return tuple(f"{g}({r},{s})" for g, r, s in PAPER)
    if workload == "sharded":
        return tuple(f"{g}({r},{s})x{k}" for g, r, s, k in SHARDED)
    raise ValueError(f"unknown workload {workload!r}; "
                     f"options: {', '.join(WORKLOADS)}")


def surrogate(name: str, seed: int):
    """The ``name`` dataset recipe with the workload seed substituted:
    same n, density and planted cliques, different draw."""
    spec = DATASETS[name]
    return replace(spec, seed=(spec.seed + SEED_STRIDE * seed) % 2**32
                   ).generate()


@dataclass
class Inputs:
    """What the program receives: generated graphs, keyed by dataset
    name, or an edge-list file."""

    workload: str
    seed: int
    graphs: dict = field(default_factory=dict)
    edge_list: Path | None = None


def build_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's graphs; ``pipeline`` writes its edge list."""
    operations(workload)  # rejects unknown names
    if workload == "pipeline":
        path = Path(workdir) / f"{PIPELINE[0]}.txt"
        write_edge_list(surrogate(PIPELINE[0], seed), path)
        return Inputs(workload, seed, edge_list=path)
    calls = PAPER if workload == "paper" else SHARDED
    return Inputs(workload, seed, graphs={
        name: surrogate(name, seed)
        for name in sorted({call[0] for call in calls})})


# -- one pass -------------------------------------------------------------

def run_pass(inputs: Inputs, queries: dict | None, recorder) -> list:
    """One pass of ``inputs.workload``; returns the recorder's calls.

    The caller times the pass; everything that checks or prices the
    outputs happens afterwards, from the returned calls.
    """
    if inputs.workload == "pipeline":
        _pipeline(inputs, queries, recorder)
    elif inputs.workload == "paper":
        for name, r, s in PAPER:
            tracker = CostTracker()
            tracker.cache = CacheSimulator()  # exact: every access simulated
            with recorder.call("core", "arb_nucleus_decomp",
                               f"{name}({r},{s})") as call:
                call.output = arb_nucleus_decomp(inputs.graphs[name], r, s,
                                                 tracker=tracker)
    else:
        for name, r, s, shards in SHARDED:
            graph = inputs.graphs[name]
            with recorder.call("distributed", "sharded_nucleus_decomp",
                               f"{name}({r},{s})x{shards}") as call:
                call.output = sharded_nucleus_decomp(graph, r, s, shards)
            call.graph = graph
    return recorder.calls


def _pipeline(inputs: Inputs, queries: dict, recorder) -> None:
    _, r, s = PIPELINE
    with recorder.call("graph", "read_edge_list") as call:
        graph = call.output = read_edge_list(inputs.edge_list)
    with recorder.call("core", "arb_nucleus_decomp",
                       "decomposition") as call:
        result = call.output = arb_nucleus_decomp(graph, r, s)
    tracker = CostTracker()
    with recorder.call("analysis", "nucleus_hierarchy", "hierarchy") as call:
        hierarchy = call.output = nucleus_hierarchy(graph, result, tracker)
    call.tracker = tracker
    path = inputs.edge_list.with_suffix(".hierarchy.json")
    with recorder.call("analysis", "save_hierarchy_json"):
        save_hierarchy_json(hierarchy, path)
    with recorder.call("analysis", "load_hierarchy_json",
                       "hierarchy") as call:
        loaded = call.output = load_hierarchy_json(path)
    with recorder.call("analysis", "HierarchyIndex"):
        index = HierarchyIndex(loaded)
    with recorder.call("analysis", "query_batch", "queries") as call:
        call.output, call.latencies = _answer(index, queries)


def _answer(index: HierarchyIndex, queries: dict) -> tuple[list, list]:
    """Answer the batch, timing each query; answers stay raw until the
    pass is over."""
    clock = time.perf_counter
    answers, latencies = [], []
    for vertex, level in queries["nucleus_of_vertex"]:
        start = clock()
        answers.append(index.nucleus_of_vertex(vertex, level))
        latencies.append(clock() - start)
    for u, v in queries["densest_containing_edge"]:
        start = clock()
        answers.append(index.densest_containing_edge(u, v))
        latencies.append(clock() - start)
    for vertex in queries["densest_containing_vertex"]:
        start = clock()
        answers.append(index.densest_containing_vertex(vertex))
        latencies.append(clock() - start)
    for level in queries["at_level"]:
        start = clock()
        answers.append(index.at_level(level))
        latencies.append(clock() - start)
    return answers, latencies


# -- digests of a pass's outputs ---------------------------------------------

def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def cores_digest(result) -> str:
    """Digest of every r-clique's core number, in original vertex ids."""
    return _digest(sorted(result.as_dict().items()))


def hierarchy_digest(hierarchy) -> str:
    """Digest of node ids, parent links, levels and members."""
    return _digest([(n.node_id, n.parent_id, n.level, n.members)
                    for n in hierarchy.nuclei])


def _node_ids(answer):
    if answer is None:
        return None
    if isinstance(answer, list):
        return [nucleus.node_id for nucleus in answer]
    return answer.node_id


def answers_digest(answers: list) -> str:
    return _digest([_node_ids(answer) for answer in answers])


def output_digests(workload: str, calls: list) -> dict[str, str]:
    """Operation name -> digest, for every operation that returned.

    The pipeline's hierarchy operation digests both the built and the
    reloaded hierarchy, so a save/load defect fails it too.
    """
    out: dict[str, str] = {}
    for call in calls:
        if call.op is None or call.output is None:
            continue
        if call.name in ("arb_nucleus_decomp", "sharded_nucleus_decomp"):
            out[call.op] = cores_digest(call.output)
        elif call.name in ("nucleus_hierarchy", "load_hierarchy_json"):
            digest = hierarchy_digest(call.output)
            out[call.op] = f"{out[call.op]}+{digest}" if call.op in out \
                else digest
        elif call.name == "query_batch":
            out[call.op] = answers_digest(call.output)
    return out


def count_failures(workload: str, digests: dict, references: dict) -> int:
    """Operations of one pass whose output is missing or disagrees with
    the verified reference."""
    return sum(digests.get(op) != references[op]
               for op in operations(workload))


# -- simulated time -------------------------------------------------------

def single_node_trackers(calls: list) -> list:
    """Trackers of the single-node calls (decompositions, hierarchies)."""
    trackers = []
    for call in calls:
        if call.name == "arb_nucleus_decomp" and call.output is not None:
            trackers.append(call.output.tracker)
        elif call.name == "nucleus_hierarchy" and call.output is not None:
            trackers.append(call.tracker)
    return trackers


def sharded_results(calls: list) -> list:
    return [call.output for call in calls
            if call.name == "sharded_nucleus_decomp"
            and call.output is not None]


def simulated_time(calls: list, threads: int) -> float:
    """``MachineModel`` time summed over the pass's single-node trackers
    plus ``DistributedMachineModel`` time of its sharded runs."""
    machine = MachineModel()
    distributed = DistributedMachineModel(machine)
    return (sum(machine.time(t, threads) for t in single_node_trackers(calls))
            + sum(distributed.time(res, threads)
                  for res in sharded_results(calls)))


# -- references (built once per workload and seed, never timed) ------------

def _validated(graph, r: int, s: int):
    """A default decomposition checked against the nucleus definition."""
    result = arb_nucleus_decomp(graph, r, s)
    validate_nucleus_decomposition(graph, r, s, result.as_dict())
    return result


def build_references(inputs: Inputs) -> tuple[dict, dict, dict]:
    """Reference digests, the pipeline's query batch, and each sharded
    graph's single-node simulated T60.

    Cores are validated against the definition
    (``validate_nucleus_decomposition``); the pipeline's on the graph
    ``read_edge_list`` returns, since the SNAP round trip drops isolated
    vertices and compacts ids.  The hierarchy reference is the post-hoc
    ``build_hierarchy`` oracle and the query answers are flat scans of
    its nuclei.  Sharded cores must equal the validated single-node cores.
    """
    workload = inputs.workload
    references: dict[str, str] = {}
    queries: dict = {}
    single_t60: dict[str, float] = {}
    if workload == "pipeline":
        _, r, s = PIPELINE
        graph = read_edge_list(inputs.edge_list)
        result = _validated(graph, r, s)
        references["decomposition"] = cores_digest(result)
        oracle = build_hierarchy(graph, result)
        digest = hierarchy_digest(oracle)
        references["hierarchy"] = f"{digest}+{digest}"
        queries = make_queries(inputs.seed, graph, oracle)
        references["queries"] = answers_digest(_scan_answers(oracle, queries))
    elif workload == "paper":
        for name, r, s in PAPER:
            result = _validated(inputs.graphs[name], r, s)
            references[f"{name}({r},{s})"] = cores_digest(result)
    else:
        machine = MachineModel()
        single = {}
        for name, r, s, shards in SHARDED:
            if name not in single:
                single[name] = _validated(inputs.graphs[name], r, s)
            op = f"{name}({r},{s})x{shards}"
            references[op] = cores_digest(single[name])
            single_t60[op] = machine.time(single[name].tracker, THREADS)
    return references, queries, single_t60


def make_queries(seed: int, graph, hierarchy) -> dict:
    """The seeded pipeline query batch: equal thirds of vertex-at-level,
    densest-containing-edge (on graph edges) and densest-containing-vertex
    queries, plus one ``at_level`` per hierarchy level."""
    rng = np.random.default_rng(seed)
    levels = sorted({nucleus.level for nucleus in hierarchy.nuclei})
    k = QUERIES_PER_KIND
    edges = graph.edges()
    picked = edges[rng.integers(0, edges.shape[0], size=k)]
    return {
        "nucleus_of_vertex": [
            [int(v), int(level)] for v, level in
            zip(rng.integers(0, graph.n, size=k), rng.choice(levels, size=k))],
        "densest_containing_edge": [[int(u), int(v)] for u, v in picked],
        "densest_containing_vertex": [
            int(v) for v in rng.integers(0, graph.n, size=k)],
        "at_level": levels,
    }


def _scan_answers(hierarchy, queries: dict) -> list:
    """The batch answered by flat scans of ``hierarchy.nuclei``."""
    nuclei = hierarchy.nuclei
    vertex_sets = [nucleus.vertices for nucleus in nuclei]
    pairs = list(zip(nuclei, vertex_sets))

    def densest(candidates):
        if not candidates:
            return None
        return min(candidates, key=lambda n: (-n.level, n.size, n.node_id))

    answers = []
    for vertex, level in queries["nucleus_of_vertex"]:
        answers.append([n for n, vs in pairs
                        if n.level == level and vertex in vs])
    for u, v in queries["densest_containing_edge"]:
        answers.append(densest([n for n, vs in pairs
                                if u in vs and v in vs]))
    for vertex in queries["densest_containing_vertex"]:
        answers.append(densest([n for n, vs in pairs if vertex in vs]))
    for level in queries["at_level"]:
        answers.append([n for n in nuclei if n.level == level])
    return answers
