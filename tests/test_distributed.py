"""Tests for the sharded execution model (repro.distributed).

The headline invariant: the distributed peel's output is bit-for-bit
identical to the single-node oracle on every graph/(r,s)/shard-count
combination, on the default path (the vectorized local-peel and
exchange kernels) and on their reference oracles.  The two paths must
also agree charge-for-charge on every tracker --- totals, per-phase
stats and the cache stream --- and in the round, exchange and compute
logs and the order of the ledger's updated set, including when the
local peel's task blocks are shrunk so every round crosses several.
The message-volume accounting is pinned by closed-form unit tests (one
exchange charges exactly the sum of the per-shard batch sizes, with no
double-charging), and a caller-supplied partition is validated.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.batchpeel as batchpeel
import repro.distributed.peel as peel_mod
from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.distributed import (ENTRY_BYTES, PARTITIONERS,
                               DistributedMachineModel, Partition,
                               hash_partition, mincut_partition,
                               sharded_nucleus_decomp)
from repro.distributed.batchexchange import exchange_batch
from repro.distributed.peel import (ExchangeBuffer, UpdateLedger,
                                    _exchange_scalar)
from repro.graph.generators import (complete_graph, erdos_renyi,
                                    figure1_graph, planted_partition,
                                    rmat_graph)
from repro.graph.stats import estimated_clique_spill, partition_statistics
from repro.machine.cache import CacheSimulator
from repro.parallel.runtime import CostTracker, MachineModel
from repro.sanitize.racecheck import RaceDetector

# Static->dynamic coverage stamps for rule PAR011: the parallel regions
# of sharded_nucleus_decomp (the per-shard local peel rounds of the scalar
# oracle) run under a live RaceDetector in TestShardedRaceCoverage below.
# The vectorized local-peel kernel falls back to that oracle under a
# detector and is stamped in tests/test_racecheck.py.  The exchange
# kernels open no parallel regions (the exchange is the serial barrier
# step between rounds).
RACECHECK_COVERS = [
    "repro.distributed.peel.sharded_nucleus_decomp",
    "repro.distributed.peel._local_round",
]

#: The differential suite: (graph factory, r, s, shard count).  Two
#: partitioner choices and shard counts from 2 to 8, k-core through
#: (3,4) nuclei.
DIFFERENTIAL_SUITE = [
    ("figure1", lambda: figure1_graph(), 2, 3, 2, "hash"),
    ("community-kcore", lambda: planted_partition(120, 4, 0.3, 0.02,
                                                  seed=1), 1, 2, 4,
     "mincut"),
    ("community-truss", lambda: planted_partition(120, 4, 0.3, 0.02,
                                                  seed=2), 2, 3, 4,
     "mincut"),
    ("er-34", lambda: erdos_renyi(80, 400, seed=3), 3, 4, 3, "hash"),
    ("rmat-truss", lambda: rmat_graph(7, 8, seed=4), 2, 3, 8, "mincut"),
]


class TestDifferentialOracle:
    @pytest.mark.parametrize(
        "name,factory,r,s,shards,partitioner",
        DIFFERENTIAL_SUITE, ids=[row[0] for row in DIFFERENTIAL_SUITE])
    def test_bit_for_bit_vs_single_node(self, name, factory, r, s, shards,
                                        partitioner):
        graph = factory()
        reference = arb_nucleus_decomp(graph, r, s)
        for runs_reference in (True, False):
            tracker = CostTracker()
            tracker.reference = runs_reference
            result = sharded_nucleus_decomp(graph, r, s, shards,
                                            partitioner=partitioner,
                                            tracker=tracker)
            assert np.array_equal(result._cells, reference._cells)
            assert np.array_equal(result._cores, reference._cores)
            assert result.as_dict() == reference.as_dict()
            assert result.rho == reference.rho
            assert result.max_core == reference.max_core
            assert result.n_r_cliques == reference.n_r_cliques
            assert result.n_s_cliques == reference.n_s_cliques

    def test_single_shard_has_no_comm(self):
        graph = planted_partition(80, 4, 0.3, 0.05, seed=5)
        result = sharded_nucleus_decomp(graph, 2, 3, 1)
        assert result.comm_messages == 0
        assert result.comm_bytes == 0
        assert result.as_dict() == arb_nucleus_decomp(graph, 2, 3).as_dict()

    def test_forces_representative_arithmetic(self):
        result = sharded_nucleus_decomp(figure1_graph(), 2, 3, 2)
        assert result.config.update_arithmetic == "representative"
        assert result.config.contraction is False

    def test_empty_table_early_return(self):
        result = sharded_nucleus_decomp(complete_graph(2), 3, 4, 2)
        assert result.n_r_cliques == 0
        assert result.rho == 0
        assert result.as_dict() == {}

    def test_round_log_matches_oracle(self):
        graph = planted_partition(100, 4, 0.3, 0.03, seed=6)
        reference = arb_nucleus_decomp(graph, 2, 3)
        result = sharded_nucleus_decomp(graph, 2, 3, 4)
        assert [(level, peeled) for level, peeled, _ in result.round_log] \
            == [(level, peeled) for level, peeled, _ in reference.round_log]


def _sharded_run(monkeypatch, graph, r, s, shards, reference,
                 partitioner="mincut", config=None):
    """One sharded run plus every round's ledger updated set, in order."""
    rounds: list = []

    class RecordingLedger(UpdateLedger):
        def begin_round(self, round_id: int) -> None:
            super().begin_round(round_id)
            rounds.append(self.updated)  # filled in place as the round runs

    monkeypatch.setattr(peel_mod, "UpdateLedger", RecordingLedger)
    tracker = CostTracker()
    tracker.reference = reference
    result = sharded_nucleus_decomp(graph, r, s, shards,
                                    partitioner=partitioner, config=config,
                                    tracker=tracker)
    return result, rounds


def _phases(tracker: CostTracker) -> dict:
    return {name: dataclasses.asdict(stats)
            for name, stats in tracker.phases.items()}


def assert_paths_agree(reference, default) -> None:
    """Default path == reference oracles, on everything the kernels feed."""
    (scalar, scalar_rounds), (batch, batch_rounds) = reference, default
    assert scalar.tracker.summary() == batch.tracker.summary()
    assert _phases(scalar.tracker) == _phases(batch.tracker)
    for st_scalar, st_batch in zip(scalar.shard_trackers,
                                   batch.shard_trackers, strict=True):
        assert st_scalar.summary() == st_batch.summary()
        assert _phases(st_scalar) == _phases(st_batch)
    assert scalar.round_log == batch.round_log
    assert scalar.exchange_log == batch.exchange_log
    assert scalar.round_compute == batch.round_compute
    assert scalar.comm_messages == batch.comm_messages
    assert scalar.comm_bytes == batch.comm_bytes
    assert scalar_rounds == batch_rounds
    assert np.array_equal(scalar._cores, batch._cores)


class TestExchangeParity:
    def test_scalar_and_batch_agree_on_every_tracker(self, monkeypatch):
        graph = planted_partition(120, 4, 0.3, 0.02, seed=1)
        kernels = []
        for name in ("_local_round", "local_round_batch",
                     "_exchange_scalar", "exchange_batch"):
            original = getattr(peel_mod, name)

            def spy(*args, _name=name, _original=original):
                kernels.append(_name)
                return _original(*args)

            monkeypatch.setattr(peel_mod, name, spy)
        scalar = _sharded_run(monkeypatch, graph, 2, 3, 4, reference=True)
        assert all(st.reference for st in scalar[0].shard_trackers)
        assert set(kernels) == {"_local_round", "_exchange_scalar"}
        kernels.clear()
        batch = _sharded_run(monkeypatch, graph, 2, 3, 4, reference=False)
        assert set(kernels) == {"local_round_batch", "exchange_batch"}
        assert len(scalar[1]) == scalar[0].rho
        assert_paths_agree(scalar, batch)


class TestBlockBoundaries:
    """The differential suite with the local peel's blocks cut to three
    tasks, so every round of more than three peeled cells on a shard
    runs as several blocks whose streams and charges must concatenate
    to the oracle's."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(batchpeel, "PEEL_BLOCK_TASKS", 3)

    @pytest.mark.parametrize(
        "name,factory,r,s,shards,partitioner",
        DIFFERENTIAL_SUITE, ids=[row[0] for row in DIFFERENTIAL_SUITE])
    def test_default_path_matches_oracle(self, monkeypatch, name, factory,
                                         r, s, shards, partitioner):
        graph = factory()
        runs = [_sharded_run(monkeypatch, graph, r, s, shards, reference,
                             partitioner)
                for reference in (True, False)]
        assert_paths_agree(*runs)

    def test_rounds_span_several_blocks(self, monkeypatch):
        """The sweep is meaningful: some round peels more cells than four
        shards' worth of three blocks, so at least one shard runs four or
        more blocks in it."""
        graph = planted_partition(120, 4, 0.3, 0.02, seed=2)
        result, _ = _sharded_run(monkeypatch, graph, 2, 3, 4, False)
        largest = max(peeled for _, peeled, _ in result.round_log)
        assert largest > 3 * result.n_shards * batchpeel.PEEL_BLOCK_TASKS


class _CachedTracker(CostTracker):
    """A shard tracker carrying a small exact cache simulator."""

    def __init__(self) -> None:
        super().__init__()
        self.cache = CacheSimulator(line_words=4, n_sets=16, ways=2)


class TestLocalPeelCacheReplay:
    """With a cache simulator on the shard trackers, the kernel replays
    the oracle's address stream: per task its decode addresses, then each
    probed sub-clique's route and slot addresses."""

    CONFIGS = {
        "two-level-stored-pointers": (2, 3, None),
        "one-level-binary-search": (2, 3, NucleusConfig(
            levels=1, contiguous=False, inverse_map="binary_search")),
        "multi-level-hash": (3, 4, NucleusConfig(
            levels=3, table_style="hash", relabel=True)),
        "kcore": (1, 2, None),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_cache_stream_matches_oracle(self, monkeypatch, name):
        r, s, config = self.CONFIGS[name]
        monkeypatch.setattr(batchpeel, "PEEL_BLOCK_TASKS", 5)
        monkeypatch.setattr(peel_mod, "CostTracker", _CachedTracker)
        graph = planted_partition(90, 3, 0.35, 0.04, seed=12)
        runs = [_sharded_run(monkeypatch, graph, r, s, 3, reference,
                             config=config)
                for reference in (True, False)]
        assert_paths_agree(*runs)
        for st_scalar, st_batch in zip(runs[0][0].shard_trackers,
                                       runs[1][0].shard_trackers):
            assert st_batch.cache.accesses > 0
            assert st_scalar.cache.accesses == st_batch.cache.accesses
            assert st_scalar.cache.misses == st_batch.cache.misses
            assert st_batch.phases["local_peel"].cache_misses > 0


def _exchange_fixture():
    """Owner map and a drained outbox with two destination shards."""
    owner_of = np.array([0, 1, 1, 2, 1, 1, 0, 1, 0, 2], dtype=np.int64)
    ledger = UpdateLedger(np.full(10, 8.0))
    ledger.begin_round(0)
    cells = np.array([9, 5, 7], dtype=np.int64)  # dsts 2, 1, 1
    deltas = np.array([1, 2, 1], dtype=np.int64)
    trackers = [CostTracker() for _ in range(3)]
    return owner_of, ledger, cells, deltas, trackers


class TestExchangeAccounting:
    """Closed-form charges: one exchange = sum of per-shard batch sizes."""

    @pytest.mark.parametrize("kernel", [_exchange_scalar, exchange_batch],
                             ids=["scalar", "batch"])
    def test_closed_form_messages_and_bytes(self, kernel):
        owner_of, ledger, cells, deltas, trackers = _exchange_fixture()
        sender = trackers[0]
        messages, n_bytes = kernel(cells, deltas, owner_of, ledger,
                                   trackers, sender)
        # Two destination groups: shard 1 gets cells {5, 7}, shard 2
        # gets cell {9}; three entries total.
        assert messages == 2
        assert n_bytes == 3 * ENTRY_BYTES
        assert sender.total.comm_messages == 2
        assert sender.total.comm_bytes == 3 * ENTRY_BYTES
        # No double-charging: receivers pay apply work, never comm.
        assert trackers[1].total.comm_messages == 0
        assert trackers[2].total.comm_messages == 0
        assert trackers[1].total.comm_bytes == 0
        # Receiver-side apply: one work unit + one atomic per entry.
        assert trackers[1].total.atomic_ops == 2
        assert trackers[2].total.atomic_ops == 1
        # Deltas landed at the owned cells; updated set in (dst, cell)
        # order.
        assert ledger.counts[5] == 6.0
        assert ledger.counts[7] == 7.0
        assert ledger.counts[9] == 7.0
        assert ledger.updated == [5, 7, 9]

    def test_total_volume_is_sum_of_batch_sizes(self):
        # Three shards each flush an outbox; global comm equals the sum
        # of the individual batch sizes (no entry is charged twice).
        owner_of = np.arange(12, dtype=np.int64) % 3
        ledger = UpdateLedger(np.full(12, 5.0))
        ledger.begin_round(0)
        trackers = [CostTracker() for _ in range(3)]
        sizes = []
        for src, remote_cells in enumerate(([4, 5], [0, 6, 8], [1])):
            cells = np.asarray(remote_cells, dtype=np.int64)
            deltas = np.ones(cells.size, dtype=np.int64)
            _exchange_scalar(cells, deltas, owner_of, ledger, trackers,
                             trackers[src])
            sizes.append(cells.size)
        total_bytes = sum(t.total.comm_bytes for t in trackers)
        assert total_bytes == sum(sizes) * ENTRY_BYTES

    def test_empty_outbox_charges_nothing(self):
        owner_of, ledger, _, _, trackers = _exchange_fixture()
        empty = np.zeros(0, dtype=np.int64)
        for kernel in (_exchange_scalar, exchange_batch):
            assert kernel(empty, empty, owner_of, ledger, trackers,
                          trackers[0]) == (0, 0)
        assert trackers[0].total.comm_messages == 0

    def test_kernels_agree_on_fixture(self):
        results = []
        for kernel in (_exchange_scalar, exchange_batch):
            owner_of, ledger, cells, deltas, trackers = _exchange_fixture()
            out = kernel(cells, deltas, owner_of, ledger, trackers,
                         trackers[0])
            results.append((out, [t.summary() for t in trackers],
                            list(ledger.counts), ledger.updated))
        assert results[0] == results[1]


class TestLedgerAndOutbox:
    def test_ledger_dedupes_within_round_only(self):
        ledger = UpdateLedger(np.full(4, 3.0))
        tracker = CostTracker()
        ledger.begin_round(0)
        ledger.fetch_sub(2, 1, tracker)
        ledger.fetch_sub(2, 1, tracker)
        assert ledger.updated == [2]
        assert ledger.counts[2] == 1.0
        ledger.begin_round(1)
        ledger.fetch_sub(2, 1, tracker)
        assert ledger.updated == [2]  # re-enters U in the new round
        assert tracker.total.atomic_ops == 3

    def test_outbox_coalesces_and_drains(self):
        outbox = ExchangeBuffer(6)
        tracker = CostTracker()
        outbox.begin_round(0)
        outbox.buffer_remote(3, tracker)
        outbox.buffer_remote(3, tracker)
        outbox.buffer_remote(1, tracker)
        cells, deltas = outbox.drain()
        assert list(cells) == [3, 1]  # first-touch order
        assert list(deltas) == [2, 1]
        cells, deltas = outbox.drain()
        assert cells.size == 0 and deltas.size == 0
        assert np.all(outbox.pending == 0)


class TestPartitioners:
    def test_hash_partition_deterministic_and_in_range(self):
        graph = erdos_renyi(200, 800, seed=7)
        first = hash_partition(graph, 5)
        second = hash_partition(graph, 5)
        assert np.array_equal(first.shard_of, second.shard_of)
        assert first.shard_of.min() >= 0
        assert first.shard_of.max() < 5
        assert first.shard_sizes().sum() == graph.n

    def test_mincut_deterministic(self):
        graph = planted_partition(150, 5, 0.3, 0.02, seed=8)
        first = mincut_partition(graph, 5)
        second = mincut_partition(graph, 5)
        assert np.array_equal(first.shard_of, second.shard_of)

    def test_mincut_respects_balance_cap(self):
        graph = planted_partition(150, 3, 0.4, 0.02, seed=9)
        partition = mincut_partition(graph, 3, slack=1.1)
        cap = int(np.ceil(graph.n / 3 * 1.1))
        assert partition.shard_sizes().max() <= cap

    def test_mincut_cuts_fewer_edges_than_hash(self):
        graph = planted_partition(200, 4, 0.3, 0.01, seed=10)
        edges = graph.edges()

        def edge_cut(partition):
            shard_of = partition.shard_of
            return int((shard_of[edges[:, 0]]
                        != shard_of[edges[:, 1]]).sum())

        assert edge_cut(mincut_partition(graph, 4)) \
            < edge_cut(hash_partition(graph, 4))

    def test_registry_names(self):
        assert set(PARTITIONERS) == {"hash", "mincut"}

    def test_mincut_reduces_comm_volume(self):
        graph = planted_partition(120, 4, 0.3, 0.02, seed=1)
        hash_run = sharded_nucleus_decomp(graph, 2, 3, 4,
                                          partitioner="hash")
        mincut_run = sharded_nucleus_decomp(graph, 2, 3, 4,
                                            partitioner="mincut")
        assert mincut_run.comm_bytes < hash_run.comm_bytes


class TestPartitionValidation:
    """A caller-supplied partition must give every vertex an integer
    shard id in [0, n_shards); anything else fails before peeling with a
    ValueError naming the problem."""

    @staticmethod
    def _run(shard_of, n_shards=2):
        graph = planted_partition(120, 4, 0.3, 0.02, seed=2)
        partition = Partition(n_shards, shard_of, "custom")
        return sharded_nucleus_decomp(graph, 2, 3, n_shards,
                                      partition=partition)

    @staticmethod
    def _valid():
        return hash_partition(planted_partition(120, 4, 0.3, 0.02, seed=2),
                              2).shard_of.copy()

    def test_valid_partition_is_used(self):
        graph = planted_partition(120, 4, 0.3, 0.02, seed=2)
        result = self._run(self._valid())
        assert result.partition.partitioner == "custom"
        assert result.as_dict() == arb_nucleus_decomp(graph, 2, 3).as_dict()

    def test_negative_ids_rejected(self):
        shard_of = self._valid()
        shard_of[::3] = -1
        with pytest.raises(ValueError, match=r"\[0, 2\); vertex 0 is on "
                                             r"shard -1 \(40 vertices"):
            self._run(shard_of)

    def test_id_past_last_shard_rejected(self):
        shard_of = self._valid()
        shard_of[7] = 2
        with pytest.raises(ValueError, match="vertex 7 is on shard 2"):
            self._run(shard_of)

    def test_short_array_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(120,\).*\(119,\)"):
            self._run(self._valid()[:-1])

    def test_overlong_array_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(120,\).*\(121,\)"):
            self._run(np.append(self._valid(), 0))

    def test_non_integer_ids_rejected(self):
        with pytest.raises(ValueError, match="integer shard ids.*float64"):
            self._run(self._valid().astype(np.float64))

    def test_shard_count_mismatch_rejected(self):
        graph = figure1_graph()
        with pytest.raises(ValueError, match="partition.n_shards"):
            sharded_nucleus_decomp(graph, 2, 3, 3,
                                   partition=hash_partition(graph, 2))


class TestPartitionStatistics:
    def test_hand_computed_split(self):
        graph = complete_graph(4)  # 6 edges, 4 triangles
        shard_of = np.array([0, 0, 1, 1])
        stats = partition_statistics(graph, shard_of, 2, s=3)
        assert stats["shard_sizes"] == [2, 2]
        assert stats["imbalance"] == 1.0
        assert stats["edge_cut"] == 4  # all but {0,1} and {2,3}
        assert stats["cut_fraction"] == pytest.approx(4 / 6)
        # Neither half contains a full triangle.
        assert stats["triangle_spill"] == 4
        assert stats["triangle_spill_fraction"] == 1.0
        assert stats["s_clique_spill_estimate"] == pytest.approx(
            estimated_clique_spill(4 / 6, 3))

    def test_spill_estimate_closed_form(self):
        assert estimated_clique_spill(0.0, 4) == 0.0
        assert estimated_clique_spill(0.5, 2) == pytest.approx(0.5)
        assert estimated_clique_spill(0.25, 3) == pytest.approx(
            1.0 - 0.75 ** 3)


class TestCommCostModel:
    def test_comm_cost_closed_form(self):
        machine = MachineModel(comm_latency=100.0, comm_byte_time=2.0)
        assert machine.comm_cost(3, 50) == 3 * 100.0 + 50 * 2.0

    def test_tracker_comm_counters_feed_time(self):
        machine = MachineModel()
        tracker = CostTracker()
        idle = machine.time(tracker, 4)
        tracker.add_comm(2, 24)
        assert machine.time(tracker, 4) == pytest.approx(
            idle + machine.comm_cost(2, 24))
        breakdown = machine.time_breakdown(tracker, 4)
        assert breakdown["total"]["comm"] == machine.comm_cost(2, 24)

    def test_single_node_comm_term_is_zero(self):
        graph = figure1_graph()
        tracker = CostTracker()
        arb_nucleus_decomp(graph, 2, 3, tracker=tracker)
        assert tracker.total.comm_messages == 0
        assert tracker.total.comm_bytes == 0
        machine = MachineModel()
        assert machine.time_breakdown(tracker, 60)["total"]["comm"] == 0.0

    def test_distributed_model_composition(self):
        graph = planted_partition(120, 4, 0.3, 0.02, seed=1)
        result = sharded_nucleus_decomp(graph, 2, 3, 4)
        machine = DistributedMachineModel(MachineModel())
        breakdown = machine.time_breakdown(result, 60)
        base = machine.base
        p = base.effective_parallelism(60)
        compute = sum(
            max(work / p + base.span_factor * span
                for work, span in per_shard)
            for per_shard in result.round_compute)
        comm = base.comm_cost(result.comm_messages, result.comm_bytes)
        assert breakdown["compute"] == pytest.approx(compute)
        assert breakdown["comm"] == pytest.approx(comm)
        assert breakdown["time"] == pytest.approx(
            base.time(result.tracker, 60) + compute + comm)
        assert machine.time(result, 60) == breakdown["time"]

    def test_round_times_align_with_exchange_log(self):
        graph = planted_partition(100, 4, 0.3, 0.03, seed=2)
        result = sharded_nucleus_decomp(graph, 1, 2, 4)
        machine = DistributedMachineModel()
        rows = machine.round_times(result, 60)
        assert len(rows) == result.rho
        for row, record in zip(rows, result.exchange_log):
            assert row["round"] == record["round"]
            assert row["comm"] == machine.comm_time(record["messages"],
                                                    record["bytes"])


class TestShardedRaceCoverage:
    def test_sharded_peel_runs_clean_under_race_detector(self):
        graph = planted_partition(80, 4, 0.3, 0.05, seed=11)
        tracker = CostTracker()
        detector = RaceDetector()
        tracker.race_detector = detector
        result = sharded_nucleus_decomp(graph, 2, 3, 3, tracker=tracker)
        assert detector.settle(strict=False) == []
        assert detector.stats.tasks > 0
        assert result.as_dict() == arb_nucleus_decomp(graph, 2, 3).as_dict()

    def test_shard_trackers_share_the_detector(self):
        tracker = CostTracker()
        tracker.race_detector = RaceDetector()
        result = sharded_nucleus_decomp(figure1_graph(), 2, 3, 2,
                                        tracker=tracker)
        for st in result.shard_trackers:
            assert st.race_detector is tracker.race_detector
