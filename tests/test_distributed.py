"""Tests for the sharded execution model (repro.distributed).

The headline invariant: the distributed peel's output is bit-for-bit
identical to the single-node oracle on every graph/(r,s)/shard-count
combination, with the exchange kernel and with its reference oracle.
The message-volume accounting is pinned by closed-form unit tests (one
exchange charges exactly the sum of the per-shard batch sizes, with no
double-charging), and the scalar/batch exchange kernels must agree
charge-for-charge on every tracker.
"""

import numpy as np
import pytest

from repro.core.decomp import arb_nucleus_decomp
from repro.distributed import (ENTRY_BYTES, DistributedMachineModel,
                               PARTITIONERS, hash_partition,
                               mincut_partition, sharded_nucleus_decomp)
from repro.distributed.batchexchange import exchange_batch
from repro.distributed.peel import (ExchangeBuffer, UpdateLedger,
                                    _exchange_scalar)
from repro.graph.generators import (complete_graph, erdos_renyi,
                                    figure1_graph, planted_partition,
                                    rmat_graph)
from repro.graph.stats import estimated_clique_spill, partition_statistics
from repro.parallel.runtime import CostTracker, MachineModel
from repro.sanitize.racecheck import RaceDetector

# Static->dynamic coverage stamp for rule PAR011: the sharded driver's
# parallel regions (the per-shard local peel rounds) are driven under a
# live RaceDetector by TestShardedRaceCoverage below.  The exchange
# kernels open no parallel regions (the exchange is the serial barrier
# step between rounds), so the driver stamp covers the package.
RACECHECK_COVERS = [
    "repro.distributed.peel.sharded_nucleus_decomp",
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


class TestExchangeParity:
    def test_scalar_and_batch_agree_on_every_tracker(self, monkeypatch):
        import repro.distributed.peel as peel_mod
        graph = planted_partition(120, 4, 0.3, 0.02, seed=1)
        kernels = []
        for name in ("_exchange_scalar", "exchange_batch"):
            original = getattr(peel_mod, name)

            def spy(*args, _name=name, _original=original):
                kernels.append(_name)
                return _original(*args)

            monkeypatch.setattr(peel_mod, name, spy)
        coordinator = CostTracker()
        coordinator.reference = True
        scalar = sharded_nucleus_decomp(graph, 2, 3, 4, tracker=coordinator)
        assert all(st.reference for st in scalar.shard_trackers)
        assert set(kernels) == {"_exchange_scalar"}
        kernels.clear()
        batch = sharded_nucleus_decomp(graph, 2, 3, 4)
        assert set(kernels) == {"exchange_batch"}
        assert scalar.tracker.summary() == batch.tracker.summary()
        for st_scalar, st_batch in zip(scalar.shard_trackers,
                                       batch.shard_trackers):
            assert st_scalar.summary() == st_batch.summary()
        assert scalar.exchange_log == batch.exchange_log
        assert scalar.round_compute == batch.round_compute
        assert scalar.comm_messages == batch.comm_messages
        assert scalar.comm_bytes == batch.comm_bytes
        assert np.array_equal(scalar._cores, batch._cores)


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
