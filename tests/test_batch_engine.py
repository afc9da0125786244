"""Differential tests: the batch peeling kernel vs the scalar oracle.

The batch kernel's contract (docs/cost-model.md) is *exact* cost parity:
for any graph and configuration, the default run must produce the same
core numbers, the same round log, and bit-for-bit identical simulated
metrics --- work, span, rounds, atomics, contention, table probes, and
cache misses --- as a run whose tracker asks for the reference oracles
(``tracker.reference = True``).  These tests sweep (r, s) pairs,
aggregation/bucketing/table layouts, update arithmetic, and cache
simulation, comparing the two run for run; :class:`TestBlockBoundaries`
repeats the sweep with the kernels' task and root blocks shrunk to a few
entries, so every round and root frontier spans several blocks.
"""

import numpy as np
import pytest

import repro.cliques.batchlist as batchlist
import repro.core.batchpeel as batchpeel
from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.graph.generators import erdos_renyi, planted_partition
from repro.machine.cache import CacheSimulator
from repro.parallel.runtime import CostTracker
from repro.sanitize.racecheck import RaceDetector

RS_PAIRS = [(1, 2), (2, 3), (2, 4), (3, 4)]

CONFIGS = {
    "optimal": None,  # NucleusConfig.optimal(r, s), resolved per pair
    "unoptimized": NucleusConfig.unoptimized(),
    "array_representative": NucleusConfig(
        aggregation="array", update_arithmetic="representative"),
    "one_level_hash_agg": NucleusConfig(
        levels=1, table_style="hash", contiguous=False,
        inverse_map="binary_search", aggregation="hash"),
    "no_relabel_binary": NucleusConfig(
        relabel=False, inverse_map="binary_search", contiguous=False,
        aggregation="list_buffer", bucket_window=4),
    "list_buffer_representative": NucleusConfig(
        aggregation="list_buffer", update_arithmetic="representative"),
}


def _config_for(name: str, r: int, s: int) -> NucleusConfig:
    config = CONFIGS[name]
    if config is None:
        config = NucleusConfig.optimal(r, s)
    if config.contraction and (r, s) != (2, 3):
        config = NucleusConfig(**{**config.__dict__, "contraction": False})
    return config


@pytest.fixture
def small_blocks(monkeypatch):
    """Peel blocks of a few tasks (32 gathered neighbor entries), lister
    blocks of a root or two and sink blocks of 5 rows: every round and
    root frontier crosses boundaries."""
    monkeypatch.setattr(batchpeel, "PEEL_BLOCK_WEIGHT", 32)
    monkeypatch.setattr(batchlist, "ROOT_BLOCK_WEIGHT", 4)
    monkeypatch.setattr(batchlist, "BLOCK_ROWS", 5)


def _count_blocks(monkeypatch) -> list[list[int]]:
    """Record the tasks of every ``update_block`` call, one list per
    round (a round's first block starts at task 0)."""
    rounds: list[list[int]] = []
    update_block = batchpeel.update_block

    def counting(decoded, task_base, *args, **kwargs):
        if task_base == 0:
            rounds.append([])
        rounds[-1].append(decoded[0].shape[0])
        return update_block(decoded, task_base, *args, **kwargs)

    monkeypatch.setattr(batchpeel, "update_block", counting)
    return rounds


def _run(graph, r, s, config, reference, cache=False, detector=False):
    tracker = CostTracker()
    tracker.reference = reference
    if cache:
        tracker.cache = CacheSimulator(sample=1)
    if detector:
        tracker.race_detector = RaceDetector()
    result = arb_nucleus_decomp(graph, r, s, config, tracker)
    totals = tracker.total
    metrics = {
        "work": totals.work, "span": tracker.span,
        "rounds": totals.rounds, "atomic": totals.atomic_ops,
        "contention": totals.contention, "probes": totals.table_probes,
        "misses": totals.cache_misses,
        "cliques": totals.cliques_enumerated,
    }
    return result, metrics


def assert_engines_agree(graph, r, s, config, cache=False):
    scalar, m_scalar = _run(graph, r, s, config, True, cache)
    batch, m_batch = _run(graph, r, s, config, False, cache)
    assert m_scalar == m_batch
    assert scalar.rho == batch.rho
    assert scalar.max_core == batch.max_core
    assert scalar.round_log == batch.round_log
    assert np.array_equal(scalar._cores, batch._cores)
    assert np.array_equal(scalar._cells, batch._cells)


class TestEngineParity:
    @pytest.mark.parametrize("rs", RS_PAIRS)
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_sparse_random(self, sparse100, rs, name):
        r, s = rs
        assert_engines_agree(sparse100, r, s, _config_for(name, r, s))

    @pytest.mark.parametrize("rs", RS_PAIRS)
    def test_clique_rich_optimal(self, community60, rs):
        r, s = rs
        assert_engines_agree(community60, r, s, _config_for("optimal", r, s))

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_fig1_all_configs(self, fig1, rs):
        r, s = rs
        for name in sorted(CONFIGS):
            assert_engines_agree(fig1, r, s, _config_for(name, r, s))

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (2, 4)])
    @pytest.mark.parametrize(
        "name", ["optimal", "unoptimized", "one_level_hash_agg"])
    def test_cache_stream_parity(self, rs, name):
        """The order-sensitive cache simulator sees the identical address
        stream from both engines (misses are equal, not just counts of
        accesses)."""
        graph = erdos_renyi(50, 220, seed=11)
        r, s = rs
        assert_engines_agree(graph, r, s, _config_for(name, r, s),
                             cache=True)

    def test_dense_bucketing_and_fibonacci(self, sparse100):
        for bucketing in ("dense", "fibonacci"):
            config = NucleusConfig(**{
                **NucleusConfig.optimal(2, 3).__dict__,
                "contraction": False, "bucketing": bucketing})
            assert_engines_agree(sparse100, 2, 3, config)

    def test_many_random_graphs(self):
        for seed in range(6):
            graph = erdos_renyi(35, 140, seed=seed) if seed % 2 else \
                planted_partition(36, 4, 0.5, 0.03, seed=seed)
            r, s = RS_PAIRS[seed % len(RS_PAIRS)]
            assert_engines_agree(graph, r, s, _config_for("optimal", r, s))


@pytest.mark.usefixtures("small_blocks")
class TestBlockBoundaries:
    """The sweep again with tiny blocks.  Blocks must run in task order
    and hand each task its index within the whole round: a wrong block
    offset reorders the list buffer's per-thread cursors, which the
    exact cache stream and the contention charges expose."""

    @pytest.mark.parametrize("rs", RS_PAIRS)
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_sparse_random(self, sparse100, rs, name):
        r, s = rs
        assert_engines_agree(sparse100, r, s, _config_for(name, r, s),
                             cache=True)

    @pytest.mark.parametrize("rs", RS_PAIRS)
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_clique_rich(self, community60, rs, name):
        r, s = rs
        assert_engines_agree(community60, r, s, _config_for(name, r, s),
                             cache=True)

    def test_rounds_span_several_blocks(self, community60, monkeypatch):
        """The sweep is meaningful: some round runs as four or more
        ``update_block`` calls, and some block holds several tasks."""
        rounds = _count_blocks(monkeypatch)
        _run(community60, 2, 3, NucleusConfig.optimal(2, 3), False)
        assert max(len(blocks) for blocks in rounds) >= 4
        assert max(max(blocks) for blocks in rounds) >= 2


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        """No configuration field selects a kernel implementation."""
        with pytest.raises(TypeError):
            NucleusConfig(engine="batch")

    def test_batch_falls_back_under_race_detector(self, fig1, monkeypatch):
        """A race detector forces the scalar oracle without ``reference``
        being set; results still match a plain run."""
        plain, _ = _run(fig1, 2, 3, NucleusConfig.optimal(2, 3), False)

        def _forbidden(*_args):
            raise AssertionError("batch peel ran under a race detector")

        monkeypatch.setattr("repro.core.decomp.peel_round_batch", _forbidden)
        checked, _ = _run(fig1, 2, 3, NucleusConfig.optimal(2, 3), False,
                          detector=True)
        assert plain.rho == checked.rho
        assert np.array_equal(plain._cores, checked._cores)

    def test_runs_reference_predicate(self):
        tracker = CostTracker()
        assert not tracker.runs_reference
        tracker.reference = True
        assert tracker.runs_reference
        tracker.reference = False
        tracker.race_detector = RaceDetector()
        assert tracker.runs_reference


class TestCountFuncSortCharge:
    """Satellite: COUNT-FUNC must not charge a sort when discovery order
    already yields ascending tuples."""

    @staticmethod
    def _count_phase(graph, orientation, relabel):
        config = NucleusConfig(orientation=orientation, relabel=relabel,
                               aggregation="array", contraction=False)
        tracker = CostTracker()
        arb_nucleus_decomp(graph, 2, 3, config, tracker)
        return tracker.phases["count_s"]

    def test_identity_rank_charges_no_sorts(self, community60):
        """With the identity orientation, relabeling is a no-op and every
        discovered clique is already ascending --- so the count_s phase must
        charge identical work with and without relabeling.  (The old code
        charged s*log2(s) per s-clique in the non-relabeled run anyway.)"""
        with_relabel = self._count_phase(community60, "identity", True)
        without = self._count_phase(community60, "identity", False)
        assert with_relabel.work == without.work
        # The sort charge s*log2(s) is the only fractional-valued charge on
        # the counting path, so the exact fractional bin pins it to zero.
        assert without.work_frac == 0.0

    def test_unsorted_discovery_still_charged(self, community60):
        """Degeneracy rank scrambles discovery order, so the non-relabeled
        run must still pay a sort charge for every actually-unsorted
        tuple --- visible as a non-empty fractional work bin."""
        phase = self._count_phase(community60, "degeneracy", False)
        sort_charge = 3 * np.log2(3)
        assert phase.work_frac > 0.0
        # ... and it is an exact multiple of the per-clique sort charge.
        multiples = phase.work_frac / sort_charge
        assert abs(multiples - round(multiples)) < 1e-9
