"""Race-detector integration: every decomposition must run race-free.

This is the dynamic half of the sanitize suite: attach a
:class:`~repro.sanitize.racecheck.RaceDetector` to the tracker, run the
real algorithms on the seed test graphs, and require zero races --- plus a
regression test proving the detector *would* catch a seeded race, so the
green runs are evidence rather than vacuity.
"""

import numpy as np
import pytest

from repro.baselines.local import and_decomposition, and_nn_decomposition
from repro.baselines.msp import msp_decomposition
from repro.baselines.nd import nd_decomposition, pnd_decomposition
from repro.baselines.pkt import pkt_decomposition
from repro.bucketing.dense import DenseBucketing
from repro.bucketing.fibheap import FibonacciBucketing
from repro.bucketing.julienne import JulienneBucketing
from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.parallel.runtime import CostTracker
from repro.sanitize.racecheck import RaceDetector, RaceError


def checked_tracker():
    tracker = CostTracker()
    tracker.race_detector = RaceDetector()
    return tracker


def assert_race_free(tracker, min_logged=1):
    races = tracker.race_detector.settle(strict=True)
    assert races == []
    assert tracker.race_detector.stats.logged >= min_logged


class TestArbIsRaceFree:
    @pytest.mark.parametrize("aggregation", ["array", "list_buffer", "hash"])
    def test_all_aggregators(self, fig1, aggregation):
        tracker = checked_tracker()
        config = NucleusConfig.optimal(2, 3)
        from dataclasses import replace
        config = replace(config, aggregation=aggregation)
        result = arb_nucleus_decomp(fig1, 2, 3, config, tracker)
        assert result.max_core == 3
        assert_race_free(tracker, min_logged=100)

    @pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (3, 4)])
    def test_all_rs_on_fig1(self, fig1, r, s):
        tracker = checked_tracker()
        arb_nucleus_decomp(fig1, r, s, NucleusConfig.optimal(r, s), tracker)
        assert_race_free(tracker)

    def test_community_graph(self, community60):
        tracker = checked_tracker()
        arb_nucleus_decomp(community60, 2, 3, NucleusConfig.optimal(2, 3),
                           tracker)
        assert_race_free(tracker, min_logged=500)

    def test_detector_saw_tasks_and_regions(self, fig1):
        tracker = checked_tracker()
        arb_nucleus_decomp(fig1, 2, 3, NucleusConfig.optimal(2, 3), tracker)
        stats = tracker.race_detector.stats
        assert stats.regions > 0
        assert stats.tasks > 0


class TestBaselinesAreRaceFree:
    @pytest.mark.parametrize("run", [
        lambda g, t: nd_decomposition(g, 2, 3, t),
        lambda g, t: pnd_decomposition(g, 2, 3, t),
        lambda g, t: pkt_decomposition(g, t),
        lambda g, t: msp_decomposition(g, t),
        lambda g, t: and_decomposition(g, 2, 3, t),
        lambda g, t: and_nn_decomposition(g, 2, 3, t),
    ], ids=["nd", "pnd", "pkt", "msp", "and", "and_nn"])
    def test_baseline(self, fig1, run):
        tracker = checked_tracker()
        run(fig1, tracker)
        assert_race_free(tracker)

    def test_baselines_agree_under_detector(self, fig1):
        # Instrumentation must not change answers: PKT's truss cores match
        # ARB's (2,3) cores with and without the detector attached.
        plain = pkt_decomposition(fig1, CostTracker()).core
        tracker = checked_tracker()
        checked = pkt_decomposition(fig1, tracker).core
        assert checked == plain
        assert_race_free(tracker)


class TestBucketingUnderDetector:
    @pytest.mark.parametrize("cls", [JulienneBucketing, FibonacciBucketing,
                                     DenseBucketing])
    def test_extract_update_cycle(self, cls):
        # Bucket moves are CAS-mediated on a real machine; drive a structure
        # through extract/update cycles inside tasks, logging each move as
        # an atomic --- the detector must stay quiet.
        tracker = checked_tracker()
        detector = tracker.race_detector
        rng = np.random.default_rng(7)
        values = rng.integers(0, 8, size=32)
        structure = cls(values, tracker=tracker)
        base = detector.allocate(32, "bucket_of")
        live = set(range(32))
        while len(structure):
            value, positions = structure.next_bucket()
            live -= set(map(int, positions))
            if positions.size == 0:
                continue
            with tracker.parallel(positions.size) as region:
                for position in map(int, positions):
                    with region.task():
                        tracker.add_work(1.0)
                        detector.log(base + position, write=True,
                                     atomic=True)
            survivors = sorted(live)[:4]
            if survivors:
                # Monotone decrease, clamped at the current peel level.
                structure.update(
                    np.asarray(survivors, dtype=np.int64),
                    np.asarray([max(value, structure.value_of(i) - 1)
                                for i in survivors], dtype=np.int64))
        assert_race_free(tracker)


class TestSeededRaceRegression:
    def test_unmediated_shared_writes_are_caught(self):
        # The canonical bug the detector exists for: tasks writing one
        # shared cell without an atomic.  Must raise, and must name both
        # distinct task owners.
        tracker = checked_tracker()
        detector = tracker.race_detector
        base = detector.allocate(8, "shared")
        with tracker.parallel(4) as region:
            for _ in range(4):
                with region.task():
                    tracker.add_work(1.0)
                    detector.log(base + 3, write=True)
        with pytest.raises(RaceError) as excinfo:
            detector.settle(strict=True)
        (race,) = {r for r in excinfo.value.races}
        assert race.kind == "write-write"
        assert race.owners[0] != race.owners[1]
        assert "shared[3]" in race.describe()

    def test_seeded_race_through_shadow_array(self, fig1):
        # Same bug expressed the way algorithm code would actually write
        # it: a maybe_shadow'd array mutated from sibling tasks.
        from repro.sanitize.racecheck import maybe_shadow
        tracker = checked_tracker()
        counts = maybe_shadow(np.zeros(4, dtype=np.int64), tracker,
                              label="counts")
        with tracker.parallel(2) as region:
            for delta in (1, 2):
                with region.task():
                    tracker.add_work(1.0)
                    counts[0] = counts[0] + delta
        races = tracker.race_detector.settle()
        assert any(r.kind == "write-write" for r in races)
