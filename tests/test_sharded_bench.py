"""Bench + CLI integration for the sharded suite.

Keeps to the cheapest pinned entry (dblp at (1,2) on 2 shards) so the
whole file stays fast while still exercising the full
``run_sharded_entry`` path: single-node reference, both partitioners,
comm accounting, and the oracle match flag.
"""

import json

import pytest

from repro import cli
from repro.observe import bench
from repro.observe.bench import (SECTIONS, SHARDED_SUITE, compare,
                                 run_sharded_entry)


@pytest.fixture(scope="module")
def entry():
    return run_sharded_entry("dblp", 1, 2, 2)


class TestShardedEntry:
    def test_entry_shape(self, entry):
        assert entry["graph"] == "dblp"
        assert (entry["r"], entry["s"], entry["shards"]) == (1, 2, 2)
        for part in ("hash", "mincut"):
            sub = entry[part]
            assert sub["comm_bytes"] >= 0
            assert sub["edge_cut"] >= 0
            assert 0.0 <= sub["cut_fraction"] <= 1.0
            assert sub["imbalance"] >= 1.0
            assert sub["matches_oracle"]
        assert entry["matches_oracle"]

    def test_comm_reduction_definition(self, entry):
        assert entry["comm_reduction"] == pytest.approx(
            entry["hash"]["comm_time"] / entry["mincut"]["comm_time"])
        assert entry["comm_reduction"] > 1.0
        assert entry["comm_time"] == entry["mincut"]["comm_time"]

    def test_speedup_definition(self, entry):
        assert entry["speedup"] == pytest.approx(
            entry["T60_single"] / entry["T60"])

    def test_entry_key(self, entry):
        _, _, key = SECTIONS["sharded"]
        assert key.format_map(entry) == "shard:dblp(1,2)x2"

    def test_suite_covers_gated_shard_counts(self):
        shard_counts = {shards for _, _, _, shards in SHARDED_SUITE}
        assert {4, 8} <= shard_counts


class TestCompareShardedSection:
    def test_sharded_regression_detected(self, entry):
        good = {"sharded": [entry]}
        worse = {"sharded": [dict(entry, comm_time=entry["comm_time"] * 2)]}
        assert compare(good, good) == []
        findings = compare(worse, good)
        assert any("comm_time" in f for f in findings)

    def test_section_skipped_when_absent(self, entry):
        # Older baselines predate the sharded suite; comparing against
        # them must not fail.  A current run without the section the
        # baseline records has dropped it: that is a regression.
        assert compare({"sharded": [entry]}, {}) == []
        assert compare({}, {"sharded": [entry]}) == [
            "sharded: section missing from current run"]

    def test_comm_reduction_is_higher_better(self):
        assert bench.COMPARED_METRICS["comm_reduction"] is False
        assert bench.COMPARED_METRICS["comm_time"] is True


class TestShardCli:
    def test_shard_subcommand_verifies(self, capsys):
        rc = cli.main(["shard", "--dataset", "dblp", "--r", "1", "--s", "2",
                       "--shards", "2", "--verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cores identical to the single-node run" in out
        assert "comm" in out

    def test_stats_partition_report(self, capsys):
        rc = cli.main(["stats", "--dataset", "dblp", "--shards", "4",
                       "--s", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "edge cut" in out
        assert "mincut" in out
        assert "triangle spill" in out

    def test_shard_trace_has_shard_lanes(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        rc = cli.main(["shard", "--dataset", "dblp", "--r", "1", "--s", "2",
                       "--shards", "2", "--trace", str(path)])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(path.read_text())
        names = {event["args"]["name"]
                 for event in payload["traceEvents"]
                 if event.get("name") == "thread_name"}
        assert any(name.startswith("shard 0 ") for name in names)
        assert any(name.startswith("shard 1 ") for name in names)
