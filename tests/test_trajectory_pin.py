"""The committed perf trajectory, pinned exactly in tier-1.

``BENCH_nucleus.json`` records the simulated machine's verdict on the
pinned suites.  The CI bench job compares a fresh run against it at a
5% tolerance; this test holds the library's default path to the
committed numbers *exactly*: every field of every pinned-suite,
hierarchy-suite and sharded-suite entry except host wall-clock must
equal the committed entry.  Real rounds cross the batch kernels' block
boundaries here (634 tasks in amazon (3,4)'s largest round, 6,513 in
youtube (2,3)'s), so a block split that moved a single charge or cache
miss fails this test.
"""

import json
from pathlib import Path

import pytest

from repro.observe.bench import (HIERARCHY_SUITE, PINNED_SUITE, SHARDED_SUITE,
                                 entry_key, hierarchy_entry_key, load_payload,
                                 run_entry, run_hierarchy_entry,
                                 run_sharded_entry, sharded_entry_key)

COMMITTED = load_payload(Path(__file__).resolve().parents[1]
                         / "BENCH_nucleus.json")


def _simulated(entry: dict) -> dict:
    """The entry as JSON would store it, minus host wall-clock."""
    entry = json.loads(json.dumps(entry))
    entry.pop("wall_clock")
    return entry


def _committed(section: str, key: str, key_of) -> dict:
    matches = [e for e in COMMITTED[section] if key_of(e) == key]
    assert len(matches) == 1, f"{key} not committed exactly once"
    return _simulated(matches[0])


@pytest.mark.parametrize("graph,r,s", PINNED_SUITE,
                         ids=[f"{g}-{r}-{s}" for g, r, s in PINNED_SUITE])
def test_suite_entry_matches_committed(graph, r, s):
    entry = run_entry(graph, r, s)
    assert _simulated(entry) == _committed("suite", entry_key(entry),
                                           entry_key)


@pytest.mark.parametrize("graph,r,s", HIERARCHY_SUITE,
                         ids=[f"{g}-{r}-{s}" for g, r, s in HIERARCHY_SUITE])
def test_hierarchy_entry_matches_committed(graph, r, s):
    entry = run_hierarchy_entry(graph, r, s)
    assert _simulated(entry) == _committed(
        "hierarchy", hierarchy_entry_key(entry), hierarchy_entry_key)


@pytest.mark.parametrize(
    "graph,r,s,shards", SHARDED_SUITE,
    ids=[f"{g}-{r}-{s}-x{k}" for g, r, s, k in SHARDED_SUITE])
def test_sharded_entry_matches_committed(graph, r, s, shards):
    entry = run_sharded_entry(graph, r, s, shards)
    assert _simulated(entry) == _committed(
        "sharded", sharded_entry_key(entry), sharded_entry_key)
