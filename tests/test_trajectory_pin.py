"""The committed perf trajectory, pinned exactly in tier-1.

``BENCH_nucleus.json`` records the simulated machine's verdict on the
pinned sections.  The CI bench job compares a fresh run against it at a
5% tolerance; this module holds the library's default path to the
committed numbers *exactly*: one ``test_<section>_entry_matches_committed``
per section of ``SECTIONS``, parametrized over that section's pinned
suite, requires every field of the entry except host wall-clock (which
the file does not store) to equal the committed entry.  Real rounds cross
the batch kernels' block boundaries here (634 tasks in amazon (3,4)'s
largest round, 6,513 in youtube (2,3)'s), so a block split that moved a
single charge or cache miss fails this test.
"""

import json
from pathlib import Path

import pytest

from repro.observe.bench import SECTIONS, load_payload

COMMITTED = load_payload(Path(__file__).resolve().parents[1]
                         / "BENCH_nucleus.json")


def _id(item) -> str:
    """``amazon-2-3`` for (graph, r, s), ``amazon-2-3-x4`` with shards."""
    return "-".join(map(str, item[:3])) + "".join(f"-x{k}" for k in item[3:])


def _pin(section: str):
    suite, run, key = SECTIONS[section]

    @pytest.mark.parametrize("item", suite, ids=_id)
    def test(item):
        entry = json.loads(json.dumps(run(*item)))  # as JSON would store it
        entry.pop("wall_clock")
        committed = [e for e in COMMITTED[section]
                     if key.format_map(e) == key.format_map(entry)]
        assert committed == [entry]

    return test


for _section in SECTIONS:
    globals()[f"test_{_section}_entry_matches_committed"] = _pin(_section)
