"""The result-reporting path shared by NucleusResult and ShardedResult:
``as_dict`` (one bulk decode), ``core_of`` (validated input) and
``core_histogram``."""

import dataclasses
import re

import pytest

from repro.core.config import NucleusConfig
from repro.core.decomp import arb_nucleus_decomp
from repro.distributed.peel import sharded_nucleus_decomp
from repro.graph.generators import complete_graph


def _run(graph, r, relabel, sharded):
    config = dataclasses.replace(NucleusConfig.optimal(r, r + 1),
                                 relabel=relabel)
    if sharded:
        return sharded_nucleus_decomp(graph, r, r + 1, 3, config=config)
    return arb_nucleus_decomp(graph, r, r + 1, config)


def _per_cell(result) -> dict:
    """The per-cell form ``as_dict`` replaced: one ``decode`` per cell."""
    out = {}
    for cell, core in zip(result._cells, result._cores):
        clique = result._table.decode(int(cell))
        original = tuple(sorted(int(result._original_of[v]) for v in clique))
        out[original] = int(core)
    return out


RUNS = [(r, relabel, sharded) for r in (1, 2, 3) for relabel in (True, False)
        for sharded in (False, True)]


@pytest.mark.parametrize(
    "r,relabel,sharded", RUNS,
    ids=[f"r{r}-{'relabel' if relabel else 'plain'}-"
         f"{'sharded' if sharded else 'single'}" for r, relabel, sharded
         in RUNS])
class TestSharedReporting:
    def test_as_dict_matches_per_cell_decode(self, community60, r, relabel,
                                             sharded):
        result = _run(community60, r, relabel, sharded)
        assert result._table.tracker is None
        totals = dataclasses.asdict(result.tracker.total)
        got = result.as_dict()
        assert list(got.items()) == list(_per_cell(result).items())
        assert all(type(v) is int for clique in got for v in clique)
        assert all(type(core) is int for core in got.values())
        assert dataclasses.asdict(result.tracker.total) == totals

    def test_core_of_and_histogram_agree_with_as_dict(
            self, community60, r, relabel, sharded):
        result = _run(community60, r, relabel, sharded)
        cores = result.as_dict()
        assert cores
        for clique, core in cores.items():
            assert result.core_of(clique) == core
            assert result.core_of(tuple(reversed(clique))) == core
        histogram = {}
        for core in cores.values():
            histogram[core] = histogram.get(core, 0) + 1
        assert result.core_histogram() == histogram


class TestCoreOfRejectsBadInput:
    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["single", "sharded"])
    @pytest.mark.parametrize("clique", [(-1, 0), (0, 5), (0, -5), (0, 1, 2),
                                        (0,), ()], ids=str)
    def test_key_error_names_the_clique(self, clique, sharded):
        graph = complete_graph(5)
        result = sharded_nucleus_decomp(graph, 2, 3, 2) if sharded \
            else arb_nucleus_decomp(graph, 2, 3)
        with pytest.raises(KeyError, match=re.escape(f"{clique} is not")):
            result.core_of(clique)

    def test_valid_edge_still_answers(self):
        result = arb_nucleus_decomp(complete_graph(5), 2, 3)
        assert result.core_of((0, 4)) == 3
        assert result.core_of([4, 0]) == 3
