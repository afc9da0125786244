"""Tests for SNAP edge-list IO (repro.graph.io)."""

import numpy as np
import pytest

from repro.graph.generators import figure1_graph
from repro.graph.io import read_edge_list, write_edge_list


def test_round_trip(tmp_path):
    g = figure1_graph()
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    h = read_edge_list(path)
    assert h.n == g.n
    assert np.array_equal(h.edges(), g.edges())


def test_header_and_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# SNAP comment\n% other comment\n\n0 1\n1 2 99\n")
    g = read_edge_list(path)
    assert g.n == 3
    assert g.m == 2  # extra column ignored


def test_relabel_compacts_sparse_ids(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("100 200\n200 5000\n")
    g = read_edge_list(path)
    assert g.n == 3
    assert g.m == 2


def test_no_relabel_keeps_ids(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 2\n2 9\n")
    g = read_edge_list(path, relabel=False)
    assert g.n == 10
    assert g.has_edge(2, 9)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    g = read_edge_list(path)
    assert g.m == 0


def test_write_includes_header(tmp_path):
    g = figure1_graph()
    path = tmp_path / "g.txt"
    write_edge_list(g, path, header="hello\nworld")
    text = path.read_text()
    assert text.startswith("# hello\n# world\n")
    assert "# n=7 m=15" in text


def test_gzip_round_trip(tmp_path):
    g = figure1_graph()
    path = tmp_path / "g.txt.gz"
    write_edge_list(g, path)
    import gzip
    with gzip.open(path, "rt") as handle:  # really compressed
        assert "# n=7 m=15" in handle.read()
    h = read_edge_list(path)
    assert np.array_equal(h.edges(), g.edges())


class TestMalformedInput:
    """Every malformed line fails with ``<path>:<line>: ...``."""

    @staticmethod
    def _error(tmp_path, text, relabel=True):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_edge_list(path, relabel=relabel)
        return str(info.value), str(path)

    def test_one_token_line(self, tmp_path):
        message, path = self._error(tmp_path, "# c\n0 1\n7\n")
        assert message == f"{path}:3: expected two vertex ids, got '7'"

    def test_non_integer_token(self, tmp_path):
        message, path = self._error(tmp_path, "0 1\n1 x\n")
        assert message == f"{path}:2: vertex id 'x' is not an integer"

    def test_negative_id_without_relabel(self, tmp_path):
        message, path = self._error(tmp_path, "0 1\n\n-4 2\n",
                                    relabel=False)
        assert message.startswith(f"{path}:3: negative vertex id -4")

    def test_negative_id_with_relabel_is_compacted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-4 2\n2 7\n")
        graph = read_edge_list(path)
        assert (graph.n, graph.m) == (3, 2)
