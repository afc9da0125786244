"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import figure1_graph
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig1.txt"
    write_edge_list(figure1_graph(), path)
    return str(path)


class TestDecompose:
    def test_from_file(self, graph_file, capsys):
        assert main(["decompose", "--input", graph_file,
                     "--r", "3", "--s", "4"]) == 0
        out = capsys.readouterr().out
        assert "r-cliques: 14" in out
        assert "max core: 2" in out

    def test_histogram(self, graph_file, capsys):
        main(["decompose", "--input", graph_file, "--r", "3", "--s", "4",
              "--histogram"])
        out = capsys.readouterr().out
        assert "0: 1" in out and "2: 10" in out

    def test_full_listing(self, graph_file, capsys):
        main(["decompose", "--input", graph_file, "--r", "3", "--s", "4",
              "--full"])
        out = capsys.readouterr().out
        assert "2 3 6 0" in out  # cdg has core 0

    def test_dataset(self, capsys):
        assert main(["decompose", "--dataset", "amazon",
                     "--r", "1", "--s", "2"]) == 0
        assert "nucleus decomposition" in capsys.readouterr().out

    def test_requires_source(self):
        with pytest.raises(SystemExit):
            main(["decompose", "--r", "2", "--s", "3"])

    def test_unoptimized_flag(self, graph_file, capsys):
        assert main(["decompose", "--input", graph_file, "--r", "3",
                     "--s", "4", "--unoptimized"]) == 0
        assert "max core: 2" in capsys.readouterr().out

    def test_config_overrides(self, graph_file, capsys):
        assert main(["decompose", "--input", graph_file, "--r", "3",
                     "--s", "4", "--levels", "1", "--aggregation", "hash",
                     "--bucketing", "dense", "--orientation", "degeneracy",
                     "--no-relabel"]) == 0
        assert "max core: 2" in capsys.readouterr().out  # same answer

    def test_all_bucketings_agree(self, graph_file, capsys):
        outputs = set()
        for backend in ("julienne", "fibonacci", "dense"):
            main(["decompose", "--input", graph_file, "--r", "3", "--s", "4",
                  "--bucketing", backend, "--histogram"])
            out = capsys.readouterr().out
            outputs.add(out[out.index("core histogram"):])
        assert len(outputs) == 1


class TestInputErrors:
    """Unreadable or malformed input: one line on stderr, exit status 2."""

    @pytest.mark.parametrize("text", ["0 1\n5\n", "0 1\n1 x\n"])
    def test_malformed_edge_list(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(SystemExit) as info:
            main(["decompose", "--input", str(path), "--r", "2", "--s", "3"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {path}:2: ")
        assert err.count("\n") == 1

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "missing.txt"
        with pytest.raises(SystemExit) as info:
            main(["decompose", "--input", str(path), "--r", "2", "--s", "3"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and str(path) in err
        assert err.count("\n") == 1


class TestHierarchy:
    """``repro hierarchy`` answers alike from a built and a loaded
    hierarchy, and rejects a malformed ``--load`` with exit status 2."""

    @staticmethod
    def _answers(argv, capsys) -> list[str]:
        """The query lines: everything after the build or load report."""
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        last = max(i for i, line in enumerate(lines)
                   if line.startswith(("wrote hierarchy", "loaded (")))
        return lines[last + 1:]

    @pytest.mark.parametrize("query", [
        ["--edge", "0", "1", "--vertex", "0", "--summary"],
        ["--vertex", "0", "--level", "3"],
        ["--level", "2"],
    ], ids=["edge-vertex-summary", "vertex-level", "level"])
    def test_loaded_answers_like_built(self, query, tmp_path, capsys):
        path = str(tmp_path / "amazon.json")
        built = self._answers(["hierarchy", "--dataset", "amazon", "--r",
                               "2", "--s", "3", "-o", path] + query, capsys)
        loaded = self._answers(["hierarchy", "--load", path] + query,
                               capsys)
        assert built == loaded
        assert any(line.lstrip().startswith(("node ", "vertex 0 at"))
                   for line in built)

    def test_malformed_load_exits_2(self, malformed_hierarchy, tmp_path,
                                    capsys):
        payload, message = malformed_hierarchy
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as info:
            main(["hierarchy", "--load", str(path), "--vertex", "1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: {path}: {message}\n"

    def test_missing_load_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as info:
            main(["hierarchy", "--load", str(path)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and str(path) in err
        assert err.count("\n") == 1


class TestGenerate:
    def test_rmat(self, tmp_path, capsys):
        out_path = tmp_path / "g.txt"
        assert main(["generate", "--kind", "rmat", "--scale", "7",
                     "-o", str(out_path)]) == 0
        assert out_path.exists()
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["erdos-renyi", "community"])
    def test_other_kinds(self, kind, tmp_path):
        out_path = tmp_path / "g.txt"
        assert main(["generate", "--kind", kind, "--scale", "6",
                     "-o", str(out_path)]) == 0
        assert out_path.exists()


class TestShard:
    ARGS = ["shard", "--r", "2", "--s", "3", "--shards", "2", "--verify"]

    def test_verify_checks_definition_and_oracle(self, graph_file, capsys):
        assert main([*self.ARGS, "--input", graph_file]) == 0
        out = capsys.readouterr().out
        assert "exchanged in " in out
        assert "definition check: the cores meet the nucleus definition" \
            in out
        assert "oracle check: cores identical" in out

    def test_verify_rejects_a_corrupted_core(self, graph_file, capsys,
                                             monkeypatch):
        """One core raised by 1 after the run: --verify names the
        definition violation and exits 1."""
        import repro.distributed as distributed
        run = distributed.sharded_nucleus_decomp

        def corrupted(*args, **kwargs):
            result = run(*args, **kwargs)
            result._cores[0] += 1
            return result

        monkeypatch.setattr(distributed, "sharded_nucleus_decomp", corrupted)
        assert main([*self.ARGS, "--input", graph_file]) == 1
        out = capsys.readouterr().out
        assert "definition check: VIOLATION: " in out
        assert "oracle check" not in out


class TestStats:
    def test_stats_output(self, graph_file, capsys):
        assert main(["stats", "--input", graph_file]) == 0
        out = capsys.readouterr().out
        assert "n = 7" in out
        assert "triangles = 14" in out
        assert "degeneracy = 4" in out


class TestFigure:
    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestLint:
    """``repro lint [PACKAGE] [--json] [--sarif [FILE]] [--explain RULE]``,
    run in-process.  The parlint fixtures directory, as a package,
    reports PAR001-PAR004 plus one PAR009."""

    FIXTURES = "tests/fixtures/parlint"

    @staticmethod
    def _usage_error(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(["lint", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1
        return err

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "src/repro"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, capsys):
        assert main(["lint", self.FIXTURES]) == 1
        out = capsys.readouterr().out
        assert "PAR001" in out
        assert "bad_par001.py:9:16: PAR009" in out

    def test_json_report(self, capsys):
        assert main(["lint", "--json", self.FIXTURES]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "parlint-chargeflow"
        assert [f["rule"] for f in report["findings"]] == [
            "PAR001", "PAR009", "PAR002", "PAR003", "PAR004"]

    def test_sarif_to_file(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        assert main(["lint", "--sarif", str(out), self.FIXTURES]) == 1
        assert capsys.readouterr().out.endswith("5 finding(s) in 6 file(s)\n")
        run = json.loads(out.read_text())["runs"][0]
        assert sorted(r["ruleId"] for r in run["results"]) == [
            "PAR001", "PAR002", "PAR003", "PAR004", "PAR009"]

    def test_explain(self, capsys):
        assert main(["lint", "--explain", "PAR009"]) == 0
        assert capsys.readouterr().out.startswith("PAR009: ")

    def test_second_path_is_a_usage_error(self, capsys):
        err = self._usage_error(
            capsys, "src/repro", "tests/fixtures/chargeflow/enginepkg")
        assert "one package directory" in err

    def test_file_is_a_usage_error(self, capsys):
        err = self._usage_error(capsys, f"{self.FIXTURES}/bad_par001.py")
        assert "bad_par001.py is not a package directory" in err

    def test_missing_directory_is_a_usage_error(self, capsys):
        err = self._usage_error(capsys, "no/such/package")
        assert "not a package directory" in err

    def test_json_and_sarif_on_stdout_is_a_usage_error(self, capsys):
        err = self._usage_error(capsys, self.FIXTURES, "--json", "--sarif")
        assert "both write to stdout" in err

    def test_unwritable_sarif_is_a_usage_error(self, tmp_path, capsys):
        err = self._usage_error(capsys, self.FIXTURES,
                                "--sarif", str(tmp_path))
        assert f"cannot write {tmp_path}" in err


class TestSanitize:
    def test_default_graph_is_race_free(self, capsys):
        assert main(["sanitize"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        for label in ("arb (2,3)", "nd", "pkt", "msp", "and"):
            assert f"{label:<10} ok" in out


class TestProfile:
    def test_writes_trace_and_breakdown(self, graph_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["profile", "--input", graph_file, "--r", "2",
                     "--s", "3", "-o", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out  # the breakdown table
        assert "trace events" in out
        import json
        loaded = json.loads(trace.read_text())
        assert loaded["traceEvents"]
        assert all(e.get("dur", 0) >= 0 for e in loaded["traceEvents"]
                   if e["ph"] == "X")


@pytest.fixture
def one_entry_sections(monkeypatch):
    """Every bench section shrunk to its first pinned entry."""
    from repro.observe import bench
    monkeypatch.setattr(bench, "SECTIONS", {
        section: (suite[:1], run, key)
        for section, (suite, run, key) in bench.SECTIONS.items()})
    return bench


class TestBench:
    SECTIONS = ("suite", "baselines", "hierarchy", "sharded")

    def test_writes_payload(self, tmp_path, capsys, one_entry_sections):
        out_path = tmp_path / "BENCH.json"
        assert main(["bench", "-o", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == one_entry_sections.SCHEMA_VERSION
        for section in self.SECTIONS:
            assert len(payload[section]) == 1
            assert "wall_clock" not in payload[section][0]
        assert payload["suite"][0]["graph"] == "amazon"

    def test_compare_gates_on_regression(self, tmp_path, capsys,
                                         one_entry_sections):
        baseline = tmp_path / "BASE.json"
        assert main(["bench", "-o", str(baseline)]) == 0
        # Clean against itself.
        out_path = tmp_path / "CUR.json"
        assert main(["bench", "-o", str(out_path),
                     "--compare", str(baseline)]) == 0
        assert "no regressions" in capsys.readouterr().out
        # Inject a regression into the baseline (pretend it used to be
        # faster) and the gate must fail.
        doctored = json.loads(baseline.read_text())
        doctored["suite"][0]["T60"] *= 0.5
        baseline.write_text(json.dumps(doctored))
        assert main(["bench", "-o", str(out_path),
                     "--compare", str(baseline)]) == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_compare_flags_dropped_section(self, tmp_path, capsys,
                                           one_entry_sections,
                                           monkeypatch):
        baseline = tmp_path / "BASE.json"
        assert main(["bench", "-o", str(baseline)]) == 0
        run_payloads = one_entry_sections.run_payloads

        def dropping_sharded(*args, **kwargs):
            payloads = run_payloads(*args, **kwargs)
            for payload in payloads:
                del payload["sharded"]
            return payloads

        monkeypatch.setattr(one_entry_sections, "run_payloads",
                            dropping_sharded)
        assert main(["bench", "-o", str(tmp_path / "CUR.json"),
                     "--compare", str(baseline)]) == 1
        assert "sharded: section missing from current run" in \
            capsys.readouterr().out

    def test_engine_gate_checks_parity(self, tmp_path, capsys,
                                       one_entry_sections):
        # Every floor at 0: the gate checks parity and sections, not the
        # host's speed.
        out_path = tmp_path / "BENCH.json"
        floors = [arg for flag in (
            "--min-speedup", "--min-listing-speedup",
            "--min-baseline-speedup", "--min-hierarchy-speedup",
            "--min-comm-reduction") for arg in (flag, "0")]
        assert main(["bench", "--engine-gate", "-o", str(out_path),
                     *floors]) == 0
        assert "engine gate passed" in capsys.readouterr().out
        default = json.loads(out_path.read_text())
        reference = json.loads(
            (tmp_path / "BENCH.reference.json").read_text())
        assert default == reference
        assert set(self.SECTIONS) <= set(default)


class TestArgumentErrors:
    """Arguments the run cannot take: one line on stderr, exit status 2,
    before the run starts."""

    @pytest.mark.parametrize("argv,named", [
        (["decompose", "--r", "3", "--s", "2"], "r < s"),
        (["hierarchy", "--r", "1", "--s", "1"], "r < s"),
        (["profile", "--r", "0", "--s", "2"], "r < s"),
        (["decompose", "--r", "2", "--s", "3", "--levels", "0"], "levels"),
        (["shard", "--r", "2", "--s", "3", "--shards", "0"], "--shards"),
        (["profile", "--r", "2", "--s", "3", "--shards", "0"], "--shards"),
        (["stats", "--shards", "-2"], "--shards"),
    ], ids=["decompose-rs", "hierarchy-rs", "profile-rs", "levels",
            "shard-shards", "profile-shards", "stats-shards"])
    def test_rejected_with_exit_2(self, argv, named, graph_file, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--input", graph_file])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert named in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,named", [
        (["decompose", "--r", "2", "--s", "3"], "--input"),
        (["stats"], "--input"),
        (["hierarchy", "--r", "2", "--s", "3"], "--input"),
        (["profile", "--r", "2", "--s", "3"], "--input"),
        (["shard", "--r", "2", "--s", "3", "--shards", "2"], "--input"),
        (["hierarchy", "--dataset", "amazon"], "--r and --s"),
        (["figure", "fig99"], "fig99"),
    ], ids=["decompose-source", "stats-source", "hierarchy-source",
            "profile-source", "shard-source", "hierarchy-rs", "figure"])
    def test_missing_argument_exits_2(self, argv, named, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert named in captured.err
        assert captured.err.count("\n") == 1

    def test_error_inside_a_run_keeps_its_traceback(self, graph_file,
                                                    monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("inside the run")

        monkeypatch.setattr("repro.cli.arb_nucleus_decomp", broken)
        with pytest.raises(ValueError, match="inside the run"):
            main(["decompose", "--input", graph_file, "--r", "2",
                  "--s", "3"])


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["decompose", "--dataset", "dblp",
                              "--r", "2", "--s", "3"])
    assert args.r == 2 and args.s == 3


def test_missing_subcommand():
    with pytest.raises(SystemExit):
        main([])
