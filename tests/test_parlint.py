"""Tests for the lexical rules PAR001--PAR004 (repro.sanitize.parlint)
and for how ``repro lint`` reports a package's files.

The rule cases run :func:`lint_source`, the rules alone; the package
cases run the analyzer (:func:`repro.sanitize.chargeflow.analyze`) and
the ``repro lint`` front end.
"""

import json
from pathlib import Path

from repro.cli import main
from repro.sanitize.chargeflow import analyze
from repro.sanitize.parlint import lint_source
from repro.sanitize.reporters import report_json

FIXTURES = Path(__file__).parent / "fixtures" / "parlint"


def rules_of(findings):
    return sorted(finding.rule for finding in findings)


def lint_fixture(name):
    path = FIXTURES / name
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def package_with(tmp_path, name):
    """A package of one valid module plus *name*, for the caller to
    fill in."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "ok.py").write_text("def f():\n    return 1\n")
    return package, package / name


class TestFixtures:
    def test_each_rule_has_a_fixture(self):
        fixtures = sorted(FIXTURES.glob("bad_par*.py"))
        assert len(fixtures) == 4
        for fixture in fixtures:
            rule = fixture.stem.removeprefix("bad_").upper()
            assert rules_of(lint_fixture(fixture.name)) == [rule], fixture

    def test_clean_fixture_passes(self):
        assert lint_fixture("clean.py") == []

    def test_suppressions_silence_findings(self):
        assert lint_fixture("suppressed.py") == []

    def test_findings_carry_location(self):
        (finding,) = lint_fixture("bad_par002.py")
        assert finding.line == 6
        assert finding.path.endswith("bad_par002.py")
        assert "bad_par002.py:6:" in finding.render()


class TestRules:
    def test_par001_charged_region_passes(self):
        source = (
            "def f(tracker, items):\n"
            "    with tracker.parallel(len(items)) as region:\n"
            "        for item in items:\n"
            "            with region.task():\n"
            "                tracker.add_work(1.0)\n"
        )
        assert lint_source(source) == []

    def test_par002_charge_in_body_passes(self):
        source = (
            "def f(graph, tracker):\n"
            "    for v in range(graph.n):\n"
            "        tracker.add_work(1.0)\n"
        )
        assert lint_source(source) == []

    def test_par002_aggregate_charge_beside_loop_passes(self):
        # The listing/contraction pattern: one O(n) charge next to the loop.
        source = (
            "def f(graph, tracker):\n"
            "    for v in range(graph.n):\n"
            "        visit(v)\n"
            "    tracker.add_work(float(graph.n))\n"
        )
        assert lint_source(source) == []

    def test_par002_untracked_utility_exempt(self):
        source = (
            "def degrees(graph):\n"
            "    return [len(graph.neighbors(v)) for v in range(graph.n)]\n"
            "def walk(graph):\n"
            "    for v in range(graph.n):\n"
            "        yield v\n"
        )
        assert lint_source(source) == []

    def test_par002_tracker_passing_call_counts_as_charge(self):
        source = (
            "def f(graph, tracker):\n"
            "    for v in range(graph.n):\n"
            "        intersect_sorted(a, b, tracker=tracker)\n"
        )
        assert lint_source(source) == []

    def test_par003_local_array_exempt(self):
        source = (
            "def f(tracker, items):\n"
            "    with tracker.parallel(len(items)) as region:\n"
            "        for i in items:\n"
            "            with region.task():\n"
            "                tracker.add_work(1.0)\n"
            "                scratch = [0] * 4\n"
            "                scratch[0] = i\n"
        )
        assert lint_source(source) == []

    def test_par004_settled_meter_passes(self):
        source = (
            "def f(tracker):\n"
            "    meter = ContentionMeter()\n"
            "    meter.settle(tracker)\n"
        )
        assert lint_source(source) == []

    def test_par004_escaping_meter_passes(self):
        source = (
            "def f(tracker):\n"
            "    meter = ContentionMeter()\n"
            "    return meter\n"
        )
        assert lint_source(source) == []

    def test_par004_meter_passed_to_callee_passes(self):
        source = (
            "def f(tracker, capacity):\n"
            "    meter = ContentionMeter()\n"
            "    return make_aggregator('array', capacity, meter=meter)\n"
        )
        assert lint_source(source) == []


class TestRepoIsClean:
    def test_src_tree_lints_clean(self):
        # Without the charge oracle: no module of the tree leans on a
        # helper to satisfy PAR001/PAR002.
        src = Path(__file__).parent.parent / "src" / "repro"
        files = sorted(src.rglob("*.py"))
        assert len(files) > 50
        for path in files:
            assert lint_source(path.read_text(encoding="utf-8"),
                               str(path)) == [], path


class TestReporting:
    def test_json_report_shape(self):
        result = analyze(FIXTURES)
        report = json.loads(report_json(result.findings, result.n_files))
        assert report["tool"] == "parlint-chargeflow"
        assert report["checked_files"] == 6
        assert report["rules"]["PAR001"] \
            == "parallel region never charges work/span"
        entry = report["findings"][0]
        assert entry["rule"] == "PAR001"
        assert entry["line"] > 0

    def test_main_exit_codes(self, tmp_path, capsys):
        package, clean = package_with(tmp_path, "clean.py")
        clean.write_text((FIXTURES / "clean.py").read_text())
        assert main(["lint", str(package)]) == 0
        assert main(["lint", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "PAR003" in out

    def test_main_json_flag(self, capsys):
        assert main(["lint", "--json", str(FIXTURES)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert "PAR004" in {f["rule"] for f in report["findings"]}

    def test_missing_file_is_a_finding_not_a_crash(self, tmp_path, capsys):
        # A dangling symlink: listed by the directory walk, unreadable.
        package, link = package_with(tmp_path, "x.py")
        link.symlink_to(tmp_path / "missing.py")
        result = analyze(package)
        (finding,) = result.findings
        assert (finding.rule, Path(finding.path).name) == ("IOERR", "x.py")
        assert "cannot read file" in finding.message
        assert result.n_files == 2
        assert main(["lint", str(package)]) == 1
        assert "1 finding(s) in 2 file(s)" in capsys.readouterr().out

    def test_undecodable_file_is_a_finding_not_a_crash(self, tmp_path):
        package, latin1 = package_with(tmp_path, "latin1.py")
        latin1.write_bytes(b'name = "caf\xe9"\n')
        (finding,) = analyze(package).findings
        assert (finding.rule, Path(finding.path).name) \
            == ("IOERR", "latin1.py")
        assert "can't decode" in finding.message

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        package, bad = package_with(tmp_path, "bad.py")
        bad.write_text("def broken(:\n")
        result = analyze(package)
        (finding,) = result.findings
        assert (finding.rule, Path(finding.path).name, finding.line) \
            == ("SYNTAX", "bad.py", 1)
        assert result.n_files == 2
        assert main(["lint", str(package)]) == 1
        assert "1 finding(s) in 2 file(s)" in capsys.readouterr().out

    def test_directory_discovery(self):
        result = analyze(FIXTURES)
        assert result.n_files == len(list(FIXTURES.glob("*.py")))
        assert rules_of(result.findings) == [
            "PAR001", "PAR002", "PAR003", "PAR004", "PAR009"]
        (par009,) = [f for f in result.findings if f.rule == "PAR009"]
        assert (Path(par009.path).name, par009.line) \
            == ("bad_par001.py", 9)


class TestScaleDetection:
    def test_par002_len_bound_detected(self):
        source = (
            "def f(items, tracker):\n"
            "    for i in range(len(items)):\n"
            "        visit(i)\n"
        )
        assert rules_of(lint_source(source)) == ["PAR002"]

    def test_par002_num_attr_bound_detected(self):
        source = (
            "def f(table, tracker):\n"
            "    for i in range(table.num_cells):\n"
            "        visit(i)\n"
        )
        assert rules_of(lint_source(source)) == ["PAR002"]

    def test_par002_fixed_bound_exempt(self):
        source = (
            "def f(tracker):\n"
            "    for i in range(8):\n"
            "        visit(i)\n"
        )
        assert lint_source(source) == []

    def test_par002_ancestor_block_aggregate_charge_passes(self):
        # The charge may sit in a sibling branch of an enclosing block
        # (the contraction pattern: a guarded aggregate charge beside a
        # guarded loop).
        source = (
            "def f(self, graph):\n"
            "    if self.tracker is not None:\n"
            "        self.tracker.add_work(float(graph.n))\n"
            "    if graph.n:\n"
            "        for v in range(graph.n):\n"
            "            visit(v)\n"
        )
        assert lint_source(source) == []


class TestSuppressionHygiene:
    def test_file_level_disable_silences_every_instance(self):
        source = (
            "# parlint: disable-file=PAR002\n"
            "def f(graph, tracker):\n"
            "    for v in range(graph.n):\n"
            "        visit(v)\n"
            "    for w in range(graph.m):\n"
            "        visit(w)\n"
        )
        assert lint_source(source) == []

    def test_unused_line_suppression_is_reported(self):
        source = (
            "def f(graph, tracker):\n"
            "    for v in range(graph.n):  # parlint: disable=PAR002\n"
            "        tracker.add_work(1.0)\n"
        )
        (finding,) = lint_source(source)
        assert finding.rule == "UNUSED-SUPPRESSION"
        assert finding.line == 2

    def test_unused_file_suppression_is_reported(self):
        source = (
            "# parlint: disable-file=PAR001\n"
            "def f():\n"
            "    return 1\n"
        )
        (finding,) = lint_source(source)
        assert finding.rule == "UNUSED-SUPPRESSION"
        assert finding.line == 1

    def test_unused_reporting_can_be_disabled(self):
        source = (
            "# parlint: disable-file=PAR001\n"
            "def f():\n"
            "    return 1\n"
        )
        assert lint_source(source, report_unused=False) == []
