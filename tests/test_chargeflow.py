"""Tests for the analyzer behind ``repro lint``.

Covers the call-graph/summary machinery (repro.sanitize.callgraph,
.summaries), the interprocedural rules PAR005, PAR006 and PAR008
(.rules), the reporters, and the ``repro lint`` front end --- against
both a fixture package with known charge-flow shapes and the real
``src/repro`` tree.
"""

import json
from pathlib import Path

from repro.cli import main
from repro.sanitize.catalog import CATALOG
from repro.sanitize.chargeflow import analyze
from repro.sanitize.parlint import lint_source
from repro.sanitize.reporters import report_json, report_sarif

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ENGINEPKG = Path(__file__).parent / "fixtures" / "chargeflow" / "enginepkg"


def keyed(findings):
    return sorted((f.rule, Path(f.path).name, f.line) for f in findings)


class TestFixturePackage:
    def test_exact_finding_set(self):
        result = analyze(ENGINEPKG)
        assert keyed(result.findings) == [
            ("PAR005", "batchbad.py", 12),
            ("PAR006", "nondet.py", 8),
            ("PAR006", "nondet.py", 10),
            ("PAR006", "nondet.py", 12),
            ("PAR008", "phases.py", 7),
        ]

    def test_charge_via_helper_needs_the_call_graph(self):
        # Lexically the loop and the parallel region never charge; only
        # the interprocedural oracle sees Meter.bump reach the tracker.
        path = ENGINEPKG / "charged_via_helper.py"
        lexical = lint_source(path.read_text(), str(path))
        assert sorted(f.rule for f in lexical) == ["PAR001", "PAR002"]
        result = analyze(ENGINEPKG)
        assert not [f for f in result.findings
                    if f.path.endswith("charged_via_helper.py")]

    def test_stable_sort_is_not_a_hazard(self):
        result = analyze(ENGINEPKG)
        assert not [f for f in result.findings
                    if f.rule == "PAR006" and f.line > 13]


class TestRealTree:
    def test_src_tree_is_strict_clean(self):
        result = analyze(SRC)
        assert result.findings == []


class TestReporters:
    def test_sarif_shape(self):
        result = analyze(ENGINEPKG)
        doc = json.loads(report_sarif(result.findings, base=REPO))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"PAR005", "PAR006", "PAR008"} <= rule_ids
        assert len(run["results"]) == len(result.findings)
        for res in run["results"]:
            uri = (res["locations"][0]["physicalLocation"]
                   ["artifactLocation"]["uri"])
            assert not uri.startswith("/")

    def test_titles_come_from_the_catalog(self):
        titles = {rule_id: info.title for rule_id, info in CATALOG.items()}
        report = json.loads(report_json([], 0))
        assert report["rules"] == titles
        sarif = json.loads(report_sarif([]))
        rules = sarif["runs"][0]["tool"]["driver"]["rules"]
        assert {rule["id"]: rule["shortDescription"]["text"]
                for rule in rules} == titles


class TestCli:
    def test_strict_clean_tree_exits_zero(self, capsys):
        # No PACKAGE argument: src/repro under the working directory.
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, capsys):
        assert main(["lint", str(ENGINEPKG)]) == 1
        out = capsys.readouterr().out
        assert "PAR005" in out
        assert "5 finding(s) in 5 file(s)" in out

    def test_json_report(self, capsys):
        assert main(["lint", str(ENGINEPKG), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "parlint-chargeflow"
        assert len(doc["findings"]) == 5

    def test_sarif_to_file(self, tmp_path, capsys):
        out = tmp_path / "out.sarif"
        assert main(["lint", str(ENGINEPKG), "--sarif", str(out)]) == 1
        capsys.readouterr()
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["runs"][0]["results"]
