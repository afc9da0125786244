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
from repro.sanitize.callgraph import build_project
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
            # Not line 29: ``delegate`` only calls a phase-opener.
            ("PAR008", "phases.py", 30),
            # Nothing in owned.py: ``self._codec`` is typed.
        ]

    def test_self_attribute_typed_by_its_constructor(self):
        # ``self._codec`` is only ever ``Codec()``, so
        # ``self._codec.decode_many`` resolves to Codec's method alone and
        # ``orchestrate_decode``'s out-of-phase call charges nothing.  A
        # store of anything else unties the type: the call is a may-call
        # union over every ``decode_many`` again, and PAR008 flags it.
        project = build_project(ENGINEPKG)
        quiet = project.functions["enginepkg.owned.Store.decode_quiet"]
        assert [site.targets for site in quiet.call_sites] == [
            ("enginepkg.owned.Codec.decode_many",)]
        path = ENGINEPKG / "owned.py"
        untyped = path.read_text() + (
            "\n\ndef swap(store, codec):\n"
            "    store._codec = codec\n")
        result = analyze(ENGINEPKG, overlay={str(path): untyped})
        assert [(f.rule, f.line) for f in result.findings
                if f.path.endswith("owned.py")] == [("PAR008", 34)]

    def test_phase_closed_is_a_greatest_fixpoint(self):
        # Two delegates that call each other and otherwise only a
        # phase-opener stay phase-closed: the cycle alone strikes neither.
        # A direct out-of-phase charge in one strikes both.
        path = ENGINEPKG / "phases.py"
        cycle = path.read_text() + (
            "\n\ndef ping(tracker, n):\n"
            "    open_phase(tracker)\n"
            "    if n:\n"
            "        pong(tracker, n - 1)\n"
            "\n\ndef pong(tracker, n):\n"
            "    ping(tracker, n)\n"
            "\n\ndef orchestrate_cycle(tracker):\n"
            "    with tracker.phase(\"own\"):\n"
            "        tracker.add_span(1.0)\n"
            "    ping(tracker, 2)\n")
        charged = cycle.replace("    ping(tracker, n)\n",
                                "    ping(tracker, n)\n"
                                "    tracker.add_work(1.0)\n")

        def par008_lines(source):
            result = analyze(ENGINEPKG, overlay={str(path): source})
            return [f.line for f in result.findings if f.rule == "PAR008"]

        assert par008_lines(cycle) == [7, 30]
        call_line = charged.splitlines().index("    ping(tracker, 2)") + 1
        assert par008_lines(charged) == [7, 30, call_line]

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
        assert "6 finding(s) in 6 file(s)" in out

    def test_json_report(self, capsys):
        assert main(["lint", str(ENGINEPKG), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "parlint-chargeflow"
        assert len(doc["findings"]) == 6

    def test_sarif_to_file(self, tmp_path, capsys):
        out = tmp_path / "out.sarif"
        assert main(["lint", str(ENGINEPKG), "--sarif", str(out)]) == 1
        capsys.readouterr()
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["runs"][0]["results"]
