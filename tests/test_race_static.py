"""End-to-end tests for the static parallel-effect analyzer.

Covers the fixture package (tests/fixtures/racestatic) with exact
expected finding sets, the mutation gates the fixtures document, the
rule catalog / ``--explain`` / SARIF metadata satellites, and the
real-tree invariants (src/repro strict-clean with every shared-writing
region covered).
"""

import json
import re
from pathlib import Path

import pytest

from repro import cli
from repro.sanitize.catalog import CATALOG, DOC_PATH, explain, get_rule
from repro.sanitize.chargeflow import analyze
from repro.sanitize.reporters import report_sarif

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures" / "racestatic"
STAMPS = FIXTURES / "stamps"
SRC = HERE.parent / "src" / "repro"
DOC = HERE.parent / "docs" / "static-analysis.md"

#: PAR007 (the retired parity fingerprints) keeps its number unused.
ALL_RULE_IDS = [f"PAR{i:03d}" for i in range(1, 12) if i != 7]


def rule_file_set(result):
    return {(f.rule, Path(f.path).name) for f in result.findings}


class TestFixturePackage:
    def test_exact_finding_set_with_stamps(self):
        result = analyze(FIXTURES, tests_dir=STAMPS)
        assert rule_file_set(result) == {
            ("PAR009", "racy.py"),
            ("PAR010", "accum.py"),
            ("PAR011", "uncovered.py"),
        }
        assert len(result.findings) == 3

    def test_par009_fires_at_the_helper_write(self):
        result = analyze(FIXTURES, tests_dir=STAMPS)
        (finding,) = [f for f in result.findings if f.rule == "PAR009"]
        source_line = Path(finding.path).read_text().splitlines()
        assert "acc[slot]" in source_line[finding.line - 1]
        assert "'total'" in finding.message

    def test_par010_names_the_dividing_operand(self):
        result = analyze(FIXTURES, tests_dir=STAMPS)
        (finding,) = [f for f in result.findings if f.rule == "PAR010"]
        assert "bump()" in finding.message
        assert "'delta'" in finding.message
        assert "true division" in finding.message

    def test_par011_keys_on_the_stamp_not_the_shape(self):
        # covered.py and uncovered.py have identical region bodies; only
        # the unstamped one is reported.
        result = analyze(FIXTURES, tests_dir=STAMPS)
        (finding,) = [f for f in result.findings if f.rule == "PAR011"]
        assert Path(finding.path).name == "uncovered.py"
        assert "racestatic.uncovered.run" in finding.message

    def test_without_tests_dir_par011_is_off(self):
        result = analyze(FIXTURES)
        assert rule_file_set(result) == {
            ("PAR009", "racy.py"),
            ("PAR010", "accum.py"),
        }

    def test_region_registry_is_complete(self):
        result = analyze(FIXTURES, tests_dir=STAMPS)
        regions = {r.qualname: r for r in result.effects.regions}
        assert set(regions) == {
            "racestatic.racy.run", "racestatic.disjoint.run",
            "racestatic.mediated.run", "racestatic.accum.run",
            "racestatic.covered.run", "racestatic.uncovered.run",
        }
        assert all(r.has_shared_writes for r in regions.values())
        assert not regions["racestatic.uncovered.run"].covered
        assert regions["racestatic.covered.run"].covered

    def test_unknown_stamp_is_reported_at_the_test_file(self, tmp_path):
        (tmp_path / "test_bogus.py").write_text(
            "RACECHECK_COVERS = ['racestatic.nope.run']\n",
            encoding="utf-8")
        result = analyze(FIXTURES, tests_dir=tmp_path)
        diagnostics = [f for f in result.findings
                       if f.rule == "PAR011"
                       and Path(f.path).name == "test_bogus.py"]
        assert len(diagnostics) == 1
        assert "racestatic.nope.run" in diagnostics[0].message


class TestMutationGates:
    """Deleting one proof artifact must flip the corresponding finding:
    the analyzer detects the property, not the fixture's file name."""

    def _mutated(self, filename, old, new):
        path = (FIXTURES / filename).resolve()
        source = path.read_text(encoding="utf-8")
        assert old in source
        return analyze(FIXTURES, overlay={str(path): source.replace(old, new)},
                       tests_dir=STAMPS)

    def test_deleting_atomic_wrapper_flips_par009(self):
        result = self._mutated("mediated.py", ", atomic=True", "")
        assert ("PAR009", "mediated.py") in rule_file_set(result)

    def test_data_dependent_index_flips_par009(self):
        result = self._mutated(
            "disjoint.py",
            "_store(out, t, float(data[t]))",
            "_store(out, int(data[t]), 1.0)")
        assert ("PAR009", "disjoint.py") in rule_file_set(result)

    def test_integral_delta_silences_par010(self):
        result = self._mutated(
            "accum.py", "1.0 / float(weights[t])", "float(t)")
        assert ("PAR010", "accum.py") not in rule_file_set(result)
        # The other fixtures are untouched.
        assert ("PAR009", "racy.py") in rule_file_set(result)


class TestRealTree:
    def test_src_regions_all_covered(self):
        result = analyze(SRC)
        assert result.effects is not None
        assert result.effects.regions, "no parallel regions found in src"
        gaps = [r.qualname for r in result.effects.regions
                if r.has_shared_writes and not r.covered]
        assert gaps == []

    def test_src_stamps_resolve(self):
        result = analyze(SRC)
        assert result.effects.stamp_findings == []


class TestCatalog:
    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_every_rule_has_an_entry(self, rule_id):
        info = get_rule(rule_id)
        assert info is not None
        assert info.title
        assert info.explain.strip()
        assert info.anchor.startswith(rule_id.lower())

    def test_explain_renders_title_body_and_doc_pointer(self):
        text = explain("par009")  # case-insensitive
        assert text.startswith("PAR009: ")
        assert "task-loop variables" in text
        assert f"docs: {DOC_PATH}#par009-potential-static-race" in text

    def test_unknown_rule(self):
        assert explain("PAR099") is None

    def test_doc_headings_match_catalog_anchors(self):
        # The doc is the anchor target: every catalog anchor must be
        # derivable from a heading via GitHub's slug rules.
        doc = DOC.read_text(encoding="utf-8")
        anchors = set()
        for line in doc.splitlines():
            if not line.startswith("#"):
                continue
            slug = line.lstrip("#").strip().lower()
            slug = re.sub(r"[^\w\- ]", "", slug).replace(" ", "-")
            anchors.add(slug)
        for info in CATALOG.values():
            assert info.anchor in anchors, \
                f"{info.id}: no heading for #{info.anchor} in {DOC}"


class TestExplainCLI:
    def test_known_rule(self, capsys):
        assert cli.main(["lint", "--explain", "PAR010"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PAR010: ")
        assert "not associative" in out

    def test_unknown_rule(self, capsys):
        assert cli.main(["lint", "--explain", "PAR042"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_retired_rule_is_unknown(self, capsys):
        assert cli.main(["lint", "--explain", "PAR007"]) == 2
        assert "unknown rule 'PAR007'" in capsys.readouterr().err


class TestSarifMetadata:
    def test_rules_carry_descriptions_and_help_uris(self):
        sarif = json.loads(report_sarif([]))
        rules = {r["id"]: r
                 for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
        for rule_id in ALL_RULE_IDS:
            entry = rules[rule_id]
            info = CATALOG[rule_id]
            assert entry["shortDescription"]["text"] == info.title
            assert entry["fullDescription"]["text"]
            assert "\n" not in entry["fullDescription"]["text"]
            assert entry["helpUri"] == info.help_uri
            assert entry["helpUri"].endswith(f"#{info.anchor}")

    def test_findings_reference_rule_index(self):
        result = analyze(FIXTURES, tests_dir=STAMPS)
        sarif = json.loads(report_sarif(result.findings))
        run = sarif["runs"][0]
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for res in run["results"]:
            assert ids[res["ruleIndex"]] == res["ruleId"]
        assert {res["ruleId"] for res in run["results"]} == {
            "PAR009", "PAR010", "PAR011"}
