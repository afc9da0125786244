"""Reporters for ``repro lint``.

Two machine-readable formats, both titled from the rule catalog
(:data:`~repro.sanitize.catalog.CATALOG`):

* JSON --- the findings plus a ``{rule id: title}`` map; consumed by CI
  logs.
* SARIF 2.1.0 --- for code-scanning UIs; uploaded as a CI artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

from .catalog import CATALOG
from .parlint import Finding

_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def report_json(findings: list[Finding], n_files: int) -> str:
    return json.dumps({
        "tool": "parlint-chargeflow",
        "version": 1,
        "checked_files": n_files,
        "rules": {rule_id: info.title for rule_id, info in CATALOG.items()},
        "findings": [{
            "rule": f.rule, "path": f.path, "line": f.line,
            "col": f.col, "message": f.message,
        } for f in findings],
    }, indent=2)


def report_sarif(findings: list[Finding], base: str | Path = ".") -> str:
    """A SARIF 2.1.0 log.  Paths are made relative to *base* when
    possible (SARIF URIs should not leak absolute build paths)."""
    base = Path(base).resolve()
    rule_ids = sorted({f.rule for f in findings} | set(CATALOG))
    rules = []
    for rule_id in rule_ids:
        info = CATALOG.get(rule_id)
        entry = {
            "id": rule_id,
            "shortDescription": {
                "text": info.title if info else "analyzer diagnostic"},
        }
        if info is not None:
            entry["fullDescription"] = {
                "text": " ".join(info.explain.split())}
            entry["helpUri"] = info.help_uri
        rules.append(entry)
    index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    results = []
    for f in findings:
        try:
            uri = Path(f.path).resolve().relative_to(base).as_posix()
        except ValueError:
            uri = Path(f.path).as_posix()
        results.append({
            "ruleId": f.rule,
            "ruleIndex": index[f.rule],
            "level": "warning" if f.rule == "UNUSED-SUPPRESSION"
            else "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {"startLine": max(f.line, 1),
                               "startColumn": f.col + 1},
                },
            }],
        })
    return json.dumps({
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "parlint-chargeflow",
                "informationUri":
                    "https://github.com/paper-repro/nucleus-decomposition",
                "rules": rules,
            }},
            "results": results,
        }],
    }, indent=2)

