"""The analyzer behind ``repro lint``.

Pipeline, per run:

1. :func:`~repro.sanitize.callgraph.build_project` parses every module
   under the package root into a call graph (nested defs folded into
   their top-level kernels, call sites resolved to may-call target sets).
   A file that cannot be read or parsed becomes one ``IOERR`` /
   ``SYNTAX`` finding instead of a module.
2. :func:`~repro.sanitize.summaries.compute_summaries` runs the monotone
   fixpoint that gives every function its transitive tracker-charge set
   and stamps every call site with a charging verdict.
3. :func:`~repro.sanitize.effects.analyze_effects` runs the static
   parallel-effect analysis once for the whole project (region/task
   read-write sets, atomic/ownership proofs, race-coverage stamps).
4. Per module, the lexical linter (PAR001--PAR004) runs with the
   summary-derived *charge oracle*, so charging-via-helper needs no
   suppression; then the interprocedural rules PAR005, PAR006 and
   PAR008--PAR011 run (:mod:`~repro.sanitize.rules`), including the
   per-module slice of the effects report.
5. Inline/file-level suppressions are applied (unused ones reported).
   Coverage-stamp diagnostics (PAR011 entries pointing at test files)
   are appended last --- they live outside the analyzed package, so
   inline suppressions do not apply to them.

``repro lint`` exits 1 when any finding survives, 0 otherwise; CI's
``lint-strict`` job runs it over ``src/repro`` and uploads the SARIF
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import parlint
from .callgraph import build_project
from .effects import EffectsReport, analyze_effects
from .rules import run_rules
from .summaries import charge_oracles, compute_summaries


@dataclass
class AnalysisResult:
    findings: list[parlint.Finding]
    #: modules analyzed plus files that could not be read or parsed
    n_files: int
    effects: EffectsReport


def _default_tests_dir(root: Path) -> Path | None:
    """Race-coverage stamps are only auto-discovered for the canonical
    ``<repo>/src/<package>`` layout --- fixture packages analyzed from
    arbitrary directories keep PAR011 off unless a *tests_dir* is passed
    explicitly, so their expected finding sets stay exact."""
    if root.parent.name == "src":
        candidate = root.parent.parent / "tests"
        if candidate.is_dir():
            return candidate
    return None


def analyze(root: str | Path,
            overlay: dict[str, str] | None = None,
            tests_dir: str | Path | None = None) -> AnalysisResult:
    """Run every rule over a package directory."""
    root = Path(root).resolve()
    project = build_project(root, overlay=overlay)
    summaries = compute_summaries(project)
    if tests_dir is None:
        tests_dir = _default_tests_dir(root)
    effects = analyze_effects(project, tests_dir=tests_dir)
    findings: list[parlint.Finding] = list(project.unparsed)
    for name in sorted(project.modules):
        module = project.modules[name]
        any_oracle, workspan_oracle = charge_oracles(
            project, summaries, name)
        linter = parlint._Linter(module.path, charge_oracle=any_oracle,
                                 region_oracle=workspan_oracle)
        linter.visit(module.tree)
        raw = linter.findings
        raw += run_rules(project, summaries, module, effects=effects)
        findings += parlint._apply_suppressions(
            raw, module.source, module.path, report_unused=True)
    findings += effects.stamp_findings
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return AnalysisResult(findings,
                          len(project.modules) + len(project.unparsed),
                          effects)
