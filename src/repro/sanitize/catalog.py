"""The rule catalog: one entry per ``repro lint`` rule.

This is the single source of truth for rule metadata.  ``repro lint
--explain PARxxx`` prints an entry, the JSON and SARIF reporters take
each rule's title from it (SARIF also embeds the full description and
``helpUri``), and the per-rule sections of ``docs/static-analysis.md``
carry headings whose GitHub anchors match :attr:`RuleInfo.anchor` ---
keep them in sync by editing only this file and the doc section it
points at.  PAR007 is retired and its number stays unused.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Where the per-rule documentation lives (anchors point into it).
DOC_PATH = "docs/static-analysis.md"

#: Base URL for SARIF ``helpUri`` links (code-scanning UIs want absolute
#: URIs; the anchor fragment matches the doc heading).
DOC_URL = ("https://github.com/paper-repro/nucleus-decomposition/"
           "blob/main/docs/static-analysis.md")


@dataclass(frozen=True)
class RuleInfo:
    """Metadata for one rule id."""

    id: str
    title: str          # one line; the SARIF shortDescription
    anchor: str         # heading anchor inside docs/static-analysis.md
    explain: str        # multi-paragraph text for ``lint --explain``

    @property
    def help_uri(self) -> str:
        return f"{DOC_URL}#{self.anchor}"

    def render(self) -> str:
        lines = [f"{self.id}: {self.title}",
                 "=" * (len(self.id) + 2 + len(self.title)), ""]
        lines.append(self.explain.strip())
        lines += ["", f"docs: {DOC_PATH}#{self.anchor}"]
        return "\n".join(lines)


CATALOG: dict[str, RuleInfo] = {rule.id: rule for rule in [
    RuleInfo(
        "PAR001", "parallel region never charges work/span",
        "par001-uncharged-parallel-region",
        """
A ``with tracker.parallel(...)`` region whose body never charges work or
span on any path.  The simulated machine would believe the region is
free, corrupting every reported T(1)/T(p) figure.  Charge inside the
task bodies (or via a helper the charge-flow analyzer can see), or
charge the region's aggregate cost beside it.
        """),
    RuleInfo(
        "PAR002", "graph-scale loop without a tracker charge",
        "par002-uncharged-graph-scale-loop",
        """
A Python-level ``for`` loop bounded by graph-scale data (``graph.n``,
``table.total_cells``, ``len(...)``) in cost-accounted code, with no
tracker charge in the body and no aggregate charge beside the loop.
Interpreted loops over the graph are exactly the work the cost model
exists to measure.
        """),
    RuleInfo(
        "PAR003", "unmediated shared-array write inside a task",
        "par003-lexical-task-write",
        """
A direct subscript mutation of a shared array lexically inside a
``with region.task():`` block.  Shared writes from tasks must go through
AtomicArray, a ShadowArray with ``atomic=True``, or the parallel
primitives; arrays created inside the task are private and exempt.
PAR009 is the interprocedural generalization of this rule.
        """),
    RuleInfo(
        "PAR004", "ContentionMeter constructed but never settled",
        "par004-unsettled-contentionmeter",
        """
A ContentionMeter that is constructed but never ``settle()``-d in (and
never escapes) its scope.  Its recorded atomic collisions would never
reach the tracker, silently under-reporting contention span.
        """),
    RuleInfo(
        "PAR005", "uncharged vectorized bulk operation in engine code",
        "par005-uncharged-bulk-op",
        """
An engine-module kernel that participates in cost accounting runs a
vectorized NumPy bulk operation (O(n) work in one call) but its
transitive charge set is empty: the simulated machine sees the work as
free.  Batch engines must charge the closed-form equivalent of the
scalar loop they replace.
        """),
    RuleInfo(
        "PAR006", "nondeterminism hazard in cost-accounted code",
        "par006-nondeterminism-hazard",
        """
Iteration over a set, ``id()``-keyed structures, unseeded RNG, or
``argsort`` without ``kind='stable'`` inside cost-accounted code.  These
silently break the bit-for-bit batch/scalar parity contract that the
engine gate and the parity tests enforce.
        """),
    RuleInfo(
        "PAR008", "charge outside any phase/parallel attribution scope",
        "par008-unattributed-charge",
        """
A tracker charge issued outside any ``tracker.phase(...)`` /
``tracker.parallel(...)`` scope, in a function that opens phases.  Such
charges land in no phase and corrupt ``MachineModel.time_breakdown``.
A call there is exempt when every callee is phase-closed: it opens a
phase, or all its charges land in phases its callees open.
        """),
    RuleInfo(
        "PAR009", "potential static race in a parallel region",
        "par009-potential-static-race",
        """
The static parallel-effect analyzer (repro.sanitize.effects) found two
concurrent accesses to the same shared object from the tasks of one
``tracker.parallel(...)`` region --- at least one a write --- with no
atomic/ownership proof.  A write is proven safe when (a) the storage is
atomic (AtomicArray, or a ShadowArray created with ``atomic=True``), (b)
the access goes through a race-detector-instrumented method (the
dynamic layer owns those addresses), or (c) the subscript index is a
pure function of the task-loop variables, making per-task writes
disjoint.  Anything else is a potential race: mediate it, privatize it,
or route it through a per-task buffer.  Note the disjointness proof is
name-based: a non-injective function of the task variable (``t % 2``)
is accepted statically and left to the dynamic detector.
        """),
    RuleInfo(
        "PAR010", "non-commutative atomic accumulation",
        "par010-noncommutative-accumulation",
        """
An atomic accumulation (fetch-and-add / ``np.add.at`` scatter guarded by
``add_atomic`` charges) inside a parallel region whose operand is
order-dependent: it contains a division or a non-integral float.
Floating-point addition is not associative, so the accumulated total
depends on task interleaving and the reported numbers lose determinism
even though the update is race-free.  Use integral deltas, a
deterministic reduction tree, or re-round at the consumer and waive the
finding with a justification comment.
        """),
    RuleInfo(
        "PAR011", "parallel region not covered by a race test",
        "par011-race-coverage-gap",
        """
A ``tracker.parallel(...)`` region with shared writes that no
ShadowArray-instrumented race test exercises.  Coverage is declared by
``RACECHECK_COVERS`` stamps (module-level lists of function qualnames)
in ``tests/test_*.py``; a region counts as covered when its enclosing
function is reachable from a stamped entry point --- without traversing
from non-engine into engine modules, since engine kernels fall back to
the scalar oracle whenever a race detector is attached and must
therefore be stamped directly by a test that drives them.  Stamps that
name unknown functions are reported at the test file.
        """),
]}


def get_rule(rule_id: str) -> RuleInfo | None:
    return CATALOG.get(rule_id.upper())


def explain(rule_id: str) -> str | None:
    """The ``lint --explain`` text for a rule id (None when unknown)."""
    info = get_rule(rule_id)
    return info.render() if info else None
