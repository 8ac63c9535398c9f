"""Deep invariant auditor for labeled trees and SC tables.

:class:`repro.order.document.OrderedDocument.check` answers "is the
document consistent?" with a bare bool — useless for diagnosing *which*
invariant broke after a thousand-update churn run.  This module
cross-checks the full system end to end and returns a structured
:class:`AuditReport` naming every violated invariant, the offending
subject, and what was expected.

Invariants checked (the catalogue in ``docs/OBSERVABILITY.md``):

``tree.subtree-size``
    Every node's maintained subtree size equals the node count of a walk
    of its subtree (preorder addressing trusts these sizes).
``label.self-divides``
    Every label's self-label divides its value (Section 3's product
    construction; a corrupted label breaks the modulo ancestor test).
``label.parent-chain``
    ``label.parent_value`` equals the actual parent's label value for
    every non-root node, and the root's label is exactly ``(1, 1)``.
``label.distinct-self``
    Non-root prime self-labels are pairwise distinct (they serve as CRT
    moduli); Opt2 power-of-two leaf self-labels only within one parent.
``label.ancestor-test``
    The scheme's label-only ancestor test agrees with a ground-truth tree
    walk on sampled node pairs (exhaustive on small trees).
``sc.residue-range``
    Every CRT residue is strictly below its modulus (Theorem 1's
    precondition; the overflow the paper never discusses).
``sc.coprime``
    Each record's moduli are pairwise coprime.
``sc.crt-value``
    Each record's cached SC value reproduces every stored residue.
``sc.max-prime``
    Each record's routing key equals the maximum of its moduli.
``sc.registration``
    The SC table covers exactly the non-root labeled nodes — no missing
    registrations, no orphans surviving a delete.
``sc.routing``
    ``record_for`` (O(1) index) and ``record_for_by_scan`` (the paper's
    literal max-prime scan) return the same record for every node.
``order.preorder``
    Sorting nodes by SC-derived order reproduces the tree's preorder
    sequence exactly, and the root's order is 0.

Usage::

    from repro.obs import audit_ordered_document

    report = audit_ordered_document(document)
    if not report.ok:
        print(report.summary())
        report.raise_if_failed()
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from typing import Any, Dict, List, Optional

from repro.errors import AuditError
from repro.labeling.base import LabelingScheme
from repro.labeling.prime import PrimeLabel, PrimeScheme
from repro.obs import metrics
from repro.order.document import OrderedDocument
from repro.order.sc_table import SCTable
from repro.xmlkit.tree import XmlElement

__all__ = [
    "Violation",
    "AuditReport",
    "audit_ordered_document",
    "audit_scheme",
    "audit_sc_table",
    "audit_any",
]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which rule, on what subject, and the details."""

    invariant: str
    message: str
    subject: Optional[str] = None

    def __str__(self) -> str:
        where = f" [{self.subject}]" if self.subject else ""
        return f"{self.invariant}{where}: {self.message}"


@dataclass
class AuditReport:
    """Structured result of one audit run.

    ``checks`` maps invariant name to the number of individual checks
    performed under it, so "passed" is distinguishable from "never ran".
    """

    violations: List[Violation] = field(default_factory=list)
    checks: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True iff no invariant was violated."""
        return not self.violations

    def checked(self, invariant: str, count: int = 1) -> None:
        """Record that ``count`` checks ran under ``invariant``."""
        self.checks[invariant] = self.checks.get(invariant, 0) + count

    def flag(self, invariant: str, message: str, subject: Optional[str] = None) -> None:
        """Record one violation."""
        self.violations.append(Violation(invariant, message, subject))

    def merge(self, other: "AuditReport") -> "AuditReport":
        """Fold another report's checks and violations into this one."""
        self.violations.extend(other.violations)
        for invariant, count in other.checks.items():
            self.checked(invariant, count)
        return self

    def summary(self) -> str:
        """Human-readable multi-line summary (violations first)."""
        total = sum(self.checks.values())
        lines = [
            f"audit: {total} checks across {len(self.checks)} invariants, "
            f"{len(self.violations)} violation(s)"
        ]
        for violation in self.violations:
            lines.append(f"  FAIL {violation}")
        for invariant in sorted(self.checks):
            lines.append(f"  ok   {invariant} ({self.checks[invariant]} checks)")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        """Raise :class:`repro.errors.AuditError` when any invariant broke."""
        if self.violations:
            raise AuditError(self.summary())


def _sampled_pairs(
    count: int, samples: int, seed: int
) -> List[tuple]:
    """Index pairs to test: exhaustive when small, else seeded random."""
    if count * (count - 1) <= samples:
        return [(i, j) for i in range(count) for j in range(count) if i != j]
    rng = random.Random(seed)
    pairs = []
    for _ in range(samples):
        first = rng.randrange(count)
        second = rng.randrange(count - 1)
        if second >= first:
            second += 1
        pairs.append((first, second))
    return pairs


def _audit_subtree_sizes(nodes: List[XmlElement], report: AuditReport) -> None:
    """``tree.subtree-size`` over ``nodes``, a whole tree in preorder."""
    counts: Dict[int, int] = {}
    for node in reversed(nodes):
        count = 1 + sum(counts[id(child)] for child in node)
        counts[id(node)] = count
        if node._size != count:
            report.flag(
                "tree.subtree-size",
                f"subtree size {node._size} != walked count {count}",
                node.path(),
            )
    report.checked("tree.subtree-size", len(nodes))


def audit_scheme(
    scheme: LabelingScheme,
    ancestor_samples: int = 256,
    seed: int = 0,
) -> AuditReport:
    """Audit a labeling scheme against its own tree (no SC table needed).

    Runs the tree's subtree-size invariant, the label-structure invariants
    (prime-specific checks only when ``scheme`` is a :class:`PrimeScheme`)
    plus the sampled ancestor-test agreement, which applies to every scheme.
    """
    report = AuditReport()
    root = scheme.root
    nodes = list(root.iter_preorder())
    _audit_subtree_sizes(nodes, report)

    if isinstance(scheme, PrimeScheme):
        seen_self: Dict[object, str] = {}
        for node in nodes:
            label: PrimeLabel = scheme.label_of(node)
            report.checked("label.self-divides")
            if label.self_label < 1 or label.value % label.self_label:
                report.flag(
                    "label.self-divides",
                    f"self-label {label.self_label} does not divide value {label.value}",
                    node.path(),
                )
            report.checked("label.parent-chain")
            if node.is_root:
                if label.value != 1 or label.self_label != 1:
                    report.flag(
                        "label.parent-chain",
                        f"root label must be (1, 1), got ({label.value}, {label.self_label})",
                        node.path(),
                    )
            else:
                parent_label: PrimeLabel = scheme.label_of(node.parent)
                if label.parent_value != parent_label.value:
                    report.flag(
                        "label.parent-chain",
                        f"parent_value {label.parent_value} != parent's label "
                        f"{parent_label.value}",
                        node.path(),
                    )
                report.checked("label.distinct-self")
                # Opt2 power-of-two leaf self-labels repeat across parents
                # by design (the parent factor keeps full labels unique), so
                # they need only be distinct among siblings; prime
                # self-labels must be globally fresh.
                self_label = label.self_label
                key: object = (
                    (id(node.parent), self_label)
                    if self_label & (self_label - 1) == 0
                    else self_label
                )
                previous = seen_self.get(key)
                if previous is not None:
                    report.flag(
                        "label.distinct-self",
                        f"self-label {self_label} already used by {previous}",
                        node.path(),
                    )
                else:
                    seen_self[key] = node.path()

    for i, j in _sampled_pairs(len(nodes), ancestor_samples, seed):
        first, second = nodes[i], nodes[j]
        report.checked("label.ancestor-test")
        truth = first.is_ancestor_of(second)
        claimed = scheme.is_ancestor(first, second)
        if truth != claimed:
            report.flag(
                "label.ancestor-test",
                f"label test says {claimed}, tree says {truth}",
                f"{first.path()} vs {second.path()}",
            )
    return report


def audit_sc_table(table: SCTable) -> AuditReport:
    """Audit one SC table's internal invariants (no tree required)."""
    report = AuditReport()
    for index, record in enumerate(table.records):
        moduli = record.system.moduli
        subject = f"record #{index}"
        for modulus in moduli:
            residue = record.system.residue(modulus)
            report.checked("sc.residue-range")
            if not 0 <= residue < modulus:
                report.flag(
                    "sc.residue-range",
                    f"residue {residue} out of range for modulus {modulus}",
                    subject,
                )
        for position, first in enumerate(moduli):
            for second in moduli[position + 1 :]:
                report.checked("sc.coprime")
                if gcd(first, second) != 1:
                    report.flag(
                        "sc.coprime",
                        f"moduli {first} and {second} share a factor",
                        subject,
                    )
        report.checked("sc.crt-value")
        if not record.system.check():
            report.flag(
                "sc.crt-value",
                f"SC value {record.sc} does not reproduce the stored residues",
                subject,
            )
        if moduli:
            report.checked("sc.max-prime")
            if record.max_prime != max(moduli):
                report.flag(
                    "sc.max-prime",
                    f"max_prime {record.max_prime} != max modulus {max(moduli)}",
                    subject,
                )
    for self_label, _order in table.orders().items():
        report.checked("sc.routing")
        try:
            direct = table.record_for(self_label)
            scanned = table.record_for_by_scan(self_label)
        except Exception as error:  # routing itself broke
            report.flag("sc.routing", f"lookup raised {error!r}", str(self_label))
            continue
        if direct is not scanned:
            report.flag(
                "sc.routing",
                "record_for and record_for_by_scan disagree",
                str(self_label),
            )
    return report


def audit_ordered_document(
    document: OrderedDocument,
    ancestor_samples: int = 256,
    seed: int = 0,
) -> AuditReport:
    """Cross-check an :class:`OrderedDocument` end to end.

    Runs every invariant in the module catalogue: label structure,
    sampled ancestor agreement, SC-table internals, registration
    completeness, routing equivalence, and preorder/order agreement.
    Returns the combined :class:`AuditReport`; never raises on violations
    (call :meth:`AuditReport.raise_if_failed` for that).
    """
    with metrics.timed("audit.run"):
        report = audit_scheme(
            document.scheme, ancestor_samples=ancestor_samples, seed=seed
        )
        report.merge(audit_sc_table(document.sc_table))

        nodes = list(document.root.iter_preorder())
        expected_labels = {
            document.label_of(node).self_label for node in nodes if not node.is_root
        }
        registered = set(document.sc_table.orders())
        report.checked("sc.registration")
        missing = expected_labels - registered
        orphaned = registered - expected_labels
        if missing:
            report.flag(
                "sc.registration",
                f"self-labels missing from the SC table: {sorted(missing)[:10]}",
            )
        if orphaned:
            report.flag(
                "sc.registration",
                f"SC table holds self-labels of no live node: {sorted(orphaned)[:10]}",
            )

        report.checked("order.preorder", len(nodes))
        orders = [document.order_of(node) for node in nodes]
        if orders and orders[0] != 0:
            report.flag("order.preorder", f"root order is {orders[0]}, expected 0")
        problems = [
            (nodes[i], orders[i], orders[i + 1])
            for i in range(len(orders) - 1)
            if orders[i] >= orders[i + 1]
        ]
        for node, order, following in problems[:10]:
            report.flag(
                "order.preorder",
                f"order {order} not below its preorder successor's {following}",
                node.path(),
            )
        metrics.incr("audit.runs")
        metrics.incr("audit.violations", len(report.violations))
    return report


def audit_any(subject: Any, **kwargs: Any) -> AuditReport:
    """Dispatch on subject type (convenience for the CLI's ``--audit``)."""
    if isinstance(subject, OrderedDocument):
        return audit_ordered_document(subject, **kwargs)
    if isinstance(subject, SCTable):
        return audit_sc_table(subject)
    if isinstance(subject, LabelingScheme):
        return audit_scheme(subject, **kwargs)
    raise TypeError(f"cannot audit {type(subject).__name__}")
