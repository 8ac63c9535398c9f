"""The deep auditor: green on healthy documents, loud on corruption."""

import pytest

from repro.durable.recovery import _verify
from repro.errors import AuditError, DurabilityError
from repro.labeling.prime import PrimeScheme
from repro.obs.audit import (
    AuditReport,
    audit_any,
    audit_ordered_document,
    audit_sc_table,
    audit_scheme,
)
from repro.order.document import OrderedDocument
from repro.order.sc_table import SCTable
from repro.query.live import LiveCollection
from repro.xmlkit.parser import parse_document

# The quickstart example's document (examples/quickstart.py).
LIBRARY = """
<library>
  <fiction>
    <book><title>Dune</title><year>1965</year></book>
    <book><title>Neuromancer</title><year>1984</year></book>
  </fiction>
  <science>
    <book><title>Cosmos</title><year>1980</year></book>
  </science>
</library>
"""


def library():
    return parse_document(LIBRARY)


class TestHealthyDocuments:
    def test_ordered_document_passes_every_invariant(self):
        report = audit_ordered_document(OrderedDocument(library()))
        assert report.ok, report.summary()
        for invariant in (
            "tree.subtree-size",
            "label.self-divides",
            "label.parent-chain",
            "label.distinct-self",
            "label.ancestor-test",
            "sc.residue-range",
            "sc.coprime",
            "sc.crt-value",
            "sc.max-prime",
            "sc.registration",
            "sc.routing",
            "order.preorder",
        ):
            assert report.checks.get(invariant, 0) > 0, f"{invariant} never ran"

    def test_survives_updates(self):
        doc = OrderedDocument(library())
        doc.insert_child(doc.root, 1, tag="poetry")
        doc.delete(doc.root.children[2])
        assert audit_ordered_document(doc).ok

    def test_opt2_scheme_passes(self):
        # Power-of-two leaf self-labels legitimately repeat across parents;
        # the auditor must not flag them as duplicate moduli.
        scheme = PrimeScheme(reserved_primes=8, power2_leaves=True)
        scheme.label_tree(library())
        report = audit_scheme(scheme)
        assert report.ok, report.summary()

    def test_audit_any_dispatches_on_type(self):
        doc = OrderedDocument(library())
        assert audit_any(doc).ok
        assert audit_any(doc.sc_table).ok
        assert audit_any(doc.scheme).ok
        with pytest.raises(TypeError):
            audit_any(object())


class TestCorruptionDetection:
    def test_wrong_sc_order_is_flagged(self):
        doc = OrderedDocument(library())
        last = list(doc.root.iter_preorder())[-1]
        # Valid residue, wrong position: order 1 collides with the front of
        # the document, so preorder monotonicity must break.
        doc.sc_table.set_order(doc.label_of(last).self_label, 1)
        report = audit_ordered_document(doc)
        assert not report.ok
        assert any(v.invariant == "order.preorder" for v in report.violations)

    def test_out_of_range_residue_is_flagged(self):
        doc = OrderedDocument(library())
        record = doc.sc_table.records[0]
        modulus = record.system.moduli[0]
        record.system._congruences[modulus] = modulus  # residue == modulus
        report = audit_sc_table(doc.sc_table)
        assert any(v.invariant == "sc.residue-range" for v in report.violations)

    def test_duplicate_prime_self_label_is_flagged(self):
        scheme = PrimeScheme(reserved_primes=0, power2_leaves=False)
        root = library()
        scheme.label_tree(root)
        first, second = root.children[0], root.children[1]
        scheme._labels[id(second)] = scheme.label_of(first)
        report = audit_scheme(scheme)
        assert not report.ok
        assert any(
            v.invariant == "label.distinct-self" for v in report.violations
        )

    def test_drifted_subtree_size_is_flagged(self):
        doc = OrderedDocument(library())
        doc.root.children[1]._size += 1  # <science> claims a phantom node
        report = audit_ordered_document(doc)
        flagged = [v for v in report.violations if v.invariant == "tree.subtree-size"]
        assert [v.subject for v in flagged] == ["/library/science"]

    def test_recovery_verify_rejects_a_drifted_subtree_size(self):
        collection = LiveCollection([library()])
        collection.documents[0].children[0]._size -= 1
        with pytest.raises(DurabilityError, match="tree.subtree-size"):
            _verify(collection)

    def test_orphaned_sc_entry_is_flagged(self):
        doc = OrderedDocument(library())
        doc.sc_table.register(9973, 42)  # no live node carries this prime
        report = audit_ordered_document(doc)
        assert any(v.invariant == "sc.registration" for v in report.violations)

    def test_raise_if_failed_raises_audit_error(self):
        doc = OrderedDocument(library())
        last = list(doc.root.iter_preorder())[-1]
        doc.sc_table.set_order(doc.label_of(last).self_label, 1)
        report = audit_ordered_document(doc)
        with pytest.raises(AuditError, match="order.preorder"):
            report.raise_if_failed()

    def test_clean_report_does_not_raise(self):
        audit_ordered_document(OrderedDocument(library())).raise_if_failed()


class TestReportMechanics:
    def test_merge_folds_checks_and_violations(self):
        first = AuditReport()
        first.checked("a", 2)
        first.flag("a", "broken")
        second = AuditReport()
        second.checked("a", 3)
        second.checked("b")
        first.merge(second)
        assert first.checks == {"a": 5, "b": 1}
        assert len(first.violations) == 1
        assert not first.ok

    def test_summary_lists_violations_first(self):
        report = AuditReport()
        report.checked("good", 4)
        report.flag("bad", "details", subject="node-7")
        lines = report.summary().splitlines()
        assert "violation" in lines[0]
        assert lines[1].startswith("  FAIL bad [node-7]")
        assert any(line.startswith("  ok   good") for line in lines)

    def test_empty_sc_table_audits_clean(self):
        assert audit_sc_table(SCTable(group_size=3)).ok
