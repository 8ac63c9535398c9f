"""The ordered document: tree + prime labels + SC table, kept consistent.

:class:`OrderedDocument` is the paper's full system (Sections 3 + 4): nodes
carry top-down prime labels for structural tests, and global document order
lives in an :class:`repro.order.sc_table.SCTable`.  Order-sensitive
insertion follows Section 4.2 exactly:

1. the new node takes a fresh prime self-label (no existing label changes),
2. its order number is its document position, and every node after it gets
   ``order + 1`` — applied as SC-record rewrites, one record at a time.

Two faithful deviations from the paper's presentation, both documented in
DESIGN.md:

* The SC machinery requires ``order < self_label`` (a CRT residue must be
  smaller than its modulus).  Bulk labeling in document order guarantees it
  (the k-th prime exceeds k), but repeated insertions can push a node's
  order up to its prime; when that happens the node is relabeled with a
  fresh prime (its descendants inherit the change) and the cost is charged
  to the update's relabel count.  The paper does not address this case.
* Opt2's power-of-two leaf self-labels are not pairwise coprime and cannot
  serve as CRT moduli, so ordered documents default to the *original*
  top-down scheme — consistent with the paper's own Figure 9, whose
  self-labels are all primes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import OrderingError
from repro.labeling.prime import PrimeLabel, PrimeScheme
from repro.obs import metrics
from repro.order.sc_table import SCTable, capacity_error, check_group_size
from repro.xmlkit.tree import XmlElement

__all__ = ["OrderedDocument", "OrderedUpdateReport"]


@dataclass
class OrderedUpdateReport:
    """Cost breakdown of one order-sensitive update.

    ``total_cost`` is the paper's Figure 18 metric: relabeled nodes plus SC
    record updates, "a record update in the SC table [counts] as a node that
    requires re-labeling".
    """

    new_node: Optional[XmlElement] = None
    relabeled_nodes: List[XmlElement] = field(default_factory=list)
    sc_records_updated: int = 0

    @property
    def node_relabels(self) -> int:
        return len(self.relabeled_nodes)

    @property
    def total_cost(self) -> int:
        return self.node_relabels + self.sc_records_updated


class OrderedDocument:
    """A prime-labeled XML document with CRT-maintained global order."""

    def __init__(
        self,
        root: XmlElement,
        group_size: int | None = 5,
        scheme: Optional[PrimeScheme] = None,
    ) -> None:
        if scheme is None:
            scheme = PrimeScheme(reserved_primes=0, power2_leaves=False)
        if scheme.power2_leaves:
            raise OrderingError(
                "ordered documents need pairwise-coprime self-labels; "
                "construct the PrimeScheme with power2_leaves=False"
            )
        self.scheme = scheme
        self.root = root
        scheme.label_tree(root)
        check_group_size(group_size)
        self.group_size = group_size
        # A fresh document is compacted by construction: orders 1..N in
        # document order.  The label walk ran in preorder and the label
        # map keeps insertion order, so the map already lists the nodes in
        # document order.  Construction checks that every order fits its
        # self-label and charges the registrations; the table itself is
        # loaded from the map by its first reader or mutator (sc_table).
        self._sc_table: Optional[SCTable] = None
        self._charge_load(scheme.labels_in_order())

    @classmethod
    def from_state(
        cls,
        root: XmlElement,
        scheme: PrimeScheme,
        sc_table: SCTable,
    ) -> "OrderedDocument":
        """Assemble a document from already-restored parts, relabeling nothing.

        The durability subsystem rebuilds the tree, the labeled scheme (with
        its prime generator resumed mid-sequence), and the SC table from a
        snapshot; this constructor wires them together without the bulk
        labeling pass ``__init__`` performs.  The caller vouches that the
        three parts are mutually consistent — recovery verifies that with
        :func:`repro.obs.audit.audit_ordered_document` afterwards.
        """
        if scheme.power2_leaves:
            raise OrderingError(
                "ordered documents need pairwise-coprime self-labels; "
                "construct the PrimeScheme with power2_leaves=False"
            )
        document = cls.__new__(cls)
        document.scheme = scheme
        document.group_size = sc_table.group_size
        document._sc_table = sc_table
        document.root = root
        return document

    @property
    def sc_table(self) -> SCTable:
        """The document's SC table, loaded by its first reader or mutator.

        Only order-sensitive updates and queries read it (Section 4); the
        ancestor test never does, so a document that only answers
        structural queries never loads it.  Every mutator reads it before
        it touches the tree or the labels, so until the first use the
        label map still lists every node in document order and the load
        is the one construction would have made.  The table is built in a
        local and assigned once: two racing first readers each build the
        same table and one of them wins.
        """
        table = self._sc_table
        if table is None:
            table = self._sc_table = self._build_sc_table(self.scheme.labels_in_order())
        return table

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def _self_label(self, node: XmlElement) -> int:
        label: PrimeLabel = self.scheme.label_of(node)
        return label.self_label

    def label_of(self, node: XmlElement) -> PrimeLabel:
        """The node's prime label (value + self-label)."""
        return self.scheme.label_of(node)

    def order_of(self, node: XmlElement) -> int:
        """Global order number of ``node`` (root is 0), from the SC table."""
        if node.is_root:
            return 0
        return self.sc_table.order_of(self._self_label(node))

    def nodes_in_order(self) -> List[XmlElement]:
        """Every labeled node sorted by SC-derived order — no tree walk."""
        return sorted(self.scheme.labeled_nodes(), key=self.order_of)

    # ------------------------------------------------------------------
    # Order-sensitive updates (Section 4.2)
    # ------------------------------------------------------------------

    @contextmanager
    def batch(self) -> Iterator["OrderedDocument"]:
        """Scope a run of updates; it defers nothing.

        Every update inside applies exactly as outside: a shift moves each
        SC record wholly past its threshold in O(1) through the record's
        residue offset, so there is nothing left to coalesce at the exit.
        The scope stays as the named boundary of a run of updates (the
        performance trace times its exit); the durable layer's group
        commit is the one layer that defers work across a batch.
        """
        yield self

    def _preorder_rank(self, node: XmlElement) -> int:
        """Order number a node at this tree position should carry.

        The node immediately preceding ``node`` in document order is either
        the deepest last descendant of its previous sibling, or its parent;
        the rank is that node's order plus one (correct even when deletions
        have left gaps in the order sequence).
        """
        parent = node.parent
        assert parent is not None
        index = node.child_index
        if index == 0:
            return self.order_of(parent) + 1
        predecessor = parent.children[index - 1]
        while predecessor.children:
            predecessor = predecessor.children[-1]
        return self.order_of(predecessor) + 1

    def insert_child(
        self, parent: XmlElement, index: int, tag: str = "new"
    ) -> OrderedUpdateReport:
        """Insert a new element at sibling position ``index`` under ``parent``.

        Follows Section 4.2: fresh prime for the new node, ``+1`` order shift
        for everything after it (SC record rewrites), one registration for
        the new congruence.
        """
        sc_table = self.sc_table  # loaded before the label map changes
        with metrics.timed("order.insert"):
            report = OrderedUpdateReport()
            relabel = self.scheme.insert_leaf(parent, tag=tag, index=index)
            report.new_node = relabel.new_node
            report.relabeled_nodes.extend(relabel.relabeled)
            assert relabel.new_node is not None
            rank = self._preorder_rank(relabel.new_node)
            touched, overflowed = sc_table.shift_orders_from(rank)
            report.sc_records_updated += touched
            report.relabeled_nodes.extend(self._repair_residue_overflows(overflowed))
            report.sc_records_updated += sc_table.register(
                self._self_label(relabel.new_node), rank
            )
            metrics.incr("order.inserts")
        return report

    def insert_before(self, reference: XmlElement, tag: str = "new") -> OrderedUpdateReport:
        """Insert a new sibling immediately before ``reference``."""
        if reference.is_root:
            raise OrderingError("cannot insert a sibling of the root")
        return self.insert_child(reference.parent, reference.child_index, tag=tag)

    def insert_after(self, reference: XmlElement, tag: str = "new") -> OrderedUpdateReport:
        """Insert a new sibling immediately after ``reference``."""
        if reference.is_root:
            raise OrderingError("cannot insert a sibling of the root")
        return self.insert_child(reference.parent, reference.child_index + 1, tag=tag)

    def append_child(self, parent: XmlElement, tag: str = "new") -> OrderedUpdateReport:
        """Insert as the last child of ``parent``."""
        return self.insert_child(parent, len(parent.children), tag=tag)

    def delete(self, node: XmlElement) -> OrderedUpdateReport:
        """Delete ``node`` and its subtree.

        Per Section 4.2, "the deletion of nodes from an XML tree does not
        affect any node ordering": remaining orders keep their (now gappy)
        values, which still compare correctly.

        The root cannot be deleted: its self-label 1 was never registered
        in the SC table (order 0 is implicit), so "delete the root" has no
        coherent meaning short of destroying the document — rejected with
        a clear error instead of crashing mid-unregister and leaving the
        table half-emptied.
        """
        if node.is_root:
            raise OrderingError(
                "cannot delete the document root; deleting every child "
                "individually is the closest well-defined operation"
            )
        sc_table = self.sc_table  # loaded before the label map changes
        report = OrderedUpdateReport()
        for gone in node.iter_preorder():
            sc_table.unregister(self._self_label(gone))
        self.scheme.delete(node)
        metrics.incr("order.deletes")
        return report

    def _repair_residue_overflows(
        self, overflowed: List[tuple[int, int]]
    ) -> List[XmlElement]:
        """Relabel nodes whose shifted order reached their self-label.

        A CRT residue must stay below its modulus.  The affected node (and,
        through inheritance, its whole subtree) takes a fresh prime — an
        update cost the paper's presentation overlooks; in practice it only
        bites nodes holding the very smallest primes.  The SC table has
        already unregistered these nodes; we relabel and re-register them.
        """
        sc_table = self.sc_table  # loaded before any label changes
        relabeled: List[XmlElement] = []
        if not overflowed:
            return relabeled
        by_self_label: Dict[int, XmlElement] = {
            self._self_label(node): node for node in self.scheme.labeled_nodes()
        }
        for old_self, order in overflowed:
            node = by_self_label[old_self]
            old_label: PrimeLabel = self.scheme.label_of(node)
            new_self = self.scheme._generator.get_prime()
            while new_self <= order:
                new_self = self.scheme._generator.get_prime()
            self.scheme._set_label(
                node,
                PrimeLabel(value=old_label.parent_value * new_self, self_label=new_self),
            )
            relabeled.append(node)
            for descendant in node.iter_descendants():
                sub: PrimeLabel = self.scheme.label_of(descendant)
                self.scheme._set_label(
                    descendant,
                    PrimeLabel(
                        value=sub.value // old_self * new_self,
                        self_label=sub.self_label,
                    ),
                )
                relabeled.append(descendant)
            sc_table.register(new_self, order)
        metrics.incr("order.overflow_relabels", len(relabeled))
        return relabeled

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def compact(self) -> int:
        """Renumber orders densely and rebuild the SC table.

        Deletions leave gaps in the order sequence; gaps are harmless for
        comparisons but inflate SC residues and (after heavy churn) SC
        values.  Compaction reassigns orders 1..N in document order and
        rebuilds the table from scratch.  Returns the number of SC records
        in the rebuilt table.  Labels are untouched — order is the SC
        table's business alone.

        The rebuild is the bulk load a fresh document gets, fed by a
        preorder walk of the current tree and charged in full
        (:meth:`_charge_load`).  It replaces the table without reading
        it, so a table not yet loaded is not loaded first.
        """
        label_of = self.scheme.label_of
        with metrics.timed("order.compact"):
            labels = [label_of(node) for node in self.root.iter_preorder()]
            self._charge_load(labels)
            table = self._sc_table = self._build_sc_table(labels)
            return len(table)

    def _charge_load(self, labels: Collection[PrimeLabel]) -> None:
        """Charge the registrations of a bulk load of ``labels``.

        ``labels`` lists every node's label in document order, the root's
        first, so the k-th label takes order k.  The ``sc.*`` counters are
        charged as one :meth:`SCTable.register` call per node would charge
        them, and an order that reaches its self-label stops the load with
        the :class:`~repro.errors.CapacityError` that call would raise.
        """
        failed = next(
            (
                (order, label.self_label)
                for order, label in enumerate(labels)
                if order and order >= label.self_label
            ),
            None,
        )
        # The root's order is 0 by definition and is not registered.
        loaded = failed[0] - 1 if failed else len(labels) - 1
        group_size = self.group_size
        if loaded:
            metrics.incr("sc.registered", loaded)
            metrics.incr("sc.records_touched", loaded)
            metrics.incr("sc.records_opened", -(-loaded // group_size) if group_size else 1)
        if failed:
            order, self_label = failed
            raise capacity_error(self_label, order, loaded // group_size if group_size else 0)

    def _build_sc_table(self, labels: Iterable[PrimeLabel]) -> SCTable:
        """A table holding orders 1..N-1 of ``labels``, checked by :meth:`_charge_load`.

        The pairs ``(self_label, order)`` are chunked into ``group_size``
        groups, the grouping one :meth:`SCTable.register` call per node
        would produce, and loaded by one :meth:`SCTable.from_groups` call.
        Nothing is charged here: the load's registrations were charged
        when its labels were checked.
        """
        group_size = self.group_size
        members = [
            (label.self_label, order)
            for order, label in enumerate(labels)
            if order  # the root's order is 0 by definition and not stored
        ]
        size = group_size or max(len(members), 1)
        groups: List[Tuple[int, List[Tuple[int, int]]]] = []
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            groups.append((max(chunk)[0], chunk))  # the routing key: largest self-label
        return SCTable.from_groups(groups, group_size=group_size)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def check(self) -> bool:
        """Verify SC-derived order matches true document order everywhere."""
        if not self.sc_table.check():
            return False
        expected = {
            id(node): position
            for position, node in enumerate(self.root.iter_preorder())
        }
        actual = {id(node): self.order_of(node) for node in self.root.iter_preorder()}
        ranked_expected = sorted(expected, key=expected.__getitem__)
        ranked_actual = sorted(actual, key=actual.__getitem__)
        return ranked_expected == ranked_actual
