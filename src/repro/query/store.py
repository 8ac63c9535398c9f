"""The element table: labels in relational form, plus per-scheme operators.

Section 5.2 stores one row per element in a DBMS; every query predicate is
a comparison over label columns.  :class:`LabelStore` is that table in
memory.  Each document in the collection is labeled by its own scheme
instance (the Niagara repository is multi-document), and rows carry:

* ``doc_id`` and ``element_id`` — table keys,
* ``tag`` — the element name,
* ``label`` — the scheme's label,
* ``depth`` and ``parent_id`` — standard companion columns of relational
  XML storage (XISS keeps both; parent/child and sibling predicates need
  them for schemes whose labels cannot express parenthood alone),
* ``pre`` and ``size`` — the XPath-Accelerator window columns of
  :mod:`repro.query.window`, kept in preorder per document.

Every row that comes from a labeled tree is made in one preorder walk per
document (:meth:`LabelStore.from_trees`), which knows all of these columns
as it goes; only rows of other provenance (a file, a test) are numbered by
a separate sweep, which refuses rows that are not a preorder.

The scheme-specific comparison logic lives in :class:`StoreOps` objects:

* ``prime`` — ancestor test by divisibility (Property 2), parenthood and
  siblinghood by the ``parent-label`` identity, document order by the SC
  table (``SC mod self_label``), computed per access so the paper's "SC
  overhead" is really paid at query time;
* ``interval`` — containment tests, order from the ``order`` column;
* ``prefix`` — a ``check_prefix`` *user-defined function* implemented over
  the label's string form, mirroring how a DBMS UDF marshals values (and
  why Figure 15 shows prefix losing).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import QueryEvaluationError
from repro.labeling.base import LabelingScheme
from repro.labeling.interval import XissIntervalScheme
from repro.labeling.prefix import Bits, Prefix2Scheme
from repro.labeling.prime import label_divides
from repro.order.document import OrderedDocument
from repro.query.window import DocWindow
from repro.xmlkit.tree import XmlElement

__all__ = [
    "ElementRow",
    "FrozenPrimeOps",
    "StoreOps",
    "LabelStore",
    "check_prefix",
]


@dataclass(slots=True)
class ElementRow:
    """One row of the element table."""

    doc_id: int
    element_id: int
    tag: str
    label: Any
    depth: int
    parent_id: Optional[int]
    node: XmlElement  # back-reference for result verification only
    text: str = ""  # the value column of relational XML storage
    pre: int = 0  # preorder rank within the document (repro.query.window)
    size: int = 1  # subtree row count, the row itself included

    @property
    def end(self) -> int:
        """Preorder rank of the last row in this row's subtree."""
        return self.pre + self.size - 1

    @property
    def post(self) -> int:
        """Postorder rank within the document (Grust's pre/size/level identity)."""
        return self.end - self.depth


def check_prefix(ancestor_label: Bits, descendant_label: Bits) -> bool:
    """The prefix scheme's "user-defined function".

    Deliberately string-based: a relational UDF receives marshaled values,
    and the paper attributes the prefix scheme's slower response times to
    exactly this call ("the prefix labeling schemes use a user-defined
    function to retrieve data").
    """
    ancestor_text, descendant_text = str(ancestor_label), str(descendant_label)
    return len(ancestor_text) < len(descendant_text) and descendant_text.startswith(
        ancestor_text
    )


class StoreOps:
    """Per-scheme comparison operators over :class:`ElementRow` pairs."""

    name = "abstract"

    def is_ancestor(self, ancestor: ElementRow, descendant: ElementRow) -> bool:
        """Label-only proper-ancestor test between two rows."""
        raise NotImplementedError

    def is_parent(self, parent: ElementRow, child: ElementRow) -> bool:
        """Default: ancestor one level up (uses the ``depth`` column)."""
        return child.depth == parent.depth + 1 and self.is_ancestor(parent, child)

    def same_parent(self, first: ElementRow, second: ElementRow) -> bool:
        """Default: the relational ``parent_id`` column."""
        return (
            first.parent_id is not None
            and first.parent_id == second.parent_id
            and first.element_id != second.element_id
        )

    def order_key(self, row: ElementRow) -> Any:
        """A sort key realizing document order for this scheme's labels."""
        raise NotImplementedError

    def parent_key(self, row: ElementRow) -> Any:
        """A hashable key identifying the row's parent (sibling grouping)."""
        return row.parent_id

    def node_key(self, row: ElementRow) -> Any:
        """A hashable key such that ``parent_key(child) == node_key(parent)``."""
        return row.element_id


class PrimeOps(StoreOps):
    """Prime labels: modulo tests plus SC-table order.

    ``ordered`` maps each doc id to its order holder (an
    :class:`OrderedDocument`, or anything with its ``sc_table``).  The
    ancestor test needs no scheme instance: ordered documents refuse
    Opt2, so it is plain divisibility (:func:`label_divides`).
    """

    name = "prime"

    def __init__(self, ordered: Dict[int, OrderedDocument]):
        self._ordered = ordered

    @property
    def ordered_documents(self) -> Dict[int, OrderedDocument]:
        """The per-doc ordered documents backing the SC order lookups."""
        return dict(self._ordered)

    def is_ancestor(self, ancestor: ElementRow, descendant: ElementRow) -> bool:
        return label_divides(ancestor.label, descendant.label)

    def is_parent(self, parent: ElementRow, child: ElementRow) -> bool:
        # the root's parent-label equals its own label (both 1); identity
        # must be excluded or the root becomes its own parent
        return (
            parent.element_id != child.element_id
            and child.label.parent_value == parent.label.value
        )

    def same_parent(self, first: ElementRow, second: ElementRow) -> bool:
        # a root (parent-label == own label) has no siblings; without the
        # exclusion it would pose as a sibling of the top-level nodes
        return (
            first.element_id != second.element_id
            and first.label.parent_value == second.label.parent_value
            and first.label.parent_value != first.label.value
            and second.label.parent_value != second.label.value
        )

    def order_key(self, row: ElementRow) -> int:
        # Computed from the SC value on every access — this is the paper's
        # "overhead ... to generate global order via the SC table".
        if row.depth == 0:
            return 0
        return self._ordered[row.doc_id].sc_table.order_of(row.label.self_label)

    def parent_key(self, row: ElementRow) -> int:
        return row.label.parent_value

    def node_key(self, row: ElementRow) -> int:
        return row.label.value


class FrozenPrimeOps(PrimeOps):
    """Prime operators for a *published* (immutable) store version.

    :meth:`PrimeOps.order_key` reads the live SC table on every access —
    correct for the writer's own store, but a published MVCC view must
    keep answering with the order that held at publish time even while
    the writer rewrites SC records underneath.  The order of every row is
    therefore materialized into a plain dict at publish time; ancestor /
    parent / sibling tests stay pure label arithmetic and are shared with
    the base class.  The copy keeps no reference to the writer's
    documents, so it has no ordered documents of its own.
    """

    def __init__(self, orders: Dict[int, int]):
        super().__init__({})
        self._orders = orders

    def order_key(self, row: ElementRow) -> int:
        try:
            return self._orders[row.element_id]
        except KeyError:
            raise QueryEvaluationError(
                f"row {row.element_id} is not part of this published version"
            ) from None


class IntervalOps(StoreOps):
    """XISS interval labels: containment tests, order = the order column."""

    name = "interval"

    def is_ancestor(self, ancestor: ElementRow, descendant: ElementRow) -> bool:
        return (
            ancestor.label.order
            < descendant.label.order
            <= ancestor.label.order + ancestor.label.size
        )

    def order_key(self, row: ElementRow) -> int:
        return row.label.order


class PrefixOps(StoreOps):
    """Prefix labels: the ``check_prefix`` UDF; order = lexicographic bits."""

    name = "prefix-2"

    def is_ancestor(self, ancestor: ElementRow, descendant: ElementRow) -> bool:
        return check_prefix(ancestor.label, descendant.label)

    def order_key(self, row: ElementRow) -> str:
        # Prefix-2 sibling codes grow lexicographically, and an ancestor's
        # label is a prefix of (hence sorts before) its descendants', so the
        # label's string form *is* a document-order key.
        return str(row.label)


class LabelStore:
    """The in-memory element table for a document collection.

    Each document's rows live in one :class:`~repro.query.window.DocWindow`
    (rows in preorder plus per-tag lists); the whole-table ``rows`` view is
    derived from those, in (document, ``pre``) order.

    Two constructors with two jobs: :meth:`from_trees` loads labeled
    trees in one walk per document (every build and the live engine), and
    ``__init__`` takes rows that did not come from a tree walk (decoded
    from disk, or assembled by hand), numbers them with one
    :meth:`~repro.query.window.DocWindow.number` sweep per document and
    raises :class:`QueryEvaluationError` on rows that are not a preorder.
    """

    def __init__(self, rows: Iterable[ElementRow], ops: StoreOps):
        self.ops = ops
        self._docs: Dict[int, DocWindow] = {}
        self._row_by_id: Dict[int, ElementRow] = {}
        self._row_by_node: Dict[int, ElementRow] = {}
        for row in rows:
            window = self._docs.get(row.doc_id)
            if window is None:
                window = self._docs[row.doc_id] = DocWindow()
            window.by_pre.append(row)
        for window in self._docs.values():
            window.number()
            self._index(window)
        self._next_id = max(self._row_by_id, default=-1) + 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, documents: Sequence[XmlElement], scheme: str = "prime"
    ) -> "LabelStore":
        """Label ``documents`` with ``scheme`` and load the element table.

        ``scheme`` is one of ``"prime"``, ``"interval"``, ``"prefix-2"`` —
        the three contenders of Figure 15.
        """
        builders: Dict[str, Callable[[], LabelStore]] = {
            "prime": lambda: cls._build_prime(documents),
            "interval": lambda: cls._build_simple(documents, XissIntervalScheme, IntervalOps()),
            "prefix-2": lambda: cls._build_simple(documents, Prefix2Scheme, PrefixOps()),
        }
        try:
            builder = builders[scheme]
        except KeyError:
            raise QueryEvaluationError(
                f"unknown scheme {scheme!r}; choose from {', '.join(sorted(builders))}"
            ) from None
        return builder()

    @classmethod
    def from_trees(
        cls,
        documents: Iterable[Tuple[XmlElement, Callable[[XmlElement], Any]]],
        ops: StoreOps,
    ) -> "LabelStore":
        """Load the table in one preorder walk per ``(root, label_of)`` pair.

        Section 5.2's bulk load: document ``i`` gets doc id ``i``, rows are
        made in preorder with element ids counted across documents, and
        every column is known when its row is made.  The walk is an
        explicit stack of ``(node, depth, parent_id)`` entries, so it
        handles any depth; ``size`` is the tree's own maintained subtree
        size (:attr:`~repro.xmlkit.tree.XmlElement.subtree_size`), and the
        tag list and id maps take each row as it is made.  A tree walk is
        a preorder by construction, so it needs none of the numbering
        sweep :meth:`__init__` runs over rows of unknown provenance.  Any
        scheme's labels load this way: ``label_of`` is the only
        scheme-specific step.
        """
        store = cls((), ops)
        row_by_id, row_by_node = store._row_by_id, store._row_by_node
        element_id = 0
        for doc_id, (root, label_of) in enumerate(documents):
            window = store._docs[doc_id] = DocWindow()
            by_pre, by_tag = window.by_pre, window.by_tag
            stack: List[Tuple[XmlElement, int, Optional[int]]] = [(root, 0, None)]
            pop, push = stack.pop, stack.extend
            while stack:
                node, depth, parent_id = pop()
                tag = node.tag
                size = node.subtree_size
                row = ElementRow(
                    doc_id,
                    element_id,
                    tag,
                    label_of(node),
                    depth,
                    parent_id,
                    node,
                    node.text,
                    len(by_pre),
                    size,
                )
                by_pre.append(row)
                bucket = by_tag.get(tag)
                if bucket is None:
                    by_tag[tag] = [row]
                else:
                    bucket.append(row)
                row_by_id[element_id] = row
                row_by_node[id(node)] = row
                if size > 1:
                    push(zip(reversed(node.child_list), repeat(depth + 1), repeat(element_id)))
                element_id += 1
        store._next_id = element_id
        return store

    def _index(self, window: DocWindow) -> None:
        """Fill ``window.by_tag`` and the store's id maps from ``window.by_pre``.

        Tag lists are appended in ``by_pre`` order, so they stay sorted by
        ``pre``.
        """
        by_tag, row_by_id, row_by_node = window.by_tag, self._row_by_id, self._row_by_node
        for row in window.by_pre:
            bucket = by_tag.get(row.tag)
            if bucket is None:
                by_tag[row.tag] = [row]
            else:
                bucket.append(row)
            row_by_id[row.element_id] = row
            row_by_node[id(row.node)] = row

    @classmethod
    def _build_prime(cls, documents: Sequence[XmlElement]) -> "LabelStore":
        ordered = {
            doc_id: OrderedDocument(root) for doc_id, root in enumerate(documents)
        }
        if not ordered:
            raise QueryEvaluationError("cannot build a store over zero documents")
        return cls.from_trees(
            [(document.root, document.scheme.label_of) for document in ordered.values()],
            PrimeOps(ordered),
        )

    @classmethod
    def _build_simple(
        cls,
        documents: Sequence[XmlElement],
        scheme_class: Callable[[], LabelingScheme],
        ops: StoreOps,
    ) -> "LabelStore":
        trees = [(root, scheme_class().label_tree(root).label_of) for root in documents]
        if not trees:
            raise QueryEvaluationError("cannot build a store over zero documents")
        return cls.from_trees(trees, ops)

    def frozen_copy(self) -> "LabelStore":
        """An independent copy of the table for MVCC publication.

        Rows are copied (the writer's relabel cascades rebind ``label``
        *in place* on its own rows — see :meth:`refresh_labels` — and a
        published version must not see that), label objects are shared
        (they are immutable values), and prime order keys are materialized
        into a :class:`FrozenPrimeOps` so the copy never consults the
        writer's live SC tables.

        Each writer :class:`~repro.query.window.DocWindow` is copied
        straight: row by row in ``by_pre`` order with the positional
        :class:`ElementRow` constructor, ``pre``/``size`` carried over and
        ``by_tag`` rebuilt from the copied rows (so it stays sorted by
        ``pre``).  The id counter is carried over too; the writer's
        columns are already maintained, so nothing is re-swept.  Later
        writer-side ``insert_row`` / ``delete_subtree`` patches cannot
        reach the copy.
        """
        ops: StoreOps = self.ops
        if isinstance(ops, PrimeOps):
            order_key = ops.order_key
            orders = {
                row.element_id: order_key(row)
                for window in self._docs.values()
                for row in window.by_pre
            }
            ops = FrozenPrimeOps(orders)
        copy = LabelStore((), ops)
        copy._next_id = self._next_id
        for doc_id, window in self._docs.items():
            twin = copy._docs[doc_id] = DocWindow()
            twin.by_pre = [
                ElementRow(
                    row.doc_id,
                    row.element_id,
                    row.tag,
                    row.label,
                    row.depth,
                    row.parent_id,
                    row.node,
                    row.text,
                    row.pre,
                    row.size,
                )
                for row in window.by_pre
            ]
            copy._index(twin)
        return copy

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------

    @property
    def doc_ids(self) -> List[int]:
        return list(self._docs)

    @property
    def rows(self) -> List[ElementRow]:
        """Every row of the table, in (document, ``pre``) order."""
        return [row for doc in self._docs.values() for row in doc.by_pre]

    def rows_with_tag(self, doc_id: int, tag: str) -> List[ElementRow]:
        """The tag-index scan every step starts from (``*`` = any tag).

        Sorted by ``pre`` (document order).
        """
        doc = self._docs.get(doc_id)
        return doc.tag_entries(tag) if doc is not None else []

    def rows_in_doc(self, doc_id: int) -> List[ElementRow]:
        """Every row of one document (the descendant-or-self expansions)."""
        doc = self._docs.get(doc_id)
        return doc.by_pre if doc is not None else []

    def doc_window(self, doc_id: int) -> Optional[DocWindow]:
        """One document's pre-sorted row lists (None if unknown)."""
        return self._docs.get(doc_id)

    def row_with_id(self, element_id: int) -> ElementRow:
        """The row with ``element_id`` (KeyError if unknown)."""
        return self._row_by_id[element_id]

    def ordered_documents(self) -> Dict[int, "OrderedDocument"]:
        """Per-doc :class:`OrderedDocument` instances, when the store has
        them (prime scheme only); empty for schemes without an SC table.
        Used by the deep auditor behind the CLI's ``--audit`` flag."""
        if isinstance(self.ops, PrimeOps):
            return self.ops.ordered_documents
        return {}

    # ------------------------------------------------------------------
    # Incremental maintenance (called by the live layer — rule R11)
    # ------------------------------------------------------------------

    def insert_row(self, doc_id: int, node: XmlElement, label: Any) -> ElementRow:
        """Register one freshly inserted *leaf* element.

        The node must already be attached to its (indexed) parent; its row
        is placed in its document's lists and the window columns are
        patched incrementally — no rebuild.
        """
        parent = node.parent
        if parent is None:
            raise QueryEvaluationError("cannot insert a detached root into the store")
        parent_row = self._row_by_node.get(id(parent))
        if parent_row is None:
            raise QueryEvaluationError("insert parent is not part of this store")
        doc = self._docs[doc_id]
        element_id = self._next_id
        self._next_id += 1
        row = ElementRow(
            doc_id=doc_id,
            element_id=element_id,
            tag=node.tag,
            label=label,
            depth=parent_row.depth + 1,
            parent_id=parent_row.element_id,
            node=node,
            text=node.text,
        )
        self._row_by_id[element_id] = row
        self._row_by_node[id(node)] = row
        index = node.child_index
        previous = parent.children[index - 1] if index > 0 else None
        previous_row = (
            self._row_by_node.get(id(previous)) if previous is not None else None
        )
        doc.apply_insert(row, parent_row, previous_row, self._row_by_id)
        return row

    def delete_subtree(self, node: XmlElement) -> List[ElementRow]:
        """Drop ``node`` and its whole subtree from the table and indexes.

        Works on the already-detached subtree (detached trees stay
        iterable); returns the removed rows in document order: one
        contiguous ``by_pre`` slice.
        """
        row = self._row_by_node.get(id(node))
        if row is None:
            raise QueryEvaluationError("deleted node is not part of this store")
        removed = self._docs[row.doc_id].apply_delete(row, self._row_by_id)
        for gone in removed:
            del self._row_by_id[gone.element_id]
            del self._row_by_node[id(gone.node)]
        return removed

    def refresh_labels(
        self, nodes: Sequence[XmlElement], label_of: Callable[[XmlElement], Any]
    ) -> int:
        """Re-read the labels of ``nodes`` after a relabeling cascade.

        Returns how many rows were refreshed; nodes the store does not
        know (e.g. already deleted) are skipped.
        """
        refreshed = 0
        for node in nodes:
            target = self._row_by_node.get(id(node))
            if target is not None:
                # The row's label *column* mirrors the scheme's label; the
                # scheme already relabeled the node through its own API.
                target.label = label_of(node)  # repro: ignore[R1] -- table column refresh, not a tree relabel
                refreshed += 1
        return refreshed

    def __len__(self) -> int:
        return sum(len(doc) for doc in self._docs.values())
