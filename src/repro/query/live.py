"""A live, updatable collection: ordered documents + a query surface.

:class:`LabelStore` is a static snapshot; the paper's whole pitch is
*dynamic* documents.  :class:`LiveCollection` closes the loop: it manages
one :class:`~repro.order.document.OrderedDocument` per document, applies
order-sensitive updates through them (charging the paper's costs), and
exposes an always-consistent query engine over the prime label store.

Queries between mutations reuse the cached store; single-node inserts and
subtree deletes *patch* that store (rows, tag buckets, and the pre/post
window columns of :mod:`repro.query.window`) in place instead of
invalidating it, so the mutation hot path never pays a full rebuild —
``live.engine_rebuilds`` stays flat under update load while
``live.store_patches`` counts the incremental maintenance.  Structural
wholesale changes (``add_document``, ``compact``) still invalidate, and
any patching error falls back to invalidation: a rebuild is always
correct.  The per-update *cost model* comes from the ordered documents'
reports either way, so experiments are unaffected by the engineering
choice.

Batched mutations: :meth:`LiveCollection.apply_batch` (and the
:meth:`~LiveCollection.bulk_insert` / :meth:`~LiveCollection.bulk_delete`
conveniences) run a sequence of :class:`BatchOp`\\ s through the *same*
sequential update algorithm, op by op, inside each touched document's
:meth:`~repro.order.document.OrderedDocument.batch` scope, which defers
nothing — so grouping, prime issuance, overflow repair, SC solves and
per-op cost reports are byte-identical to applying the ops one by one.
What a batch saves is above this layer: one WAL record and one fsync
for the whole batch at the durable layer.  See ``docs/BATCHING.md``.

One mutation path: every node update is a :class:`BatchOp` handed to a
layer's ``apply`` (one op) or ``apply_batch`` (many).  The named methods
(``insert_child`` … ``bulk_delete``) are written once, in
:class:`NodeMutations`, which the live, durable and resilient collections
all inherit.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CapacityError, QueryEvaluationError
from repro.obs import metrics
from repro.order.document import OrderedDocument, OrderedUpdateReport
from repro.query.engine import QueryEngine, check_strategy
from repro.query.store import ElementRow, LabelStore, PrimeOps
from repro.xmlkit.tree import XmlElement

__all__ = ["BatchOp", "BatchReport", "LiveCollection", "NodeMutations", "ReadView"]


@dataclass(frozen=True)
class BatchOp:
    """One mutation inside a batch: an operation kind plus its target.

    ``node`` is the *parent* for ``insert_child``, the reference sibling
    for ``insert_before`` / ``insert_after``, and the doomed node for
    ``delete``.  Ops are built against the pre-batch tree; a batch must not
    target a node that an earlier op in the same batch deletes (the op will
    fail and, at the durable layer, roll the whole batch back).
    """

    KINDS: ClassVar[Tuple[str, ...]] = (
        "insert_child",
        "insert_before",
        "insert_after",
        "delete",
    )

    kind: str
    node: XmlElement
    index: Optional[int] = None
    tag: str = "new"

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise QueryEvaluationError(
                f"unknown batch op kind {self.kind!r}; expected one of {self.KINDS}"
            )
        if not isinstance(self.tag, str):
            raise QueryEvaluationError(f"batch op tag {self.tag!r} is not a str")
        if self.kind == "insert_child":
            if self.index is None:
                raise QueryEvaluationError("insert_child batch ops need an index")
            if type(self.index) is not int:
                # bool is an int subclass (True would land at index 1), and
                # a WAL record decoded from JSON can carry any scalar here.
                raise QueryEvaluationError(
                    f"insert_child index {self.index!r} is not an int"
                )
            if self.index < 0:
                # list.insert would silently clamp this and the op would
                # land at the wrong position (or die deep in the SC table);
                # reject at construction, before the batch ever runs.
                raise QueryEvaluationError(
                    f"insert_child index {self.index} is negative"
                )

    @classmethod
    def insert_child(cls, parent: XmlElement, index: int, tag: str = "new") -> "BatchOp":
        """An order-sensitive insertion under ``parent`` at ``index``."""
        return cls("insert_child", parent, index=index, tag=tag)

    @classmethod
    def insert_before(cls, reference: XmlElement, tag: str = "new") -> "BatchOp":
        """A new sibling immediately before ``reference``."""
        return cls("insert_before", reference, tag=tag)

    @classmethod
    def insert_after(cls, reference: XmlElement, tag: str = "new") -> "BatchOp":
        """A new sibling immediately after ``reference``."""
        return cls("insert_after", reference, tag=tag)

    @classmethod
    def delete(cls, node: XmlElement) -> "BatchOp":
        """Deletion of ``node`` and its subtree."""
        return cls("delete", node)


class NodeMutations:
    """The collection protocol: node mutations and reads, written once.

    Section 4.2's four order-sensitive updates plus their bulk forms.  Each
    builds :class:`BatchOp`\\ s and hands them to the class's own
    :meth:`apply` (one op) or :meth:`apply_batch` (many), so every
    collection layer has exactly one mutation path to validate, log,
    guard, or trace.  The reads (:meth:`query`, :meth:`count`,
    :meth:`check`, :attr:`documents`) pass through to the wrapped
    :class:`LiveCollection` at ``self.live``, which answers them itself.
    """

    def apply(self, op: BatchOp) -> OrderedUpdateReport:
        """Apply one mutation; each collection layer defines this."""
        raise NotImplementedError

    def apply_batch(self, ops: Sequence[BatchOp]) -> "BatchReport":
        """Apply many mutations as one batch; each layer defines this."""
        raise NotImplementedError

    def insert_child(
        self, parent: XmlElement, index: int, tag: str = "new"
    ) -> OrderedUpdateReport:
        """Order-sensitive insertion under ``parent`` at ``index``."""
        return self.apply(BatchOp.insert_child(parent, index, tag))

    def insert_before(self, reference: XmlElement, tag: str = "new") -> OrderedUpdateReport:
        """Insert a new sibling immediately before ``reference``."""
        return self.apply(BatchOp.insert_before(reference, tag))

    def insert_after(self, reference: XmlElement, tag: str = "new") -> OrderedUpdateReport:
        """Insert a new sibling immediately after ``reference``."""
        return self.apply(BatchOp.insert_after(reference, tag))

    def delete(self, node: XmlElement) -> OrderedUpdateReport:
        """Delete ``node`` and its subtree (free, per Section 4.2)."""
        return self.apply(BatchOp.delete(node))

    def bulk_insert(
        self, inserts: Sequence[Tuple[XmlElement, int, str]]
    ) -> "BatchReport":
        """Batched order-sensitive insertions from (parent, index, tag) triples."""
        return self.apply_batch(
            [BatchOp.insert_child(parent, index, tag) for parent, index, tag in inserts]
        )

    def bulk_delete(self, nodes: Sequence[XmlElement]) -> "BatchReport":
        """Batched deletion of ``nodes`` (each with its subtree)."""
        return self.apply_batch([BatchOp.delete(node) for node in nodes])

    def query(self, text: str) -> List[ElementRow]:
        """Evaluate an XPath-subset query over the whole collection."""
        return self.live.query(text)

    def count(self, text: str) -> int:
        """Number of nodes the query retrieves."""
        return len(self.query(text))

    def check(self) -> bool:
        """Verify every document's SC-derived order."""
        return self.live.check()

    @property
    def documents(self) -> List[XmlElement]:
        """The document roots, in collection order."""
        return self.live.documents


@dataclass
class BatchReport:
    """Per-op cost reports for one batch, plus the aggregate totals.

    The per-op :class:`~repro.order.document.OrderedUpdateReport`\\ s are
    exactly what the sequential path would have produced: a batch applies
    the same updates in the same order, so the paper's cost model charges
    the same.
    """

    reports: List[OrderedUpdateReport] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.reports)

    @property
    def node_relabels(self) -> int:
        """Total nodes relabeled across the batch."""
        return sum(report.node_relabels for report in self.reports)

    @property
    def sc_records_updated(self) -> int:
        """Total SC record updates charged across the batch."""
        return sum(report.sc_records_updated for report in self.reports)

    @property
    def total_cost(self) -> int:
        """The paper's Figure 18 cost summed over every op in the batch."""
        return sum(report.total_cost for report in self.reports)


@dataclass(frozen=True)
class ReadView:
    """One published, immutable version of the collection's element table.

    The MVCC read unit: a frozen store copy behind its own query engine,
    stamped with the monotonically increasing publish ``version`` and the
    WAL sequence number (``applied_seq``) whose effects it contains.
    Views are safe to query from many threads concurrently — nothing in
    them mutates after publication — and stay valid (merely stale) for as
    long as a reader holds them, no matter what the writer does next.
    """

    version: int
    applied_seq: int
    engine: QueryEngine
    row_count: int
    fingerprint: Optional[str] = None

    def query(self, text: str) -> List[ElementRow]:
        """Evaluate an XPath-subset query against this frozen version."""
        return self.engine.evaluate(text)

    def count(self, text: str) -> int:
        """Number of nodes the query retrieves in this version."""
        return len(self.query(text))

    def audit(self) -> List[str]:
        """Internal-consistency check; returns violations (empty = clean).

        Validates the frozen table against the paper's structural
        invariants without touching any live state: every non-root row's
        parent exists, parent-labels link (``child.label.parent_value ==
        parent.label.value`` for prime labels), depths chain by one,
        per-document order keys are distinct, and sorting each document
        by order key yields a valid preorder of the ``parent_id`` tree
        (parents always open before their children, DFS-contiguously).
        The store's window columns must match that order too: the
        document's rows, held in ``pre`` order, are the order-key order
        with ``pre`` = 0..n-1, and each ``size`` is its subtree's row
        count.
        """
        violations: List[str] = []
        store = self.engine.store
        ops = store.ops
        rows = store.rows
        by_id = {row.element_id: row for row in rows}
        for row in rows:
            if row.parent_id is None:
                continue
            parent = by_id.get(row.parent_id)
            if parent is None:
                violations.append(
                    f"row {row.element_id}: parent {row.parent_id} missing"
                )
                continue
            if row.depth != parent.depth + 1:
                violations.append(
                    f"row {row.element_id}: depth {row.depth} != "
                    f"parent depth {parent.depth} + 1"
                )
            if ops.parent_key(row) != ops.node_key(parent):
                violations.append(
                    f"row {row.element_id}: parent-label link broken "
                    f"({ops.parent_key(row)!r} != {ops.node_key(parent)!r})"
                )
        for doc_id in store.doc_ids:
            doc_rows = store.rows_in_doc(doc_id)
            keys = [ops.order_key(row) for row in doc_rows]
            if len(set(keys)) != len(keys):
                violations.append(f"doc {doc_id}: duplicate order keys")
                continue
            ordered = [row for _, row in sorted(zip(keys, doc_rows))]
            sizes = _preorder_subtree_sizes(doc_id, ordered, violations)
            if sizes is None:
                continue
            for position, (row, expected) in enumerate(zip(doc_rows, ordered)):
                if row is not expected or row.pre != position:
                    violations.append(
                        f"doc {doc_id}: row {row.element_id} has pre {row.pre} "
                        f"at position {position}; SC order puts row "
                        f"{expected.element_id} there"
                    )
                    break
                if row.size != sizes[row.element_id]:
                    violations.append(
                        f"doc {doc_id}: row {row.element_id} has size "
                        f"{row.size}, its subtree has "
                        f"{sizes[row.element_id]} rows"
                    )
                    break
        return violations


def _preorder_subtree_sizes(
    doc_id: int, ordered: List[ElementRow], violations: List[str]
) -> Optional[Dict[int, int]]:
    """Subtree row counts of one document's rows taken in SC order.

    Returns None (after recording the violation) when the order is not a
    preorder of the ``parent_id`` tree: a root mid-sequence, or a row
    opening before its parent.
    """
    sizes: Dict[int, int] = {}
    stack: List[Tuple[int, int]] = []  # (element_id, position it opened at)

    def close(until: int) -> None:
        element_id, opened = stack.pop()
        sizes[element_id] = until - opened

    for position, row in enumerate(ordered):
        if row.parent_id is None:
            if stack:
                violations.append(
                    f"doc {doc_id}: root row {row.element_id} "
                    "appears mid-sequence"
                )
                return None
        else:
            while stack and stack[-1][0] != row.parent_id:
                close(position)
            if not stack:
                violations.append(
                    f"doc {doc_id}: row {row.element_id} opens "
                    f"before its parent {row.parent_id} in SC order"
                )
                return None
        stack.append((row.element_id, position))
    while stack:
        close(len(ordered))
    return sizes


class LiveCollection(NodeMutations):
    """Ordered, queryable, updatable collection of XML documents."""

    def __init__(
        self,
        documents: Sequence[XmlElement],
        group_size: int | None = 5,
        strategy: str = "auto",
    ):
        self.group_size = group_size
        self.strategy = check_strategy(strategy)
        self._engine: Optional[QueryEngine] = None
        self.total_update_cost = 0
        self._publish_lock = threading.Lock()
        # repro: guarded-by(_publish_lock): _latest_view, _version
        self._latest_view: Optional[ReadView] = None
        self._version = 0
        self._adopt([OrderedDocument(root, group_size=group_size) for root in documents])

    def _adopt(self, ordered: Sequence[OrderedDocument]) -> None:
        """Take ``ordered`` as the collection's documents, indexed by root."""
        self._ordered: List[OrderedDocument] = list(ordered)
        self._index_by_root: Dict[int, int] = {
            id(document.root): index for index, document in enumerate(self._ordered)
        }
        if len(self._index_by_root) != len(self._ordered):
            raise QueryEvaluationError("the same document appears twice")

    @classmethod
    def from_ordered(
        cls,
        ordered: Sequence[OrderedDocument],
        group_size: int | None = 5,
        strategy: str = "auto",
        total_update_cost: int = 0,
    ) -> "LiveCollection":
        """Assemble a collection around existing ordered documents.

        Used by snapshot restore (:mod:`repro.durable`), where the documents
        arrive already labeled and ordered: ``__init__`` would relabel them
        from scratch and destroy the restored state, so the collection
        starts empty and adopts them as they are.

        Every restored document must share the collection's ``group_size``:
        ``add_document`` enforces one SC grouping policy per collection, and
        a snapshot assembled from mixed-policy documents must not sneak past
        that invariant just because it arrives pre-built.
        """
        for index, document in enumerate(ordered):
            if document.group_size != group_size:
                raise QueryEvaluationError(
                    f"restored document {index} uses SC group_size "
                    f"{document.group_size}, but the collection is "
                    f"being assembled with {group_size}; one SC grouping "
                    "policy applies collection-wide"
                )
        collection = cls((), group_size, strategy)
        collection._adopt(ordered)
        collection.total_update_cost = total_update_cost
        return collection

    # ------------------------------------------------------------------
    # Store management
    # ------------------------------------------------------------------

    @property
    def documents(self) -> List[XmlElement]:
        """The document roots, in collection order."""
        return [ordered.root for ordered in self._ordered]

    @property
    def ordered_documents(self) -> List[OrderedDocument]:
        """The per-document ordered documents, in collection order."""
        return list(self._ordered)

    def _invalidate(self) -> None:
        self._engine = None

    @contextmanager
    def _capacity_context(self, doc: int) -> Iterator[None]:
        """Stamp escaping :class:`CapacityError`\\ s with the document index.

        The SC table knows its group but not which collection document it
        serves; the collection is the first frame that does, so capacity
        exhaustion surfaces with enough context to compact or relabel the
        right document.
        """
        try:
            yield
        except CapacityError as error:
            if error.document is None:
                error.document = doc
            raise

    def _build_engine(self) -> QueryEngine:
        metrics.incr("live.engine_rebuilds")
        store = LabelStore.from_trees(
            [(document.root, document.scheme.label_of) for document in self._ordered],
            PrimeOps(dict(enumerate(self._ordered))),
        )
        return QueryEngine(store, strategy=self.strategy)

    # ------------------------------------------------------------------
    # Incremental store maintenance (no rebuild on the mutation hot path)
    # ------------------------------------------------------------------

    def _patch(self, doc: int, op: BatchOp, report: OrderedUpdateReport) -> None:
        """Patch the cached engine's store after one applied op.

        Relabeled rows (residue-overflow cascades) re-read their labels,
        then a delete drops the doomed subtree's rows and an insert adds
        the new node's row with incrementally maintained window columns.
        Any surprise degrades to plain invalidation — the rebuild path is
        always correct.
        """
        engine = self._engine
        if engine is None:
            return
        try:
            node = op.node if op.kind == "delete" else report.new_node
            if node is None:
                self._invalidate()
                return
            scheme = self._ordered[doc].scheme
            if report.relabeled_nodes:
                engine.store.refresh_labels(report.relabeled_nodes, scheme.label_of)
            if op.kind == "delete":
                engine.store.delete_subtree(node)
            else:
                engine.store.insert_row(doc, node, scheme.label_of(node))
            metrics.incr("live.store_patches")
        except Exception:
            metrics.incr("live.store_patch_failures")
            self._invalidate()

    @property
    def engine(self) -> QueryEngine:
        """A query engine over the current state (rebuilt after updates)."""
        if self._engine is None:
            self._engine = self._build_engine()
        return self._engine

    # ------------------------------------------------------------------
    # MVCC publication (single writer, many concurrent readers)
    # ------------------------------------------------------------------

    def publish_view(
        self, applied_seq: int = 0, fingerprint: bool = False
    ) -> ReadView:
        """Publish the current state as an immutable :class:`ReadView`.

        Copy-on-publish: the writer's own store keeps being patched in
        place (the mutation hot path); publication takes a frozen copy of
        it, wraps it in a fresh engine, and atomically swaps it in as
        :meth:`latest_view`.  The copy takes each document's window
        straight — rows copied in ``pre`` order with their maintained
        ``pre``/``size`` columns, order keys materialized, no re-sweep
        (see :meth:`repro.query.store.LabelStore.frozen_copy`).
        Reference swaps are GIL-atomic, so readers on other threads pick
        up either the old version or the new one — never a torn mix —
        without taking any lock on their query path.

        ``applied_seq`` stamps the view with the WAL sequence number its
        state reflects (the replica's applied LSN; 0 when the caller does
        not track one).  ``fingerprint=True`` additionally stamps the
        canonical :func:`~repro.durable.snapshot.collection_fingerprint`
        — the byte-identity oracle — which costs a full snapshot encode
        and is meant for tests and audits, not the hot path.

        Only the single designated writer thread may call this (it is
        serialized by a lock regardless, as is :meth:`read_view`'s
        publish-on-first-read).
        """
        with self._publish_lock:
            with metrics.timed("mvcc.publish"):
                digest: Optional[str] = None
                if fingerprint:
                    # Imported lazily: repro.durable imports this module.
                    from repro.durable.snapshot import collection_fingerprint

                    digest = collection_fingerprint(self)
                store = self.engine.store.frozen_copy()
                engine = QueryEngine(store, strategy=self.strategy)
                self._version += 1
                view = ReadView(
                    version=self._version,
                    applied_seq=applied_seq,
                    engine=engine,
                    row_count=len(store),
                    fingerprint=digest,
                )
                self._latest_view = view
            metrics.incr("mvcc.publishes")
            metrics.gauge("mvcc.published_version", view.version)
            metrics.gauge("mvcc.published_seq", applied_seq)
        return view

    def latest_view(self) -> Optional[ReadView]:
        """The most recently published view (``None`` before any publish).

        Safe from any thread: reading one attribute is atomic under the
        GIL and the returned object is immutable.
        """
        return self._latest_view  # repro: ignore[R14] -- single GIL-atomic read of an immutable reference; the lock only serializes writers

    def read_view(self) -> ReadView:
        """A view to read from: the latest published one, or — before the
        first publication — a fresh publish of the current state."""
        view = self._latest_view  # repro: ignore[R14] -- GIL-atomic read; publish_view re-checks under the lock
        if view is None:
            view = self.publish_view()
        return view

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, text: str) -> List[ElementRow]:
        """Evaluate an XPath-subset query over the whole collection."""
        return self.engine.evaluate(text)

    def document_index_of(self, node: XmlElement) -> int:
        """Collection index of the document owning ``node``.

        O(depth): walks to the node's root and hits the root→index map —
        every update used to pay an O(documents) linear scan here instead,
        which dominated update cost on large collections.
        """
        try:
            return self._index_by_root[id(node.root)]
        except KeyError:
            raise QueryEvaluationError(
                "node does not belong to this collection"
            ) from None

    def document_of(self, node: XmlElement) -> OrderedDocument:
        """The ordered document owning ``node``."""
        return self._ordered[self.document_index_of(node)]

    # ------------------------------------------------------------------
    # Updates (order-sensitive, charged per the paper)
    # ------------------------------------------------------------------

    def apply(self, op: BatchOp) -> OrderedUpdateReport:
        """Apply one :class:`BatchOp`: the path every named update takes.

        Charged and guarded the same for all four kinds: the report's cost
        lands in ``total_update_cost`` (a delete costs 0 today, but every
        update charges what its report says), an escaping
        :class:`CapacityError` is stamped with the document index, and the
        cached engine's store is patched in place.
        """
        doc = self.document_index_of(op.node)
        with self._capacity_context(doc):
            report = self._apply_one(doc, op)
        self.total_update_cost += report.total_cost
        self._patch(doc, op, report)
        return report

    def apply_batch(
        self,
        ops: Sequence[BatchOp],
        before_op: Optional[Callable[[int, BatchOp], None]] = None,
    ) -> BatchReport:
        """Apply a sequence of :class:`BatchOp`\\ s in order, as one batch.

        Each op runs through the ordinary sequential update algorithm, in
        order, inside every touched document's
        :meth:`~repro.order.document.OrderedDocument.batch` scope (which
        defers nothing) — the end state is byte-identical to applying the
        ops one by one.  The summed cost is charged to
        ``total_update_cost``.

        ``before_op`` is called with ``(position, op)`` immediately before
        each op applies — the durability layer uses it to encode WAL
        addresses against exactly the state replay will see.

        On failure the exception propagates after the already-applied
        prefix's costs are charged; this layer does *not* undo the prefix —
        atomic all-or-nothing batches are the durable layer's contract,
        which rolls back by reloading the last durable state.  The cached
        engine is patched per applied op (like :meth:`apply`) and
        only invalidated when the batch fails partway.
        """
        ops = list(ops)
        batch = BatchReport()
        if not ops:
            return batch
        metrics.incr("live.batches")
        try:
            with ExitStack() as stack:
                in_batch: set = set()
                for position, op in enumerate(ops):
                    doc = self.document_index_of(op.node)
                    if doc not in in_batch:
                        stack.enter_context(self._ordered[doc].batch())
                        in_batch.add(doc)
                    if before_op is not None:
                        before_op(position, op)
                    with self._capacity_context(doc):
                        report = self._apply_one(doc, op, position)
                    batch.reports.append(report)
                    self._patch(doc, op, report)
        except BaseException:
            self.total_update_cost += batch.total_cost
            self._invalidate()
            raise
        self.total_update_cost += batch.total_cost
        metrics.incr("live.batch_ops", len(ops))
        return batch

    def _apply_one(
        self, doc: int, op: BatchOp, position: Optional[int] = None
    ) -> OrderedUpdateReport:
        document = self._ordered[doc]
        if op.kind == "insert_child":
            assert op.index is not None
            if op.index > len(op.node.children):
                # list.insert would clamp this to an append and the op
                # would silently land at the wrong position; name the op
                # so a failed batch is debuggable.
                where = "" if position is None else f"batch op {position}: "
                raise QueryEvaluationError(
                    f"{where}insert_child index {op.index} is past the end "
                    f"(parent has {len(op.node.children)} children)"
                )
            return document.insert_child(op.node, op.index, tag=op.tag)
        if op.kind == "insert_before":
            return document.insert_before(op.node, tag=op.tag)
        if op.kind == "insert_after":
            return document.insert_after(op.node, tag=op.tag)
        return document.delete(op.node)

    @contextmanager
    def batch_scope(self) -> Iterator["LiveCollection"]:
        """Open every document's batch scope around arbitrary updates.

        WAL replay uses this to re-apply a logged batch one op at a time
        through :meth:`apply`, inside every document's batch scope as the
        original :meth:`apply_batch` ran it.  It defers nothing: each op
        costs what it did when it was first applied.
        """
        with ExitStack() as stack:
            for document in self._ordered:
                stack.enter_context(document.batch())
            yield self

    def add_document(
        self, root: XmlElement, group_size: int | None = None
    ) -> int:
        """Add a whole document; returns its collection index.

        ``root`` must be a detached root not already in the collection.  The
        new document always inherits the collection's ``group_size`` (one SC
        grouping policy per collection); passing an explicit ``group_size``
        asserts it matches — a divergent value is rejected instead of being
        silently overridden.
        """
        if root.parent is not None:
            raise QueryEvaluationError(
                "add_document needs a detached root; detach() the subtree first"
            )
        if id(root) in self._index_by_root:
            raise QueryEvaluationError("document is already in this collection")
        if group_size is not None and group_size != self.group_size:
            raise QueryEvaluationError(
                f"document group_size {group_size} diverges from the "
                f"collection's {self.group_size}; one SC grouping policy "
                "applies collection-wide"
            )
        self._ordered.append(OrderedDocument(root, group_size=self.group_size))
        self._index_by_root[id(root)] = len(self._ordered) - 1
        self._invalidate()
        return len(self._ordered) - 1

    def compact(self) -> List[int]:
        """Compact every document's SC table (after heavy churn).

        Compaction renumbers orders densely, which can itself exhaust a
        small prime's residue range — a :class:`CapacityError` from here
        carries the index of the document that needs relabeling.  Returns
        the per-document SC record counts of the rebuilt tables (what each
        ``OrderedDocument.compact`` reported; previously discarded).
        """
        record_counts: List[int] = []
        for doc, ordered in enumerate(self._ordered):
            with self._capacity_context(doc):
                record_counts.append(ordered.compact())
        self._invalidate()
        return record_counts

    def check(self) -> bool:
        """Verify every document's SC-derived order."""
        return all(ordered.check() for ordered in self._ordered)
