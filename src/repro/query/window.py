"""Pre/post window indexes: the XPath-Accelerator columns over the store.

The paper's Section 5.2 engine answers every structural step by comparing
*labels* — a per-(context, candidate) test that costs O(|ctx| · |cand|)
regardless of how few pairs actually match.  The XPath-Accelerator design
(Grust; see ROADMAP "Query accelerator") observes that four plain integer
columns turn every axis into a *contiguous range* of the preorder rank:

* ``pre``   — preorder rank within the document (0 = the root),
* ``post``  — postorder rank within the document,
* ``level`` — depth (the store's ``depth`` column, mirrored here so the
  window machinery is self-contained),
* ``size``  — subtree size including the node itself.

Because a subtree is contiguous in preorder, the descendants of a context
node ``c`` are exactly the nodes with ``pre(c) < pre <= pre(c)+size(c)-1``;
following nodes start at ``pre(c)+size(c)``; children are the descendants
one level down.  ``post`` is fully determined by the other three columns —
``post = pre + size - 1 - level`` (descendants + preceding precede a node
in postorder; ancestors + preceding precede it in preorder) — and the
maintenance code leans on that identity: it shifts ``pre``/``post``
together and lets the randomized soak in ``tests/test_window_maintenance``
prove the result byte-identical to a from-scratch rebuild.

:class:`WindowIndex` keeps, per document, the entry list in preorder
(``by_pre``) plus per-tag entry lists sorted by ``pre`` so an axis window
becomes two binary searches (:mod:`bisect`) into the tag's list.  The
index is *incrementally maintained*: order-sensitive insertion shifts the
``pre``/``post`` of the nodes after the insertion point (exactly the nodes
whose SC records the paper's update algorithm rewrites) and bumps ancestor
sizes; subtree deletion removes a contiguous ``by_pre`` slice.  Mutation
entry points live here but may only be *called* from the store/live layer
— rule R11 in :mod:`repro.analysis.rules` enforces that containment.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a store cycle
    from repro.query.store import ElementRow

__all__ = ["WindowEntry", "DocWindow", "WindowIndex"]


class WindowEntry:
    """One node's window columns plus a back-reference to its store row."""

    __slots__ = ("row", "pre", "post", "level", "size")

    def __init__(self, row: "ElementRow", pre: int, post: int, level: int, size: int):
        self.row = row
        self.pre = pre
        self.post = post
        self.level = level
        self.size = size

    @property
    def end(self) -> int:
        """Preorder rank of the last node in this entry's subtree."""
        return self.pre + self.size - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowEntry(id={self.row.element_id}, pre={self.pre}, "
            f"post={self.post}, level={self.level}, size={self.size})"
        )


class DocWindow:
    """One document's window columns and its per-tag pre-sorted lists."""

    __slots__ = ("by_pre", "by_id", "by_tag")

    def __init__(self) -> None:
        self.by_pre: List[WindowEntry] = []
        self.by_id: Dict[int, WindowEntry] = {}
        self.by_tag: Dict[str, List[WindowEntry]] = {}

    def entry(self, element_id: int) -> WindowEntry:
        """The window entry of one store row (KeyError if unknown)."""
        return self.by_id[element_id]

    def tag_entries(self, tag: str) -> List[WindowEntry]:
        """Entries with ``tag``, sorted by ``pre`` (``*`` = every entry)."""
        if tag == "*":
            return self.by_pre
        return self.by_tag.get(tag, [])

    def range_in(
        self, entries: List[WindowEntry], first_pre: int, last_pre: int
    ) -> List[WindowEntry]:
        """Entries whose ``pre`` lies in ``[first_pre, last_pre]``.

        Two binary searches — this is the "window" of the accelerator: the
        caller never touches entries outside the range.
        """
        lo = bisect_left(entries, first_pre, key=_pre_of)
        hi = bisect_right(entries, last_pre, key=_pre_of)
        return entries[lo:hi]

    def __len__(self) -> int:
        return len(self.by_pre)


def _pre_of(entry: WindowEntry) -> int:
    return entry.pre


class WindowIndex:
    """Incrementally-maintained pre/post/level/size columns per document.

    Construct with :meth:`build` (returns ``None`` when the row stream is
    not a clean per-document preorder — the engine then falls back to the
    label-comparison strategies); mutate through :meth:`apply_insert` /
    :meth:`apply_delete` *from the store/live layer only* (rule R11).
    """

    def __init__(self) -> None:
        self._docs: Dict[int, DocWindow] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, rows: Sequence["ElementRow"]) -> Optional["WindowIndex"]:
        """Compute the four columns from a per-document preorder row stream.

        Rows must arrive grouped by document in document order — exactly
        what :meth:`LabelStore._make_rows` and the store file format emit.
        ``level`` comes from the ``depth`` column and ``size`` from a
        depth-stack sweep; ``post`` from the pre/size/level identity.
        Returns ``None`` when any document's rows are not a consistent
        preorder (wrong depth jumps or parent links), so a hand-assembled
        store degrades to the scan path instead of answering wrongly.
        """
        index = cls()
        per_doc: Dict[int, List["ElementRow"]] = {}
        for row in rows:
            per_doc.setdefault(row.doc_id, []).append(row)
        for doc_id, doc_rows in per_doc.items():
            doc = index._docs[doc_id] = DocWindow()
            by_pre, by_id, by_tag = doc.by_pre, doc.by_id, doc.by_tag
            stack: List[WindowEntry] = []
            for pre, row in enumerate(doc_rows):
                depth = row.depth
                while stack and stack[-1].level >= depth:
                    top = stack.pop()
                    top.size = pre - top.pre
                if depth > 0:
                    if not stack or stack[-1].level != depth - 1:
                        return None  # depth jump: not a preorder stream
                    if (
                        row.parent_id is not None
                        and stack[-1].row.element_id != row.parent_id
                    ):
                        return None  # parent link disagrees with nesting
                elif stack or pre != 0:
                    return None  # a second root mid-document
                entry = WindowEntry(row, pre=pre, post=0, level=depth, size=0)
                by_pre.append(entry)
                by_id[row.element_id] = entry
                by_tag.setdefault(row.tag, []).append(entry)
                stack.append(entry)
            total = len(doc_rows)
            while stack:
                top = stack.pop()
                top.size = total - top.pre
            for entry in by_pre:
                entry.post = entry.pre + entry.size - 1 - entry.level
        return index

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    def doc(self, doc_id: int) -> Optional[DocWindow]:
        """The window structures of one document (None if unknown)."""
        return self._docs.get(doc_id)

    def entry_of(self, row: "ElementRow") -> WindowEntry:
        """The window entry of ``row`` (KeyError if it was never indexed)."""
        return self._docs[row.doc_id].by_id[row.element_id]

    def columns(self) -> Dict[int, Dict[int, Tuple[int, int, int, int]]]:
        """``{doc_id: {element_id: (pre, post, level, size)}}`` snapshot.

        The byte-identity soak compares this (mapped through node
        identities, since element ids differ across builds) against a
        freshly built index.
        """
        return {
            doc_id: {
                element_id: (entry.pre, entry.post, entry.level, entry.size)
                for element_id, entry in doc.by_id.items()
            }
            for doc_id, doc in self._docs.items()
        }

    # ------------------------------------------------------------------
    # Incremental maintenance (store/live layer only — rule R11)
    # ------------------------------------------------------------------

    def apply_insert(
        self,
        row: "ElementRow",
        parent_row: "ElementRow",
        previous_sibling_row: Optional["ElementRow"],
    ) -> WindowEntry:
        """Index one freshly inserted leaf row.

        ``pre`` of the new node is its parent's ``pre`` plus one when it
        became the first child, else its previous sibling's subtree end
        plus one.  Everything after the insertion point shifts ``pre`` and
        ``post`` by one (the same node set whose SC records the paper's
        Section 4.2 update rewrites); ancestors gain one unit of ``size``
        and ``post``.
        """
        doc = self._docs[row.doc_id]
        parent = doc.by_id[parent_row.element_id]
        if previous_sibling_row is None:
            pre = parent.pre + 1
        else:
            previous = doc.by_id[previous_sibling_row.element_id]
            pre = previous.pre + previous.size
        level = parent.level + 1
        entry = WindowEntry(row, pre=pre, post=pre - level, level=level, size=1)
        # Tail shift first: every entry at or after the insertion point
        # moves one preorder (and postorder) rank to the right.
        shifted = 0
        for moved in doc.by_pre[pre:]:
            moved.pre += 1
            moved.post += 1
            shifted += 1
        # Ancestors close one position later in postorder and grow by one.
        ancestor = parent
        while ancestor is not None:
            ancestor.size += 1
            ancestor.post += 1
            parent_id = ancestor.row.parent_id
            ancestor = doc.by_id.get(parent_id) if parent_id is not None else None
        doc.by_pre.insert(pre, entry)
        doc.by_id[row.element_id] = entry
        bucket = doc.by_tag.setdefault(row.tag, [])
        bucket.insert(bisect_left(bucket, pre, key=_pre_of), entry)
        metrics.incr("window.inserts")
        metrics.incr("window.entries_shifted", shifted)
        return entry

    def apply_delete(self, row: "ElementRow") -> List[WindowEntry]:
        """Drop ``row``'s whole subtree from the index; returns the entries.

        The subtree is one contiguous ``by_pre`` slice; the tail shifts
        left by the subtree size and ancestors shrink by it.  The caller
        (the store) drops the returned entries' rows from its own indexes.
        """
        doc = self._docs[row.doc_id]
        entry = doc.by_id[row.element_id]
        pre, size = entry.pre, entry.size
        removed = doc.by_pre[pre : pre + size]
        # De-index the removed entries while their pre values still match
        # the tag lists' sort order.
        for gone in removed:
            bucket = doc.by_tag[gone.row.tag]
            bucket.pop(bisect_left(bucket, gone.pre, key=_pre_of))
            del doc.by_id[gone.row.element_id]
        del doc.by_pre[pre : pre + size]
        shifted = 0
        for moved in doc.by_pre[pre:]:
            moved.pre -= size
            moved.post -= size
            shifted += 1
        parent_id = row.parent_id
        ancestor = doc.by_id.get(parent_id) if parent_id is not None else None
        while ancestor is not None:
            ancestor.size -= size
            ancestor.post -= size
            parent_id = ancestor.row.parent_id
            ancestor = doc.by_id.get(parent_id) if parent_id is not None else None
        metrics.incr("window.deletes")
        metrics.incr("window.entries_shifted", shifted)
        return removed
