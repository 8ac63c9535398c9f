"""Per-document row lists in preorder: the XPath-Accelerator columns.

The paper's Section 5.2 engine answers every structural step by comparing
*labels* — a per-(context, candidate) test that costs O(|ctx| · |cand|)
regardless of how few pairs actually match.  The XPath-Accelerator design
(Grust; see ROADMAP "Query accelerator") observes that plain integer
columns turn every axis into a *contiguous range* of the preorder rank.
Every :class:`~repro.query.store.ElementRow` carries two of them:

* ``pre``  — preorder rank within the document (0 = the root),
* ``size`` — subtree size including the node itself,

next to its ``depth``.  ``end = pre + size - 1`` is the last rank of the
subtree and ``post = end - depth`` the postorder rank (descendants +
preceding precede a node in postorder; ancestors + preceding precede it
in preorder); both are derived, so maintenance only ever moves ``pre``
and ``size``.  The descendants of a context node ``c`` are exactly the
nodes with ``pre(c) < pre <= end(c)``; following nodes start at
``end(c) + 1``; children are the descendants one level down.

:class:`DocWindow` is the store's one index per document: the rows in
preorder (``by_pre``) plus per-tag row lists sorted by ``pre``, so an
axis window becomes two binary searches (:mod:`bisect`) into the tag's
list.  A tree-built store fills it in the walk that makes the rows, and a
published copy takes the writer's lists row by row, columns and all; only
rows of other provenance are numbered by :meth:`DocWindow.number`, which
refuses rows that are not a preorder.  It is
*incrementally maintained*: order-sensitive insertion shifts
the ``pre`` of the rows after the insertion point (exactly the nodes
whose SC records the paper's update algorithm rewrites) and bumps
ancestor sizes; subtree deletion removes a contiguous ``by_pre`` slice.
The maintainers live here but may only be *called* from the store/live
layer — rule R11 in :mod:`repro.analysis.rules` enforces that
containment.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.errors import QueryEvaluationError
from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a store cycle
    from repro.query.store import ElementRow

__all__ = ["DocWindow"]


def _pre_of(row: "ElementRow") -> int:
    return row.pre


def _not_preorder(row: "ElementRow", fault: str) -> QueryEvaluationError:
    return QueryEvaluationError(
        f"doc {row.doc_id}: rows are not a preorder (row {row.element_id}: {fault})"
    )


class DocWindow:
    """One document's rows in preorder and its per-tag pre-sorted lists.

    Stores built from trees (and their published copies) fill the lists
    and columns directly, already in preorder.  Rows of other provenance
    are put in ``by_pre`` in input order and numbered by :meth:`number`,
    which refuses a stream that is not a preorder.
    """

    __slots__ = ("by_pre", "by_tag")

    def __init__(self) -> None:
        self.by_pre: List["ElementRow"] = []
        self.by_tag: Dict[str, List["ElementRow"]] = {}

    def number(self) -> None:
        """Assign ``pre``/``size`` in one depth-stack sweep over ``by_pre``.

        The sweep for rows that did not come from a tree walk (a loaded
        file, a hand-assembled store); a tree-built store knows its
        columns already.

        Raises :class:`QueryEvaluationError` when the rows are not a
        consistent preorder (a depth jump, a parent link that disagrees
        with the nesting, or a second root): window columns over them
        would answer wrongly.
        """
        stack: List["ElementRow"] = []
        for pre, row in enumerate(self.by_pre):
            depth = row.depth
            while stack and stack[-1].depth >= depth:
                top = stack.pop()
                top.size = pre - top.pre
            if depth > 0:
                if not stack or stack[-1].depth != depth - 1:
                    raise _not_preorder(row, "depth jump")
                if row.parent_id is not None and stack[-1].element_id != row.parent_id:
                    raise _not_preorder(row, "parent link disagrees with nesting")
            elif stack or pre != 0:
                raise _not_preorder(row, "a second root")
            row.pre = pre
            stack.append(row)
        total = len(self.by_pre)
        while stack:
            top = stack.pop()
            top.size = total - top.pre

    def tag_entries(self, tag: str) -> List["ElementRow"]:
        """Rows with ``tag``, sorted by ``pre`` (``*`` = every row)."""
        if tag == "*":
            return self.by_pre
        return self.by_tag.get(tag, [])

    def range_in(
        self, rows: List["ElementRow"], first_pre: int, last_pre: int
    ) -> List["ElementRow"]:
        """Rows whose ``pre`` lies in ``[first_pre, last_pre]``.

        Two binary searches — this is the "window" of the accelerator: the
        caller never touches rows outside the range.
        """
        lo = bisect_left(rows, first_pre, key=_pre_of)
        hi = bisect_right(rows, last_pre, key=_pre_of)
        return rows[lo:hi]

    def __len__(self) -> int:
        return len(self.by_pre)

    # ------------------------------------------------------------------
    # Incremental maintenance (store/live layer only — rule R11)
    # ------------------------------------------------------------------

    def apply_insert(
        self,
        row: "ElementRow",
        parent: "ElementRow",
        previous_sibling: Optional["ElementRow"],
        rows_by_id: Mapping[int, "ElementRow"],
    ) -> None:
        """Index one freshly inserted leaf row.

        ``pre`` of the new node is its parent's ``pre`` plus one when it
        became the first child, else its previous sibling's subtree end
        plus one.  Everything after the insertion point shifts ``pre`` by
        one (the same node set whose SC records the paper's Section 4.2
        update rewrites); ancestors, found through ``rows_by_id``, gain
        one unit of ``size``.
        """
        if previous_sibling is None:
            pre = parent.pre + 1
        else:
            pre = previous_sibling.pre + previous_sibling.size
        row.pre, row.size = pre, 1
        by_pre = self.by_pre
        for position in range(pre, len(by_pre)):
            by_pre[position].pre += 1
        ancestor: Optional["ElementRow"] = parent
        while ancestor is not None:
            ancestor.size += 1
            parent_id = ancestor.parent_id
            ancestor = rows_by_id[parent_id] if parent_id is not None else None
        by_pre.insert(pre, row)
        bucket = self.by_tag.setdefault(row.tag, [])
        bucket.insert(bisect_left(bucket, pre, key=_pre_of), row)
        metrics.incr("window.inserts")
        metrics.incr("window.entries_shifted", len(by_pre) - pre - 1)

    def apply_delete(
        self, row: "ElementRow", rows_by_id: Mapping[int, "ElementRow"]
    ) -> List["ElementRow"]:
        """Drop ``row``'s whole subtree; returns the removed rows in preorder.

        The subtree is one contiguous ``by_pre`` slice; the tail shifts
        left by the subtree size and ancestors shrink by it.  The caller
        (the store) drops the returned rows from its id/node maps.
        """
        pre, size = row.pre, row.size
        by_pre, by_tag = self.by_pre, self.by_tag
        removed = by_pre[pre : pre + size]
        # De-index the removed rows while their pre values still match the
        # tag lists' sort order.
        for gone in removed:
            bucket = by_tag[gone.tag]
            bucket.pop(bisect_left(bucket, gone.pre, key=_pre_of))
            if not bucket:
                del by_tag[gone.tag]
        del by_pre[pre : pre + size]
        for position in range(pre, len(by_pre)):
            by_pre[position].pre -= size
        parent_id = row.parent_id
        while parent_id is not None:
            ancestor = rows_by_id[parent_id]
            ancestor.size -= size
            parent_id = ancestor.parent_id
        metrics.incr("window.deletes")
        metrics.incr("window.entries_shifted", len(by_pre) - pre)
        return removed
