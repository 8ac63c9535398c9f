"""Set-at-a-time query evaluation over a :class:`~repro.query.store.LabelStore`.

Semantics (documented divergences from full XPath are deliberate and match
how the paper's own SQL translation behaves):

* The **first step** matches elements with its tag at any depth of each
  document (the paper writes ``/act[5]`` although ``act`` is never a root).
* ``tag[n]`` keeps, per context node (per document for the first step), the
  n-th match in document order — the strategy of Section 4.3 ("the author
  nodes are sorted first according to their order numbers; finally, we
  return the author node that is in the second position").
* ``Following``/``Preceding`` are scoped to the context node's document and
  exclude descendants/ancestors respectively, per the paper's definitions.

Two evaluation paths answer every query with identical rows in identical
order.  The label-comparison path tests every predicate through the
store's :class:`~repro.query.store.StoreOps` and takes document order from
the labels (for prime: the SC table), as the paper's Section 4.3 SQL
translation does; the window path reads the store's pre/post accelerator
columns (:mod:`repro.query.window`) instead.  ``scan`` pins the first;
``auto`` takes the second (every store carries the columns).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import QueryEvaluationError
from repro.obs import metrics
from repro.query.ast import Axis, Query, Step
from repro.query.store import ElementRow, LabelStore
from repro.query.window import DocWindow
from repro.query.xpath import parse_query

__all__ = ["RETIRED_STRATEGIES", "QueryEngine", "check_strategy", "upgrade_strategy"]

_STRATEGIES = ("scan", "auto")
# Strategy names older releases accepted and persisted in snapshots and
# shard manifests.  Every strategy returns the same rows, so a persisted
# retired name restores as ``auto``.
RETIRED_STRATEGIES = ("merge", "window", "twig")


def check_strategy(strategy: str) -> str:
    """Return ``strategy`` if the engine accepts it; raise otherwise."""
    if strategy not in _STRATEGIES:
        raise QueryEvaluationError(
            f"unknown strategy {strategy!r}; choose from {', '.join(_STRATEGIES)}"
        )
    return strategy


def upgrade_strategy(strategy: str) -> str:
    """A persisted strategy name as the engine accepts it today.

    Retired names map to ``auto``; anything else goes through
    :func:`check_strategy`.
    """
    return "auto" if strategy in RETIRED_STRATEGIES else check_strategy(strategy)


class QueryEngine:
    """Evaluates parsed queries (or query text) against one label store.

    ``strategy`` selects how structural steps execute:

    * ``"scan"`` — per-context tag-index scans, one label test per
      (context, candidate) pair, document order from the labels; the
      paper's relational evaluation, O(|ctx| · |cand|).
    * ``"auto"`` (default) — binary-searched pre/post range windows over
      the store's accelerator columns (every axis, O(|ctx| · log |cand|
      + |out|), no order-key computation).

    Each step counts its path in ``planner.pick.window`` or
    ``planner.pick.scan``.
    """

    def __init__(self, store: LabelStore, strategy: str = "auto"):
        self.store = store
        self.strategy = check_strategy(strategy)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def evaluate(
        self, query: Query | str, doc_ids: "list[int] | set[int] | None" = None
    ) -> List[ElementRow]:
        """Evaluate ``query``; returns matching rows in document order.

        ``doc_ids`` optionally restricts evaluation to a subset of the
        collection (used by the DataGuide pre-filter).
        """
        if isinstance(query, str):
            query = parse_query(query)
        if not query.steps:
            raise QueryEvaluationError("query has no steps")
        # Normalize once: membership below is per-document, and callers
        # may hand us a large list (the DataGuide pre-filter does).
        if doc_ids is not None and not isinstance(doc_ids, (set, frozenset)):
            doc_ids = set(doc_ids)
        windows = self.strategy == "auto"
        pick = "planner.pick.window" if windows else "planner.pick.scan"
        with metrics.timed("query.evaluate"):
            context = self._seed_context(query.steps[0], doc_ids, windows)
            for step in query.steps[1:]:
                metrics.incr(pick)
                if windows:
                    context = self._apply_window_step(context, step)
                else:
                    context = self._apply_scan_step(context, step)
            metrics.incr("query.evaluations")
            metrics.incr("query.rows_returned", len(context))
        return context

    def count(self, query: Query | str) -> int:
        """Number of nodes retrieved — the metric of Table 2."""
        return len(self.evaluate(query))

    # ------------------------------------------------------------------
    # Step machinery
    # ------------------------------------------------------------------

    def _seed_context(
        self, step: Step, doc_ids: "set[int] | None", windows: bool
    ) -> List[ElementRow]:
        if step.axis not in (Axis.CHILD, Axis.DESCENDANT):
            raise QueryEvaluationError(
                f"a query cannot start with the {step.axis.value} axis"
            )
        ops = self.store.ops
        results: List[ElementRow] = []
        selected = self.store.doc_ids if doc_ids is None else [
            doc_id for doc_id in self.store.doc_ids if doc_id in doc_ids
        ]
        # The store's per-tag lists are already in document order;
        # the scan path instead pays the scheme's order-key sort (for
        # prime: the paper's SC-table overhead).
        with metrics.timed("query.op.seed"):
            for doc_id in selected:
                matches = self.store.rows_with_tag(doc_id, step.tag)
                if not windows:
                    matches = sorted(matches, key=ops.order_key)
                metrics.incr("query.nodes_scanned", len(matches))
                if step.position is not None:
                    matches = (
                        [matches[step.position - 1]] if len(matches) >= step.position else []
                    )
                # Text filters apply AFTER position: the paper's
                # `book/author[2]/"John"` asks whether the *second* author is
                # John, not for the second John-named author.
                if step.text is not None:
                    matches = [row for row in matches if row.text == step.text]
                results.extend(matches)
            metrics.incr("query.nodes_emitted", len(results))
        return results

    _ORDER_AXES = (
        Axis.FOLLOWING,
        Axis.PRECEDING,
        Axis.FOLLOWING_SIBLING,
        Axis.PRECEDING_SIBLING,
    )

    def _apply_scan_step(
        self, context: List[ElementRow], step: Step
    ) -> List[ElementRow]:
        """One step by label comparisons: the paper's relational evaluation."""
        ops = self.store.ops
        expanded = step.from_descendants and step.axis in self._ORDER_AXES
        predicate = None if expanded else self._axis_predicate(step.axis)
        collected: List[ElementRow] = []
        seen: set[int] = set()
        with metrics.timed(f"query.op.{step.axis.value}"):
            for context_row in context:
                candidates = self.store.rows_with_tag(context_row.doc_id, step.tag)
                metrics.incr("query.nodes_scanned", len(candidates))
                if expanded:
                    matches = self._expanded_axis_matches(context_row, step.axis, candidates)
                else:
                    matches = [row for row in candidates if predicate(context_row, row)]
                matches.sort(key=ops.order_key)
                if step.position is not None:
                    matches = (
                        [matches[step.position - 1]] if len(matches) >= step.position else []
                    )
                # After position, matching the paper's `author[2]/"John"`.
                if step.text is not None:
                    matches = [row for row in matches if row.text == step.text]
                for row in matches:
                    if row.element_id not in seen:
                        seen.add(row.element_id)
                        collected.append(row)
            collected.sort(key=lambda row: (row.doc_id, ops.order_key(row)))
            metrics.incr("query.nodes_emitted", len(collected))
        return collected

    # ------------------------------------------------------------------
    # Window path: binary-searched pre/post range windows
    # ------------------------------------------------------------------

    def _apply_window_step(
        self, context: List[ElementRow], step: Step
    ) -> List[ElementRow]:
        """One step through the accelerator columns.

        Each context row's matches come out of a bisected slice of the
        per-(doc, tag) pre-sorted list — already in document order, so no
        order keys are ever computed; the final cross-context sort uses
        the ``(doc_id, pre)`` pair, which realizes the same document
        order as the schemes' order keys.
        """
        collected: List[ElementRow] = []
        seen: set[int] = set()
        with metrics.timed(f"query.op.window.{step.axis.value}"):
            for context_row in context:
                doc = self.store.doc_window(context_row.doc_id)
                if doc is None:
                    continue
                matches = self._window_axis_rows(doc, context_row, step)
                metrics.incr("query.nodes_scanned", len(matches))
                if step.position is not None:
                    matches = (
                        [matches[step.position - 1]]
                        if len(matches) >= step.position
                        else []
                    )
                # After position, matching the paper's `author[2]/"John"`.
                if step.text is not None:
                    matches = [row for row in matches if row.text == step.text]
                for row in matches:
                    if row.element_id not in seen:
                        seen.add(row.element_id)
                        collected.append(row)
            collected.sort(key=lambda row: (row.doc_id, row.pre))
            metrics.incr("query.nodes_emitted", len(collected))
        return collected

    def _window_axis_rows(
        self, doc: DocWindow, context_row: ElementRow, step: Step
    ) -> List[ElementRow]:
        """The axis window for one context row, sorted by ``pre``.

        Range bounds per axis (0-based dense pre ranks; ``end`` is the
        last pre of a subtree):

        * descendant: ``(pre, end]`` of the context;
        * child: the same window, filtered one level down;
        * following: suffix from ``end + 1`` (expanded: after the
          leftmost-spine leaf — "following of any descendant-or-self");
        * preceding: prefix before ``pre`` minus ancestors (expanded:
          before ``end`` minus ancestors and the rightmost spine);
        * siblings: the parent's window, filtered by ``parent_id``
          (expanded: per-parent extreme pre over the whole subtree);
        * parent/ancestor: ``parent_id`` chain walks, O(depth).
        """
        row_with_id = self.store.row_with_id
        tag_list = doc.tag_entries(step.tag)
        last_pre = len(doc) - 1
        axis = step.axis
        expanded = step.from_descendants and axis in self._ORDER_AXES

        if axis is Axis.DESCENDANT:
            return doc.range_in(tag_list, context_row.pre + 1, context_row.end)
        if axis is Axis.CHILD:
            window = doc.range_in(tag_list, context_row.pre + 1, context_row.end)
            return [r for r in window if r.depth == context_row.depth + 1]
        if axis is Axis.PARENT:
            if context_row.parent_id is None:
                return []
            parent = row_with_id(context_row.parent_id)
            return [parent] if step.tag in ("*", parent.tag) else []
        if axis is Axis.ANCESTOR:
            chain: List[ElementRow] = []
            parent_id = context_row.parent_id
            while parent_id is not None:
                ancestor = row_with_id(parent_id)
                if step.tag in ("*", ancestor.tag):
                    chain.append(ancestor)
                parent_id = ancestor.parent_id
            chain.reverse()  # collected leaf-ward; document order is root-ward
            return chain
        if axis is Axis.FOLLOWING:
            if expanded:
                spine = context_row  # descend first children to the leftmost leaf
                while spine.size > 1:
                    spine = doc.by_pre[spine.pre + 1]
                return doc.range_in(tag_list, spine.pre + 1, last_pre)
            return doc.range_in(tag_list, context_row.end + 1, last_pre)
        if axis is Axis.PRECEDING:
            if expanded:
                prefix = doc.range_in(tag_list, 0, context_row.end - 1)
                return [
                    r
                    for r in prefix
                    # not on the subtree's rightmost spine ...
                    if not (r.pre >= context_row.pre and r.end == context_row.end)
                    # ... and not a proper ancestor of the context
                    and not (r.pre < context_row.pre <= r.end)
                ]
            prefix = doc.range_in(tag_list, 0, context_row.pre - 1)
            return [r for r in prefix if r.end < context_row.pre]
        # Sibling axes.
        if expanded:
            extreme: Dict[int, int] = {}
            want_min = axis is Axis.FOLLOWING_SIBLING
            for member in doc.by_pre[context_row.pre : context_row.end + 1]:
                parent_id = member.parent_id
                if parent_id is None:
                    continue  # a document root has no siblings
                best = extreme.get(parent_id)
                if best is None or (
                    member.pre < best if want_min else member.pre > best
                ):
                    extreme[parent_id] = member.pre
            if context_row.parent_id is not None:
                parent = row_with_id(context_row.parent_id)
                lo, hi = parent.pre + 1, parent.end
            else:
                lo, hi = context_row.pre + 1, context_row.end
            window = doc.range_in(tag_list, lo, hi)
            if want_min:
                return [
                    r
                    for r in window
                    if r.parent_id in extreme and r.pre > extreme[r.parent_id]
                ]
            return [
                r
                for r in window
                if r.parent_id in extreme and r.pre < extreme[r.parent_id]
            ]
        if context_row.parent_id is None:
            return []
        parent = row_with_id(context_row.parent_id)
        if axis is Axis.FOLLOWING_SIBLING:
            window = doc.range_in(tag_list, context_row.end + 1, parent.end)
        else:
            window = doc.range_in(tag_list, parent.pre + 1, context_row.pre - 1)
        return [r for r in window if r.parent_id == context_row.parent_id]

    # ------------------------------------------------------------------
    # `context//axis::tag` — descendant-or-self expansion before the axis
    # ------------------------------------------------------------------

    def _expanded_axis_matches(
        self, context_row: ElementRow, axis: Axis, candidates: List[ElementRow]
    ) -> List[ElementRow]:
        """Union of ``axis`` over every descendant-or-self of the context.

        Uses closed-form characterizations instead of materializing the
        per-descendant unions:

        * following: everything ordered after the context's *leftmost spine*
          end (the first node whose subtree closes);
        * preceding: everything before the subtree's last node, except the
          context's ancestors and the subtree's *rightmost spine*;
        * sibling axes: candidates sharing a parent with any subtree node,
          on the correct side of that sibling group's extreme order.
        """
        ops = self.store.ops
        subtree = [context_row] + [
            row
            for row in self.store.rows_in_doc(context_row.doc_id)
            if ops.is_ancestor(context_row, row)
        ]
        orders = {id(row): ops.order_key(row) for row in subtree}
        children_of: Dict[object, List[ElementRow]] = {}
        for row in subtree:
            # A document root's parent key can equal its own node key (the
            # prime scheme's root has label 1 and parent-label 1); skip the
            # self-edge or the spine walks below would never terminate.
            if ops.parent_key(row) == ops.node_key(row):
                continue
            children_of.setdefault(ops.parent_key(row), []).append(row)

        def spine_end(pick_extreme: Callable) -> ElementRow:
            node = context_row
            while True:
                children = children_of.get(ops.node_key(node))
                if not children:
                    return node
                node = pick_extreme(children, key=lambda r: orders[id(r)])

        if axis is Axis.FOLLOWING:
            threshold = orders[id(spine_end(min))]
            return [row for row in candidates if ops.order_key(row) > threshold]
        if axis is Axis.PRECEDING:
            last = max(subtree, key=lambda r: orders[id(r)])
            right_spine_ids = set()
            node = context_row
            while True:
                right_spine_ids.add(id(node))
                children = children_of.get(ops.node_key(node))
                if not children:
                    break
                node = max(children, key=lambda r: orders[id(r)])
            boundary = orders[id(last)]
            return [
                row
                for row in candidates
                if ops.order_key(row) < boundary
                and id(row) not in right_spine_ids
                and not ops.is_ancestor(row, context_row)
            ]
        # Sibling axes: group the subtree by parent and compare against the
        # group's extreme order.
        extreme: Dict[object, object] = {}
        for row in subtree:
            if ops.parent_key(row) == ops.node_key(row):
                continue  # a document root has no siblings (see above)
            key = ops.parent_key(row)
            order = orders[id(row)]
            if key not in extreme:
                extreme[key] = order
            elif axis is Axis.FOLLOWING_SIBLING:
                extreme[key] = min(extreme[key], order)
            else:
                extreme[key] = max(extreme[key], order)
        if axis is Axis.FOLLOWING_SIBLING:
            return [
                row
                for row in candidates
                if ops.parent_key(row) != ops.node_key(row)  # roots: no siblings
                and ops.parent_key(row) in extreme
                and ops.order_key(row) > extreme[ops.parent_key(row)]
            ]
        return [
            row
            for row in candidates
            if ops.parent_key(row) != ops.node_key(row)
            and ops.parent_key(row) in extreme
            and ops.order_key(row) < extreme[ops.parent_key(row)]
        ]

    def _axis_predicate(
        self, axis: Axis
    ) -> Callable[[ElementRow, ElementRow], bool]:
        ops = self.store.ops
        predicates: Dict[Axis, Callable[[ElementRow, ElementRow], bool]] = {
            Axis.CHILD: lambda c, r: ops.is_parent(c, r),
            Axis.DESCENDANT: lambda c, r: ops.is_ancestor(c, r),
            Axis.PARENT: lambda c, r: ops.is_parent(r, c),
            Axis.ANCESTOR: lambda c, r: ops.is_ancestor(r, c),
            Axis.FOLLOWING: lambda c, r: (
                ops.order_key(r) > ops.order_key(c) and not ops.is_ancestor(c, r)
            ),
            Axis.PRECEDING: lambda c, r: (
                ops.order_key(r) < ops.order_key(c) and not ops.is_ancestor(r, c)
            ),
            Axis.FOLLOWING_SIBLING: lambda c, r: (
                ops.same_parent(c, r) and ops.order_key(r) > ops.order_key(c)
            ),
            Axis.PRECEDING_SIBLING: lambda c, r: (
                ops.same_parent(c, r) and ops.order_key(r) < ops.order_key(c)
            ),
        }
        return predicates[axis]
