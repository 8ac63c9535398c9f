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

Every predicate of the label-comparison strategies goes through the
store's :class:`~repro.query.store.StoreOps`; the ``window`` strategy
instead reads the store's pre/post accelerator columns
(:mod:`repro.query.window`) and the ``twig`` strategy hands eligible
queries whole to the tree-pattern matcher (:mod:`repro.query.twig`).
All strategies return identical rows in identical order; ``auto`` lets
the cost model (:mod:`repro.query.planner`) pick per step.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import QueryEvaluationError
from repro.obs import metrics
from repro.query.ast import Axis, Query, Step
from repro.query.planner import Planner, QueryPlan, StepChoice
from repro.query.store import ElementRow, LabelStore
from repro.query.window import DocWindow
from repro.query.xpath import parse_query

__all__ = ["QueryEngine"]

_STRATEGIES = ("scan", "merge", "window", "twig", "auto")


class QueryEngine:
    """Evaluates parsed queries (or query text) against one label store.

    ``strategy`` selects how structural steps execute:

    * ``"scan"`` — per-context tag-index scans, one label test per
      (context, candidate) pair; the paper's relational evaluation,
      robust, O(|ctx| · |cand|).
    * ``"merge"`` — a stack-based sort-merge over both sides in document
      order (the Stack-Tree join generalized over any scheme's ancestor
      test), O(|ctx| + |cand| + |out|) per document.  Steps the merge
      cannot handle (order axes, positional predicates) fall back to the
      scan path, so results are always identical.
    * ``"window"`` — binary-searched pre/post range windows over the
      store's accelerator columns; every axis, O(|ctx| · log |cand| +
      |out|), no order-key computation.  Falls back to scan when the
      store's rows carry no valid window columns.
    * ``"twig"`` — pure structural chains are handed whole to the
      tree-pattern matcher; anything else falls back to scan.
    * ``"auto"`` (default) — the cost model picks among the above per
      step from store statistics and the live context size.

    After each :meth:`evaluate` the chosen route is readable from
    :attr:`last_plan` (the CLI's ``--explain`` prints it) and counted in
    the ``planner.pick.<strategy>`` metrics.
    """

    def __init__(self, store: LabelStore, strategy: str = "auto"):
        if strategy not in _STRATEGIES:
            raise QueryEvaluationError(
                f"unknown strategy {strategy!r}; choose from {', '.join(_STRATEGIES)}"
            )
        self.store = store
        self.strategy = strategy
        self.planner = Planner()
        self.last_plan: Optional[QueryPlan] = None

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
        plan = QueryPlan(strategy=self.strategy)
        self.last_plan = plan
        with metrics.timed("query.evaluate"):
            context = self._maybe_evaluate_twig(query, doc_ids, plan)
            if context is None:
                context = self._seed_context(query.steps[0], doc_ids)
                for step in query.steps[1:]:
                    choice = self._choose_step_strategy(step, len(context))
                    plan.record(choice)
                    metrics.incr(f"planner.pick.{choice.strategy}")
                    context = self._apply_step(context, step, choice.strategy)
            metrics.incr("query.evaluations")
            metrics.incr("query.rows_returned", len(context))
        return context

    def count(self, query: Query | str) -> int:
        """Number of nodes retrieved — the metric of Table 2."""
        return len(self.evaluate(query))

    def explain(self, query: Query | str) -> str:
        """Evaluate ``query`` and render the route it took (``--explain``)."""
        self.evaluate(query)
        assert self.last_plan is not None
        return self.last_plan.describe()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _choose_step_strategy(self, step: Step, context_size: int) -> StepChoice:
        """Resolve one step's physical operator under the engine strategy.

        Fixed strategies degrade to ``scan`` where they do not apply
        (merge on order axes or positions, window without valid columns), so
        every strategy answers every query identically.
        """
        windows_ok = self.store.windowed
        if self.strategy == "auto" and windows_ok:
            return self.planner.plan_step(self.store.statistics(), step, context_size)
        if self.strategy == "merge" and (
            step.axis in (Axis.CHILD, Axis.DESCENDANT) and step.position is None
        ):
            picked = "merge"
        elif self.strategy == "window" and windows_ok:
            picked = "window"
        elif self.strategy == "auto":
            # No window columns: the label strategies are all that is left,
            # and the planner's estimates still arbitrate scan vs merge.
            choice = self.planner.plan_step(self.store.statistics(), step, context_size)
            picked = choice.strategy
        else:
            picked = "scan"
        return StepChoice(
            axis=step.axis.value,
            tag=step.tag,
            strategy=picked,
            context_size=context_size,
        )

    def _maybe_evaluate_twig(
        self,
        query: Query,
        doc_ids: "set[int] | None",
        plan: QueryPlan,
    ) -> Optional[List[ElementRow]]:
        """Run the whole-query twig route when chosen; None = step route.

        The twig matcher needs real labeled tree nodes plus each
        document's scheme, so stores loaded from disk (placeholder nodes,
        SC-table-only order holders) return None and take the step route.
        """
        if not self.planner.twig_eligible(query) or len(query.steps) < 2:
            return None
        if self.strategy == "auto":
            stats = self.store.statistics()
            if self.planner.twig_cost(stats, query) >= self.planner.chain_cost(
                stats, query
            ):
                return None
        elif self.strategy != "twig":
            return None
        result = self._evaluate_twig(query, doc_ids)
        if result is not None:
            plan.twig = "//".join(step.tag for step in query.steps)
            metrics.incr("planner.pick.twig")
        return result

    def _evaluate_twig(
        self, query: Query, doc_ids: "set[int] | None"
    ) -> Optional[List[ElementRow]]:
        """One bottom-up tree-pattern pass per document (or None if the
        store cannot support it)."""
        from repro.query.twig import TwigNode, TwigPattern, match_twig

        root = TwigNode(tag=query.steps[0].tag, edge="descendant")
        tail = root
        for step in query.steps[1:]:
            tail = tail.add(
                TwigNode(
                    tag=step.tag,
                    edge="child" if step.axis is Axis.CHILD else "descendant",
                )
            )
        pattern = TwigPattern(root=root, output=tail)
        ordered = self.store.ordered_documents()
        selected = [
            doc_id
            for doc_id in self.store.doc_ids
            if doc_ids is None or doc_id in doc_ids
        ]
        results: List[ElementRow] = []
        with metrics.timed("query.op.twig"):
            for doc_id in selected:
                scheme = getattr(ordered.get(doc_id), "scheme", None)
                if scheme is None:
                    return None
                rows = self.store.rows_in_doc(doc_id)
                metrics.incr("query.nodes_scanned", len(rows))
                matched = match_twig(scheme, [row.node for row in rows], pattern)
                doc_rows = []
                for node in matched:
                    row = self.store.row_of(node)
                    if row is None:
                        return None  # labels and table disagree; be safe
                    doc_rows.append(row)
                results.extend(self._sorted_in_doc_order(doc_rows))
            metrics.incr("query.nodes_emitted", len(results))
        return results

    def _sorted_in_doc_order(self, rows: List[ElementRow]) -> List[ElementRow]:
        """Rows sorted into document order, via pre ranks when available."""
        if self.store.windowed:
            return sorted(rows, key=lambda row: row.pre)
        ops = self.store.ops
        return sorted(rows, key=ops.order_key)

    # ------------------------------------------------------------------
    # Step machinery
    # ------------------------------------------------------------------

    def _seed_context(
        self, step: Step, doc_ids: "set[int] | None" = None
    ) -> List[ElementRow]:
        if step.axis not in (Axis.CHILD, Axis.DESCENDANT):
            raise QueryEvaluationError(
                f"a query cannot start with the {step.axis.value} axis"
            )
        if doc_ids is not None and not isinstance(doc_ids, (set, frozenset)):
            doc_ids = set(doc_ids)
        ops = self.store.ops
        results: List[ElementRow] = []
        selected = self.store.doc_ids if doc_ids is None else [
            doc_id for doc_id in self.store.doc_ids if doc_id in doc_ids
        ]
        # A windowed store's per-tag lists are already in document order;
        # the label strategies instead pay the scheme's order-key sort
        # (for prime: the paper's SC-table overhead).
        use_windows = self.store.windowed and self.strategy in ("window", "auto")
        with metrics.timed("query.op.seed"):
            for doc_id in selected:
                matches = self.store.rows_with_tag(doc_id, step.tag)
                if not use_windows:
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

    def _apply_step(
        self, context: List[ElementRow], step: Step, picked: Optional[str] = None
    ) -> List[ElementRow]:
        if picked is None:
            picked = self._choose_step_strategy(step, len(context)).strategy
        if picked == "merge":
            return self._apply_structural_merge(context, step)
        if picked == "window" and self.store.windowed:
            return self._apply_window_step(context, step)
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
    # Window strategy: binary-searched pre/post range windows
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
    # Merge strategy: stack-based structural join per document
    # ------------------------------------------------------------------

    def _apply_structural_merge(
        self, context: List[ElementRow], step: Step
    ) -> List[ElementRow]:
        """One sort-merge pass per document over (context, candidates).

        Both sides are walked in document order with a stack of *open*
        context ancestors: because subtrees are contiguous in document
        order, a stack top that fails the ancestor test against the current
        item has closed and can be popped — the Stack-Tree invariant,
        expressed through any scheme's label-only ancestor test.
        """
        from itertools import groupby

        ops = self.store.ops
        with metrics.timed("query.op.merge"):
            return self._structural_merge_pass(context, step, ops, groupby)

    def _structural_merge_pass(
        self, context: List[ElementRow], step: Step, ops: Any, groupby: Callable
    ) -> List[ElementRow]:
        """The timed body of :meth:`_apply_structural_merge`."""
        ordered_context = sorted(
            context, key=lambda row: (row.doc_id, ops.order_key(row))
        )
        results: List[ElementRow] = []
        for doc_id, group in groupby(ordered_context, key=lambda row: row.doc_id):
            ctx_rows = list(group)
            candidates = sorted(
                self.store.rows_with_tag(doc_id, step.tag), key=ops.order_key
            )
            metrics.incr("query.nodes_scanned", len(candidates))
            stack: List[ElementRow] = []
            push_index = 0
            for candidate in candidates:
                candidate_order = ops.order_key(candidate)
                while (
                    push_index < len(ctx_rows)
                    and ops.order_key(ctx_rows[push_index]) < candidate_order
                ):
                    entering = ctx_rows[push_index]
                    while stack and not ops.is_ancestor(stack[-1], entering):
                        stack.pop()
                    stack.append(entering)
                    push_index += 1
                while stack and not ops.is_ancestor(stack[-1], candidate):
                    stack.pop()
                if not stack:
                    continue
                if step.axis is Axis.CHILD:
                    # the stack is an ancestor chain with strictly increasing
                    # depths; the candidate's parent is on it iff some entry
                    # sits exactly one level up
                    if not any(
                        entry.depth == candidate.depth - 1 for entry in stack
                    ):
                        continue
                if step.text is not None and candidate.text != step.text:
                    continue
                results.append(candidate)
        metrics.incr("query.nodes_emitted", len(results))
        return results

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
