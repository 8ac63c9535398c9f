"""Reference query evaluation by direct tree traversal (no labels).

The label-store engine (:mod:`repro.query.engine`) must return exactly
what a plain tree walk would — that is what "deterministic" labeling
means.  :class:`NaiveEvaluator` implements the same query semantics over
parent/child pointers and document positions, with no labels anywhere.
It is intentionally simple and obviously correct; the property tests pit
the engine (all three schemes, both paths) against it on random
documents and queries.

It is shipped (rather than buried in the tests) because it is also the
honest baseline for *why labeling schemes exist*: compare its per-query
wall time against the label stores on anything non-trivial.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.errors import QueryEvaluationError
from repro.query.ast import Axis, Query, Step
from repro.query.xpath import parse_query
from repro.xmlkit.tree import XmlElement

__all__ = ["NaiveEvaluator"]


class NaiveEvaluator:
    """Evaluates the XPath subset by walking the document trees."""

    def __init__(self, documents: Sequence[XmlElement]):
        if not documents:
            raise QueryEvaluationError("cannot evaluate over zero documents")
        self.documents = list(documents)
        #: (doc index, preorder position) per node — document order, no labels
        self._position: Dict[int, tuple] = {}
        for doc_id, root in enumerate(self.documents):
            for position, node in enumerate(root.iter_preorder()):
                self._position[id(node)] = (doc_id, position)

    # ------------------------------------------------------------------
    # Public API (mirrors QueryEngine)
    # ------------------------------------------------------------------

    def evaluate(self, query: Query | str) -> List[XmlElement]:
        """Evaluate ``query``; returns matching elements in document order."""
        if isinstance(query, str):
            query = parse_query(query)
        if not query.steps:
            raise QueryEvaluationError("query has no steps")
        context = self._seed(query.steps[0])
        for step in query.steps[1:]:
            context = self._apply(context, step)
        return context

    def count(self, query: Query | str) -> int:
        """Number of elements retrieved."""
        return len(self.evaluate(query))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _order(self, node: XmlElement) -> tuple:
        return self._position[id(node)]

    def _matches_tag(self, node: XmlElement, tag: str) -> bool:
        return tag == "*" or node.tag == tag

    def _seed(self, step: Step) -> List[XmlElement]:
        if step.axis not in (Axis.CHILD, Axis.DESCENDANT):
            raise QueryEvaluationError(
                f"a query cannot start with the {step.axis.value} axis"
            )
        results: List[XmlElement] = []
        for root in self.documents:
            matches = [
                node for node in root.iter_preorder()
                if self._matches_tag(node, step.tag)
            ]
            if step.position is not None:
                matches = (
                    [matches[step.position - 1]] if len(matches) >= step.position else []
                )
            if step.text is not None:
                matches = [node for node in matches if node.text == step.text]
            results.extend(matches)
        return results

    def _document_nodes(self, context: XmlElement) -> List[XmlElement]:
        doc_id, _position = self._order(context)
        return list(self.documents[doc_id].iter_preorder())

    def _axis_nodes(self, context: XmlElement, step: Step) -> List[XmlElement]:
        if step.axis is Axis.CHILD:
            return list(context.children)
        if step.axis is Axis.DESCENDANT:
            return list(context.iter_descendants())
        if step.axis is Axis.PARENT:
            return [context.parent] if context.parent is not None else []
        if step.axis is Axis.ANCESTOR:
            ancestors = []
            cursor = context.parent
            while cursor is not None:
                ancestors.append(cursor)
                cursor = cursor.parent
            ancestors.reverse()
            return ancestors
        bases = (
            [context] + list(context.iter_descendants())
            if step.from_descendants
            else [context]
        )
        collected: Dict[int, XmlElement] = {}
        for base in bases:
            for node in self._order_axis(base, step.axis):
                collected[id(node)] = node
        return sorted(collected.values(), key=self._order)

    def _order_axis(self, base: XmlElement, axis: Axis) -> List[XmlElement]:
        pivot = self._order(base)
        if axis is Axis.FOLLOWING:
            return [
                node
                for node in self._document_nodes(base)
                if self._order(node) > pivot and not base.is_ancestor_of(node)
            ]
        if axis is Axis.PRECEDING:
            return [
                node
                for node in self._document_nodes(base)
                if self._order(node) < pivot and not node.is_ancestor_of(base)
            ]
        if base.parent is None:
            return []
        siblings = [node for node in base.parent.children if node is not base]
        if axis is Axis.FOLLOWING_SIBLING:
            return [node for node in siblings if self._order(node) > pivot]
        if axis is Axis.PRECEDING_SIBLING:
            return [node for node in siblings if self._order(node) < pivot]
        raise QueryEvaluationError(f"unhandled axis {axis}")

    def _apply(self, context: List[XmlElement], step: Step) -> List[XmlElement]:
        collected: List[XmlElement] = []
        seen: set = set()
        for context_node in context:
            matches = [
                node
                for node in self._axis_nodes(context_node, step)
                if self._matches_tag(node, step.tag)
            ]
            matches.sort(key=self._order)
            if step.position is not None:
                matches = (
                    [matches[step.position - 1]] if len(matches) >= step.position else []
                )
            if step.text is not None:
                matches = [node for node in matches if node.text == step.text]
            for node in matches:
                if id(node) not in seen:
                    seen.add(id(node))
                    collected.append(node)
        collected.sort(key=self._order)
        return collected
