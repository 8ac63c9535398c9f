"""DataGuide path summaries (Goldman & Widom, VLDB'97).

The paper's related work opens with Lore's DataGuide: a "summarization for
the path information in the XML file" that pilots query processing.  A
(strong) DataGuide contains every distinct root-to-leaf tag path of the
documents exactly once, so a query planner can answer, without touching
data, questions like *does any ``play/act/persona`` path exist?* and *which
tag paths end in ``line``?*

:class:`DataGuide` here summarizes a document collection and plugs into
the query engine as a pre-filter: :meth:`candidate_paths` prunes query
steps whose tag sequences cannot occur, letting the engine skip whole
documents (see :class:`GuidedQueryEngine`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.query.ast import Axis, Query
from repro.query.engine import QueryEngine
from repro.query.store import ElementRow, LabelStore
from repro.query.xpath import parse_query
from repro.xmlkit.tree import XmlElement

__all__ = ["DataGuide", "GuidedQueryEngine"]

TagPath = Tuple[str, ...]


class _GuideNode:
    __slots__ = ("tag", "children", "document_ids")

    def __init__(self, tag: str):
        self.tag = tag
        self.children: Dict[str, "_GuideNode"] = {}
        self.document_ids: Set[int] = set()


class DataGuide:
    """A strong DataGuide over a collection of element trees."""

    def __init__(self, documents: Sequence[XmlElement]):
        self._root = _GuideNode("")  # virtual super-root above all documents
        self._path_count = 0
        for doc_id, document in enumerate(documents):
            self._insert(document, doc_id)

    def _insert(self, document: XmlElement, doc_id: int) -> None:
        # Iterative preorder (any depth), pairing each node with the guide
        # node of its parent's path.
        stack = [(document, self._root)]
        while stack:
            node, guide_parent = stack.pop()
            guide = guide_parent.children.get(node.tag)
            if guide is None:
                guide = _GuideNode(node.tag)
                guide_parent.children[node.tag] = guide
                self._path_count += 1
            guide.document_ids.add(doc_id)
            stack.extend((child, guide) for child in reversed(node.children))

    # ------------------------------------------------------------------
    # Summary queries
    # ------------------------------------------------------------------

    @property
    def path_count(self) -> int:
        """Number of distinct tag paths across the collection."""
        return self._path_count

    def paths(self) -> List[TagPath]:
        """Every distinct tag path, lexicographically ordered."""
        collected: List[TagPath] = []
        stack: List[Tuple[TagPath, _GuideNode]] = [((), self._root)]
        while stack:
            path, guide = stack.pop()
            if path:
                collected.append(path)
            stack.extend(
                (path + (tag,), guide.children[tag])
                for tag in sorted(guide.children, reverse=True)
            )
        return collected

    def has_path(self, path: Iterable[str]) -> bool:
        """True iff some document contains this exact root-anchored path."""
        guide = self._root
        for tag in path:
            guide = guide.children.get(tag)
            if guide is None:
                return False
        return True

    def documents_with_path(self, path: Iterable[str]) -> Set[int]:
        """Document ids containing this exact root-anchored path."""
        guide = self._root
        for tag in path:
            guide = guide.children.get(tag)
            if guide is None:
                return set()
        return set(guide.document_ids)

    def documents_with_tag(self, tag: str) -> Set[int]:
        """Document ids containing ``tag`` anywhere."""
        matches: Set[int] = set()
        stack = [self._root]
        while stack:
            for child in stack.pop().children.values():
                if child.tag == tag:
                    matches.update(child.document_ids)
                stack.append(child)
        return matches

    def documents_with_subsequence(self, tags: Sequence[str]) -> Set[int]:
        """Document ids with a path whose tags contain ``tags`` in order
        (not necessarily contiguously) — the descendant-axis pre-filter."""
        matches: Set[int] = set()
        # (guide node, tags of ``tags`` matched on the path to it)
        stack = [(self._root, 0)] if tags else []
        while stack:
            guide, needed = stack.pop()
            for child in guide.children.values():
                remaining = needed + 1 if child.tag == tags[needed] else needed
                if remaining == len(tags):
                    matches.update(child.document_ids)
                    # deeper matches add nothing new for this subtree's docs,
                    # but sibling branches may cover other documents
                    stack.append((child, needed))
                else:
                    stack.append((child, remaining))
        return matches


class GuidedQueryEngine(QueryEngine):
    """A query engine that consults a DataGuide before scanning.

    For queries made of child/descendant steps, the guide identifies the
    documents that can possibly match the query's tag subsequence; other
    documents are skipped wholesale.  Axis steps fall back to the plain
    engine (order axes are not path-expressible).
    """

    def __init__(self, store: LabelStore, guide: Optional[DataGuide] = None):
        super().__init__(store)
        if guide is None:
            guide = DataGuide([row.node for row in store.rows if row.depth == 0])
        self.guide = guide
        self.documents_skipped = 0

    def evaluate(
        self, query: Query | str, doc_ids: "list[int] | set[int] | None" = None
    ) -> List[ElementRow]:
        if isinstance(query, str):
            query = parse_query(query)
        structural = all(
            step.axis in (Axis.CHILD, Axis.DESCENDANT) and step.tag != "*"
            for step in query.steps
        )
        if structural and query.steps:
            tags = [step.tag for step in query.steps]
            candidates = self.guide.documents_with_subsequence(tags)
            if doc_ids is not None:
                candidates &= set(doc_ids)
            self.documents_skipped += len(set(self.store.doc_ids) - candidates)
            if not candidates:
                return []
            return super().evaluate(query, doc_ids=candidates)
        return super().evaluate(query, doc_ids=doc_ids)
