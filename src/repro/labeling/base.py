"""The common protocol every labeling scheme implements.

A *labeling scheme* assigns each element node a label such that structural
relationships (ancestor/descendant, and for most schemes parent/child) can
be decided from two labels alone, without touching the tree.  The paper's
experiments additionally need each scheme to support *dynamic updates* and
to report exactly how many existing nodes had to be relabeled — that count
is the y-axis of Figures 16, 17 and 18.

Design notes
------------
* A scheme instance is bound to one document: :meth:`LabelingScheme.label_tree`
  stores the node→label mapping inside the instance.  Nodes are keyed by
  identity (``XmlElement`` does not define value equality).
* Update operations mutate the tree *and* the label mapping, returning a
  :class:`RelabelReport`.  The report is computed by diffing labels before
  and after, so a scheme cannot accidentally under-report its relabeling
  work; the newly inserted node counts as one relabel, matching the paper
  ("the number of nodes that need to be re-labeled for the prefix labeling
  scheme is 1, which is essentially the inserted node").
* Schemes whose updates only ever touch labels through :meth:`_set_label`
  (never clearing and re-assigning the whole mapping) can set
  ``_tracks_relabels = True``: ``insert_leaf`` then records the labels
  actually written during the structural change instead of snapshotting
  and diffing the full mapping, turning an O(document) report into an
  O(changes) one with identical contents.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import LabelingError
from repro.xmlkit.tree import XmlElement

__all__ = ["Relationship", "RelabelReport", "LabelingScheme"]


def depth_first_events(root: XmlElement) -> Iterator[Tuple[XmlElement, bool]]:
    """``(node, True)`` on entering each node (preorder) and ``(node, False)``
    on leaving it (postorder): a recursive walk's event order, iteratively,
    so a labeling pass takes documents deeper than the recursion limit."""
    stack: List[Tuple[XmlElement, bool]] = [(root, True)]
    while stack:
        node, entering = stack.pop()
        yield node, entering
        if entering:
            stack.append((node, False))
            stack.extend((child, True) for child in reversed(node.children))


class Relationship(enum.Enum):
    """Structural relationship between two nodes, decided from labels."""

    SELF = "self"
    ANCESTOR = "ancestor"  # first node is an ancestor of the second
    DESCENDANT = "descendant"  # first node is a descendant of the second
    UNRELATED = "unrelated"


@dataclass
class RelabelReport:
    """Outcome of one dynamic update.

    ``relabeled`` lists every node whose label changed, *including* the newly
    inserted node (if any).  ``new_node`` is the inserted element, when the
    operation inserted one.
    """

    relabeled: List[XmlElement] = field(default_factory=list)
    new_node: Optional[XmlElement] = None

    @property
    def count(self) -> int:
        """Number of relabeled nodes — the paper's update-cost metric."""
        return len(self.relabeled)


class LabelingScheme(ABC):
    """Base class for all labeling schemes.

    Subclasses implement :meth:`_assign_labels` (bulk labeling),
    :meth:`is_ancestor_label` (the label-only ancestor test) and
    :meth:`label_bits` (storage size).  Default update operations relabel
    canonically and diff; schemes with cheaper incremental behaviour
    (prefix append, prime insert) override the mutation hooks.
    """

    #: Human-readable scheme name used by the benchmark harness.
    name: str = "abstract"

    #: Subclasses whose dynamic updates route every label write through
    #: :meth:`_set_label` (no wholesale re-assignment) may opt into the
    #: O(changes) relabel report of :meth:`insert_leaf`.
    _tracks_relabels: bool = False

    #: Sentinel recording "node had no label before this update".
    _NO_LABEL = object()

    def __init__(self) -> None:
        self._labels: Dict[int, Any] = {}
        self._nodes: Dict[int, XmlElement] = {}
        self._root: Optional[XmlElement] = None
        #: While an update is being tracked: node id -> label it carried
        #: before the update (``_NO_LABEL`` if it had none).
        self._relabel_track: Optional[Dict[int, Any]] = None

    # ------------------------------------------------------------------
    # Labeling
    # ------------------------------------------------------------------

    def label_tree(self, root: XmlElement) -> "LabelingScheme":
        """Label every node in the tree rooted at ``root``; returns self."""
        self._labels.clear()
        self._nodes.clear()
        self._root = root
        self._assign_labels(root)
        return self

    @abstractmethod
    def _assign_labels(self, root: XmlElement) -> None:
        """Populate the label mapping for every node under ``root``."""

    @property
    def root(self) -> XmlElement:
        if self._root is None:
            raise LabelingError("label_tree() has not been called")
        return self._root

    def _set_label(self, node: XmlElement, label: Any) -> None:
        key = id(node)
        if self._relabel_track is not None and key not in self._relabel_track:
            self._relabel_track[key] = self._labels.get(key, self._NO_LABEL)
        self._labels[key] = label
        self._nodes[key] = node

    def _drop_label(self, node: XmlElement) -> None:
        self._labels.pop(id(node), None)
        self._nodes.pop(id(node), None)

    def label_of(self, node: XmlElement) -> Any:
        """Return the label assigned to ``node``."""
        try:
            return self._labels[id(node)]
        except KeyError:
            raise LabelingError(f"node {node!r} has no label") from None

    def labeled_nodes(self) -> Iterable[XmlElement]:
        """All nodes that currently carry a label."""
        return list(self._nodes.values())

    def labels_in_order(self) -> Iterable[Any]:
        """Every current label, in the order its node was first labeled.

        The label map keeps insertion order (a relabel keeps its node's
        place), so right after :meth:`label_tree` this is the order the
        bulk walk visited the nodes: preorder for the top-down
        :class:`~repro.labeling.prime.PrimeScheme`, which is how an ordered
        document loads its SC table without walking the tree again.
        """
        return self._labels.values()

    # ------------------------------------------------------------------
    # Relationship tests (label-only)
    # ------------------------------------------------------------------

    @abstractmethod
    def is_ancestor_label(self, ancestor_label: Any, descendant_label: Any) -> bool:
        """True iff the first label's node is a *proper* ancestor of the second's."""

    def is_ancestor(self, ancestor: XmlElement, descendant: XmlElement) -> bool:
        """Ancestor test on nodes, delegated to the label-only test."""
        return self.is_ancestor_label(self.label_of(ancestor), self.label_of(descendant))

    def relationship(self, first: XmlElement, second: XmlElement) -> Relationship:
        """Classify the relationship between two labeled nodes."""
        label_a, label_b = self.label_of(first), self.label_of(second)
        if label_a == label_b:
            return Relationship.SELF
        if self.is_ancestor_label(label_a, label_b):
            return Relationship.ANCESTOR
        if self.is_ancestor_label(label_b, label_a):
            return Relationship.DESCENDANT
        return Relationship.UNRELATED

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @abstractmethod
    def label_bits(self, label: Any) -> int:
        """Storage size of one label, in bits."""

    def max_label_bits(self) -> int:
        """Largest label size over the whole document, in bits.

        This is the "fixed length label" size of Section 5.1.2: storing every
        label at the width of the widest one.
        """
        if not self._labels:
            raise LabelingError("label_tree() has not been called")
        return max(self.label_bits(label) for label in self._labels.values())

    def total_label_bits(self) -> int:
        """Sum of all label sizes (variable-length storage), in bits."""
        if not self._labels:
            raise LabelingError("label_tree() has not been called")
        return sum(self.label_bits(label) for label in self._labels.values())

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------

    def _snapshot(self) -> Dict[int, Any]:
        return dict(self._labels)

    def _diff_report(
        self, before: Dict[int, Any], new_node: Optional[XmlElement]
    ) -> RelabelReport:
        changed = [
            self._nodes[node_id]
            for node_id, label in self._labels.items()
            if before.get(node_id) != label
        ]
        return RelabelReport(relabeled=changed, new_node=new_node)

    def _tracked_report(
        self, track: Dict[int, Any], new_node: Optional[XmlElement]
    ) -> RelabelReport:
        """Relabel report from recorded label writes, in write order.

        Equivalent to :meth:`_diff_report` whenever every label change of
        the update went through :meth:`_set_label`: a node counts as
        relabeled iff it still carries a label and that label differs from
        the one captured before its first write.
        """
        changed = [
            self._nodes[node_id]
            for node_id, old in track.items()
            if node_id in self._labels and self._labels[node_id] != old
        ]
        return RelabelReport(relabeled=changed, new_node=new_node)

    def insert_leaf(
        self,
        parent: XmlElement,
        tag: str = "new",
        index: Optional[int] = None,
    ) -> RelabelReport:
        """Insert a new leaf under ``parent`` and label it.

        ``index=None`` appends as the last child (the unordered-update
        workload of Figure 16); an explicit index inserts at that sibling
        position.  Returns the relabel report.
        """
        if self._tracks_relabels:
            node = XmlElement(tag)
            parent.insert(len(parent.children) if index is None else index, node)
            self._relabel_track = track = {}
            try:
                self._after_structural_change(node)
            finally:
                self._relabel_track = None
            return self._tracked_report(track, node)
        before = self._snapshot()
        node = XmlElement(tag)
        parent.insert(len(parent.children) if index is None else index, node)
        self._after_structural_change(node)
        return self._diff_report(before, node)

    def insert_internal(
        self,
        parent: XmlElement,
        start: int,
        end: int,
        tag: str = "wrapper",
    ) -> RelabelReport:
        """Interpose a new element over children ``[start, end)`` of ``parent``.

        This is the non-leaf insertion of Figure 17 ("insert a node as a
        parent of the first level-4 node").
        """
        before = self._snapshot()
        node = parent.wrap_children(tag, start, end)
        self._after_structural_change(node)
        return self._diff_report(before, node)

    def delete(self, node: XmlElement) -> RelabelReport:
        """Delete ``node`` and its subtree.

        Deletion never forces relabeling in any scheme the paper studies
        ("the deletion of nodes does not affect the labels of other nodes"),
        and the default implementation honours that: it only removes labels.
        """
        if node.is_root:
            raise LabelingError("cannot delete the document root")
        for gone in node.iter_preorder():
            self._drop_label(gone)
        node.detach()
        return RelabelReport()

    def _after_structural_change(self, new_node: XmlElement) -> None:
        """Re-establish a valid labeling after an insertion.

        The default *canonically relabels the whole tree*, which models
        static schemes (interval): the diff then reveals how much of the
        document a static scheme must touch.  Dynamic schemes override this
        with genuinely incremental logic.
        """
        self._assign_labels(self.root)

    # ------------------------------------------------------------------
    # Verification helper (used heavily by the test suite)
    # ------------------------------------------------------------------

    def check_against_tree(self) -> Tuple[int, int]:
        """Exhaustively verify label tests against ground-truth tree walks.

        Returns ``(pairs_checked, mismatches)``; a correct scheme always has
        zero mismatches.  Quadratic — intended for tests on small trees.
        """
        nodes = list(self.root.iter_preorder())
        mismatches = 0
        pairs = 0
        for first in nodes:
            for second in nodes:
                if first is second:
                    continue
                pairs += 1
                truth = first.is_ancestor_of(second)
                claimed = self.is_ancestor(first, second)
                if truth != claimed:
                    mismatches += 1
        return pairs, mismatches
