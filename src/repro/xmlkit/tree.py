"""Ordered XML tree model.

The labeling schemes operate on *element* trees: every node is an element
with a tag name, attributes, an ordered list of element children, and the
character data that appeared directly inside it.  This matches the paper's
data model — its labels are assigned to element nodes, and sibling order is
the document order the SC table must preserve.

:class:`XmlElement` is deliberately mutable (children can be inserted and
removed) because the whole point of the paper is *dynamic* trees.
Mutation helpers keep parent pointers consistent, and keep every node's
``_size`` (the node count of its subtree) exact, so a preorder position
converts to a node and back in O(depth x fanout) instead of a whole-document
walk.  Nothing outside this module assigns ``_children``, ``parent`` or
``_size``; ``insert``, ``detach`` and ``wrap_children`` keep them in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["XmlElement", "TreeStats"]


@dataclass(frozen=True)
class TreeStats:
    """Structural statistics used throughout the size analysis (Section 3.1).

    ``depth`` counts edges on the longest root-to-leaf path (a lone root has
    depth 0), matching the paper's ``D``.  ``max_fanout`` is the paper's
    ``F``; ``node_count`` is ``N``.
    """

    node_count: int
    depth: int
    max_fanout: int
    leaf_count: int

    @property
    def internal_count(self) -> int:
        return self.node_count - self.leaf_count


class XmlElement:
    """One element node in an ordered XML tree.

    Parameters
    ----------
    tag:
        Element name, e.g. ``"author"``.
    attributes:
        Optional attribute mapping; copied defensively.
    text:
        Character data appearing directly inside the element (concatenated
        across child boundaries — enough fidelity for the paper's workloads).
    """

    __slots__ = ("tag", "attributes", "text", "parent", "_children", "_size")

    def __init__(
        self,
        tag: str,
        attributes: Optional[Dict[str, str]] = None,
        text: str = "",
    ) -> None:
        if not tag:
            raise ValueError("element tag must be a non-empty string")
        self.tag = tag
        self.attributes: Dict[str, str] = dict(attributes or {})
        self.text = text
        self.parent: Optional["XmlElement"] = None
        self._children: List["XmlElement"] = []
        self._size = 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<XmlElement {self.tag!r} children={len(self._children)}>"

    @property
    def children(self) -> Tuple["XmlElement", ...]:
        """The element children, in document order (read-only view)."""
        return tuple(self._children)

    def __len__(self) -> int:
        return len(self._children)

    def __iter__(self) -> Iterator["XmlElement"]:
        return iter(self._children)

    def __getitem__(self, index: int) -> "XmlElement":
        return self._children[index]

    @property
    def is_leaf(self) -> bool:
        return not self._children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def depth(self) -> int:
        """Edges between this node and the root (root has depth 0)."""
        count = 0
        node = self
        while node.parent is not None:
            node = node.parent
            count += 1
        return count

    @property
    def root(self) -> "XmlElement":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    @property
    def child_index(self) -> int:
        """This node's position among its siblings (0-based).

        Raises ``ValueError`` on the root, which has no siblings.
        """
        if self.parent is None:
            raise ValueError("the root has no sibling position")
        for index, sibling in enumerate(self.parent._children):
            if sibling is self:
                return index
        raise AssertionError("node not found among its parent's children")

    def path(self) -> str:
        """The tag path from the root, e.g. ``/play/act/scene``."""
        tags = []
        node: Optional[XmlElement] = self
        while node is not None:
            tags.append(node.tag)
            node = node.parent
        return "/" + "/".join(reversed(tags))

    # ------------------------------------------------------------------
    # Mutation (keeps parent pointers and subtree sizes consistent)
    # ------------------------------------------------------------------

    def _grow_ancestry(self, delta: int) -> None:
        """Add ``delta`` to the subtree size of this node and every ancestor."""
        node: Optional[XmlElement] = self
        while node is not None:
            node._size += delta
            node = node.parent

    def append(self, child: "XmlElement") -> "XmlElement":
        """Append ``child`` as the last child; returns the child."""
        return self.insert(len(self._children), child)

    def insert(self, index: int, child: "XmlElement") -> "XmlElement":
        """Insert ``child`` at sibling position ``index``; returns the child."""
        if child.parent is not None:
            raise ValueError("child already attached; detach() it first")
        if child is self or self._is_descendant_of(child):
            raise ValueError("inserting a node under its own descendant")
        self._children.insert(index, child)
        child.parent = self
        self._grow_ancestry(child._size)
        return child

    def detach(self) -> "XmlElement":
        """Remove this node (and its subtree) from its parent; returns self."""
        parent = self.parent
        if parent is not None:
            parent._children.remove(self)
            self.parent = None
            parent._grow_ancestry(-self._size)
        return self

    def wrap_children(self, tag: str, start: int, end: int) -> "XmlElement":
        """Interpose a new ``tag`` element over children ``[start, end)``.

        This implements "insert a node as a parent of existing nodes"
        (the non-leaf insertion experiment, Section 5.3).  Returns the new
        intermediate element.
        """
        if not 0 <= start <= end <= len(self._children):
            raise IndexError(
                f"bad wrap range [{start}, {end}) for {len(self._children)} children"
            )
        moved = self._children[start:end]
        wrapper = XmlElement(tag)
        for node in moved:
            node.parent = wrapper
            wrapper._size += node._size
        wrapper._children = list(moved)
        self._children[start:end] = [wrapper]
        wrapper.parent = self
        self._grow_ancestry(1)
        return wrapper

    def _is_descendant_of(self, other: "XmlElement") -> bool:
        node = self.parent
        while node is not None:
            if node is other:
                return True
            node = node.parent
        return False

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def iter_preorder(self) -> Iterator["XmlElement"]:
        """Yield this node and all descendants in document (preorder) order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children))

    def iter_descendants(self) -> Iterator["XmlElement"]:
        """Like :meth:`iter_preorder` but excluding this node itself."""
        iterator = self.iter_preorder()
        next(iterator)
        return iterator

    def iter_leaves(self) -> Iterator["XmlElement"]:
        """Yield the subtree's leaves in document order."""
        return (node for node in self.iter_preorder() if node.is_leaf)

    def iter_level(self, level: int) -> Iterator["XmlElement"]:
        """Yield the nodes exactly ``level`` edges below this node, in order."""
        frontier: Sequence[XmlElement] = [self]
        for _ in range(level):
            frontier = [child for node in frontier for child in node._children]
        return iter(frontier)

    def find_all(self, predicate: Callable[["XmlElement"], bool]) -> List["XmlElement"]:
        """All nodes in this subtree satisfying ``predicate``, document order."""
        return [node for node in self.iter_preorder() if predicate(node)]

    def find_by_tag(self, tag: str) -> List["XmlElement"]:
        """All ``tag`` elements in this subtree, document order."""
        return self.find_all(lambda node: node.tag == tag)

    def is_ancestor_of(self, other: "XmlElement") -> bool:
        """True iff ``self`` is a proper ancestor of ``other``.

        This is the ground-truth test the labeling schemes must agree with.
        """
        return other is not self and other._is_descendant_of(self)

    def document_position(self) -> int:
        """0-based position of this node in the whole document's preorder.

        Climbs to the root, counting each ancestor plus the subtree sizes
        of the siblings before the path: O(depth x fanout).
        """
        position = 0
        node, parent = self, self.parent
        while parent is not None:
            position += 1
            for sibling in parent._children:
                if sibling is node:
                    break
                position += sibling._size
            node, parent = parent, parent.parent
        return position

    def node_at(self, position: int) -> Optional["XmlElement"]:
        """The node at 0-based ``position`` in this subtree's preorder.

        On a root, the inverse of :meth:`document_position`: descends by
        subtree sizes in O(depth x fanout).  Returns ``None`` when
        ``position`` is out of range or is anything but a plain ``int``
        (``bool`` and ``float`` included), so a malformed address reads as
        a missing node instead of resolving to some other node.
        """
        if type(position) is not int or not 0 <= position < self._size:
            return None
        node = self
        while position:
            position -= 1
            for child in node._children:
                if position < child._size:
                    node = child
                    break
                position -= child._size
        return node

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> TreeStats:
        """Compute :class:`TreeStats` for the subtree rooted here."""
        node_count = 0
        leaf_count = 0
        max_fanout = 0
        max_depth = 0
        stack: List[Tuple[XmlElement, int]] = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            node_count += 1
            fanout = len(node._children)
            max_fanout = max(max_fanout, fanout)
            max_depth = max(max_depth, depth)
            if fanout == 0:
                leaf_count += 1
            stack.extend((child, depth + 1) for child in node._children)
        return TreeStats(
            node_count=node_count,
            depth=max_depth,
            max_fanout=max_fanout,
            leaf_count=leaf_count,
        )

    def copy(self) -> "XmlElement":
        """Deep-copy this subtree (the copy is detached)."""
        clone = XmlElement(self.tag, self.attributes, self.text)
        for child in self._children:
            clone.append(child.copy())
        return clone

    def structurally_equal(self, other: "XmlElement") -> bool:
        """True iff both subtrees have the same shape, tags, attrs and text."""
        if (
            self.tag != other.tag
            or self.attributes != other.attributes
            or self.text != other.text
            or len(self._children) != len(other._children)
        ):
            return False
        return all(
            mine.structurally_equal(theirs)
            for mine, theirs in zip(self._children, other._children)
        )
