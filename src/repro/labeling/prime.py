"""The prime number labeling schemes — the paper's core contribution.

:class:`PrimeScheme` implements the *top-down* scheme of Section 3 /
Figure 7: every node's label is ``parent_label * self_label``, where the
self-label is

* ``1`` for the root,
* a fresh prime for each non-leaf node — drawn from a reserved pool of the
  smallest primes when the node sits directly below the root (Opt1), and
* ``2**n`` for the ``n``-th leaf child of a parent when Opt2 is enabled
  (else a fresh prime).

Ancestor tests are a single modulo (Properties 2/3):

* plain top-down: ``x`` ancestor of ``y``  iff  ``label(y) mod label(x) == 0``
  (labels distinct);
* with Opt2: additionally require ``label(x)`` odd, because even labels
  belong to leaves, which have no descendants.

:class:`BottomUpPrimeScheme` implements the motivating bottom-up variant of
Figure 1 (leaves get primes, parents get products of their children, plus
the "special handling" the paper notes for single-child nodes).

Dynamic behaviour: inserting a node never relabels anyone outside the
insertion site — the new node takes a never-used prime.  The single
exception is Opt2's leaf-turned-parent case, which the paper calls out
("the optimized prime number labeling scheme needs to re-label 2 nodes").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import LabelingError
from repro.labeling.base import LabelingScheme, RelabelReport, depth_first_events
from repro.obs import metrics
from repro.primes.gen import PrimeGenerator, ensure_table
from repro.xmlkit.tree import XmlElement

__all__ = ["PrimeLabel", "PrimeScheme", "BottomUpPrimeScheme", "label_divides"]

#: Default size of the Opt1 reserved pool of small primes for top-level nodes.
DEFAULT_RESERVED_PRIMES = 64


@dataclass(frozen=True, slots=True)
class PrimeLabel:
    """A top-down prime label.

    ``value`` is the full label (product of self-labels from the root);
    ``self_label`` is the factor assigned to this node itself.  The parent's
    full label is always ``value // self_label``.
    """

    value: int
    self_label: int

    @property
    def parent_value(self) -> int:
        """The full label of this node's parent (1 for top-level nodes)."""
        return self.value // self.self_label

    def __post_init__(self) -> None:
        if self.self_label < 1 or self.value % self.self_label:
            raise ValueError(
                f"self_label {self.self_label} does not divide label {self.value}"
            )


_new_object = object.__new__
_set_value = PrimeLabel.value.__set__  # type: ignore[attr-defined]
_set_self_label = PrimeLabel.self_label.__set__  # type: ignore[attr-defined]


def _trusted_label(value: int, self_label: int) -> PrimeLabel:
    """A :class:`PrimeLabel` made without ``__post_init__``'s check.

    Only for a pair whose ``value`` the caller just computed, or checked,
    as ``parent_value * self_label`` with ``self_label >= 1``, so the check
    could not fail: the bulk labeling walk and
    :meth:`PrimeScheme.restore_state`, which checks each snapshot pair
    against its parent's label before it makes it.  Writes the two slots
    through their descriptors, which a frozen dataclass's ``__setattr__``
    would refuse.  Every other pair from outside (a store file, a caller)
    goes through the checked constructor.
    """
    label = _new_object(PrimeLabel)
    _set_value(label, value)
    _set_self_label(label, self_label)
    return label


def label_divides(ancestor_label: PrimeLabel, descendant_label: PrimeLabel) -> bool:
    """Property 2's ancestor test: the labels differ and one divides the other.

    Complete for top-down labels without Opt2; :meth:`PrimeScheme.is_ancestor_label`
    adds Opt2's even-label check in front of it.
    """
    return (
        ancestor_label.value != descendant_label.value
        and descendant_label.value % ancestor_label.value == 0
    )


class PrimeScheme(LabelingScheme):
    """Top-down prime number labeling (Figure 7's ``PrimeLabel`` algorithm).

    Parameters
    ----------
    reserved_primes:
        Size of the Opt1 pool of smallest primes kept for top-level nodes.
        ``0`` disables Opt1 (the "Original" configuration of Figure 13).
    power2_leaves:
        Enable Opt2 — label the n-th leaf child of a parent ``2**n``.
    leaf_threshold_bits:
        Optional Opt2 refinement from Section 3.2: once a power-of-two leaf
        self-label would exceed this many bits, remaining leaf siblings of
        that parent fall back to fresh primes.
    """

    name = "prime"

    # Every dynamic update below writes labels only through _set_label (no
    # wholesale relabeling), so insert_leaf reports can be tracked in
    # O(changes) instead of diffing the full mapping.
    _tracks_relabels = True

    def __init__(
        self,
        reserved_primes: int = DEFAULT_RESERVED_PRIMES,
        power2_leaves: bool = True,
        leaf_threshold_bits: Optional[int] = None,
    ) -> None:
        super().__init__()
        if leaf_threshold_bits is not None and leaf_threshold_bits < 2:
            raise ValueError(
                f"leaf_threshold_bits must be >= 2, got {leaf_threshold_bits}"
            )
        self.reserved_primes = reserved_primes
        self.power2_leaves = power2_leaves
        self.leaf_threshold_bits = leaf_threshold_bits
        self._generator = PrimeGenerator(reserved=reserved_primes)
        #: per-parent count of leaf children labeled so far (Fig 7's
        #: childNum), keyed by the parent's *full label value* — a stable
        #: identity that survives snapshot/restore (fresh objects, fresh
        #: ``id()``\ s) and can never alias a recycled address.  Label
        #: values are unique within a document: every internal value
        #: contains its own fresh prime, every Opt2 leaf value a distinct
        #: power of two under its parent.
        self._leaf_counter: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Label issuing
    # ------------------------------------------------------------------

    def _issue_internal_self_label(self, node: XmlElement) -> int:
        if node.parent is not None and node.parent.is_root:
            return self._generator.get_reserved_prime()
        return self._generator.get_prime()

    def _issue_leaf_self_label(self, parent: XmlElement) -> int:
        if not self.power2_leaves:
            return self._generator.get_prime()
        parent_value = self.label_of(parent).value
        ordinal = self._leaf_counter.get(parent_value, 0) + 1
        candidate = PrimeGenerator.get_power2(ordinal)
        if (
            self.leaf_threshold_bits is not None
            and candidate.bit_length() > self.leaf_threshold_bits
        ):
            return self._generator.get_prime()
        self._leaf_counter[parent_value] = ordinal
        metrics.incr("label.power2_leaves")
        return candidate

    def _label_node(self, node: XmlElement) -> PrimeLabel:
        if node.is_root:
            return PrimeLabel(value=1, self_label=1)
        parent_label: PrimeLabel = self.label_of(node.parent)
        if node.is_leaf:
            self_label = self._issue_leaf_self_label(node.parent)
        else:
            self_label = self._issue_internal_self_label(node)
        return PrimeLabel(value=parent_label.value * self_label, self_label=self_label)

    def _discard_prime_two(self) -> None:
        """Under Opt2 the prime 2 is never issued as a self-label.

        Non-leaf labels must be odd (Property 3's test is ``odd(label(x))``),
        and a pool-issued 2 would collide with the power-of-two leaf label
        ``2**1`` — "the number 2 is the only even prime number", so the
        optimized scheme reserves evenness entirely for leaves.
        """
        if not self.power2_leaves:
            return
        if self.reserved_primes > 0:
            discarded = self._generator.get_reserved_prime()
        else:
            discarded = self._generator.get_prime()
        assert discarded == 2

    def _assign_labels(self, root: XmlElement) -> None:
        """Label the whole tree in one explicit-stack preorder walk.

        Primes are issued in preorder, exactly as the per-node path of
        :meth:`_label_node` issues them, but the walk draws general primes
        by index straight from the shared prime table
        (:meth:`PrimeGenerator.open_run`) and issues the whole run once at
        the end; a top-level non-leaf takes :meth:`get_reserved_prime`
        while Opt1's pool lasts and then the run's next prime, which is
        that method's own fall-back.  Each stack entry carries what the
        node needs from its parent: the parent's full label value (``1``
        exactly for the root's children, so it also marks Opt1's top
        level) and the node's Opt2 leaf ordinal (``0`` when it takes a
        prime instead).  The ordinals are counted when the parent's
        children are pushed; without Opt2 the children are pushed as they
        are.  The walk makes ``value = parent_value * self_label`` itself,
        so its labels skip :class:`PrimeLabel`'s divisibility check
        (:func:`_trusted_label`).  Labels enter the mapping in preorder, so
        :meth:`labels_in_order` is document order right after
        :meth:`label_tree` (the ordered document's SC load relies on it).
        """
        generator = self._generator = PrimeGenerator(reserved=self.reserved_primes)
        self._discard_prime_two()
        counters = self._leaf_counter
        counters.clear()
        labels, nodes = self._labels, self._nodes
        get_reserved_prime = generator.get_reserved_prime
        reserved_left = generator.reserved_remaining
        table, index = generator.open_run()
        table_end = len(table)
        power2 = self.power2_leaves
        # Leaf ordinal n is labeled 2**n, which has n + 1 bits.
        threshold = self.leaf_threshold_bits
        max_ordinal = threshold - 1 if threshold is not None else None
        power2_total = 0
        stack: List[Tuple[XmlElement, int, int]] = [(root, 1, 0)]
        pop, push = stack.pop, stack.extend
        while stack:
            node, parent_value, ordinal = pop()
            children = node.child_list
            if ordinal:
                self_label = 1 << ordinal
            elif node is root:
                self_label = 1
            elif reserved_left and parent_value == 1 and children:
                self_label = get_reserved_prime()
                reserved_left -= 1
            else:
                if index >= table_end:
                    ensure_table(index + 1)
                    table_end = len(table)
                self_label = table[index]
                index += 1
            value = parent_value * self_label
            key = id(node)
            labels[key] = _trusted_label(value, self_label)
            nodes[key] = node
            if not children:
                continue
            if not power2:
                push(zip(reversed(children), repeat(value), repeat(0)))
                continue
            leaves = 0
            entries = []
            for child in children:
                child_ordinal = 0
                if not child.child_list and (
                    max_ordinal is None or leaves < max_ordinal
                ):
                    leaves += 1
                    child_ordinal = leaves
                entries.append((child, value, child_ordinal))
            if leaves:
                counters[value] = leaves
                power2_total += leaves
            push(reversed(entries))
        generator.close_run(index)
        if power2_total:
            metrics.incr("label.power2_leaves", power2_total)

    # ------------------------------------------------------------------
    # Relationship tests
    # ------------------------------------------------------------------

    def is_ancestor_label(self, ancestor_label: PrimeLabel, descendant_label: PrimeLabel) -> bool:
        if self.power2_leaves and ancestor_label.value % 2 == 0:
            # Property 3: even labels are leaves, never ancestors.
            return False
        return label_divides(ancestor_label, descendant_label)

    def is_parent_label(self, parent_label: PrimeLabel, child_label: PrimeLabel) -> bool:
        """Parent/child test: the child's inherited part equals the parent."""
        return child_label.value // child_label.self_label == parent_label.value

    def label_bits(self, label: PrimeLabel) -> int:
        return max(label.value.bit_length(), 1)

    def self_label_bits(self, label: PrimeLabel) -> int:
        """Width of the self-label alone, in bits."""
        return max(label.self_label.bit_length(), 1)

    def max_self_label_bits(self) -> int:
        """Largest *self*-label width — the quantity Figures 4/5 model."""
        return max(self.self_label_bits(label) for label in self._labels.values())

    # ------------------------------------------------------------------
    # Dynamic updates (genuinely incremental)
    # ------------------------------------------------------------------

    def _after_structural_change(self, new_node: XmlElement) -> None:
        parent = new_node.parent
        assert parent is not None
        if new_node.is_leaf:
            # Opt2's documented cost: a parent that used to be a leaf holds a
            # power-of-two self-label and must be upgraded to a prime.
            parent_label: PrimeLabel = self.label_of(parent)
            if self.power2_leaves and not parent.is_root and parent_label.self_label % 2 == 0:
                new_self = self._issue_internal_self_label(parent)
                grandparent_value = parent_label.value // parent_label.self_label
                self._set_label(
                    parent,
                    PrimeLabel(value=grandparent_value * new_self, self_label=new_self),
                )
                metrics.incr("label.opt2_upgrades")
            self._set_label(new_node, self._label_node(new_node))
        else:
            # A wrap: the new internal node takes a fresh prime; every moved
            # descendant's full label gains that factor (self-labels keep).
            self_label = self._issue_internal_self_label(new_node)
            parent_value = self.label_of(parent).value
            self._set_label(
                new_node,
                PrimeLabel(value=parent_value * self_label, self_label=self_label),
            )
            cascade = 0
            for descendant in new_node.iter_descendants():
                old: PrimeLabel = self.label_of(descendant)
                new_value = old.value * self_label
                # The leaf counter is keyed by label value, and every moved
                # descendant's value just gained the wrapper's factor — move
                # its counter entry along (fresh prime, so the new key
                # cannot collide with any not-yet-moved old key).
                pending = self._leaf_counter.pop(old.value, None)
                if pending is not None:
                    self._leaf_counter[new_value] = pending
                self._set_label(
                    descendant,
                    PrimeLabel(value=new_value, self_label=old.self_label),
                )
                cascade += 1
            metrics.incr("label.relabel_cascade", cascade)

    def delete(self, node: XmlElement) -> RelabelReport:
        """Delete ``node``'s subtree, purging its ``_leaf_counter`` entries.

        Without cleanup a deleted parent's counter entry leaks under churn;
        purging on delete makes the entry's lifetime match the node's.  The
        keys are the deleted nodes' label *values*, which must be collected
        before ``super()`` drops the labels.
        """
        stale = [
            self._labels[id(gone)].value
            for gone in node.iter_preorder()
            if id(gone) in self._labels
        ]
        report = super().delete(node)
        for value in stale:
            self._leaf_counter.pop(value, None)
        return report

    def insert_leaf_ordered(
        self, parent: XmlElement, index: int, tag: str = "new"
    ) -> RelabelReport:
        """Order-sensitive insertion costs the prime scheme nothing extra.

        The label itself carries no order, so inserting between siblings is
        identical to appending; document order lives in the SC table
        (:mod:`repro.order`), which charges its own record updates.
        """
        return self.insert_leaf(parent, tag=tag, index=index)

    # ------------------------------------------------------------------
    # Snapshot / recovery state
    # ------------------------------------------------------------------

    def export_state(
        self,
    ) -> Tuple[Tuple[int, int, int, int], Tuple[Tuple[int, int], ...]]:
        """The dynamic state a snapshot must carry beyond the labels.

        Returns ``(generator position, sorted Opt2 leaf counters)``.  The
        counters are ``(parent label value, leaf count)`` pairs — without
        them a restored scheme under ``power2_leaves=True`` would restart
        every parent's leaf ordinal at 1 and re-issue already-used
        power-of-two self-labels, diverging from a never-snapshotted twin.
        """
        return self._generator.state(), tuple(sorted(self._leaf_counter.items()))

    def restore_state(
        self,
        root: XmlElement,
        labels: Sequence[Tuple[int, int]],
        generator_state: Tuple[int, int, int, int],
        leaf_counters: Sequence[Tuple[int, int]] = (),
    ) -> "PrimeScheme":
        """Rebind this scheme to a freshly materialised tree, relabeling nothing.

        ``labels`` are ``(value, self_label)`` pairs in preorder;
        ``generator_state`` and ``leaf_counters`` come from
        :meth:`export_state` (snapshots written before the counter existed
        restore with empty counters, preserving their legacy behaviour).
        The pairs come from a file, so each is checked as it is bound: the
        root's must be ``(1, 1)``, and every other node's ``value`` must be
        its parent's value times its ``self_label`` (at least 1), which the
        label walk guarantees and the ancestor test relies on.  A checked
        pair is made into its label without a second check
        (:func:`_trusted_label`).  Raises :class:`LabelingError` on a label
        count other than the node count or on a pair that fails its check.
        Returns ``self``.
        """
        if root.subtree_size != len(labels):
            raise LabelingError(
                f"restore_state got {len(labels)} labels for {root.subtree_size} nodes"
            )
        root_value, root_self_label = labels[0]
        if root_value != 1 or root_self_label != 1:
            raise LabelingError(
                f"the root's label is ({root_value}, {root_self_label}), not (1, 1)"
            )
        for stale in list(self._nodes.values()):
            self._drop_label(stale)
        self._root = root
        mapped, nodes = self._labels, self._nodes
        pairs = iter(labels)
        stack: List[Tuple[XmlElement, int]] = [(root, 1)]
        pop, push = stack.pop, stack.extend
        while stack:
            node, parent_value = pop()
            value, self_label = next(pairs)
            if value != parent_value * self_label or self_label < 1:
                raise LabelingError(_broken_chain(value, self_label, parent_value))
            key = id(node)
            mapped[key] = _trusted_label(value, self_label)
            nodes[key] = node
            children = node.child_list
            if children:
                push(zip(reversed(children), repeat(value)))
        self._generator = PrimeGenerator.from_state(generator_state)
        self._leaf_counter = dict(leaf_counters)
        return self


def _broken_chain(value: int, self_label: int, parent_value: int) -> str:
    """Why a restored ``(value, self_label)`` under ``parent_value`` fails."""
    if self_label < 1 or value % self_label:
        return f"self_label {self_label} does not divide label {value}"
    return (
        f"label {value} is not its parent's label {parent_value} "
        f"times its self-label {self_label}"
    )


class BottomUpPrimeScheme(LabelingScheme):
    """Bottom-up prime labeling (Figure 1): parents are products of children.

    Leaves take fresh primes in document order; an internal node's label is
    the product of its children's labels, multiplied by one extra fresh
    prime when it has a single child (the "special handling" the paper
    notes, without which a one-child parent would equal its child).

    Ancestor test is Property 2: ``x`` ancestor of ``y`` iff
    ``label(x) mod label(y) == 0``.
    """

    name = "prime-bottomup"

    def __init__(self) -> None:
        super().__init__()
        self._generator = PrimeGenerator()

    def _assign_labels(self, root: XmlElement) -> None:
        self._generator = PrimeGenerator()
        # Postorder: children are labeled (and their primes issued) first.
        for node, entering in depth_first_events(root):
            if entering:
                continue
            if node.is_leaf:
                label = self._generator.get_prime()
            else:
                label = 1
                for child in node.children:
                    label *= self.label_of(child)
                if len(node.children) == 1:
                    label *= self._generator.get_prime()
            self._set_label(node, label)

    def is_ancestor_label(self, ancestor_label: int, descendant_label: int) -> bool:
        if ancestor_label == descendant_label:
            return False
        return ancestor_label % descendant_label == 0

    def label_bits(self, label: int) -> int:
        return max(label.bit_length(), 1)

    def _after_structural_change(self, new_node: XmlElement) -> None:
        if new_node.is_leaf:
            prime = self._generator.get_prime()
            self._set_label(new_node, prime)
            # Every ancestor's product gains the new leaf's prime factor.
            ancestor = new_node.parent
            while ancestor is not None:
                self._set_label(ancestor, self.label_of(ancestor) * prime)
                ancestor = ancestor.parent
        else:
            # A wrapper's children may be *all* of its parent's children, in
            # which case the bare product would equal the parent's label (the
            # single-child collision in general form) — so every dynamically
            # inserted wrapper gets its own fresh prime factor, propagated to
            # the ancestors like any new leaf prime.
            extra = self._generator.get_prime()
            label = extra
            for child in new_node.children:
                label *= self.label_of(child)
            self._set_label(new_node, label)
            ancestor = new_node.parent
            while ancestor is not None:
                self._set_label(ancestor, self.label_of(ancestor) * extra)
                ancestor = ancestor.parent
            # If the wrap took *all* of the parent's children, the parent's
            # product now equals the wrapper's — the single-child collision
            # one level up.  Re-distinguish with fresh primes, cascading as
            # far as the equalities reach.
            node = new_node.parent
            while node is not None and any(
                self.label_of(node) == self.label_of(child) for child in node.children
            ):
                distinguisher = self._generator.get_prime()
                cursor = node
                while cursor is not None:
                    self._set_label(cursor, self.label_of(cursor) * distinguisher)
                    cursor = cursor.parent
                node = node.parent
