"""Interval (range-based) labeling baselines.

Three variants, all *static* schemes — compact but forced into wholesale
relabeling by insertions:

* :class:`XissIntervalScheme` — XISS (Li & Moon, VLDB'01): each node gets
  ``(order, size)``; ``x`` is an ancestor of ``y`` iff
  ``order(x) < order(y) <= order(x) + size(x)``.
* :class:`StartEndIntervalScheme` — XRel-style (Yoshikawa & Amagasa): a
  depth-first counter assigns a ``start`` on first visit and an ``end`` on
  the way back; ancestor test is strict interval containment.
* :class:`FloatIntervalScheme` — the QRS idea (Amagasa et al., ICDE'03
  poster): float endpoints admit midpoint insertion without relabeling —
  until the mantissa runs out, after which a full relabel is unavoidable.
  Implemented with explicit binary fractions so exhaustion is deterministic
  rather than at the mercy of IEEE rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import LabelOverflowError
from repro.labeling.base import LabelingScheme, RelabelReport, depth_first_events
from repro.xmlkit.tree import XmlElement

__all__ = [
    "XissIntervalScheme",
    "StartEndIntervalScheme",
    "FloatIntervalScheme",
    "OrderSizeLabel",
    "StartEndLabel",
]


@dataclass(frozen=True)
class OrderSizeLabel:
    """XISS label: preorder ``order`` plus subtree ``size`` (descendant count)."""

    order: int
    size: int


@dataclass(frozen=True)
class StartEndLabel:
    """Start/end label from a single depth-first counter."""

    start: int
    end: int


class XissIntervalScheme(LabelingScheme):
    """XISS ``(order, size)`` labeling.

    The canonical assignment is the densest one: ``order`` is the 1-based
    preorder rank and ``size`` the exact descendant count, so any insertion
    shifts every later ``order`` and widens every ancestor ``size`` — the
    behaviour Figure 16 charts.
    """

    name = "interval"

    def _assign_labels(self, root: XmlElement) -> None:
        counter = 0  # nodes entered so far: a node's descendants follow its order
        orders: Dict[int, int] = {}
        for node, entering in depth_first_events(root):
            if entering:
                counter += 1
                orders[id(node)] = counter
            else:
                order = orders.pop(id(node))
                self._set_label(node, OrderSizeLabel(order=order, size=counter - order))

    def is_ancestor_label(self, ancestor_label, descendant_label) -> bool:
        return (
            ancestor_label.order
            < descendant_label.order
            <= ancestor_label.order + ancestor_label.size
        )

    def label_bits(self, label: OrderSizeLabel) -> int:
        """Two fields, each wide enough for the larger of the pair.

        Matches the paper's estimate of ``2 * (1 + log N)`` bits: interval
        labels are stored as two fixed-width integers.
        """
        widest = max(label.order, label.size, 1)
        return 2 * widest.bit_length()


class StartEndIntervalScheme(LabelingScheme):
    """Start/end labeling driven by one depth-first counter (XRel)."""

    name = "interval-startend"

    def _assign_labels(self, root: XmlElement) -> None:
        for node, start, end in _start_end(root):
            self._set_label(node, StartEndLabel(start=start, end=end))

    def is_ancestor_label(self, ancestor_label, descendant_label) -> bool:
        return (
            ancestor_label.start < descendant_label.start
            and descendant_label.end < ancestor_label.end
        )

    def label_bits(self, label: StartEndLabel) -> int:
        widest = max(label.start, label.end, 1)
        return 2 * widest.bit_length()


class FloatIntervalScheme(LabelingScheme):
    """Interval labels with fractional endpoints for in-place insertion.

    Endpoints are dyadic rationals with a bounded denominator; a midpoint
    insertion succeeds as long as the new endpoints stay representable in
    ``mantissa_bits`` fractional bits, modeling the fixed mantissa of the
    floating point numbers QRS uses.  Once the budget is exhausted the
    insertion triggers a full relabel — "when the number of insertions
    exceeds certain limits, re-labeling is necessary".
    """

    name = "interval-float"

    def __init__(self, mantissa_bits: int = 52):
        super().__init__()
        if mantissa_bits < 1:
            raise ValueError(f"mantissa_bits must be >= 1, got {mantissa_bits}")
        self.mantissa_bits = mantissa_bits
        self.full_relabels = 0

    def _assign_labels(self, root: XmlElement) -> None:
        for node, start, end in _start_end(root):
            self._set_label(
                node, StartEndLabel(start=Fraction(start), end=Fraction(end))
            )

    def is_ancestor_label(self, ancestor_label, descendant_label) -> bool:
        return (
            ancestor_label.start < descendant_label.start
            and descendant_label.end < ancestor_label.end
        )

    def label_bits(self, label: StartEndLabel) -> int:
        integer_bits = max(int(label.start), int(label.end), 1).bit_length()
        return 2 * (integer_bits + self.mantissa_bits)

    def _representable(self, value: Fraction) -> bool:
        denominator = value.denominator  # power of two for midpoints of dyadics
        return denominator <= (1 << self.mantissa_bits) and (
            denominator & (denominator - 1) == 0
        )

    def _gap_endpoints(
        self, parent: XmlElement, index: int
    ) -> Tuple[Fraction, Fraction]:
        """The open interval available for a child inserted at ``index``."""
        parent_label: StartEndLabel = self.label_of(parent)
        children = parent.children
        low = parent_label.start if index == 0 else self.label_of(children[index - 1]).end
        high = (
            parent_label.end
            if index >= len(children)
            else self.label_of(children[index]).start
        )
        return low, high

    def insert_leaf(
        self,
        parent: XmlElement,
        tag: str = "new",
        index: Optional[int] = None,
    ) -> RelabelReport:
        """Midpoint insertion; falls back to full relabel on precision loss."""
        before = self._snapshot()
        position = len(parent.children) if index is None else index
        low, high = self._gap_endpoints(parent, position)
        node = XmlElement(tag)
        parent.insert(position, node)
        quarter = (high - low) / 4
        start, end = low + quarter, high - quarter
        if self._representable(start) and self._representable(end) and start < end:
            self._set_label(node, StartEndLabel(start=start, end=end))
        else:
            self.full_relabels += 1
            self._assign_labels(self.root)
        return self._diff_report(before, node)

    def try_insert_leaf(
        self, parent: XmlElement, tag: str = "new", index: Optional[int] = None
    ) -> RelabelReport:
        """Like :meth:`insert_leaf` but raising instead of relabeling.

        Raises :class:`repro.errors.LabelOverflowError` when the gap can no
        longer be split, leaving tree and labels untouched.
        """
        position = len(parent.children) if index is None else index
        low, high = self._gap_endpoints(parent, position)
        quarter = (high - low) / 4
        start, end = low + quarter, high - quarter
        if not (self._representable(start) and self._representable(end) and start < end):
            raise LabelOverflowError(
                f"no representable midpoint left in ({low}, {high}) "
                f"with {self.mantissa_bits} mantissa bits"
            )
        return self.insert_leaf(parent, tag, index)


def _start_end(root: XmlElement) -> Iterator[Tuple[XmlElement, int, int]]:
    """``(node, start, end)`` in postorder from one depth-first counter that
    ticks on entering and on leaving each node (XRel's assignment)."""
    counter = 0
    starts: Dict[int, int] = {}
    for node, entering in depth_first_events(root):
        counter += 1
        if entering:
            starts[id(node)] = counter
        else:
            yield node, starts.pop(id(node)), counter
