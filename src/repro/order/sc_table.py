"""The SC (simultaneous congruence) table of Section 4.

Each record covers a group of node self-labels (pairwise-coprime, in
practice distinct primes) and stores

* ``sc`` — the CRT value with ``sc mod self_label == order`` for every
  member, solved from the stored residues when it is read, and
* ``max_prime`` — the largest self-label in the group, which is what the
  paper stores to route lookups ("we record the maximum prime number for
  each SC value in the SC table").

Order numbers follow the paper's convention: the root is order 0 and the
remaining nodes are numbered by document position.

Cost model: the paper counts **one record update as one relabeled node**
("We consider a record update in the SC table as a node that requires
re-labeling", Section 5.4); :meth:`SCTable.shift_orders_from` and
:meth:`SCTable.register` return how many records they touched so the
Figure 18 experiment can charge exactly that.

Lookups read the residue, never the SC value, so no update pays a CRT
solve: :class:`~repro.primes.crt.CongruenceSystem` solves its value when
something reads it (``SCRecord.sc``, :meth:`SCTable.check`, the audit).
Every record keeps three exact aggregates at every mutation: its minimum
and maximum member order and its minimum residue slack.  A shift skips
every record whose maximum is below its threshold.  A record wholly at or
past the threshold, with no residue one step from its modulus, moves
through its system's residue offset in O(1)
(:meth:`~repro.primes.crt.CongruenceSystem.shift_all`); only records that
straddle the threshold or could overflow have their members rewritten.
Either way the record counts as touched, so the paper's cost accounting
is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, Iterator, List, Tuple

from repro.errors import CapacityError, OrderingError
from repro.obs import metrics
from repro.primes.crt import CongruenceSystem

__all__ = ["SCRecord", "SCTable"]


#: Min-order and slack sentinel for records with no members (nothing can
#: overflow, and no threshold reaches them).
_NO_SLACK = 1 << 62


def check_group_size(group_size: int | None) -> None:
    """Reject a ``group_size`` no table can use (``None`` means one record)."""
    if group_size is not None and group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")


def capacity_error(self_label: int, order: int, group: int | None) -> CapacityError:
    """The typed error for an order that cannot be a residue of its label.

    The scheme's known capacity limit: a CRT residue must stay below its
    modulus, and skewed insertion can push an order number past the
    node's prime.  Typed so the serving layer can classify it instead of
    treating it as a traceback.  ``group`` is the SC record that would
    have received the pair.  Counts ``sc.capacity_errors``.
    """
    metrics.incr("sc.capacity_errors")
    return CapacityError(
        f"order {order} cannot be a residue of modulus {self_label}; "
        "the node needs a larger prime self-label",
        group=group,
        hint="compact() the document to renumber orders densely, "
        "or relabel the node with a larger prime",
    )


@dataclass(slots=True)
class SCRecord:
    """One row of the SC table: a congruence system plus its routing key.

    The last three fields are exact at every mutation and serve
    :meth:`SCTable.shift_orders_from`:

    * ``cur_max`` — maximum member order (``-1`` when empty),
    * ``cur_min`` — minimum member order (``_NO_SLACK`` when empty),
    * ``cur_slack`` — minimum of ``modulus - order`` over members
      (``_NO_SLACK`` when empty).
    """

    system: CongruenceSystem
    max_prime: int
    cur_max: int = -1
    cur_min: int = _NO_SLACK
    cur_slack: int = _NO_SLACK

    @property
    def sc(self) -> int:
        """The simultaneous congruence value, solved from the residues."""
        return self.system.value

    def __len__(self) -> int:
        return len(self.system)


class SCTable:
    """Maintains global document order for prime-labeled nodes.

    Parameters
    ----------
    group_size:
        Maximum number of nodes per SC record.  The paper's Figure 18 run
        uses ``group_size=5`` ("we use one SC value to maintain the order of
        5 nodes"); a single huge record (``group_size=None``) reproduces the
        single-SC-value presentation of Figure 9.
    """

    def __init__(self, group_size: int | None = 5) -> None:
        check_group_size(group_size)
        self.group_size = group_size
        self._records: List[SCRecord] = []
        self._record_of: Dict[int, int] = {}  # self_label -> record index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SCRecord]:
        return iter(self._records)

    @property
    def records(self) -> Tuple[SCRecord, ...]:
        return tuple(self._records)

    @property
    def node_count(self) -> int:
        return len(self._record_of)

    def record_for(self, self_label: int) -> SCRecord:
        """The record covering ``self_label``.

        Routing follows the paper: scan for the first record whose
        ``max_prime`` is >= the self-label (records are built in ascending
        prime order, so ranges are disjoint); the exact membership index
        keeps this O(1).
        """
        try:
            return self._records[self._record_of[self_label]]
        except KeyError:
            raise OrderingError(f"self-label {self_label} is not in the SC table") from None

    def record_for_by_scan(self, self_label: int) -> SCRecord:
        """The paper's literal routing: scan ``max_prime`` boundaries.

        "We record the maximum prime number for each SC value in the SC
        table.  These maximum prime numbers will indicate the set of nodes
        whose ordering is captured by the corresponding SC value."  The
        O(1) index of :meth:`record_for` returns the same record (the
        equivalence is tested); this method exists to validate the paper's
        storage story — a plain relational SC table needs no side index.
        """
        for record in self._records:
            if self_label <= record.max_prime and self_label in record.system:
                return record
        raise OrderingError(f"self-label {self_label} is not in the SC table")

    def order_of(self, self_label: int) -> int:
        """Order number of the node with ``self_label``: ``SC mod self_label``.

        Reads the residue directly — by CRT construction it *is*
        ``sc % self_label`` (:meth:`check` verifies the equivalence), but
        the direct read is O(1) and never solves the CRT value.
        """
        return self.record_for(self_label).system.residue(self_label)

    def groups(self) -> List[Tuple[int, List[Tuple[int, int]]]]:
        """Record-by-record ``(max_prime, [(modulus, residue), ...])`` dump.

        This is the durable form of the table: unlike :meth:`orders` it
        preserves the *grouping* of nodes into SC records, which
        :meth:`register` depends on (it appends to the last record while it
        has room) — so a table restored from groups behaves identically to
        the original under further updates.  Residues are written settled
        (stored residue plus the record's offset).
        """
        return [
            (record.max_prime, list(record.system.congruences()))
            for record in self._records
        ]

    @classmethod
    def from_groups(
        cls,
        groups: List[Tuple[int, List[Tuple[int, int]]]],
        group_size: int | None = 5,
    ) -> "SCTable":
        """Rebuild a table from a :meth:`groups` dump, grouping preserved.

        Each group becomes one SC record over the stored residues (its CRT
        value is solved when first read).  Every group is validated in one
        loop over its members, so a corrupt snapshot cannot smuggle in a
        broken table; each rejection is an :class:`OrderingError`:

        * more members than ``group_size``;
        * a residue outside ``[0, modulus)``;
        * a modulus ``<= 1``;
        * a self-label already seen (in this group or an earlier one);
        * a modulus not coprime with the group's earlier moduli, checked as
          ``gcd(running product, modulus) == 1`` — the pairwise check's
          verdict in one gcd per member;
        * a ``max_prime`` routing key other than the largest modulus.

        The :class:`~repro.primes.crt.CongruenceSystem` is then built from
        the validated map without re-checking it.  Empty groups are legal
        — :meth:`unregister` can drain a record without removing it, and
        the drained record still absorbs future registrations — and
        round-trip with ``max_prime == 0``.
        The ordered document's bulk load (a fresh document, and
        :meth:`repro.order.document.OrderedDocument.compact`) builds every
        fresh table through here too, from its preorder chunks.
        """
        table = cls(group_size=group_size)
        record_of = table._record_of
        limit = table.group_size
        for index, (max_prime, members) in enumerate(groups):
            if limit is not None and len(members) > limit:
                raise OrderingError(
                    f"SC group #{index} holds {len(members)} nodes; "
                    f"group_size is {limit}"
                )
            congruences: Dict[int, int] = {}
            product = 1
            cur_max, cur_min, cur_slack = -1, _NO_SLACK, _NO_SLACK
            for modulus, residue in members:
                if not 0 <= residue < modulus:
                    raise OrderingError(
                        f"residue {residue} is not valid for modulus {modulus}"
                    )
                if modulus <= 1:
                    raise OrderingError(f"modulus must be > 1, got {modulus}")
                if modulus in record_of:
                    raise OrderingError(f"self-label {modulus} appears twice")
                if gcd(product, modulus) != 1:
                    raise OrderingError(
                        f"SC group #{index}: modulus {modulus} is not coprime "
                        "with the group's other moduli"
                    )
                product *= modulus
                record_of[modulus] = index
                congruences[modulus] = residue
                if residue > cur_max:
                    cur_max = residue
                if residue < cur_min:
                    cur_min = residue
                if modulus - residue < cur_slack:
                    cur_slack = modulus - residue
            if max_prime != max(congruences, default=0):
                raise OrderingError(
                    f"SC group #{index} routing key {max_prime} != max modulus"
                )
            table._records.append(
                SCRecord(
                    CongruenceSystem.from_validated(congruences),
                    max_prime,
                    cur_max,
                    cur_min,
                    cur_slack,
                )
            )
        return table

    def _refresh_caches(self, index: int) -> None:
        """Recompute a record's exact ``cur_max``/``cur_min``/``cur_slack``."""
        record = self._records[index]
        cur_max, cur_min, cur_slack = -1, _NO_SLACK, _NO_SLACK
        for modulus, order in record.system.congruences():
            if order > cur_max:
                cur_max = order
            if order < cur_min:
                cur_min = order
            if modulus - order < cur_slack:
                cur_slack = modulus - order
        record.cur_max = cur_max
        record.cur_min = cur_min
        record.cur_slack = cur_slack

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def register(self, self_label: int, order: int) -> int:
        """Add a node's (self-label, order) pair; returns records touched (1).

        Appends to the last record while it has room, else opens a new one.
        ``max_prime`` of the receiving record is raised when the new
        self-label exceeds it — the paper's "search for the largest maximum
        prime number ... and update it".
        """
        if self_label < 2:
            raise OrderingError(
                f"self-label must be >= 2 to carry a residue, got {self_label}"
            )
        if self_label in self._record_of:
            raise OrderingError(f"self-label {self_label} already registered")
        if order < 0:
            raise OrderingError(f"order must be >= 0, got {order}")
        if order >= self_label:
            receiving = (
                len(self._records) - 1
                if self._records
                and (
                    self.group_size is None
                    or len(self._records[-1]) < self.group_size
                )
                else len(self._records)
            )
            raise capacity_error(self_label, order, receiving)
        if self._records and (
            self.group_size is None or len(self._records[-1]) < self.group_size
        ):
            index = len(self._records) - 1
            record = self._records[index]
            record.system.append(self_label, order)
            record.max_prime = max(record.max_prime, self_label)
            record.cur_max = max(record.cur_max, order)
            record.cur_min = min(record.cur_min, order)
            record.cur_slack = min(record.cur_slack, self_label - order)
            self._record_of[self_label] = index
        else:
            system = CongruenceSystem([self_label], [order])
            self._records.append(
                SCRecord(system, self_label, order, order, self_label - order)
            )
            self._record_of[self_label] = len(self._records) - 1
            metrics.incr("sc.records_opened")
        metrics.incr("sc.registered")
        metrics.incr("sc.records_touched")
        return 1

    def unregister(self, self_label: int) -> None:
        """Remove a node (deletion never shifts other orders, Section 4.2)."""
        index = self._record_of.pop(self_label, None)
        if index is None:
            raise OrderingError(f"self-label {self_label} is not in the SC table")
        record = self._records[index]
        record.system.remove(self_label)
        if self_label == record.max_prime:
            record.max_prime = max(record.system.moduli, default=0)
        self._refresh_caches(index)
        metrics.incr("sc.unregistered")

    def shift_orders_from(self, threshold: int) -> Tuple[int, List[Tuple[int, int]]]:
        """Add 1 to the order of every node with order >= ``threshold``.

        This is the bulk rewrite an order-sensitive insertion triggers for
        "the nodes that come after the newly inserted node".  Returns
        ``(records_touched, overflowed)``:

        * ``records_touched`` — how many SC records were rewritten, the
          paper's update-cost unit;
        * ``overflowed`` — ``(self_label, new_order)`` pairs whose shifted
          order reached the self-label (a CRT residue must stay below its
          modulus, a case the paper does not address).  These nodes are
          *unregistered* here; the caller must relabel them with a larger
          prime and re-register.

        A record whose only change is an overflow-driven ``unregister``
        counts toward ``records_touched`` too: the rewrite happens whether
        or not any sibling residue also shifted, so Figure 18's cost unit
        must charge it — the earlier accounting silently dropped exactly
        the case the paper overlooks.

        A record is touched iff its maximum member order reaches the
        threshold (some member has order >= threshold iff the maximum
        does), so records below the threshold are skipped without a member
        scan.  A touched record whose minimum order also reaches the
        threshold, and whose every residue is at least two below its
        modulus, shifts in O(1) through its system's residue offset.  Any
        other touched record has its members rewritten and its aggregates
        recomputed in the same pass.  Both count every moved residue in
        ``sc.shift_span``.
        """
        touched = 0
        shifted = 0
        overflowed: List[Tuple[int, int]] = []
        for record in self._records:
            if record.cur_max < threshold:
                continue
            touched += 1
            if record.cur_min >= threshold and record.cur_slack > 1:
                shifted += record.system.shift_all()
                record.cur_max += 1
                record.cur_min += 1
                record.cur_slack -= 1
                continue
            updates: Dict[int, int] = {}
            cur_min, cur_slack = _NO_SLACK, _NO_SLACK
            for modulus, order in record.system.congruences():
                if order >= threshold:
                    order += 1
                    if order >= modulus:
                        overflowed.append((modulus, order))
                        continue  # unregistered below, which refreshes the caches
                    updates[modulus] = order
                if order < cur_min:
                    cur_min = order
                if modulus - order < cur_slack:
                    cur_slack = modulus - order
            if updates:
                record.system.set_residues(updates)
                shifted += len(updates)
            record.cur_max += 1
            record.cur_min = cur_min
            record.cur_slack = cur_slack
        for self_label, _new_order in overflowed:
            self.unregister(self_label)
        metrics.incr("sc.records_touched", touched)
        metrics.incr("sc.shift_span", shifted)
        metrics.incr("sc.residue_overflows", len(overflowed))
        return touched, overflowed

    def set_order(self, self_label: int, order: int) -> int:
        """Rewrite a single node's order; returns records touched (1)."""
        if order < 0:
            raise OrderingError(f"order must be >= 0, got {order}")
        if order >= self_label:
            raise capacity_error(self_label, order, self._record_of.get(self_label))
        record = self.record_for(self_label)  # validates membership
        index = self._record_of[self_label]
        record.system.set_residues({self_label: order})
        self._refresh_caches(index)
        metrics.incr("sc.records_touched")
        return 1

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def check(self) -> bool:
        """Verify every record's CRT value reproduces its residues."""
        return all(record.system.check() for record in self._records)

    def orders(self) -> Dict[int, int]:
        """Snapshot mapping self-label -> order for every registered node."""
        return {
            self_label: self.order_of(self_label) for self_label in self._record_of
        }
