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

Lookups read the stored residue, never the SC value, so no update pays a
CRT solve: :class:`~repro.primes.crt.CongruenceSystem` solves its value
when something reads it (``SCRecord.sc``, :meth:`SCTable.check`, the
audit).  Every record keeps two aggregates at every mutation, its maximum
member order and its minimum residue slack; a shift skips every record
whose maximum is below its threshold.

Batching: inside a :meth:`SCTable.batch` context the ``+1`` order shifts
are *coalesced*: :meth:`shift_orders_from` appends the threshold to a
pending list and moves only the aggregates of the records it reaches, so
each shift costs O(records) instead of O(nodes).  Pending shifts are
*folded* into a record's residue map lazily — when the record gains or
loses a member, the table is dumped, or the batch exits — by replaying
the thresholds in sequence, which reproduces the sequential evolution
exactly.  In a batch the slack aggregate can only under-estimate, so a
fold is always forced **at the op** where a residue could reach its
modulus: overflow repairs fire at the same operation, with the same fresh
primes, as the unbatched path.  The per-call return values (records
touched, overflowed members) are unchanged, so the paper's cost
accounting is identical batched or not.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.errors import CapacityError, OrderingError
from repro.obs import metrics
from repro.primes.crt import CongruenceSystem

__all__ = ["SCRecord", "SCTable"]


#: Slack sentinel for records with no members (nothing can overflow).
_NO_SLACK = 1 << 62


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

    The last four fields serve :meth:`SCTable.shift_orders_from`;
    ``pending_base`` and ``stale`` matter only inside a batch:

    * ``pending_base`` — while ``stale``, the index of the first of the
      table's pending shift thresholds not yet folded into the residues,
    * ``cur_max`` — exact maximum member order (``-1`` when empty),
    * ``cur_slack`` — minimum of ``modulus - order`` over members; exact
      outside a batch and never over-estimating inside one, where a fold
      is forced before it could reach 0, i.e. before any residue could
      touch its modulus,
    * ``stale`` — whether a pending threshold moved a member, i.e. whether
      the stored residues lag the record's orders.
    """

    system: CongruenceSystem
    max_prime: int
    pending_base: int = 0
    cur_max: int = -1
    cur_slack: int = _NO_SLACK
    stale: bool = False

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
        if group_size is not None and group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.group_size = group_size
        self._records: List[SCRecord] = []
        self._record_of: Dict[int, int] = {}  # self_label -> record index
        self._batch_depth = 0
        self._pending: List[int] = []  # unfolded shift thresholds, in op order

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

        Reads the stored residue directly — by CRT construction it *is*
        ``sc % self_label`` (:meth:`check` verifies the equivalence), but
        the direct read is O(1) and never solves the CRT value.  Inside a
        :meth:`batch` the record may carry unfolded shift thresholds; they
        are replayed over the stored residue here, so reads stay exact
        mid-batch without folding the whole record.
        """
        record = self.record_for(self_label)
        order = record.system.residue(self_label)
        if record.stale:
            for threshold in self._pending[record.pending_base :]:
                if order >= threshold:
                    order += 1
        return order

    def groups(self) -> List[Tuple[int, List[Tuple[int, int]]]]:
        """Record-by-record ``(max_prime, [(modulus, residue), ...])`` dump.

        This is the durable form of the table: unlike :meth:`orders` it
        preserves the *grouping* of nodes into SC records, which
        :meth:`register` depends on (it appends to the last record while it
        has room) — so a table restored from groups behaves identically to
        the original under further updates.
        """
        if self._batch_depth:
            self._fold_all()
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
        value is solved when first read); ``max_prime`` is validated
        against the group's members (a corrupt snapshot must not smuggle in
        a broken routing key).  Empty groups are legal — :meth:`unregister` can drain a
        record without removing it, and the drained record still absorbs
        future registrations — and round-trip with ``max_prime == 0``.
        :meth:`repro.order.document.OrderedDocument.compact` builds every
        fresh table through here too, from its preorder chunks.
        """
        table = cls(group_size=group_size)
        for index, (max_prime, members) in enumerate(groups):
            moduli = [modulus for modulus, _residue in members]
            if max_prime != max(moduli, default=0):
                raise OrderingError(
                    f"SC group #{index} routing key {max_prime} != max modulus"
                )
            if table.group_size is not None and len(members) > table.group_size:
                raise OrderingError(
                    f"SC group #{index} holds {len(members)} nodes; "
                    f"group_size is {table.group_size}"
                )
            cur_max, cur_slack = -1, _NO_SLACK
            for modulus, residue in members:
                if not 0 <= residue < modulus:
                    raise OrderingError(
                        f"residue {residue} is not valid for modulus {modulus}"
                    )
                if modulus in table._record_of:
                    raise OrderingError(f"self-label {modulus} appears twice")
                table._record_of[modulus] = index
                if residue > cur_max:
                    cur_max = residue
                if modulus - residue < cur_slack:
                    cur_slack = modulus - residue
            system = CongruenceSystem(moduli, [residue for _m, residue in members])
            table._records.append(
                SCRecord(system, max_prime, cur_max=cur_max, cur_slack=cur_slack)
            )
        return table

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------

    @property
    def in_batch(self) -> bool:
        """Whether a :meth:`batch` context is currently open."""
        return self._batch_depth > 0

    def _refresh_caches(self, index: int) -> None:
        """Recompute a folded record's exact ``cur_max``/``cur_slack``."""
        record = self._records[index]
        cur_max, cur_slack = -1, _NO_SLACK
        for modulus, order in record.system.congruences():
            if order > cur_max:
                cur_max = order
            slack = modulus - order
            if slack < cur_slack:
                cur_slack = slack
        record.cur_max = cur_max
        record.cur_slack = cur_slack

    def _fold(self, index: int) -> List[Tuple[int, int]]:
        """Apply a stale record's pending shift thresholds to its residues.

        Replays ``self._pending[record.pending_base:]`` in operation order
        over every member, which reproduces the sequential per-op shifts
        exactly.  Members whose folded order reaches their modulus are
        returned as ``(self_label, new_order)`` overflow pairs *without*
        writing their residue — the caller unregisters and relabels them,
        exactly as the unbatched :meth:`shift_orders_from` would have.

        Because :meth:`shift_orders_from` forces a fold whenever a record's
        conservative slack drops to 1, an overflow can only ever surface in
        a fold triggered by the shift that caused it — so folds from
        :meth:`register`/:meth:`unregister`/batch-exit never return pairs.
        """
        record = self._records[index]
        if not record.stale:
            return []
        record.stale = False
        updates: Dict[int, int] = {}
        overflowed: List[Tuple[int, int]] = []
        shifted = 0
        cur_max, cur_slack = -1, _NO_SLACK
        tail = self._pending[record.pending_base :]
        for modulus, base in record.system.congruences():
            order = base
            for threshold in tail:
                if order >= threshold:
                    order += 1
            if order > base and order >= modulus:
                # The final +1 is the overflowing one; sequential accounting
                # charges it to sc.residue_overflows, not sc.shift_span.
                shifted += order - base - 1
                overflowed.append((modulus, order))
                continue  # unregistered by the caller; keep it out of the caches
            if order > base:
                updates[modulus] = order
                shifted += order - base
            if order > cur_max:
                cur_max = order
            slack = modulus - order
            if slack < cur_slack:
                cur_slack = slack
        if updates:
            record.system.set_residues(updates)
        record.cur_max = cur_max
        record.cur_slack = cur_slack
        metrics.incr("sc.shift_span", shifted)
        return overflowed

    def _checked_fold(self, index: int) -> None:
        """Fold one record where the slack invariant forbids overflow."""
        leftover = self._fold(index)
        if leftover:  # pragma: no cover - guarded by the slack invariant
            raise OrderingError(
                f"SC record #{index} overflowed outside shift_orders_from: "
                f"{leftover}"
            )

    def _fold_all(self) -> None:
        """Fold every stale record; the pending list empties."""
        for index, record in enumerate(self._records):
            if record.stale:
                self._checked_fold(index)
        self._pending.clear()

    @contextmanager
    def batch(self) -> Iterator["SCTable"]:
        """Coalesce order shifts across a run of mutations.

        Inside the context :meth:`shift_orders_from` leaves the residues of
        the records it reaches unfolded, so a run of shifts costs
        O(records) per shift instead of O(nodes).  Reads
        (:meth:`order_of`) replay the pending thresholds and membership
        changes fold them first, so every operation observes exactly the
        state the sequential path would produce — including
        residue-overflow repairs, which are forced to surface at the very
        operation that caused them.  When the outermost context exits — on
        success *or* failure — the records left stale are folded.  No CRT
        value is solved here: a record's value is solved when something
        reads it (metric ``sc.batch_solves``).  Contexts nest; only the
        outermost one commits.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._fold_all()

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
            # Fold first so the new member and the existing ones share the
            # same (current) coordinate space.
            self._checked_fold(index)
            record = self._records[index]
            record.system.append(self_label, order)
            record.max_prime = max(record.max_prime, self_label)
            record.cur_max = max(record.cur_max, order)
            record.cur_slack = min(record.cur_slack, self_label - order)
            self._record_of[self_label] = index
        else:
            system = CongruenceSystem([self_label], [order])
            self._records.append(
                SCRecord(system, self_label, cur_max=order, cur_slack=self_label - order)
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
        self._checked_fold(index)
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
        scan.  A touched record's members are rewritten and its aggregates
        recomputed in the same pass.  Inside a :meth:`batch` the shift is
        coalesced instead (see :meth:`_shift_coalesced`).
        """
        if self._batch_depth:
            return self._shift_coalesced(threshold)
        touched = 0
        shifted = 0
        overflowed: List[Tuple[int, int]] = []
        for record in self._records:
            if record.cur_max < threshold:
                continue
            touched += 1
            updates: Dict[int, int] = {}
            cur_slack = _NO_SLACK
            for modulus, order in record.system.congruences():
                if order >= threshold:
                    order += 1
                    if order >= modulus:
                        overflowed.append((modulus, order))
                        continue  # unregistered below, which refreshes the caches
                    updates[modulus] = order
                if modulus - order < cur_slack:
                    cur_slack = modulus - order
            if updates:
                record.system.set_residues(updates)
                shifted += len(updates)
            record.cur_max += 1
            record.cur_slack = cur_slack
        for self_label, _new_order in overflowed:
            self.unregister(self_label)
        metrics.incr("sc.records_touched", touched)
        metrics.incr("sc.shift_span", shifted)
        metrics.incr("sc.residue_overflows", len(overflowed))
        return touched, overflowed

    def _shift_coalesced(self, threshold: int) -> Tuple[int, List[Tuple[int, int]]]:
        """The batched shift: O(records) aggregate maintenance per call.

        The threshold joins the pending list and only the aggregates of the
        records it reaches move.  A touched record's maximum grows by
        exactly one, and its minimum slack shrinks by at most one —
        decrementing unconditionally keeps ``cur_slack`` a safe
        under-estimate.  When it hits 1 a residue may reach its modulus on
        this very shift, so the record folds now and any real overflow is
        returned from *this* call, keeping overflow repair (and the prime
        issuance it triggers) on the sequential schedule.
        """
        pending = self._pending
        pending.append(threshold)
        touched = 0
        overflowed: List[Tuple[int, int]] = []
        for index, record in enumerate(self._records):
            if record.cur_max < threshold:
                continue
            if not record.stale:
                record.stale = True
                record.pending_base = len(pending) - 1
            record.cur_max += 1
            record.cur_slack -= 1
            touched += 1
            if record.cur_slack <= 1:
                overflowed.extend(self._fold(index))
        for self_label, _new_order in overflowed:
            self.unregister(self_label)
        metrics.incr("sc.records_touched", touched)
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
        self._checked_fold(index)
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
