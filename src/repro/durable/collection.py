"""A crash-safe wrapper around :class:`~repro.query.live.LiveCollection`.

:class:`DurableCollection` is the user-facing face of the durability
subsystem: the same update/query surface as the live collection, plus a
directory on disk that always holds enough state to reconstruct the
in-memory collection after a crash —

* ``wal.log`` — every mutation, logged *before* it is applied,
* ``snap-<generation>.rpsn`` — periodic checksummed snapshots (the last
  two generations are retained so a corrupt latest snapshot still leaves
  a recoverable, merely stale, base).

The write protocol per mutation:

1. validate the operation against the in-memory state (so a logged
   record is guaranteed to replay cleanly),
2. encode the target node as ``(document index, preorder position)``
   *before* mutating (positions shift under the mutation itself),
3. append the record to the WAL (fsynced per policy),
4. apply the operation to the live collection.

Every named node mutation (``insert_child`` … ``delete``, inherited from
:class:`~repro.query.live.NodeMutations`) reaches this protocol through
:meth:`DurableCollection.apply`; the record it logs is built by
:func:`repro.durable.recovery.op_record`, next to the resolver replay uses.

A crash between 3 and 4 is harmless: replay applies the logged record to
the snapshot state and reaches exactly where step 4 would have.  A crash
between 1 and 3 loses the operation entirely, which is also consistent —
the caller never got an acknowledgement.

Batches invert the protocol (**apply, then group-commit**): the sub-ops
are applied in memory first — computing each one's WAL address immediately
before it applies, which is exactly the state sequential replay sees —
and then all of them are logged as *one* record (one append, one fsync).
A crash before the record lands leaves no trace of the batch on disk, so
recovery restores the pre-batch state; once it lands the whole batch
replays.  Either way the batch is atomic.  If applying or logging fails
in-process, :meth:`DurableCollection.apply_batch` rolls the in-memory
collection back by reloading the last durable state, so a failed batch is
safely retriable as a unit (the resilient layer does exactly that).

:meth:`checkpoint` first fsyncs the WAL (so no retained snapshot ever
claims coverage of records the log does not durably hold), then writes a
new snapshot generation, drops generations beyond the last two, and
prunes WAL records already covered by the *oldest* retained generation.
That generation's coverage is read from its CRC-checked header
(:func:`~repro.durable.snapshot.read_snapshot_seq`), not a full decode.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.durable.faults import FaultPlan, InjectedCrash
from repro.durable.recovery import (
    RecoveryInfo,
    WAL_NAME,
    _node_at,
    batch_op,
    list_generations,
    op_record,
    recover,
    snapshot_path,
)
from repro.durable.snapshot import read_snapshot_seq, write_snapshot
from repro.durable.wal import FsyncPolicy, WriteAheadLog, batch_record
from repro.errors import (
    DurabilityError,
    OrderingError,
    ReproError,
    SnapshotCorruptError,
)
from repro.obs import metrics
from repro.order.document import OrderedUpdateReport
from repro.query.live import BatchOp, BatchReport, LiveCollection, NodeMutations
from repro.xmlkit.serialize import serialize
from repro.xmlkit.tree import XmlElement

__all__ = ["DurableCollection"]

#: Snapshot generations kept after a checkpoint: the fresh one plus one
#: fallback.  More would widen the corruption tolerance at linear disk
#: cost; the recovery protocol works unchanged for any retention depth.
RETAINED_GENERATIONS = 2


class DurableCollection(NodeMutations):
    """A live collection whose every update survives process death."""

    def __init__(
        self,
        directory: Path,
        live: LiveCollection,
        wal: WriteAheadLog,
        last_seq: int,
        faults: Optional[FaultPlan] = None,
    ):
        self.directory = directory
        self.live = live
        self.wal = wal
        self.last_seq = last_seq
        self.faults = faults
        #: Recovery report from :meth:`open`; ``None`` for fresh collections.
        self.last_recovery: Optional[RecoveryInfo] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        documents: Sequence[XmlElement],
        group_size: int | None = 5,
        strategy: str = "scan",
        fsync: "str | FsyncPolicy" = "always",
        faults: Optional[FaultPlan] = None,
    ) -> "DurableCollection":
        """Initialise a fresh durable collection in ``directory``.

        Writes snapshot generation 1 (the empty-WAL base state) and opens
        the log.  Refuses a directory that already holds a collection —
        use :meth:`open` for that.  A bad ``fsync`` policy is refused
        before anything is written.
        """
        fsync = FsyncPolicy.parse(fsync)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if list_generations(directory) or (directory / WAL_NAME).exists():
            raise DurabilityError(
                f"{directory} already holds a durable collection; "
                "open() it instead of create()"
            )
        live = LiveCollection(documents, group_size=group_size, strategy=strategy)
        write_snapshot(live, snapshot_path(directory, 1), last_seq=0, faults=faults)
        wal = WriteAheadLog(directory / WAL_NAME, fsync=fsync, faults=faults)
        return cls(directory, live, wal, last_seq=0, faults=faults)

    @classmethod
    def open(
        cls,
        directory: str | Path,
        fsync: "str | FsyncPolicy" = "always",
        faults: Optional[FaultPlan] = None,
        verify: bool = True,
    ) -> "DurableCollection":
        """Recover the collection in ``directory`` and resume appending.

        Runs the full recovery protocol (snapshot + WAL replay + audit +
        generation fallback), truncates any torn WAL tail, rewrites a
        legacy (version-1) WAL at version 3, and advances the log past
        every sequence number the recovered state already covers.  The
        recovery report is kept on ``last_recovery``.
        """
        directory = Path(directory)
        recovered = recover(directory, verify=verify)
        wal = WriteAheadLog(directory / WAL_NAME, fsync=fsync, faults=faults)
        if wal.next_seq <= recovered.info.last_seq:
            # The snapshot covers records an unsynced WAL tail lost; never
            # reissue their sequence numbers (replay would drop the new
            # records as already-covered).
            wal.reset(recovered.info.last_seq + 1)
        collection = cls(
            directory,
            recovered.collection,
            wal,
            last_seq=recovered.info.last_seq,
            faults=faults,
        )
        collection.last_recovery = recovered.info
        return collection

    # ------------------------------------------------------------------
    # Logged mutations
    # ------------------------------------------------------------------

    def _validate(self, op: BatchOp, where: str = "") -> Tuple[int, int]:
        """Check ``op`` will replay cleanly; return its target's address.

        The address is ``(document index, preorder position)``, computed
        pre-mutation.  Both :meth:`apply` and :meth:`encode_batch` run this
        before anything is logged, so a logged record is never one replay
        rejects.  ``where`` names the op inside a batch.
        """
        node = op.node
        address = self.live.document_index_of(node), node.document_position()
        if op.kind != "insert_child" and node.is_root:
            raise OrderingError(
                f"{where}{op.kind} targets the document root, which has no "
                "siblings and cannot be deleted"
            )
        if op.kind == "insert_child" and not 0 <= op.index <= len(node.children):
            raise OrderingError(
                f"{where}insert index {op.index} out of range for a parent "
                f"with {len(node.children)} children"
            )
        return address

    def _log(self, op: dict) -> int:
        if self._closed:
            raise DurabilityError("durable collection is closed")
        seq = self.wal.append(op)
        return seq

    def apply(self, op: BatchOp) -> OrderedUpdateReport:
        """Logged single mutation: validate, log, then apply.

        Every named node mutation (:class:`~repro.query.live.NodeMutations`)
        lands here.
        """
        doc, position = self._validate(op)
        seq = self._log(op_record(op.kind, doc, position, op.index, op.tag))
        report = self.live.apply(op)
        self.last_seq = seq
        return report

    def add_document(self, root: XmlElement) -> int:
        """Logged addition of a whole document; returns its index.

        The WAL payload carries the document's serialized XML, so replay
        reconstructs an equivalent tree by re-parsing (compact
        serialization is a lossless round trip for mixed-content-free
        documents, which is all the toolkit produces).
        """
        if root.parent is not None:
            raise OrderingError(
                "add_document needs a detached root; detach() the subtree first"
            )
        seq = self._log({"op": "add_document", "xml": serialize(root)})
        index = self.live.add_document(root)
        self.last_seq = seq
        return index

    def compact(self) -> List[int]:
        """Logged SC-table compaction; returns per-document record counts."""
        seq = self._log({"op": "compact"})
        record_counts = self.live.compact()
        self.last_seq = seq
        return record_counts

    # ------------------------------------------------------------------
    # Batched mutations (group commit)
    # ------------------------------------------------------------------

    def encode_batch(self, ops: Sequence[BatchOp]) -> List[dict]:
        """Encode batch ops as addresses against the *current* state.

        Returns JSON-ready entries carrying ``(document index, preorder
        position)`` for each op's target, all in pre-batch coordinates.
        This addressed form is the retriable currency of a batch: node
        references die when a failed batch rolls the in-memory collection
        back, but addresses re-resolve against the reloaded (pre-batch-
        identical) state — see :meth:`resolve_batch`.
        """
        encoded: List[dict] = []
        for position, op in enumerate(ops):
            doc, node_position = self._validate(op, f"batch op #{position}: ")
            entry = {"kind": op.kind, "doc": doc, "pos": node_position}
            if op.kind == "insert_child":
                entry["index"] = op.index
            if op.kind != "delete":
                entry["tag"] = op.tag
            encoded.append(entry)
        return encoded

    def resolve_batch(self, encoded: Sequence[dict]) -> List[BatchOp]:
        """Re-materialize :class:`BatchOp`\\ s from an addressed batch.

        Resolves every address before any op applies, each by a descent
        through subtree sizes (:meth:`XmlElement.node_at`), against the
        current in-memory state — which, for a retried batch, is the
        rolled-back state the addresses were encoded against.
        """
        roots = self.live.documents
        return [
            batch_op(
                entry.get("kind"),
                _node_at(roots, entry.get("doc"), entry.get("pos")),
                entry,
            )
            for entry in encoded
        ]

    def apply_batch(self, ops: Sequence[BatchOp]) -> BatchReport:
        """Apply N mutations as one atomic, group-committed unit.

        All-or-nothing in memory *and* on disk: the sub-ops apply through
        the live collection's batch path, then land in the WAL as
        a single checksummed record (one append + one fsync per batch under
        ``fsync='always'``).  Any failure rolls the in-memory state back to
        the last durable state before re-raising, so node references held
        by the caller into mutated documents become stale — re-fetch from
        ``documents`` after a failed batch.
        """
        if self._closed:
            raise DurabilityError("durable collection is closed")
        ops = list(ops)
        if not ops:
            return BatchReport()
        return self.apply_batch_addressed(self.encode_batch(ops))

    def apply_batch_addressed(self, encoded: Sequence[dict]) -> BatchReport:
        """:meth:`apply_batch` for an already-:meth:`encode_batch`-ed batch.

        The resilient layer encodes once and retries this, because a
        rollback invalidates the node references the original ops carried
        while the addressed form survives.
        """
        if self._closed:
            raise DurabilityError("durable collection is closed")
        encoded = list(encoded)
        if not encoded:
            return BatchReport()
        payload: List[dict] = []

        def log_address(position: int, op: BatchOp) -> None:
            # Called by the live layer immediately before each sub-op
            # applies: these coordinates are exactly what sequential replay
            # of the batch record will see.
            doc = self.live.document_index_of(op.node)
            payload.append(
                op_record(op.kind, doc, op.node.document_position(), op.index, op.tag)
            )

        try:
            resolved = self.resolve_batch(encoded)
            report = self.live.apply_batch(resolved, before_op=log_address)  # repro: ignore[R17] -- group commit: the apply builds the batch record's addresses, the single _log call makes it durable, and any failure in between rolls back via _rollback_batch, so no applied-but-unlogged state survives
            seq = self._log(batch_record(payload))
        except InjectedCrash:
            # Simulated process death: in-memory state is moot, and the
            # torn-tail rule guarantees recovery lands on the pre-batch
            # state (the batch record never became fully durable).
            raise
        except Exception:
            self._rollback_batch()
            raise
        self.last_seq = seq
        metrics.incr("durable.group_commits")
        metrics.incr("durable.batched_ops", len(encoded))
        return report

    def _rollback_batch(self) -> None:
        """Discard a half-applied batch: reload memory from durable state.

        The WAL is repaired first so an ambiguous append (record bytes
        written but not acknowledged) cannot survive on disk while the
        caller is told the batch failed — otherwise a retry would apply the
        batch twice.  If even reloading fails, a :class:`DurabilityError`
        is raised (chained onto the original failure) because the in-memory
        state can no longer be trusted to match the log.
        """
        try:
            self.reopen_wal()
            recovered = recover(self.directory, verify=False)
        except (OSError, ReproError) as error:
            raise DurabilityError(
                "batch rollback could not reload the last durable state; "
                f"the in-memory collection may be ahead of the log: {error}"
            ) from error
        self.live = recovered.collection
        self.last_seq = recovered.info.last_seq
        metrics.incr("durable.batch_rollbacks")

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------

    def reopen_wal(self) -> None:
        """Repair and reopen the write-ahead log after a storage fault.

        Truncates any torn or poisoned tail (see
        :meth:`repro.durable.wal.WriteAheadLog.reopen`) and — when the
        surviving log chains behind sequence numbers this collection has
        already applied — resets it forward so no sequence number is ever
        reissued under a snapshot's coverage.  Called by the resilient
        layer before every retry of a failed durable operation.
        """
        if self._closed:
            raise DurabilityError("durable collection is closed")
        self.wal.reopen()
        if self.wal.next_seq <= self.last_seq:
            self.wal.reset(self.last_seq + 1)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Write a new snapshot generation; returns its generation number.

        Syncs the WAL first, so no snapshot ever claims sequence numbers
        the log does not durably hold.  Keeps the newest
        :data:`RETAINED_GENERATIONS` snapshots and prunes WAL records the
        oldest retained generation already covers (they can never be
        needed by any surviving replay path).  That generation's
        ``last_seq`` comes from its CRC-checked header; if the header
        fails its checks, nothing is pruned.
        """
        if self._closed:
            raise DurabilityError("durable collection is closed")
        with metrics.timed("durable.checkpoint"):
            self.wal.sync()
            generations = list_generations(self.directory)
            generation = (generations[-1] if generations else 0) + 1
            write_snapshot(
                self.live,
                snapshot_path(self.directory, generation),
                last_seq=self.last_seq,
                faults=self.faults,
            )
            retained = (generations + [generation])[-RETAINED_GENERATIONS:]
            for stale in generations:
                if stale not in retained:
                    snapshot_path(self.directory, stale).unlink(missing_ok=True)
            try:
                oldest_covered = read_snapshot_seq(
                    snapshot_path(self.directory, retained[0])
                )
            except SnapshotCorruptError:
                # A corrupt fallback snapshot means every WAL record might
                # still matter; prune nothing rather than guess.
                oldest_covered = 0
            self.wal.prune(oldest_covered)
            metrics.incr("durable.checkpoints")
        return generation

    def close(self) -> None:
        """Sync and close the log; the collection object becomes read-only.

        Marked closed even when the final WAL sync fails (the error still
        propagates) so a failing close cannot leave a half-open object.
        """
        if self._closed:
            return
        try:
            self.wal.close()
        finally:
            self._closed = True

    def __enter__(self) -> "DurableCollection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
