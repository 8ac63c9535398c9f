"""Crash recovery: snapshot + WAL replay + invariant audit + fallback.

The open path of a durable collection directory::

    dir/
      wal.log            append-only update history
      snap-00000001.rpsn oldest retained snapshot generation
      snap-00000002.rpsn latest snapshot generation

Any other name is ignored: a ``<name>.tmp`` a crash left behind, or the
``CURRENT`` pointer file older versions wrote (the newest generation is
found by listing, :func:`resolve_bootstrap`).

Recovery protocol (see ``docs/DURABILITY.md``):

1. Scan the WAL once; a torn tail is noted (the opener truncates it).
2. Walk snapshot generations newest-first.  For each: checksum-verify and
   decode it, restore the collection, replay every WAL record with
   ``seq`` greater than the snapshot's ``last_seq`` through real
   :class:`~repro.query.live.LiveCollection` updates, then cross-check
   the result with :func:`repro.obs.audit.audit_ordered_document`.
3. The first generation that survives all of that wins.  A generation
   that fails *any* step (bad checksum, undecodable, replay error, audit
   violation) is skipped and the previous one is tried — stale-but-valid
   state always beats fresh-but-corrupt state.
4. If no generation survives, :class:`repro.errors.RecoveryError`.

Replay re-executes operations through the same code paths the original
process used; because prime issuance and SC maintenance are deterministic
functions of the starting state, the recovered collection's labels, SC
values, and query results are byte-identical to a process that never
crashed (the crash-matrix tests assert exactly this, via
:func:`repro.durable.snapshot.collection_fingerprint`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.durable.snapshot import SnapshotState, read_snapshot, restore_collection
from repro.durable.wal import _OP_FIELDS, WalRecord, WalScan, scan_wal
from repro.errors import DurabilityError, RecoveryError, ReproError
from repro.obs import metrics
from repro.obs.audit import audit_ordered_document
from repro.query.live import BatchOp, LiveCollection
from repro.xmlkit.parser import parse_document
from repro.xmlkit.tree import XmlElement

__all__ = [
    "RecoveryInfo",
    "RecoveredState",
    "apply_operation",
    "batch_op",
    "list_shard_directories",
    "op_record",
    "recover",
    "recover_shard",
    "resolve_bootstrap",
    "resolve_op",
    "shard_directory",
]

WAL_NAME = "wal.log"
SNAPSHOT_PATTERN = re.compile(r"^snap-(\d{8})\.rpsn$")
#: Per-shard subdirectory naming under a sharded-collection root.  Each
#: ``shard-NN/`` is a complete, self-contained durable directory (its own
#: ``wal.log`` + snapshot generations), so shard recovery is exactly
#: single-collection recovery run against the subdirectory — one shard's
#: corruption can never spill into a sibling's state.
SHARD_DIR_PATTERN = re.compile(r"^shard-(\d{2,})$")


def snapshot_path(directory: Path, generation: int) -> Path:
    """The canonical snapshot filename for ``generation``."""
    return Path(directory) / f"snap-{generation:08d}.rpsn"


def list_generations(directory: Path) -> List[int]:
    """Snapshot generations present in ``directory``, ascending."""
    generations = []
    for entry in directory.iterdir():
        match = SNAPSHOT_PATTERN.match(entry.name)
        if match:
            generations.append(int(match.group(1)))
    return sorted(generations)


def shard_directory(root: str | Path, shard_id: int) -> Path:
    """The canonical durable directory for ``shard_id`` under ``root``."""
    if shard_id < 0:
        raise DurabilityError(f"shard id must be non-negative, got {shard_id}")
    return Path(root) / f"shard-{shard_id:02d}"


def list_shard_directories(root: str | Path) -> List[Tuple[int, Path]]:
    """``(shard id, directory)`` pairs present under ``root``, ascending.

    Only names matching :data:`SHARD_DIR_PATTERN` count; anything else in
    the root (the shard manifest, stray files) is ignored.
    """
    root = Path(root)
    found: List[Tuple[int, Path]] = []
    if not root.is_dir():
        return found
    for entry in root.iterdir():
        match = SHARD_DIR_PATTERN.match(entry.name)
        if match and entry.is_dir():
            found.append((int(match.group(1)), entry))
    return sorted(found)


def recover_shard(
    root: str | Path, shard_id: int, verify: bool = True
) -> RecoveredState:
    """Recover one shard of a sharded collection root.

    The per-shard recovery entry point: runs the full single-collection
    protocol (:func:`recover`) against the shard's private subdirectory.
    This is what a restarted shard worker executes before rejoining the
    router, and what operators can run offline on a single sick shard.
    """
    return recover(shard_directory(root, shard_id), verify=verify)


def resolve_bootstrap(directory: str | Path, attempts: int = 3) -> SnapshotState:
    """The newest snapshot generation in ``directory`` that decodes.

    The replica-bootstrap entry point: generations are tried newest-first
    and one that fails its checks is skipped.  No pointer is needed to
    find a complete one: a snapshot gets its final name only by an atomic
    rename after its bytes are durable (a ``.tmp`` name never matches
    :data:`SNAPSHOT_PATTERN`), and the CRC footer rejects a damaged or
    half-copied file.  The scan retries up to ``attempts`` times because
    a checkpoint can delete the generations it listed before it reads
    them; a retry lists the new ones.

    Raises :class:`repro.errors.RecoveryError` when no generation can be
    decoded at all.
    """
    directory = Path(directory)
    last_error: Optional[Exception] = None
    for _ in range(max(1, attempts)):
        try:
            generations = list_generations(directory)
        except OSError as error:
            # A missing/unreadable directory is an unrecoverable-bootstrap
            # condition, not a crash: report it as the RecoveryError below.
            last_error = error
            metrics.incr("durable.bootstrap_scan_fallbacks")
            generations = []
        for generation in reversed(generations):
            try:
                return read_snapshot(snapshot_path(directory, generation))
            except ReproError as error:
                last_error = error
                metrics.incr("durable.bootstrap_scan_fallbacks")
    raise RecoveryError(
        f"no complete snapshot generation could be resolved in {directory}"
        + (f": {last_error}" if last_error else "")
    )


@dataclass
class RecoveryInfo:
    """What recovery did, for operators and tests."""

    generation: int
    snapshot_last_seq: int
    replayed_records: int
    last_seq: int
    torn_bytes: int
    skipped_generations: List[int] = field(default_factory=list)
    audit_checks: int = 0

    def summary(self) -> str:
        """Human-readable multi-line account of how recovery proceeded."""
        lines = [
            f"recovered from snapshot generation {self.generation} "
            f"(covers seq {self.snapshot_last_seq})",
            f"replayed {self.replayed_records} WAL record(s) "
            f"up to seq {self.last_seq}",
        ]
        if self.torn_bytes:
            lines.append(f"truncated {self.torn_bytes} torn tail byte(s)")
        if self.skipped_generations:
            skipped = ", ".join(str(g) for g in self.skipped_generations)
            lines.append(f"fell back past corrupt generation(s): {skipped}")
        lines.append(f"audit: {self.audit_checks} checks, 0 violations")
        return "\n".join(lines)


@dataclass
class RecoveredState:
    """A recovered collection plus the recovery report."""

    collection: LiveCollection
    info: RecoveryInfo


# ----------------------------------------------------------------------
# The WAL op record: one builder, one resolver
# ----------------------------------------------------------------------

#: The record key holding each node op's target position — ``parent`` for
#: ``insert_child``, ``ref`` for the sibling inserts, ``node`` for
#: ``delete`` — read off the WAL codec's field table (``doc`` comes first,
#: the target second), so the names are spelled once.
_TARGET_KEY = {kind: _OP_FIELDS[kind][1][0] for kind in BatchOp.KINDS}


def op_record(
    kind: str, doc: int, position: int, index: Optional[int] = None, tag: str = "new"
) -> Dict[str, Any]:
    """The WAL record of one node op whose target is ``(doc, position)``.

    ``position`` is the target's preorder position *before* the op applies
    (the parent for ``insert_child``, the reference sibling for the
    sibling inserts, the doomed node for ``delete``); ``index`` is logged
    for ``insert_child`` only and ``tag`` for every insert.  Every writer
    of node-op records — the durable collection and its group commit —
    builds them here.
    """
    record: Dict[str, Any] = {"op": kind, "doc": doc, _TARGET_KEY[kind]: position}
    if kind == "insert_child":
        record["index"] = index
    if kind != "delete":
        record["tag"] = tag
    return record


def _node_at(roots: Sequence[XmlElement], doc: Any, position: Any) -> XmlElement:
    """The node at preorder ``position`` of document ``doc``, or a typed error."""
    if type(doc) is not int or not 0 <= doc < len(roots):
        raise DurabilityError(
            f"operation references document {doc!r}; have {len(roots)}"
        )
    node = roots[doc].node_at(position)
    if node is None:
        raise DurabilityError(
            f"operation references preorder position {position!r} of document "
            f"{doc}, which does not exist"
        )
    return node


def batch_op(kind: Any, node: XmlElement, fields: Dict[str, Any]) -> BatchOp:
    """The :class:`BatchOp` of ``kind`` on ``node``, with a record's fields.

    :class:`BatchOp` checks the kind, ``index`` and ``tag``, so a record
    that decoded cleanly but carries a malformed field fails here with a
    typed error instead of misplacing the node.
    """
    if kind == "delete":
        return BatchOp.delete(node)
    return BatchOp(kind, node, index=fields.get("index"), tag=fields.get("tag"))


def resolve_op(roots: Sequence[XmlElement], record: Dict[str, Any]) -> BatchOp:
    """Rebuild the :class:`BatchOp` a node-op record (:func:`op_record`) was
    logged from, addressed against ``roots`` — the state it was logged in."""
    kind = record.get("op")
    if kind not in _TARGET_KEY:
        raise DurabilityError(f"{kind!r} is not a node operation")
    node = _node_at(roots, record.get("doc"), record.get(_TARGET_KEY[kind]))
    return batch_op(kind, node, record)


def apply_operation(collection: LiveCollection, op: Dict[str, Any]) -> None:
    """Apply one decoded WAL operation to ``collection``.

    Operations address nodes by ``(document index, preorder position)`` —
    both are stable identifiers *at the moment the operation was logged*,
    and replay visits operations in logged order, so the addressing is
    exact.
    """
    kind = op.get("op")
    if kind in BatchOp.KINDS:
        collection.apply(resolve_op(collection.documents, op))
    elif kind == "add_document":
        collection.add_document(parse_document(op["xml"]))
    elif kind == "compact":
        collection.compact()
    elif kind == "batch":
        # A group commit: sub-ops replay in logged order as one unit (the
        # record is atomic under the torn-tail rule, so a half batch never
        # reaches here).  Each sub-op's address was encoded immediately
        # before it originally applied, which is exactly the state this
        # sequential replay presents.  batch_scope opens the document batch
        # scopes the original apply_batch ran in; they defer nothing, so
        # each sub-op's SC shifts cost what they cost then.
        with collection.batch_scope():
            for sub_op in op["ops"]:
                apply_operation(collection, sub_op)
    else:
        raise DurabilityError(f"unknown WAL operation {kind!r}")


def _replay(
    collection: LiveCollection, records: List[WalRecord], after_seq: int
) -> int:
    replayed = 0
    for record in records:
        if record.seq <= after_seq:
            continue
        apply_operation(collection, record.op)
        replayed += 1
    metrics.incr("recovery.replayed_records", replayed)
    return replayed


def _verify(collection: LiveCollection) -> int:
    """Run the deep auditor over every document; returns checks performed.

    Raises :class:`repro.errors.DurabilityError` on any violation so the
    caller treats the generation as corrupt and falls back.
    """
    checks = 0
    for index, document in enumerate(collection.ordered_documents):
        report = audit_ordered_document(document)
        checks += sum(report.checks.values())
        if not report.ok:
            raise DurabilityError(
                f"recovered document {index} failed its invariant audit:\n"
                + report.summary()
            )
    return checks


def recover(
    directory: str | Path,
    verify: bool = True,
) -> RecoveredState:
    """Recover the durable collection stored in ``directory``.

    Tries snapshot generations newest-first, replaying the WAL suffix and
    (by default) auditing the result; falls back on any corruption.  The
    WAL's torn tail, if any, is reported in the returned info — actually
    truncating it on disk is the opener's job
    (:class:`repro.durable.wal.WriteAheadLog` repairs on open).
    """
    with metrics.timed("recovery.run"):
        directory = Path(directory)
        if not directory.is_dir():
            raise RecoveryError(f"{directory} is not a durable collection directory")
        generations = list_generations(directory)
        if not generations:
            raise RecoveryError(f"{directory} holds no snapshot generations")
        scan: WalScan = scan_wal(directory / WAL_NAME)
        skipped: List[int] = []
        failures: List[str] = []
        for generation in reversed(generations):
            path = snapshot_path(directory, generation)
            try:
                state = read_snapshot(path)
                collection = restore_collection(state)
                replayed = _replay(collection, scan.records, state.last_seq)
                audit_checks = _verify(collection) if verify else 0
            except ReproError as error:
                skipped.append(generation)
                failures.append(f"generation {generation}: {error}")
                metrics.incr("recovery.snapshot_fallbacks")
                continue
            info = RecoveryInfo(
                generation=generation,
                snapshot_last_seq=state.last_seq,
                replayed_records=replayed,
                last_seq=max(scan.last_seq, state.last_seq),
                torn_bytes=scan.torn_bytes,
                skipped_generations=skipped,
                audit_checks=audit_checks,
            )
            metrics.incr("recovery.runs")
            return RecoveredState(collection=collection, info=info)
        detail = "; ".join(failures)
        raise RecoveryError(
            f"no snapshot generation in {directory} is recoverable: {detail}"
        )
