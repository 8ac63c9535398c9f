"""Crash recovery: snapshot + WAL replay + invariant audit + fallback.

The open path of a durable collection directory::

    dir/
      wal.log            append-only update history
      snap-00000001.rpsn oldest retained snapshot generation
      snap-00000002.rpsn latest snapshot generation

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

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.durable.snapshot import SnapshotState, read_snapshot, restore_collection
from repro.durable.wal import WalRecord, WalScan, scan_wal
from repro.errors import DurabilityError, RecoveryError, ReproError
from repro.obs import metrics
from repro.obs.audit import audit_ordered_document
from repro.query.live import LiveCollection
from repro.xmlkit.parser import parse_document
from repro.xmlkit.tree import XmlElement

__all__ = [
    "BootstrapPoint",
    "RecoveryInfo",
    "RecoveredState",
    "apply_operation",
    "list_shard_directories",
    "read_pointer",
    "recover",
    "recover_shard",
    "resolve_bootstrap",
    "shard_directory",
    "write_pointer",
]

WAL_NAME = "wal.log"
SNAPSHOT_PATTERN = re.compile(r"^snap-(\d{8})\.rpsn$")
#: Per-shard subdirectory naming under a sharded-collection root.  Each
#: ``shard-NN/`` is a complete, self-contained durable directory (its own
#: ``wal.log`` + snapshot generations + ``CURRENT``), so shard recovery
#: is exactly single-collection recovery run against the subdirectory —
#: one shard's corruption can never spill into a sibling's state.
SHARD_DIR_PATTERN = re.compile(r"^shard-(\d{2,})$")
#: Atomic manifest naming the latest complete snapshot generation.  An
#: *external* reader (a replica bootstrapping over a shared filesystem)
#: cannot safely race ``list_generations`` against the primary's
#: checkpoint — the newest generation it lists may be half-written or
#: already deleted by the time it opens the file.  The pointer is written
#: by ``os.replace`` *after* the snapshot it names is durable, so
#: whatever JSON a reader decodes names a snapshot that was complete at
#: pointer-write time.
POINTER_NAME = "CURRENT"


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


@dataclass(frozen=True)
class BootstrapPoint:
    """An atomically-resolved "start here" for replica bootstrap."""

    generation: int
    path: Path
    last_seq: int


def write_pointer(directory: Path, generation: int, last_seq: int) -> None:
    """Atomically publish ``generation`` as the latest complete snapshot.

    Written after every checkpoint (and at create time), before stale
    generations are deleted, so a reader that decodes the pointer never
    chases a file the very same checkpoint is about to remove.
    """
    directory = Path(directory)
    pointer = {
        "generation": generation,
        "snapshot": snapshot_path(directory, generation).name,
        "last_seq": last_seq,
    }
    blob = json.dumps(pointer, sort_keys=True).encode("utf-8")
    tmp = directory / (POINTER_NAME + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        # repro: ignore[R10] -- atomic-rename protocol: the pointer must
        # be durable before os.replace or a crash could leave a pointer
        # naming a never-written snapshot; no fsync policy applies here
        handle.flush()
        # repro: ignore[R10] -- second half of the atomic-rename fsync
        os.fsync(handle.fileno())
    os.replace(tmp, directory / POINTER_NAME)
    metrics.incr("durable.pointer_writes")


def read_pointer(directory: Path) -> Optional[Dict[str, Any]]:
    """Decode the ``CURRENT`` pointer, or ``None`` when absent/corrupt.

    A corrupt pointer is not an error: the file predates this scheme or a
    crash interrupted an OS that reorders metadata — callers fall back to
    scanning generations, exactly as if the pointer did not exist.
    """
    path = Path(directory) / POINTER_NAME
    try:
        decoded = json.loads(path.read_text("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        metrics.incr("durable.pointer_misses")
        return None
    if (
        not isinstance(decoded, dict)
        or not isinstance(decoded.get("generation"), int)
        or not isinstance(decoded.get("last_seq"), int)
    ):
        metrics.incr("durable.pointer_misses")
        return None
    return decoded


def resolve_bootstrap(
    directory: str | Path, attempts: int = 3
) -> Tuple[BootstrapPoint, SnapshotState]:
    """Atomically resolve "latest complete snapshot + its starting LSN".

    The replica-bootstrap entry point: prefers the ``CURRENT`` pointer and
    verifies the named snapshot actually decodes; when the pointer is
    missing, stale (its file was already rotated away), or corrupt, falls
    back to scanning generations newest-first.  The whole resolution
    retries up to ``attempts`` times because a checkpoint can rotate files
    between any two steps; each retry re-reads the pointer, which by then
    names the *new* complete generation.

    Raises :class:`repro.errors.RecoveryError` when no generation can be
    decoded at all.
    """
    directory = Path(directory)
    last_error: Optional[Exception] = None
    for _ in range(max(1, attempts)):
        pointer = read_pointer(directory)
        if pointer is not None:
            generation = pointer["generation"]
            path = snapshot_path(directory, generation)
            try:
                state = read_snapshot(path)
            except ReproError as error:
                # Pointer raced a rotation or names damage; fall through
                # to the generation scan and, failing that, retry.
                last_error = error
                metrics.incr("durable.bootstrap_pointer_races")
            else:
                point = BootstrapPoint(
                    generation=generation, path=path, last_seq=state.last_seq
                )
                return point, state
        try:
            generations = list_generations(directory)
        except OSError as error:
            # A missing/unreadable directory is an unrecoverable-bootstrap
            # condition, not a crash: report it as the RecoveryError below.
            last_error = error
            metrics.incr("durable.bootstrap_scan_fallbacks")
            generations = []
        for generation in reversed(generations):
            path = snapshot_path(directory, generation)
            try:
                state = read_snapshot(path)
            except ReproError as error:
                last_error = error
                metrics.incr("durable.bootstrap_scan_fallbacks")
                continue
            point = BootstrapPoint(
                generation=generation, path=path, last_seq=state.last_seq
            )
            return point, state
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


def _node_at(collection: LiveCollection, doc: int, position: int) -> XmlElement:
    roots = collection.documents
    if type(doc) is not int or not 0 <= doc < len(roots):
        raise DurabilityError(f"WAL references document {doc!r}; have {len(roots)}")
    node = roots[doc].node_at(position)
    if node is None:
        raise DurabilityError(
            f"WAL references preorder position {position!r} of document {doc}, "
            "which does not exist"
        )
    return node


def apply_operation(collection: LiveCollection, op: Dict[str, Any]) -> None:
    """Apply one decoded WAL operation to ``collection``.

    Operations address nodes by ``(document index, preorder position)`` —
    both are stable identifiers *at the moment the operation was logged*,
    and replay visits operations in logged order, so the addressing is
    exact.
    """
    kind = op.get("op")
    if kind == "insert_child":
        parent = _node_at(collection, op["doc"], op["parent"])
        collection.insert_child(parent, op["index"], tag=op["tag"])
    elif kind == "insert_before":
        reference = _node_at(collection, op["doc"], op["ref"])
        collection.insert_before(reference, tag=op["tag"])
    elif kind == "insert_after":
        reference = _node_at(collection, op["doc"], op["ref"])
        collection.insert_after(reference, tag=op["tag"])
    elif kind == "delete":
        collection.delete(_node_at(collection, op["doc"], op["node"]))
    elif kind == "add_document":
        collection.add_document(parse_document(op["xml"]))
    elif kind == "compact":
        collection.compact()
    elif kind == "batch":
        # A group commit: sub-ops replay in logged order as one unit (the
        # record is atomic under the torn-tail rule, so a half batch never
        # reaches here).  Each sub-op's address was encoded immediately
        # before it originally applied, which is exactly the state this
        # sequential replay presents.  batch_scope keeps replay's CRT cost
        # on the original group-commit footing: one solve per touched SC
        # record for the whole batch.
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
