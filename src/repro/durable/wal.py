"""Append-only write-ahead log for order-sensitive collection updates.

Every mutation of a :class:`~repro.durable.collection.DurableCollection`
is appended here *before* it is applied in memory, so the complete update
history since the last snapshot can be replayed after a crash.  Replay
through real :class:`~repro.order.document.OrderedDocument` updates is
deterministic (prime issuance and SC rewrites are pure functions of the
starting state), which is what lets recovery reproduce the exact labels
and SC values of a never-crashed run.

File layout (all integers big-endian)::

    header   4 bytes magic b"RPWL", 1 byte version
    record   8 bytes seq   — monotonically increasing, +1 per record
             4 bytes len   — payload byte count
             4 bytes crc   — CRC32 over (seq ‖ len ‖ payload)
             len bytes payload — one encoded operation

The record framing (seq/len/crc) is identical in every version; the
header's version byte selects only the *payload* encoding.  Every log is
written at version 3, the compact binary operation codec: 1 opcode byte,
then the operation's fields as LEB128 varints (ints) and
varint-length-prefixed UTF-8 (strings).  Batch records nest their
sub-operations with the same grammar; opcode 0 is a varint-length-prefixed
JSON fallback for shapes the binary codec does not know, so no payload is
ever unrepresentable.

Version 1 (canonical-JSON payloads) is read-only: the scanner still
decodes it, and :class:`WriteAheadLog` rewrites a version-1 log at version
3 (same sequence numbers, same operations) when it opens one, so appends
never mix encodings.

Sequence numbers are assigned by the log and never reused; a snapshot
records the last sequence it covers, so the replay suffix is "every
record with ``seq`` greater than that".

**One reader.**  :func:`read_header` checks the header and
:func:`scan_records` decodes records; :func:`scan_wal` runs them over a
whole local file, and :class:`repro.replica.WalTailer` is the one
incremental cursor (over a local file, ``WalTailer(FileTransport(path))``).

**Torn-tail rule**: a crash can leave a half-written final record (or,
under ``fsync='never'``/``'batch'``, lose several).  :func:`scan_wal`
stops at the first record that is short, fails its CRC, or breaks the
sequence chain; everything before that point is trusted, everything from
it on is dead weight and :class:`WriteAheadLog`'s repair pass on open
truncates it.  Corruption *before* the valid tail cannot be distinguished
from a torn tail by the scanner — it simply shortens the usable prefix,
and the snapshot fallback in :mod:`repro.durable.recovery` covers the
rest.

Fsync policy decides when appended bytes are forced to disk:

* ``"always"`` — fsync after every append (no acknowledged record is ever
  lost; slowest),
* ``"batch:N"`` — fsync every N appends (bounded loss window of N-1
  acknowledged records),
* ``"never"`` — leave it to the OS (fastest; loss window unbounded until
  :meth:`~WriteAheadLog.close`, which always syncs).

**Group commit**: a batched mutation
(:meth:`~repro.durable.collection.DurableCollection.apply_batch`) logs all
of its N logical operations as *one* record whose payload is
:func:`batch_record` — ``{"op": "batch", "count": N, "ops": [...]}`` with
each element shaped exactly like a single-op record's payload.  One
append, one CRC, and (under ``"always"``) one fsync cover the whole batch,
and because the torn-tail rule discards a record atomically, recovery
replays the batch all-or-nothing — a crash mid-commit yields the
pre-batch state, never a half-applied one.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.durable.faults import FaultPlan, InjectedCrash
from repro.durable.files import replace_durably, truncate_durably
from repro.errors import DurabilityError, WalCorruptError
from repro.labeling.codec import UVARINT, FieldReader, FieldWriter, decoding
from repro.obs import metrics

__all__ = [
    "FsyncPolicy",
    "SUPPORTED_WAL_VERSIONS",
    "WAL_HEADER",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "batch_record",
    "read_header",
    "scan_records",
    "scan_wal",
]


def batch_record(ops: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The group-commit payload: N logical operations, one WAL record.

    ``ops`` are single-op payloads (same shapes the single-op write paths
    log) in application order; replay applies them in that order as one
    atomic unit.  ``count`` is redundant with ``len(ops)`` but makes raw
    log inspection cheap.
    """
    return {"op": "batch", "count": len(ops), "ops": list(ops)}

_MAGIC = b"RPWL"
#: Versions this scanner can read, oldest first: 1 (JSON payloads,
#: read-only) and 3 (binary payloads; 3 to match the repo-wide format-v3
#: generation of the RPLS store and RPSN snapshot).
SUPPORTED_WAL_VERSIONS = (1, 3)
#: The version every log is written at: the newest one read.
_DEFAULT_VERSION = SUPPORTED_WAL_VERSIONS[-1]
#: The 5 header bytes (magic ‖ version) every log is written with.
WAL_HEADER = _MAGIC + bytes([_DEFAULT_VERSION])
_HEADER_LEN = len(WAL_HEADER)
_RECORD_HEADER = struct.Struct(">QII")  # seq, payload length, crc32
#: The header fields a record's CRC32 covers ahead of its payload.
_CRC_PREFIX = struct.Struct(">QI")
#: Upper bound on one payload — anything larger is treated as corruption
#: (a flipped length byte must not make the scanner swallow the file).
_MAX_PAYLOAD = 64 * 1024 * 1024


@dataclass(frozen=True)
class FsyncPolicy:
    """When to force appended bytes to stable storage.

    ``interval`` is the number of appends between fsyncs: ``1`` is the
    paper-grade ``always``, ``0`` means never (OS-buffered).  Use
    :meth:`parse` for the string forms exposed in configuration.
    """

    interval: int

    @classmethod
    def parse(cls, text: "str | FsyncPolicy") -> "FsyncPolicy":
        """Parse ``"always"`` / ``"never"`` / ``"batch:N"`` (N >= 1)."""
        if isinstance(text, FsyncPolicy):
            return text
        if text == "always":
            return cls(interval=1)
        if text == "never":
            return cls(interval=0)
        if text.startswith("batch:"):
            try:
                interval = int(text.split(":", 1)[1])
            except ValueError:
                interval = 0
            if interval >= 1:
                return cls(interval=interval)
        raise DurabilityError(
            f"unknown fsync policy {text!r}; use 'always', 'never', or 'batch:N'"
        )

    def due(self, pending_appends: int) -> bool:
        """Whether ``pending_appends`` unsynced records warrant an fsync."""
        return self.interval > 0 and pending_appends >= self.interval

    def __str__(self) -> str:
        if self.interval == 1:
            return "always"
        if self.interval == 0:
            return "never"
        return f"batch:{self.interval}"


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record: its sequence number, operation, and span."""

    seq: int
    op: Dict[str, Any]
    end_offset: int  # file offset one past this record's last byte


@dataclass
class WalScan:
    """Result of scanning a log file: the valid prefix plus tail damage.

    ``stop_reason`` says *why* the scan stopped, which is what lets a
    live tailer tell a half-written record racing the writer (``"short"``
    — come back later) apart from real damage (``"crc"``, ``"chain"``,
    ``"decode"``, ``"oversize"``).  ``"clean"`` means the scan consumed
    the file exactly to its last byte.
    """

    records: List[WalRecord]
    valid_bytes: int  # offset of the first byte the scanner distrusts
    total_bytes: int
    stop_reason: str = "clean"
    #: Payload-format version of the scanned stream (1 when scanning
    #: empty/headerless data, where no payload was ever decoded).
    version: int = 1

    @property
    def torn_bytes(self) -> int:
        """How many trailing bytes fail validation (0 for a clean log)."""
        return self.total_bytes - self.valid_bytes

    @property
    def last_seq(self) -> int:
        """Sequence number of the last valid record (0 for an empty log)."""
        return self.records[-1].seq if self.records else 0


# ----------------------------------------------------------------------
# Payload codecs: v3 = binary opcode + varints; v1 (read-only) = JSON
# ----------------------------------------------------------------------

_OPCODES = {
    "insert_child": 1,
    "insert_before": 2,
    "insert_after": 3,
    "delete": 4,
    "add_document": 5,
    "compact": 6,
    "batch": 7,
}
_OP_NAMES = {code: name for name, code in _OPCODES.items()}
#: Field order and type per binary-encodable operation (batch is special-
#: cased).  An op whose keys or types stray from its shape falls back to
#: the JSON opcode so nothing is silently dropped or coerced.
_OP_FIELDS = {
    "insert_child": (("doc", int), ("parent", int), ("index", int), ("tag", str)),
    "insert_before": (("doc", int), ("ref", int), ("tag", str)),
    "insert_after": (("doc", int), ("ref", int), ("tag", str)),
    "delete": (("doc", int), ("node", int)),
    "add_document": (("xml", str),),
    "compact": (),
}


def _matches_shape(op: Dict[str, Any], fields) -> bool:
    if set(op) != {"op", *(name for name, _ in fields)}:
        return False
    for name, kind in fields:
        value = op[name]
        if kind is int:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                return False
        elif not isinstance(value, str):
            return False
    return True


def _encode_op_v3(op: Dict[str, Any], out: FieldWriter, depth: int = 0) -> None:
    kind = op.get("op")
    fields = _OP_FIELDS.get(kind)
    if fields is not None and _matches_shape(op, fields):
        out.pack(">B", _OPCODES[kind])
        for name, field_kind in fields:
            if field_kind is int:
                out.uvarint(op[name])
            else:
                out.string(UVARINT, op[name])
        return
    if (
        depth == 0
        and kind == "batch"
        and set(op) == {"op", "count", "ops"}
        and isinstance(op.get("ops"), list)
        and op.get("count") == len(op["ops"])
        and all(isinstance(sub, dict) for sub in op["ops"])
    ):
        out.pack(">B", _OPCODES["batch"])
        out.uvarint(len(op["ops"]))
        for sub in op["ops"]:
            _encode_op_v3(sub, out, depth=1)
        return
    # JSON fallback (opcode 0) for shapes the binary grammar doesn't
    # cover; length-prefixed so it stays self-delimiting inside a batch.
    out.pack(">B", 0)
    out.string(UVARINT, json.dumps(op, sort_keys=True, separators=(",", ":")))


def _decode_op_v3(reader: FieldReader, depth: int = 0) -> Dict[str, Any]:
    (opcode,) = reader.unpack(">B")
    if opcode == 0:
        return _operation(json.loads(reader.string(UVARINT)))
    name = _OP_NAMES.get(opcode)
    if name is None:
        raise reader.fail(f"unknown v3 opcode {opcode}")
    if name == "batch":
        if depth:
            raise reader.fail("nested batch records are not valid")
        count = reader.uvarint()
        if count > reader.remaining:  # every sub-op costs >= 1 byte
            raise reader.fail(f"batch claims {count} ops beyond the payload")
        ops = [_decode_op_v3(reader, depth=1) for _ in range(count)]
        return {"op": "batch", "count": count, "ops": ops}
    op: Dict[str, Any] = {"op": name}
    for field, field_kind in _OP_FIELDS[name]:
        op[field] = reader.uvarint() if field_kind is int else reader.string(UVARINT)
    return op


def _operation(op: Any) -> Dict[str, Any]:
    if not isinstance(op, dict) or "op" not in op:
        raise ValueError("payload is not an operation object")
    return op


def _encode_payload(op: Dict[str, Any]) -> bytes:
    out = FieldWriter()
    _encode_op_v3(op, out)
    return bytes(out.buffer)


def _frame(seq: int, payload: bytes) -> bytes:
    """One complete record: seq ‖ len ‖ crc ‖ payload."""
    return _RECORD_HEADER.pack(seq, len(payload), record_crc(seq, payload)) + payload


def _decode_payload(
    blob: bytes, version: int, start: int = 0, end: Optional[int] = None
) -> Dict[str, Any]:
    """Decode the record payload ``blob[start:end]``; raises WalCorruptError
    on damage.  A v3 payload is read in place, with no copy."""
    with decoding(WalCorruptError, "WAL payload"):
        if version < 3:
            return _operation(json.loads(blob[start:end].decode("utf-8")))
        reader = FieldReader(blob, WalCorruptError, "WAL payload", start, end)
        op = _decode_op_v3(reader)
        if reader.remaining:
            raise reader.fail(f"{reader.remaining} trailing bytes after v3 op")
        return op


def read_header(blob: bytes, source: str | Path) -> Optional[int]:
    """The payload version the log header at the start of ``blob`` declares.

    ``None`` when ``blob`` is shorter than the header (a log being
    created, or nothing shipped yet).  Raises
    :class:`~repro.errors.WalCorruptError` naming ``source`` when the
    bytes are not a WAL header or declare a version outside
    :data:`SUPPORTED_WAL_VERSIONS`.  The whole-file :func:`scan_wal` and
    the replica tailer both check the header here.
    """
    if len(blob) < _HEADER_LEN:
        return None
    if blob[:4] != _MAGIC:
        raise WalCorruptError(f"{source} is not a write-ahead log")
    if blob[4] not in SUPPORTED_WAL_VERSIONS:
        raise WalCorruptError(f"unsupported WAL version {blob[4]} in {source}")
    return blob[4]


def scan_records(
    buffer: bytes,
    base: int,
    total: int,
    expected_seq: Optional[int],
    version: int,
    start: int = 0,
) -> WalScan:
    """Decode the records in ``buffer`` from index ``start`` on; the
    buffer's first byte sits at file offset ``base``, and ``total`` is the
    file's full size.

    The one record scanner: :func:`scan_wal` runs it over a whole local
    file, the replica tailer over shipped byte ranges, so both apply the
    same CRC, chain and torn-tail rules.  ``version`` is the payload
    format the log's header declared (see :func:`read_header`).  Payloads
    are checksummed and decoded in place: nothing of ``buffer`` is copied.
    """
    records: List[WalRecord] = []
    pos = start
    size = len(buffer)
    reason = "clean"
    with memoryview(buffer) as view:
        while True:
            if pos + _RECORD_HEADER.size > size:
                if pos < size:
                    reason = "short"  # partial record header at the tail
                break
            seq, length, crc = _RECORD_HEADER.unpack_from(buffer, pos)
            payload_start = pos + _RECORD_HEADER.size
            payload_end = payload_start + length
            if length > _MAX_PAYLOAD:
                reason = "oversize"  # flipped length byte, not a torn write
                break
            if payload_end > size:
                reason = "short"  # payload not fully on disk (yet)
                break
            if record_crc(seq, view[payload_start:payload_end]) != crc:
                reason = "crc"
                break
            if expected_seq is not None and seq != expected_seq:
                reason = "chain"
                break
            try:
                op = _decode_payload(buffer, version, payload_start, payload_end)
            except WalCorruptError:
                reason = "decode"
                break
            pos = payload_end
            records.append(WalRecord(seq=seq, op=op, end_offset=base + pos))
            expected_seq = seq + 1
    return WalScan(
        records=records,
        valid_bytes=base + pos,
        total_bytes=total,
        stop_reason=reason,
        version=version,
    )


def scan_wal(path: str | Path) -> WalScan:
    """Read every trustworthy record of the log at ``path``.

    Raises :class:`repro.errors.WalCorruptError` when the *header* is
    damaged (nothing in the file can be trusted); per the torn-tail rule,
    record-level damage is never an error — scanning just stops there.
    A missing file scans as empty.
    """
    path = Path(path)
    if not path.exists():
        return WalScan(records=[], valid_bytes=0, total_bytes=0)
    blob = path.read_bytes()
    version = read_header(blob, path)
    if version is None:
        # A crash while creating the log can leave a short header; there
        # are no records to lose, so treat it as empty-and-repairable.
        return WalScan(
            records=[],
            valid_bytes=0,
            total_bytes=len(blob),
            stop_reason="short" if blob else "clean",
        )
    return scan_records(blob, 0, len(blob), None, version, start=_HEADER_LEN)


class WriteAheadLog:
    """The append half of the log.

    Reading goes through :func:`scan_wal` for a whole file, or through
    :class:`repro.replica.WalTailer` for an incremental cursor.

    Opening an existing log scans it, truncates any torn tail in place,
    and resumes sequence numbering after the last valid record.  A log
    whose header declares a legacy payload version is rewritten at
    version 3 first (same sequence numbers, same operations), so every
    append encodes one way.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: "str | FsyncPolicy" = "always",
        faults: Optional[FaultPlan] = None,
    ):
        self.path = Path(path)
        self.policy = FsyncPolicy.parse(fsync)
        self.faults = faults
        self._closed = False
        #: File offset a failed rollback could not truncate to; ``reopen``
        #: finishes the repair before trusting the tail again.
        self._poisoned: Optional[int] = None
        self._open()

    def _open(self) -> None:
        """The repair pass of ``__init__`` and :meth:`reopen`.

        A missing, empty or header-only log is written as a bare header
        (so its directory entry is durable too), a legacy log is rewritten
        at version 3 and a torn tail is truncated; then the sequence
        counter chains strictly after the last surviving record — a gap
        would make the scanner distrust everything appended from here on.
        """
        scan = scan_wal(self.path)
        if not scan.records:
            replace_durably(self.path, WAL_HEADER)
        elif scan.version != _DEFAULT_VERSION:
            _rewrite(self.path, scan.records)  # drops any torn tail too
        elif scan.torn_bytes:
            truncate_durably(self.path, scan.valid_bytes)
        if scan.torn_bytes:
            metrics.incr("wal.torn_tail_truncations")
            metrics.incr("wal.torn_tail_bytes", scan.torn_bytes)
        self._handle = open(self.path, "ab")
        self._next_seq = scan.last_seq + 1
        self._pending = 0

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next append will receive."""
        return self._next_seq

    def append(self, op: Dict[str, Any]) -> int:
        """Append one operation record; returns its sequence number.

        The record is on disk (or at least handed to the OS, per the fsync
        policy) when this returns — callers apply the operation in memory
        only afterwards, the "log before apply" contract recovery needs.

        A *transient* failure (an ``OSError`` from the storage layer or an
        injected one, as opposed to an :class:`InjectedCrash` simulating
        process death) rolls the file back to its pre-append length before
        re-raising, so the append is atomic: either the caller gets the
        sequence number or the record is absent and a retry cannot create
        a duplicate that replay would apply twice.
        """
        if self._closed:
            raise WalCorruptError("write-ahead log is closed")
        with metrics.timed("wal.append"):
            seq = self._next_seq
            blob = _frame(seq, _encode_payload(op))
            start = self._handle.tell()
            try:
                faults = self.faults
                to_write = blob if faults is None else faults.on_append(seq, blob)
                written = len(to_write)
                if written:
                    self._handle.write(to_write)
                    self._handle.flush()
                if written < len(blob):
                    # A torn write is a crash: the record never happened as
                    # far as recovery is concerned; this process is done for.
                    raise InjectedCrash(
                        f"torn append of record {seq}: {written}/{len(blob)} bytes"
                    )
                if faults is not None:
                    faults.after_write(seq)
                self._next_seq += 1
                self._pending += 1
                metrics.incr("wal.appends")
                metrics.incr("wal.append_bytes", len(blob))
                if self.policy.due(self._pending):
                    self.sync()
            except InjectedCrash:
                raise  # simulated power cut: on-disk bytes stay exactly as-is
            except Exception:
                self._rollback(start, seq)
                raise
        return seq

    def _rollback(self, offset: int, seq: int) -> None:
        """Best-effort truncate back to ``offset`` after a failed append.

        Makes the append atomic under transient faults: without this, a
        record whose bytes landed but whose acknowledgement did not (an
        fsync or post-write error) would be duplicated by a retry and
        applied twice on replay.  When the truncate itself fails the
        offset is remembered as poisoned and :meth:`reopen` finishes the
        repair.
        """
        try:
            self._handle.flush()
        except OSError:
            pass
        try:
            truncate_durably(self.path, offset)
        except OSError:
            self._poisoned = offset
            return
        if self._next_seq > seq:
            # sync() failed after the bookkeeping advanced; rewind it.
            self._next_seq = seq
            self._pending = max(0, self._pending - 1)
        metrics.incr("wal.append_rollbacks")

    def sync(self) -> None:
        """Force everything appended so far to stable storage.

        The fault hook fires between the flush and the ``fsync`` — the
        boundary where a dying disk actually fails — so an injected
        ``OSError`` leaves the unsynced count intact and a later sync
        retries the full tail.
        """
        if self._closed:
            return
        self._handle.flush()
        if self.faults is not None:
            self.faults.on_sync(self._pending)
        os.fsync(self._handle.fileno())
        self._pending = 0
        metrics.incr("wal.fsyncs")

    def close(self) -> None:
        """Sync and close; further appends raise.

        The handle is closed and the log marked closed even when the
        final sync fails — the error still propagates, but a ``close``
        in an exception path can never leak the file descriptor or leave
        the object half-usable.  Under ``batch:N`` policies this final
        sync is what flushes the un-synced tail of a partial batch.
        """
        if self._closed:
            return
        try:
            self.sync()
        finally:
            try:
                self._handle.close()
            except OSError:
                pass
            self._closed = True

    def reopen(self) -> None:
        """Discard the handle, repair the file in place, resume appending.

        The resilient layer calls this after any transient storage fault
        before retrying: it truncates a poisoned tail a failed rollback
        left behind, then a torn tail if any, and re-chains the sequence
        counter to the last valid record — so a retried append extends
        the trustworthy prefix instead of writing an unreachable record
        after damage.
        """
        if self._closed:
            raise WalCorruptError("write-ahead log is closed")
        try:
            self._handle.close()
        except OSError:
            pass
        if self._poisoned is not None and self.path.exists():
            truncate_durably(
                self.path, min(self._poisoned, os.path.getsize(self.path))
            )
        self._poisoned = None
        self._open()
        metrics.incr("wal.reopens")

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def reset(self, next_seq: int) -> None:
        """Discard every record and resume numbering at ``next_seq``.

        Needed when a snapshot covers sequence numbers the log no longer
        holds (an unsynced tail died with the page cache under
        ``fsync='never'``/``'batch'``): appending with a *reused* number
        would make recovery's "replay strictly after the snapshot" filter
        silently drop the new record.  The stale records cannot help any
        retained snapshot generation once state has moved past them, so
        the log restarts empty at a safe number.  (The scanner accepts an
        arbitrary first sequence number; only consecutive records must
        chain.)
        """
        if self._closed:
            raise WalCorruptError("write-ahead log is closed")
        if next_seq < self._next_seq:
            raise ValueError(
                f"reset cannot move the sequence backwards "
                f"({next_seq} < {self._next_seq})"
            )
        self._handle.close()
        replace_durably(self.path, WAL_HEADER)
        self._handle = open(self.path, "ab")
        self._next_seq = next_seq
        self._pending = 0
        metrics.incr("wal.resets")

    def prune(self, keep_after_seq: int) -> int:
        """Drop records with ``seq <= keep_after_seq``; returns bytes freed.

        Called after a checkpoint: records already covered by the oldest
        *retained* snapshot generation can never be replayed again.  The
        log is rewritten by :func:`_rewrite`, so a crash mid-prune leaves
        either the old or the new log — never a hybrid.
        """
        scan = scan_wal(self.path)
        kept = [record for record in scan.records if record.seq > keep_after_seq]
        if len(kept) == len(scan.records):
            return 0
        freed = scan.valid_bytes - _rewrite(self.path, kept)
        self._handle.close()
        self._handle = open(self.path, "ab")
        metrics.incr("wal.pruned_records", len(scan.records) - len(kept))
        metrics.incr("wal.pruned_bytes", freed)
        return freed

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _rewrite(path: Path, records: List[WalRecord]) -> int:
    """Atomically replace the log at ``path`` with ``records``; returns its size.

    The records are re-encoded at version 3 and written by
    :func:`~repro.durable.files.replace_durably`, so a crash mid-rewrite
    leaves either the old or the new log — never a hybrid.
    """
    blob = bytearray(WAL_HEADER)
    for record in records:
        blob += _frame(record.seq, _encode_payload(record.op))
    replace_durably(path, blob)
    return len(blob)


def record_crc(seq: int, payload: bytes) -> int:
    """The checksum of one record: CRC32 over seq ‖ len ‖ payload.

    The one spelling of the record checksum, for the writer and the
    scanner alike.  It covers the header fields *and* the payload so a
    flipped sequence or length byte is caught exactly like flipped content.
    The payload's CRC continues from the prefix's, so it equals
    ``zlib.crc32(header_prefix(seq, payload))`` without copying the payload.
    """
    return zlib.crc32(payload, zlib.crc32(_CRC_PREFIX.pack(seq, len(payload))))


def header_prefix(seq: int, payload: bytes) -> bytes:
    """The bytes :func:`record_crc` checksums, seq ‖ len ‖ payload, as one blob.

    For tools and tests that frame a record by hand.
    """
    return _CRC_PREFIX.pack(seq, len(payload)) + payload
