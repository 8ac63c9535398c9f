"""Incremental WAL consumption over a shipping transport.

The :class:`WalTailer` is the replica-side cursor into the primary's log,
and the only incremental WAL reader: a local cursor is
``WalTailer(FileTransport(path))``.  It fetches raw byte ranges through a
:class:`~repro.replica.transport.WalTransport`, checks the header with
:func:`repro.durable.wal.read_header` and decodes records with
:func:`repro.durable.wal.scan_records`, the header check and scanner the
primary's recovery uses, so the replica accepts exactly the records a
crash-restarted primary would.  Each shipped record is decoded once, here.

Three situations at the tail of the stream look superficially alike and
must be told apart:

* **Pending bytes** — the scan stopped with ``stop_reason == "short"``:
  the primary is mid-append and the length-prefixed record is not all on
  disk yet.  Not an error; the tailer returns what it has and retries the
  same offset next poll.
* **Suspect tail** — the scan stopped on a damage reason (``"crc"``,
  ``"chain"``, ``"decode"``, ``"oversize"``) at the very end of the
  fetched bytes.  This *could* be a torn write racing the tailer (a CRC
  mismatch because only half the payload landed), so the tailer remembers
  the offset and the file size at detection and gives the primary another
  chance.
* **Confirmed corruption** — the same offset still fails after the file
  has grown past the size at detection: trustworthy bytes exist beyond
  the damage, so it cannot be a torn tail.  The tailer raises
  :class:`~repro.errors.ReplicationError`; the replica's response is to
  re-bootstrap from a snapshot, never to skip records.

A file that *shrinks* (``size < offset``) means the primary checkpointed
and pruned/reset the log.  The tailer rewinds to offset 0 and rereads the
new generation from its header.  A pruned log keeps records the tailer
already scanned, so the sequence chain restarts with the generation: its
first record may carry any number.  Records already applied are filtered
out upstream by sequence number, which is global across generations, and
a real gap is caught there too.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.durable.wal import WAL_HEADER, WalRecord, read_header, scan_records
from repro.errors import ReplicationError, WalCorruptError
from repro.obs import metrics

from repro.replica.transport import WalTransport

__all__ = ["WalTailer", "unread_bytes"]

#: Default fetch window per transport round trip.
_DEFAULT_CHUNK = 1 << 20


def unread_bytes(size: int, offset: int) -> int:
    """Record bytes of a ``size``-byte log past a cursor at ``offset``.

    A log shorter than the cursor is a newer generation than the one the
    cursor points into (the primary checkpointed), so every record in it
    is still unread.
    """
    if size < offset:
        offset = len(WAL_HEADER)
    return max(0, size - offset)


class WalTailer:
    """A resumable cursor over a shipped write-ahead log.

    ``poll()`` fetches and decodes everything newly valid since the last
    call and returns the records in order.  The tailer tracks only byte
    position and the scan-side sequence chain; deciding which records are
    *new to the replica* (by sequence number) is the caller's job, because
    after a rewind the same sequence numbers may be scanned twice.
    """

    def __init__(self, transport: WalTransport, chunk_bytes: int = _DEFAULT_CHUNK):
        self.transport = transport
        #: Byte offset of the next unread position; 0 = header not yet
        #: validated for the current file generation.
        self._offset = 0
        #: Last sequence number *scanned* in this generation (the chain
        #: expectation; 0 = none yet), distinct from the caller's applied
        #: sequence number.
        self._scan_seq = 0
        self._chunk_bytes = max(64, chunk_bytes)
        #: (offset, size-at-detection) of a tail that failed validation —
        #: possibly a torn write still racing us.
        self._suspect: Optional[Tuple[int, int]] = None
        #: Primary log size seen on the most recent read.
        self._primary_bytes = 0
        #: Payload-format version the current generation's header declared
        #: (defaults to 1 until a header has been read).
        self._version = 1

    @property
    def offset(self) -> int:
        """Byte offset of the next unread position in the primary's log."""
        return self._offset

    @property
    def scan_seq(self) -> int:
        """Sequence number of the last record this tailer decoded."""
        return self._scan_seq

    @property
    def primary_bytes(self) -> int:
        """Primary log size observed on the most recent transport read."""
        return self._primary_bytes

    def rewind(self) -> None:
        """Reset to the start of the (possibly new) log generation."""
        self._offset = 0
        self._scan_seq = 0
        self._suspect = None

    def poll(self) -> List[WalRecord]:
        """Fetch and decode all newly valid records; never skips damage.

        Returns every record decoded this call, including ones the caller
        may already have applied (after a generation rewind).  Raises
        :class:`~repro.errors.ReplicationError` only for confirmed
        mid-stream corruption; transport failures propagate as the
        ``OSError`` they are.
        """
        out: List[WalRecord] = []
        fetch = self._chunk_bytes
        while True:
            fetch_start = self._offset
            frame = self.transport.read(fetch_start, fetch)
            self._primary_bytes = frame.size
            if frame.size < fetch_start:
                # The primary checkpointed: the log was pruned or reset to
                # a new, shorter generation.  Start over from its header.
                metrics.incr("replica.tailer_rewinds")
                self.rewind()
                fetch = self._chunk_bytes
                continue
            fetch_end = fetch_start + len(frame.payload)
            payload = frame.payload
            base = fetch_start
            if fetch_start == 0:
                try:
                    version = read_header(payload, "shipped log")
                except WalCorruptError as error:
                    raise ReplicationError(str(error)) from error
                if version is None:
                    # Log not created / header not fully written yet.
                    return out
                # A new generation may carry a different payload format.
                self._version = version
                base = len(WAL_HEADER)
                payload = payload[base:]
                # Commit header consumption even if no records follow yet.
                self._offset = base
            if not payload:
                return out
            expected = self._scan_seq + 1 if self._scan_seq else None
            scan = scan_records(payload, base, frame.size, expected, self._version)
            if scan.records:
                out.extend(scan.records)
                last = scan.records[-1]
                self._offset = last.end_offset
                self._scan_seq = last.seq
                self._suspect = None
                metrics.incr("replica.tailer_records", len(scan.records))
            if scan.stop_reason == "clean":
                if fetch_end >= frame.size:
                    return out
                # More bytes exist beyond this chunk; keep draining.
                fetch = self._chunk_bytes
                continue
            if scan.stop_reason == "short":
                if frame.size > fetch_end:
                    # The partial record is cut off by our fetch window,
                    # not by the end of the file — widen and retry.
                    fetch = min(frame.size - self._offset, max(fetch * 4, self._chunk_bytes))
                    continue
                # Genuinely pending: the primary is mid-append.
                return out
            # Damage reason at the tail of what we fetched.  A torn append
            # is a *prefix* of valid bytes, so at the true tail it can only
            # look "short" (handled above) or "crc" (full length prefix,
            # partial payload).  Chain breaks, decode failures, and absurd
            # lengths pass or precede the CRC — the bytes are authentic and
            # authentically wrong — so those confirm immediately.
            bad_offset = self._offset
            if scan.stop_reason != "crc":
                metrics.incr("replica.tailer_corruption")
                raise ReplicationError(
                    f"shipped WAL fails validation at offset {bad_offset} "
                    f"({scan.stop_reason}); replica must re-bootstrap from "
                    "a snapshot"
                )
            if (
                self._suspect is not None
                and self._suspect[0] == bad_offset
                and frame.size > self._suspect[1]
            ):
                # The file grew past the damage and the same bytes still
                # fail their CRC: trustworthy data exists beyond it, so
                # this is not a torn tail.
                metrics.incr("replica.tailer_corruption")
                raise ReplicationError(
                    f"shipped WAL record at offset {bad_offset} fails its "
                    "CRC with newer bytes beyond it; replica must "
                    "re-bootstrap from a snapshot"
                )
            if self._suspect is None or self._suspect[0] != bad_offset:
                self._suspect = (bad_offset, frame.size)
                metrics.incr("replica.tailer_suspect_tails")
            return out
