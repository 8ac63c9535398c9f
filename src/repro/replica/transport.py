"""WAL shipping transports: how replicas fetch the primary's log bytes.

The shipping channel is deliberately dumb — it moves *byte ranges* of the
primary's ``wal.log`` and decodes nothing, so every validation rule
(CRC, sequence chain, torn tail) runs replica-side, once per record,
through the exact scanner the primary's own recovery uses.  Two
transports implement the same three-field frame:

* :class:`FileTransport` — the replica can see the primary's directory
  (shared filesystem, or a local pair in one process).  Reads reopen the
  file every call, which is what makes checkpoint-time ``os.replace``
  rotations (:meth:`~repro.durable.wal.WriteAheadLog.prune` / ``reset``)
  visible as a plain size change instead of a stale file handle.
* :class:`SocketTransport` / :class:`WalShipServer` — a TCP pair for
  replicas on other machines.  The server is a thin loop around its own
  :class:`FileTransport`; one request frame (``offset``, ``limit``) gets
  one response frame (``size``, ``last_seq``, ``payload``).

A *probe* (``limit <= 0``) carries the primary's last valid sequence
number (``last_seq``, from one server-side :func:`~repro.durable.wal.scan_wal`
of the current log generation), so lag is measurable in records as well
as bytes; data reads carry ``last_seq = 0`` and are never parsed.

Transport failures surface as :class:`OSError` — the TRANSIENT fault
domain — and the replica keeps serving its last published view; protocol
violations (a server that answers garbage) are
:class:`~repro.errors.ReplicationError`.
"""

from __future__ import annotations

import os
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.durable.wal import scan_wal
from repro.errors import ReplicationError, WalCorruptError
from repro.obs import metrics

__all__ = [
    "FileTransport",
    "ShipFrame",
    "SocketTransport",
    "WalShipServer",
    "WalTransport",
]

#: Request frame: 8-byte offset + 4-byte byte limit (0 = size/LSN probe).
_REQUEST = struct.Struct(">QI")
#: Response frame header: 8-byte file size, 8-byte last valid sequence
#: number, 4-byte payload length; the payload bytes follow.
_RESPONSE = struct.Struct(">QQI")
#: Upper bound on one shipped payload — a corrupt response header must
#: not make a client try to buffer gigabytes.
_MAX_FRAME_PAYLOAD = 128 * 1024 * 1024


@dataclass(frozen=True)
class ShipFrame:
    """One transport response: primary file size, last LSN, raw bytes.

    ``last_seq`` is filled on probes (``limit <= 0``) only; a data read
    carries ``0`` there, because the bytes it ships are decoded once, by
    the consumer.
    """

    size: int
    last_seq: int
    payload: bytes


class WalTransport:
    """Abstract byte-range access to the primary's write-ahead log."""

    def read(self, offset: int, limit: int) -> ShipFrame:
        """Fetch up to ``limit`` bytes starting at ``offset``.

        ``limit=0`` is a probe: the frame carries the current file size
        and last valid sequence number with an empty payload.  A data
        read's frame carries ``last_seq = 0``.  A missing log reads as
        size 0 (the primary has not created it yet).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""


class FileTransport(WalTransport):
    """Ship WAL bytes straight off a visible filesystem path."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def read(self, offset: int, limit: int) -> ShipFrame:
        """Read the byte range from the file, reopening per call.

        Reopening makes checkpoint-time rotations (``os.replace`` of a
        pruned log) visible immediately; the caller sees the new file's
        size and resynchronizes by offset arithmetic.
        """
        if limit <= 0:
            return self._probe()
        try:
            with open(self.path, "rb") as handle:
                size = handle.seek(0, os.SEEK_END)
                if offset >= size:
                    return ShipFrame(size=size, last_seq=0, payload=b"")
                handle.seek(offset)
                payload = handle.read(limit)
        except FileNotFoundError:
            return ShipFrame(size=0, last_seq=0, payload=b"")
        metrics.incr("replica.transport_bytes", len(payload))
        return ShipFrame(size=size, last_seq=0, payload=payload)

    def _probe(self) -> ShipFrame:
        """Size and last valid sequence number of the current generation."""
        try:
            scan = scan_wal(self.path)
        except WalCorruptError:
            # The transport ships bytes; judging them (a foreign or damaged
            # header) is the consumer's job.  Report no usable LSN.
            metrics.incr("replica.transport_unreadable_lsn")
            return ShipFrame(size=os.path.getsize(self.path), last_seq=0, payload=b"")
        return ShipFrame(size=scan.total_bytes, last_seq=scan.last_seq, payload=b"")


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or ``None`` on a clean EOF."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _ShipHandler(socketserver.BaseRequestHandler):
    """One connected replica: answer request frames until it hangs up."""

    def handle(self) -> None:
        """Serve (offset, limit) → (size, last_seq, payload) frames."""
        while True:
            header = _recv_exact(self.request, _REQUEST.size)
            if header is None:
                return
            offset, limit = _REQUEST.unpack(header)
            frame = self.server.transport.read(offset, limit)  # type: ignore[attr-defined]
            self.request.sendall(
                _RESPONSE.pack(frame.size, frame.last_seq, len(frame.payload))
                + frame.payload
            )
            metrics.incr("replica.ship_frames")


class WalShipServer(socketserver.ThreadingTCPServer):
    """The primary-side shipping endpoint: serves WAL byte ranges over TCP.

    A thin, read-only loop: it never writes the log and shares no state
    with the :class:`~repro.durable.collection.DurableCollection` beyond
    the file itself, so it can run in the primary's process or a sidecar.
    ``port=0`` binds an ephemeral port; read it back from :attr:`address`.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, wal_path: str | Path, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _ShipHandler)
        self.transport = FileTransport(wal_path)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        host, port = self.server_address[:2]
        return str(host), int(port)

    def start(self) -> Tuple[str, int]:
        """Serve in a daemon thread; returns the bound address."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="wal-ship-server",
        )
        self._thread.start()
        metrics.incr("replica.ship_servers_started")
        return self.address

    def stop(self) -> None:
        """Stop serving and release the listening socket (idempotent)."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()


class SocketTransport(WalTransport):
    """Client side of the TCP shipping channel.

    Keeps one connection open across reads and transparently reconnects
    once per call on a stale socket; a second consecutive failure
    propagates as the :class:`OSError` it is (the TRANSIENT domain — the
    replica serves stale views until the primary is back).
    """

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._sock = sock
        metrics.incr("replica.transport_connects")
        return sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                metrics.incr("replica.transport_close_errors")
            self._sock = None

    def read(self, offset: int, limit: int) -> ShipFrame:
        """One request/response round trip (reconnecting once if stale)."""
        last_error: Optional[OSError] = None
        for attempt in range(2):
            sock = self._sock
            try:
                if sock is None:
                    sock = self._connect()
                sock.sendall(_REQUEST.pack(offset, max(0, limit)))
                header = _recv_exact(sock, _RESPONSE.size)
                if header is None:
                    raise ConnectionError("ship server closed the connection")
                size, last_seq, nbytes = _RESPONSE.unpack(header)
                if nbytes > _MAX_FRAME_PAYLOAD:
                    # The unread payload is still on the wire: a reused
                    # socket would parse it as the next response header.
                    self._drop()
                    raise ReplicationError(
                        f"ship server announced an implausible {nbytes}-byte "
                        "payload; refusing to buffer it"
                    )
                payload = b""
                if nbytes:
                    body = _recv_exact(sock, nbytes)
                    if body is None:
                        raise ConnectionError(
                            "ship server hung up mid-payload"
                        )
                    payload = body
            except OSError as error:
                self._drop()
                last_error = error
                if attempt:
                    raise
                continue
            metrics.incr("replica.transport_bytes", len(payload))
            return ShipFrame(size=size, last_seq=last_seq, payload=payload)
        raise last_error if last_error is not None else OSError("unreachable")

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._drop()
