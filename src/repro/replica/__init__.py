"""``repro.replica`` — WAL-shipping primary/replica pairs with MVCC reads.

Replication here is crash recovery run continuously: a replica bootstraps
from the primary's newest snapshot generation that decodes (a newest-first
scan of the directory), then tails the primary's write-ahead log over a
file- or socket-based transport and replays each record through the same
``apply_operation`` path recovery uses.  Every applied batch publishes an
immutable MVCC read view, so any number of reader threads can query a
consistent applied-LSN while the tail keeps moving.

Layers, bottom up:

* :mod:`repro.replica.transport` — byte-range shipping of ``wal.log``
  (:class:`FileTransport` for shared filesystems, :class:`SocketTransport`
  + :class:`WalShipServer` for TCP).
* :mod:`repro.replica.tailer` — :class:`WalTailer`, the resumable cursor
  that tolerates torn tails, survives checkpoint-time log rotations, and
  refuses to skip damaged records.
* :mod:`repro.replica.collection` — :class:`ReplicaCollection`, the
  follower itself: bootstrap, replay, publish, re-sync on broken streams;
  :class:`ReplicationLag` reports distance from the primary.
* :mod:`repro.replica.runtime` — :class:`TailerThread` and
  :class:`ReaderPool`, the only sanctioned thread harnesses (analysis
  rule R12 confines ``threading`` to this package and the MVCC publish
  path in :mod:`repro.query.live`).
"""

from repro.replica.collection import ReplicaCollection, ReplicationLag
from repro.replica.runtime import ReaderPool, ReaderReport, TailerThread
from repro.replica.tailer import WalTailer
from repro.replica.transport import (
    FileTransport,
    ShipFrame,
    SocketTransport,
    WalShipServer,
    WalTransport,
)

__all__ = [
    "FileTransport",
    "ReaderPool",
    "ReaderReport",
    "ReplicaCollection",
    "ReplicationLag",
    "ShipFrame",
    "SocketTransport",
    "TailerThread",
    "WalShipServer",
    "WalTailer",
    "WalTransport",
]
