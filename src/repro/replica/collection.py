"""The replica itself: bootstrap from a snapshot, replay the shipped WAL.

A :class:`ReplicaCollection` is a read-only peer of a
:class:`~repro.durable.collection.DurableCollection`.  It never writes the
primary's directory; it builds its state from two inputs the primary
already maintains for crash recovery:

1. **Bootstrap** — :func:`repro.durable.recovery.resolve_bootstrap` picks
   the newest snapshot generation that decodes (scanning newest-first and
   falling back past a damaged one), yielding a collection and the
   sequence number it covers.
2. **Tailing** — a :class:`~repro.replica.tailer.WalTailer` ships the
   primary's log and decodes it with the recovery scanner; records with
   ``seq > applied`` replay through the *same*
   :func:`~repro.durable.recovery.apply_operation` path crash recovery
   uses.  Replication is therefore recovery, run continuously.

After each batch of applied records the replica publishes an immutable
MVCC read view (:meth:`repro.query.live.LiveCollection.publish_view`), so
reader threads always see a consistent applied-LSN — never a half-applied
batch — while the tailer keeps applying.

Failure handling follows the resilient layer's fault domains: transport
``OSError`` is TRANSIENT (keep serving the last view, retry later, count
it against the circuit breaker); a broken stream
(:class:`~repro.errors.ReplicationError`, sequence gaps) is CORRUPTION of
the shipped history — the replica re-bootstraps from a snapshot rather
than ever skipping records.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.durable.recovery import apply_operation, resolve_bootstrap, WAL_NAME
from repro.durable.snapshot import restore_collection
from repro.durable.wal import WalRecord
from repro.errors import ReplicationError, ReproError, WalCorruptError
from repro.obs import metrics
from repro.query.live import LiveCollection, ReadView
from repro.resilient.breaker import CircuitBreaker

from repro.replica.tailer import WalTailer, unread_bytes
from repro.replica.transport import FileTransport, WalTransport

__all__ = ["ReplicaCollection", "ReplicationLag"]


@dataclass(frozen=True)
class ReplicationLag:
    """How far behind the primary this replica is, in records and bytes.

    ``primary_seq`` is ``None`` when the primary could not be probed (the
    transport failed); ``applied_seq`` and ``byte_lag`` are always the
    replica's local truth.
    """

    applied_seq: int
    primary_seq: Optional[int]
    byte_lag: int

    @property
    def record_lag(self) -> Optional[int]:
        """Records the primary has committed that this replica has not."""
        if self.primary_seq is None:
            return None
        return max(0, self.primary_seq - self.applied_seq)


class ReplicaCollection:
    """A follower that replays the primary's WAL into MVCC read views.

    ``directory`` is the primary's durable directory — used for snapshot
    bootstrap (and, with the default :class:`~repro.replica.transport.FileTransport`,
    for WAL shipping too).  Pass a
    :class:`~repro.replica.transport.SocketTransport` to tail a remote
    primary instead; bootstrap still reads snapshots from ``directory``
    (ship the snapshot files by any means — they are immutable once they
    carry their final ``snap-*.rpsn`` name).
    """

    def __init__(
        self,
        directory: str | Path,
        transport: Optional[WalTransport] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.directory = Path(directory)
        self.transport = transport or FileTransport(self.directory / WAL_NAME)
        self.breaker = breaker or CircuitBreaker()
        self.live: LiveCollection
        self.tailer: WalTailer
        self.applied_seq = 0
        #: How many times this replica threw away its state and re-read a
        #: snapshot because the shipped stream was unusable.
        self.resyncs = 0
        self._bootstrap()

    # ------------------------------------------------------------------
    # Bootstrap / resync

    def _bootstrap(self) -> None:
        """(Re)build state from the latest complete snapshot."""
        state = resolve_bootstrap(self.directory)
        self.live = restore_collection(state)
        self.applied_seq = state.last_seq
        self.tailer = WalTailer(self.transport)
        self.live.publish_view(applied_seq=self.applied_seq)
        metrics.incr("replica.bootstraps")
        metrics.gauge("replica.bootstrap_seq", self.applied_seq)

    def _resync(self) -> None:
        """Discard local state and re-bootstrap after a broken stream."""
        self.resyncs += 1
        metrics.incr("replica.resyncs")
        try:
            self._bootstrap()
        except ReproError as error:
            raise ReplicationError(
                "replica could not re-bootstrap after a broken replication "
                f"stream: {error}"
            ) from error

    # ------------------------------------------------------------------
    # Replay

    def poll(self) -> int:
        """One replication round: fetch, validate, apply, publish.

        Returns the number of records applied.  Transport failures are
        absorbed (the replica keeps serving its last published view);
        stream corruption and sequence gaps trigger a snapshot re-sync.
        Raises :class:`~repro.errors.ReplicationError` only when even
        re-bootstrapping fails.
        """
        if not self.breaker.allow():
            metrics.incr("replica.polls_rejected")
            return 0
        try:
            records = self.tailer.poll()
        except (ReplicationError, WalCorruptError):
            # CORRUPTION domain: the shipped bytes are unusable.  Retrying
            # re-reads the same bad bytes; a fresh snapshot does not.
            self.breaker.record_failure()
            metrics.incr("replica.poll_corruption")
            self._resync()
            return 0
        except (OSError, TimeoutError):
            # TRANSIENT domain: the primary (or the path to it) is away.
            # Keep serving the last view; the breaker meters our retries.
            self.breaker.record_failure()
            metrics.incr("replica.poll_transport_failures")
            return 0
        fresh: List[WalRecord] = [r for r in records if r.seq > self.applied_seq]
        if fresh and fresh[0].seq != self.applied_seq + 1:
            # The stream skipped records we never saw (the primary pruned
            # past our position).  Never apply across a gap.
            self.breaker.record_failure()
            metrics.incr("replica.sequence_gaps")
            self._resync()
            return 0
        for record in fresh:
            apply_operation(self.live, record.op)
            self.applied_seq = record.seq
        if fresh:
            self.live.publish_view(applied_seq=self.applied_seq)
            metrics.incr("replica.records_applied", len(fresh))
            metrics.gauge("replica.applied_seq", self.applied_seq)
        self.breaker.record_success()
        return len(fresh)

    def catch_up(self, max_rounds: int = 1000) -> int:
        """Poll until a round makes no progress; returns total applied.

        A round that re-bootstrapped counts as progress even though it
        applied nothing — the fresh tailer still has the post-snapshot
        suffix of the log to replay.
        """
        total = 0
        for _ in range(max_rounds):
            resyncs_before = self.resyncs
            applied = self.poll()
            total += applied
            if not applied and self.resyncs == resyncs_before:
                break
        return total

    # ------------------------------------------------------------------
    # Reads

    def read_view(self) -> ReadView:
        """The latest published consistent view (never half-applied)."""
        return self.live.read_view()

    def query(self, text: str):
        """Evaluate a query against the latest published view."""
        return self.read_view().query(text)

    def lag(self) -> ReplicationLag:
        """Probe the primary and report record and byte lag.

        A failed probe is TRANSIENT: the result carries ``primary_seq``
        ``None`` and a zero byte lag rather than raising.
        """
        try:
            frame = self.transport.read(self.tailer.offset, 0)
        except (OSError, TimeoutError):
            metrics.incr("replica.lag_probe_failures")
            return ReplicationLag(
                applied_seq=self.applied_seq, primary_seq=None, byte_lag=0
            )
        byte_lag = unread_bytes(frame.size, self.tailer.offset)
        metrics.gauge("replica.byte_lag", byte_lag)
        return ReplicationLag(
            applied_seq=self.applied_seq,
            primary_seq=frame.last_seq,
            byte_lag=byte_lag,
        )

    def close(self) -> None:
        """Close the underlying transport (idempotent)."""
        self.transport.close()
