"""Thread harnesses for continuous tailing and concurrent follower reads.

The rest of the codebase is single-threaded by rule (analysis rule R12
confines ``threading`` to this package and the MVCC publish path), so the
soak tests drive concurrency through these two harnesses instead of
spawning ad-hoc threads:

* :class:`TailerThread` — runs :meth:`ReplicaCollection.poll` in a loop so
  the replica converges while the primary (and the readers) keep going.
* :class:`ReaderPool` — N threads rotating through a fixed query list
  against whatever read view is latest, sampling staleness (primary seq
  minus the view's applied seq) per read.  This is the measurement side of
  the MVCC design: readers never block the writer and never see a
  half-applied batch.

Both harnesses capture the first exception from their threads and re-raise
it on ``stop()`` — a silent dead thread would make every "it converged"
assertion meaningless.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.obs import metrics
from repro.query.live import ReadView

from repro.replica.collection import ReplicaCollection

__all__ = ["ReaderPool", "ReaderReport", "TailerThread"]


class TailerThread:
    """Continuously polls a replica in a daemon thread.

    ``interval`` is the idle sleep between polls that applied nothing;
    polls that made progress loop immediately.  ``stop()`` joins the
    thread and re-raises any exception the replication loop hit.
    """

    def __init__(self, replica: ReplicaCollection, interval: float = 0.002):
        self.replica = replica
        self.interval = interval
        self._lock = threading.Lock()
        # repro: guarded-by(_lock): polls, applied, error
        self.polls = 0
        self.applied = 0
        self.error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="replica-tailer"
        )

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                applied = self.replica.poll()
                with self._lock:
                    self.polls += 1
                    self.applied += applied
                if not applied:
                    self._stop.wait(self.interval)
        except BaseException as error:  # noqa: BLE001 - reported on stop()
            metrics.incr("replica.tailer_thread_failures")
            with self._lock:
                self.error = error

    def start(self) -> "TailerThread":
        """Start the polling loop; returns ``self`` for chaining."""
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Signal, join, and re-raise any error the loop captured.

        The join can time out with the loop still running (a stuck poll),
        so the error read takes the counter lock rather than assuming the
        thread is gone.
        """
        self._stop.set()
        self._thread.join(timeout=timeout)
        with self._lock:
            error = self.error
        if error is not None:
            raise error


@dataclass
class ReaderReport:
    """Aggregate outcome of a :class:`ReaderPool` run."""

    reads: int = 0
    errors: int = 0
    staleness_samples: List[int] = field(default_factory=list)

    @property
    def max_staleness(self) -> int:
        """Worst observed follower-read staleness, in records."""
        return max(self.staleness_samples, default=0)


class ReaderPool:
    """N follower-read threads hammering the latest published view.

    ``view_source`` returns the current :class:`~repro.query.live.ReadView`
    (or ``None`` before the first publish); ``current_seq``, when given,
    returns the primary's committed sequence number so each read can
    record its staleness.  Reads rotate round-robin through ``queries``.
    """

    def __init__(
        self,
        view_source: Callable[[], Optional[ReadView]],
        queries: Sequence[str],
        threads: int = 2,
        current_seq: Optional[Callable[[], int]] = None,
    ):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if not queries:
            raise ValueError("queries must be non-empty")
        self.view_source = view_source
        self.queries = list(queries)
        self.current_seq = current_seq
        self._stop = threading.Event()
        self._reports = [ReaderReport() for _ in range(threads)]
        self._threads = [
            threading.Thread(
                target=self._run, args=(index,), daemon=True, name=f"reader-{index}"
            )
            for index in range(threads)
        ]

    def _run(self, index: int) -> None:
        report = self._reports[index]
        step = index  # stagger starting queries across threads
        while not self._stop.is_set():
            view = self.view_source()
            if view is None:
                self._stop.wait(0.001)
                continue
            query = self.queries[step % len(self.queries)]
            step += 1
            try:
                view.query(query)
            except Exception:  # noqa: BLE001 - counted, surfaced in report
                metrics.incr("replica.reader_errors")
                report.errors += 1
                continue
            report.reads += 1
            if self.current_seq is not None:
                report.staleness_samples.append(
                    max(0, self.current_seq() - view.applied_seq)
                )

    def start(self) -> "ReaderPool":
        """Start every reader thread; returns ``self`` for chaining."""
        for thread in self._threads:
            thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> ReaderReport:
        """Stop all readers and merge their per-thread reports."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        merged = ReaderReport()
        for report in self._reports:
            merged.reads += report.reads
            merged.errors += report.errors
            merged.staleness_samples.extend(report.staleness_samples)
        metrics.gauge("replica.reader_reads", merged.reads)
        return merged
