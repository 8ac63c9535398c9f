"""The resilient serving layer: retries, breaker, and degraded mode.

:class:`ResilientCollection` wraps a
:class:`~repro.durable.collection.DurableCollection` and turns storage
faults from tracebacks into policy:

* every durable mutation runs under a retry loop — TRANSIENT faults (see
  :func:`repro.resilient.policy.classify_fault`) are retried with capped
  exponential backoff and seeded jitter, after repairing the WAL
  (:meth:`~repro.durable.collection.DurableCollection.reopen_wal`) so a
  retry appends to a trustworthy log, never after damage;
* a :class:`~repro.resilient.breaker.CircuitBreaker` counts transient
  failures per *attempt*; when it trips, the collection enters **degraded
  mode**: queries keep answering from the in-memory collection and
  mutations apply in memory only (a checkpoint, which has no in-memory
  form, raises :class:`repro.errors.DegradedModeError`);
* after the breaker's cooldown, the next mutation admits one half-open
  **probe** (:meth:`probe`): repair the WAL, force an fsync through, and
  re-checkpoint twice so *both* retained snapshot generations cover the
  state served while degraded — then the log restarts empty and normal
  logged operation resumes;
* an optional per-operation deadline converts a stalling-but-answering
  disk into a typed :class:`repro.errors.DeadlineExceededError`.

The two layers compose rather than re-plumb: build or recover the durable
collection, then wrap it —
``ResilientCollection(DurableCollection.create(...), faults=plan)`` — and
the fault plan is armed only once that bootstrap or recovery is done.
The named mutations and the ``count``/``check``/``documents`` reads come
from :class:`~repro.query.live.NodeMutations`; this layer defines only
``apply``/``apply_batch`` and the ``query`` that counts degraded reads.

Acknowledgement contract, explicitly: an acknowledgement from the normal
path means the mutation is in the WAL (durable per the fsync policy).  An
acknowledgement while **degraded-buffering** is weaker — the mutation is
served and will be persisted by the recovery checkpoint, but dies with
the process if it crashes before storage heals.  A caller that wants
only the strong acknowledgement checks :attr:`ResilientCollection.degraded`
(or :meth:`ResilientCollection.health`) before mutating.

Deadlines are enforced *between* attempts: a single blocked syscall
cannot be interrupted in-process, so the deadline bounds how long the
retry loop keeps trying, not the worst-case latency of one attempt.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro.durable.collection import DurableCollection
from repro.durable.faults import FaultPlan, InjectedCrash
from repro.errors import (
    DeadlineExceededError,
    DegradedModeError,
    DurabilityError,
    RetryExhaustedError,
)
from repro.obs import metrics
from repro.order.document import OrderedUpdateReport
from repro.query.live import BatchOp, BatchReport, NodeMutations
from repro.query.store import ElementRow
from repro.resilient.breaker import CLOSED, CircuitBreaker
from repro.resilient.policy import (
    BreakerPolicy,
    FaultDomain,
    RetryPolicy,
    classify_fault,
)
from repro.xmlkit.tree import XmlElement

__all__ = ["ResilientCollection"]

T = TypeVar("T")


class ResilientCollection(NodeMutations):
    """A durable collection that survives a misbehaving disk.

    Parameters
    ----------
    durable:
        The wrapped durable collection, already created or recovered
        (``DurableCollection.create(...)`` / ``DurableCollection.open(...)``).
    faults:
        An optional :class:`~repro.durable.faults.FaultPlan`, armed on
        ``durable`` here — *after* its bootstrap snapshot and log exist or
        its recovery has run.  A half-created directory is a deployment
        error, not a serving-path fault, and recovery only reads state, so
        the plan's write-path hooks have nothing legitimate to injure
        before this point.
    retry / breaker:
        Policies; defaults are :class:`RetryPolicy()` and
        :class:`BreakerPolicy()`.
    clock / sleep:
        Injectable time sources so tests drive cooldowns, deadlines, and
        backoff without wall-clock waits.
    """

    def __init__(
        self,
        durable: DurableCollection,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if faults is not None:
            durable.faults = faults
            durable.wal.faults = faults
        self.durable = durable
        self.retry = retry or RetryPolicy()
        self.breaker = CircuitBreaker(breaker, clock=clock)
        self._clock = clock
        self._sleep = sleep
        self._jitter_rng = self.retry.rng()
        self._degraded = False
        self._closed = False
        #: Mutations acknowledged in memory only since entering degraded;
        #: the recovery checkpoint persists them wholesale (state is
        #: snapshotted, not replayed).
        self._buffered = 0
        #: Lifetime stats, mirrored into :mod:`repro.obs` metrics and the
        #: :meth:`health` report.
        self.retries = 0
        self.deadline_exceeded = 0
        self.probe_failures = 0
        self.degraded_entered = 0
        self.degraded_queries = 0
        self.buffered_total = 0
        self.rejected_total = 0
        self.fault_counts: Dict[str, int] = {
            str(domain): 0 for domain in FaultDomain
        }

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether the collection is currently serving in degraded mode."""
        return self._degraded

    @property
    def buffered(self) -> int:
        """Mutations acknowledged in-memory-only since entering degraded."""
        return self._buffered

    @property
    def live(self):
        """The in-memory :class:`~repro.query.live.LiveCollection`."""
        return self.durable.live

    # ------------------------------------------------------------------
    # The guard
    # ------------------------------------------------------------------

    def _mutate(
        self,
        op_name: str,
        durable_op: Callable[[], T],
        live_op: Optional[Callable[[], T]],
    ) -> T:
        """Route one mutation through breaker, retries, and degraded mode."""
        if self._closed:
            raise DurabilityError("resilient collection is closed")
        if self._degraded or self.breaker.state != CLOSED:
            if self.breaker.allow():
                # The half-open probe: one shot at proving storage healed.
                if not self.probe():
                    return self._degraded_apply(op_name, live_op)
                # Healed and resynced — fall through to the normal path.
            else:
                if not self._degraded:
                    # force_open() without a preceding fault lands here.
                    self._enter_degraded()
                return self._degraded_apply(op_name, live_op)
        return self._with_retries(op_name, durable_op, live_op)

    def _with_retries(
        self,
        op_name: str,
        durable_op: Callable[[], T],
        live_op: Optional[Callable[[], T]],
    ) -> T:
        start = self._clock()
        attempt = 0
        while True:
            attempt += 1
            try:
                result = durable_op()
            except InjectedCrash:
                raise  # simulated process death: no retry can un-crash it
            except BaseException as error:
                domain = classify_fault(error)
                self.fault_counts[str(domain)] += 1
                metrics.incr(f"resilient.faults.{domain}")
                if domain is not FaultDomain.TRANSIENT:
                    raise
                self.breaker.record_failure()
                self._repair()
                if self.breaker.state != CLOSED:
                    self._enter_degraded()
                    return self._degraded_apply(op_name, live_op)
                if attempt >= self.retry.max_attempts:
                    metrics.incr("resilient.retry_exhausted")
                    raise RetryExhaustedError(
                        f"{op_name} still failing after {attempt} attempts"
                    ) from error
                delay = self.retry.delay(attempt, self._jitter_rng)
                self._check_deadline(op_name, start, delay, error)
                self.retries += 1
                metrics.incr("resilient.retries")
                self._sleep(delay)
            else:
                self.breaker.record_success()
                return result

    def _repair(self) -> None:
        """Best-effort WAL repair between attempts.

        A failure here is swallowed: if the disk is still refusing I/O
        the next attempt (or the breaker) will say so with better
        context than a repair traceback would.
        """
        try:
            self.durable.reopen_wal()
        except (OSError, DurabilityError):
            metrics.incr("resilient.repair_failures")

    def _check_deadline(
        self, op_name: str, start: float, next_delay: float, cause: BaseException
    ) -> None:
        deadline = self.retry.deadline_seconds
        if deadline is None:
            return
        if self._clock() - start + next_delay > deadline:
            self.deadline_exceeded += 1
            metrics.incr("resilient.deadline_exceeded")
            raise DeadlineExceededError(
                f"{op_name} exceeded its {deadline}s deadline while retrying"
            ) from cause

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------

    def _enter_degraded(self) -> None:
        if self._degraded:
            return
        self._degraded = True
        self.degraded_entered += 1
        metrics.incr("resilient.degraded.entered")
        metrics.gauge("resilient.degraded", 1)

    def _degraded_apply(
        self, op_name: str, live_op: Optional[Callable[[], T]]
    ) -> T:
        if live_op is None:
            self.rejected_total += 1
            metrics.incr("resilient.degraded.rejected")
            raise DegradedModeError(
                f"storage is degraded (circuit open); {op_name} rejected"
            )
        result = live_op()
        self._buffered += 1
        self.buffered_total += 1
        metrics.incr("resilient.degraded.buffered")
        return result

    def probe(self) -> bool:
        """One half-open probe of the storage path; ``True`` on recovery.

        A successful probe must leave storage *caught up*, not just
        reachable: the WAL is repaired, an fsync is forced through, and
        the collection is checkpointed twice so both retained snapshot
        generations cover everything served while degraded (a fallback
        to the older generation must never resurrect pre-degraded
        state).  The checkpoints prune the log, so logged operation
        resumes on an empty, freshly-chained WAL.  Any transient fault
        along the way re-opens the breaker and the cooldown restarts.
        """
        try:
            self.durable.reopen_wal()
            self.durable.wal.sync()
            self.durable.checkpoint()
            self.durable.checkpoint()
        except InjectedCrash:
            raise
        except BaseException as error:
            domain = classify_fault(error)
            self.fault_counts[str(domain)] += 1
            metrics.incr(f"resilient.faults.{domain}")
            if domain is not FaultDomain.TRANSIENT:
                raise
            self.probe_failures += 1
            metrics.incr("resilient.probe_failures")
            self.breaker.record_failure()  # half-open -> straight back open
            return False
        self.breaker.record_success()
        self._buffered = 0
        if self._degraded:
            self._degraded = False
            metrics.incr("resilient.degraded.exited")
            metrics.gauge("resilient.degraded", 0)
        return True

    # ------------------------------------------------------------------
    # Mutations (each: durable path + in-memory degraded fallback)
    # ------------------------------------------------------------------

    def apply(self, op: BatchOp) -> OrderedUpdateReport:
        """Guarded single mutation; every named node mutation lands here."""
        return self._mutate(
            op.kind,
            lambda: self.durable.apply(op),
            lambda: self.durable.live.apply(op),
        )

    def add_document(self, root: XmlElement) -> int:
        """Guarded addition of a whole document; returns its index."""
        return self._mutate(
            "add_document",
            lambda: self.durable.add_document(root),
            lambda: self.durable.live.add_document(root),
        )

    def compact(self) -> List[int]:
        """Guarded SC-table compaction; returns per-document record counts."""
        return self._mutate(
            "compact",
            lambda: self.durable.compact(),
            lambda: self.durable.live.compact(),
        )

    def apply_batch(self, ops: Sequence[BatchOp]) -> BatchReport:
        """Guarded atomic batch: retried or buffered as one unit.

        The batch is encoded to ``(document, preorder position)`` addresses
        once, up front — a failed attempt rolls the durable collection's
        in-memory state back to the last durable state (making the retry
        apply exactly once), which invalidates node references but not
        addresses.  Every retry, and the degraded fallback, re-resolves the
        same addressed batch against the state it is about to mutate.

        While degraded the whole batch applies in memory only and counts
        as one buffered mutation.  A degraded batch that fails mid-way has
        no durable state to roll back to, so it keeps the prefix it
        applied: only the normal path is all-or-nothing.
        """
        encoded = self.durable.encode_batch(list(ops))
        if not encoded:
            return BatchReport()
        return self._mutate(
            f"batch[{len(encoded)}]",
            lambda: self.durable.apply_batch_addressed(encoded),
            lambda: self.durable.live.apply_batch(
                self.durable.resolve_batch(encoded)
            ),
        )

    def checkpoint(self) -> int:
        """Guarded snapshot checkpoint; no degraded fallback exists.

        A checkpoint *is* storage work — while degraded it raises
        :class:`repro.errors.DegradedModeError` (the recovery probe
        performs the checkpoints that matter).
        """
        return self._mutate("checkpoint", self.durable.checkpoint, None)

    # ------------------------------------------------------------------
    # Queries — always served, degraded or not
    # ------------------------------------------------------------------

    def query(self, text: str) -> List[ElementRow]:
        """Evaluate a query; answers from memory even while degraded."""
        if self._degraded:
            self.degraded_queries += 1
            metrics.incr("resilient.degraded.queries")
        return self.durable.query(text)

    # ------------------------------------------------------------------
    # Health and lifecycle
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """A JSON-ready health report (the CLI ``health`` verb's payload)."""
        report: Dict[str, Any] = {
            "state": (
                "closed"
                if self._closed
                else "degraded" if self._degraded else "ok"
            ),
            "breaker": {
                "state": self.breaker.state,
                "consecutive_failures": self.breaker.consecutive_failures,
                "times_opened": self.breaker.times_opened,
                "times_closed": self.breaker.times_closed,
                "probes": self.breaker.probes,
            },
            "retries": self.retries,
            "retry_policy": {
                "max_attempts": self.retry.max_attempts,
                "base_delay": self.retry.base_delay,
                "max_delay": self.retry.max_delay,
                "deadline_seconds": self.retry.deadline_seconds,
            },
            "faults": dict(self.fault_counts),
            "degraded": {
                "entered": self.degraded_entered,
                "buffered": self._buffered,
                "buffered_total": self.buffered_total,
                "rejected": self.rejected_total,
                "queries": self.degraded_queries,
            },
            "deadline_exceeded": self.deadline_exceeded,
            "probe_failures": self.probe_failures,
            "last_seq": self.durable.last_seq,
            "wal_next_seq": self.durable.wal.next_seq,
        }
        plan = self.durable.faults
        if plan is not None:
            report["chaos"] = {
                "injected": dict(plan.injected),
                "total": plan.total_injected,
                "stalls": plan.stalls,
            }
        return report

    def close(self) -> None:
        """Drain the WAL (with retries) and close the durable collection.

        The final fsync is storage work like any other, so it gets the
        same retry treatment; exhausted retries raise (the caller must
        know the tail may be unsynced) but the collection is marked
        closed regardless.  While degraded the drain is skipped —
        storage is already condemned and the probe/recovery path owns
        re-syncing.  Once the drain has succeeded every acknowledged
        record is durable, so a fault in the courtesy sync inside
        :meth:`DurableCollection.close` itself risks no data and is
        swallowed.
        """
        if self._closed:
            return
        try:
            if not self._degraded:
                self._with_retries("close", self.durable.wal.sync, None)
        finally:
            self._closed = True
            try:
                self.durable.close()
            except (OSError, DurabilityError):
                metrics.incr("resilient.close_failures")

    def __enter__(self) -> "ResilientCollection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
