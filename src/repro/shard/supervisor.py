"""The shard supervisor: spawn, health-check, restart, quarantine.

The supervisor owns every process-lifecycle concern so the router can
treat shards as logical endpoints that are merely sometimes away:

* **spawn** — each shard runs :func:`repro.shard.worker.worker_main` in
  its own process (``fork`` start method where available, ``spawn``
  otherwise) with one end of a private control pipe; a handshake ping
  confirms the worker bootstrapped its durable state (wrote it, on a
  fresh collection's first launch, or recovered it) and reports the
  WAL sequence number it holds,
* **health** — event-driven, no supervisor thread: :meth:`tick` (called
  by the router before every operation, and by soak loops directly)
  reaps dead processes, runs throttled heartbeat rounds, and counts
  missed heartbeats; a worker that misses too many in a row is declared
  hung and killed — a wedged process is treated exactly like a dead one,
* **restart** — a dead shard is respawned through the standard per-shard
  WAL/snapshot recovery path after a backoff delay from the resilient
  layer's :class:`~repro.resilient.policy.RetryPolicy` (capped
  exponential, seeded jitter),
* **quarantine** — a shard that dies more than ``restart_budget`` times
  without serving a single successful request in between is assumed
  deterministically poisoned and parked in ``QUARANTINED`` until an
  operator intervenes; the budget state travels in every
  :class:`~repro.errors.ShardUnavailableError` raised on its behalf.

Request plumbing lives here too (:meth:`send` / :meth:`receive` /
:meth:`request`) because failure detection and request failure are the
same event: a dead pipe discovered mid-request marks the shard DOWN.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ShardError,
    ShardUnavailableError,
)
from repro.obs import metrics
from repro.shard.health import HealthPolicy, ShardHealth, ShardState
from repro.shard.messages import Request, Response, rehydrate_error
from repro.shard.worker import WorkerConfig, worker_main

__all__ = ["ShardSupervisor"]


def _start_method(preferred: Optional[str]) -> str:
    """Pick a start method: ``fork`` where the platform offers it.

    ``fork`` keeps worker start (and therefore restart-after-crash) in
    the low milliseconds; ``spawn`` works everywhere and exercises the
    picklability of :class:`WorkerConfig` that the bootstrap contract
    guarantees anyway.
    """
    available = multiprocessing.get_all_start_methods()
    if preferred:
        if preferred not in available:
            raise ShardError(
                f"start method {preferred!r} unavailable; have {available}"
            )
        return preferred
    return "fork" if "fork" in available else "spawn"


@dataclass
class _Slot:
    """Supervisor-internal bookkeeping for one shard."""

    config: WorkerConfig
    state: ShardState = ShardState.DOWN
    proc: Optional[Any] = None  # multiprocessing.Process
    conn: Optional[Any] = None  # multiprocessing.connection.Connection
    restarts: int = 0
    consecutive_failures: int = 0
    missed_heartbeats: int = 0
    next_request_id: int = 0
    #: Monotonic instant before which a restart must not be attempted.
    next_restart_at: float = 0.0
    #: Recovered/acked WAL sequence, as last observed by the supervisor.
    last_seq: int = 0
    quarantine_reason: Optional[str] = None
    #: Events appended by state transitions, drained by :meth:`tick`.
    events: List[Tuple[str, int, int]] = field(default_factory=list)


class ShardSupervisor:
    """Lifecycle manager for a fleet of shard worker processes."""

    def __init__(
        self,
        configs: Sequence[WorkerConfig],
        policy: Optional[HealthPolicy] = None,
        start_method: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        on_restart: Optional[Callable[[int, int], None]] = None,
        on_down: Optional[Callable[[int], None]] = None,
    ):
        """Supervise one worker per config; callbacks notify the router.

        ``on_restart(shard_id, recovered_seq)`` fires after a successful
        respawn + handshake; ``on_down(shard_id)`` fires when a shard
        leaves ``UP``.  ``clock`` must be monotonic (injectable for
        tests).
        """
        self.policy = policy or HealthPolicy()
        self.clock = clock
        self.on_restart = on_restart
        self.on_down = on_down
        self._ctx = multiprocessing.get_context(_start_method(start_method))
        self._rng = self.policy.restart.rng()
        self._slots: Dict[int, _Slot] = {
            config.shard_id: _Slot(config=config) for config in configs
        }
        self._last_heartbeat_at = float("-inf")

    # ------------------------------------------------------------------
    # Lifecycle

    @property
    def shard_ids(self) -> List[int]:
        """All supervised shard ids, ascending."""
        return sorted(self._slots)

    def start(self) -> Dict[int, str]:
        """Spawn every worker, then collect their bootstrap handshakes.

        All workers are forked and pinged before the first handshake is
        awaited, so the shards bootstrap (write or recover their durable
        state) concurrently.  Each handshake keeps its own deadline,
        counted from its own ping, and a failed one is charged to that
        shard alone.  Returns why each failed shard failed, by shard id.
        """
        pings = {shard_id: self._launch(shard_id) for shard_id in self.shard_ids}
        failures: Dict[int, str] = {}
        for shard_id, ping in pings.items():
            reason = self._handshake(shard_id, ping)
            if reason is not None:
                failures[shard_id] = reason
        # Every worker just answered its handshake ping, so the fleet's
        # health is proven as of now: the first *proactive* heartbeat
        # round is owed one interval later, not on the first tick.
        self._last_heartbeat_at = self.clock()
        return failures

    def _launch(self, shard_id: int) -> Optional[Tuple[int, float]]:
        """Fork one worker and send its handshake ping without waiting.

        Returns ``(request id, deadline)`` for :meth:`_handshake`, or
        ``None`` when the ping could not be sent (the send path has
        already recorded the death and charged the budget).
        """
        slot = self._slots[shard_id]
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(slot.config, child_conn),
            name=f"repro-shard-{shard_id:02d}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if slot.config.create is not None:
            # The first launch has its documents (forked or pickled by
            # now); every restart recovers the shard from disk instead.
            slot.config = replace(slot.config, create=None)
        slot.proc, slot.conn = proc, parent_conn
        slot.state = ShardState.UP  # provisionally, for the handshake ping
        slot.missed_heartbeats = 0
        deadline = self.clock() + self.policy.handshake_timeout
        try:
            return self.send(shard_id, "ping"), deadline
        except ShardUnavailableError:
            return None

    def _handshake(
        self, shard_id: int, ping: Optional[Tuple[int, float]]
    ) -> Optional[str]:
        """Await a launched worker's ping answer; returns why it failed, or None."""
        if ping is None:
            metrics.incr("shard.handshake_failures")
            return "the handshake ping could not be sent"
        request_id, deadline = ping
        try:
            pong = self.receive(
                shard_id, request_id, timeout=max(deadline - self.clock(), 0.0)
            )
            if not pong.ok:
                raise rehydrate_error(pong.error or {}, shard=shard_id)
        except ShardUnavailableError:
            # The worker died during bootstrap; the receive path has
            # already recorded the death (and charged the budget).
            metrics.incr("shard.handshake_failures")
            return "the worker died during its bootstrap"
        except ReproError as error:
            # A wedged handshake or a worker-side bootstrap error (e.g.
            # unrecoverable shard state) is a persistent failure: kill
            # the process and charge the restart budget so a shard that
            # can never bootstrap quarantines instead of flapping.
            metrics.incr("shard.handshake_failures")
            self.kill(shard_id)
            reason = f"handshake failed: {error}"
            self._note_death(shard_id, reason)
            return reason
        self._slots[shard_id].last_seq = int(pong.value["last_seq"])
        return None

    def stop(self) -> None:
        """Shut every worker down cleanly; quarantined ones are killed."""
        for shard_id, slot in self._slots.items():
            if slot.conn is not None and slot.state is ShardState.UP:
                try:
                    self.request(shard_id, "shutdown", timeout=10.0)
                except ReproError:
                    metrics.incr("shard.unclean_shutdowns")
            self._reap(slot)
            slot.state = ShardState.STOPPED

    def _reap(self, slot: _Slot) -> None:
        """Kill/join/close whatever remains of a slot's process."""
        if slot.proc is not None:
            if slot.proc.is_alive():
                slot.proc.kill()
            slot.proc.join(timeout=10.0)
            slot.proc = None
        if slot.conn is not None:
            slot.conn.close()
            slot.conn = None

    def kill(self, shard_id: int) -> None:
        """SIGKILL one worker (chaos/test hook); tick() will notice."""
        slot = self._slot(shard_id)
        if slot.proc is not None and slot.proc.is_alive():
            slot.proc.kill()
            slot.proc.join(timeout=10.0)
        metrics.incr("shard.kills")

    def fail(self, shard_id: int, reason: str) -> None:
        """Declare a live worker failed: kill it and charge the budget.

        The router calls this when ack accounting can no longer be
        trusted (a mutation overran its deadline): a worker whose next
        response would be ambiguous is worth less than a restart through
        recovery, which re-establishes an exact watermark.
        """
        self.kill(shard_id)
        if self._slot(shard_id).state is ShardState.UP:
            self._note_death(shard_id, reason)

    def note_served(self, shard_id: int) -> None:
        """Record a successfully served request (resets the crash loop).

        The scatter-gather path uses raw :meth:`send`/:meth:`receive`
        and so bypasses :meth:`request`'s bookkeeping; it reports
        successes here to keep the restart-budget semantics identical.
        """
        self._slot(shard_id).consecutive_failures = 0

    # ------------------------------------------------------------------
    # Supervision loop

    def tick(self) -> List[Tuple[str, int, int]]:
        """One supervision round; returns ``(event, shard, seq)`` triples.

        Reaps silently-died workers, runs a heartbeat round when one is
        due, restarts DOWN shards whose backoff has elapsed, and
        quarantines over-budget crash-loopers.  Events: ``"restarted"``
        (seq = recovered WAL sequence), ``"quarantined"``, ``"hung"``.
        """
        now = self.clock()
        heartbeat_due = now - self._last_heartbeat_at >= self.policy.heartbeat_interval
        if heartbeat_due:
            self._last_heartbeat_at = now
        for shard_id in self.shard_ids:
            slot = self._slots[shard_id]
            if slot.state is ShardState.UP:
                if slot.proc is None or not slot.proc.is_alive():
                    self._note_death(shard_id, "worker process died")
                elif heartbeat_due:
                    self._heartbeat(shard_id)
            if slot.state is ShardState.DOWN and self.clock() >= slot.next_restart_at:
                self._restart(shard_id)
        events: List[Tuple[str, int, int]] = []
        for slot in self._slots.values():
            events.extend(slot.events)
            slot.events.clear()
        return events

    def _heartbeat(self, shard_id: int) -> None:
        """Ping one UP worker; escalate repeated misses to a hang-kill."""
        slot = self._slots[shard_id]
        try:
            pong = self.request(
                shard_id, "ping", timeout=self.policy.heartbeat_timeout
            )
        except DeadlineExceededError:
            slot.missed_heartbeats += 1
            metrics.incr("shard.heartbeat_misses")
            if slot.missed_heartbeats >= self.policy.max_missed_heartbeats:
                # Hung is dead: a worker that cannot answer a ping is not
                # going to answer a query either.  Kill it and let the
                # normal death path restart it through recovery.
                slot.events.append(("hung", shard_id, slot.last_seq))
                metrics.incr("shard.hang_kills")
                self.kill(shard_id)
                self._note_death(shard_id, "hung: missed heartbeats")
        except ReproError:
            # Death discovered mid-ping; _note_death already ran inside
            # the request path.
            metrics.incr("shard.heartbeat_deaths")
        else:
            slot.missed_heartbeats = 0
            slot.last_seq = max(slot.last_seq, int(pong.value["last_seq"]))

    def _note_death(self, shard_id: int, reason: str) -> None:
        """Transition UP → DOWN (or → QUARANTINED past the budget)."""
        slot = self._slots[shard_id]
        self._reap(slot)
        slot.consecutive_failures += 1
        metrics.incr("shard.worker_deaths")
        if slot.consecutive_failures > self.policy.restart_budget:
            slot.state = ShardState.QUARANTINED
            slot.quarantine_reason = (
                f"{reason}; crash-looped through its restart budget "
                f"({self.policy.restart_budget} restarts)"
            )
            slot.events.append(("quarantined", shard_id, slot.last_seq))
            metrics.incr("shard.quarantines")
        else:
            slot.state = ShardState.DOWN
            delay = self.policy.restart.delay(slot.consecutive_failures, self._rng)
            slot.next_restart_at = self.clock() + delay
        if self.on_down is not None:
            self.on_down(shard_id)

    def _restart(self, shard_id: int) -> None:
        """Respawn a DOWN shard through recovery and announce the result."""
        slot = self._slots[shard_id]
        slot.restarts += 1
        metrics.incr("shard.restarts")
        if self._handshake(shard_id, self._launch(shard_id)) is None:
            slot.events.append(("restarted", shard_id, slot.last_seq))
            if self.on_restart is not None:
                self.on_restart(shard_id, slot.last_seq)

    # ------------------------------------------------------------------
    # Requests

    def _slot(self, shard_id: int) -> _Slot:
        try:
            return self._slots[shard_id]
        except KeyError:
            raise ShardUnavailableError(
                f"no such shard {shard_id}; supervising {self.shard_ids}"
            ) from None

    def unavailable(self, shard_id: int, verb: str) -> ShardUnavailableError:
        """A fully-annotated unavailability error for ``shard_id``."""
        slot = self._slot(shard_id)
        quarantined = slot.state is ShardState.QUARANTINED
        return ShardUnavailableError(
            f"cannot {verb}: shard worker is not serving"
            + (f" ({slot.quarantine_reason})" if slot.quarantine_reason else ""),
            shard=shard_id,
            state=slot.state.value,
            restarts=min(slot.consecutive_failures, self.policy.restart_budget),
            budget=self.policy.restart_budget,
            hint=(
                "inspect the shard directory with `repro shard-status` and "
                "clear the quarantine by reopening the service"
                if quarantined
                else "retry after the supervisor's restart backoff"
            ),
        )

    def is_up(self, shard_id: int) -> bool:
        """Whether ``shard_id`` is currently serving."""
        return self._slot(shard_id).state is ShardState.UP

    def state_of(self, shard_id: int) -> ShardState:
        """The supervision state of ``shard_id``."""
        return self._slot(shard_id).state

    def send(self, shard_id: int, kind: str, payload: Optional[dict] = None) -> int:
        """Ship a request without waiting; returns its request id."""
        slot = self._slot(shard_id)
        if slot.state is not ShardState.UP or slot.conn is None:
            raise self.unavailable(shard_id, f"send {kind!r}")
        slot.next_request_id += 1
        request = Request(id=slot.next_request_id, kind=kind, payload=payload or {})
        try:
            slot.conn.send(request)
        except (OSError, ValueError) as error:
            self._note_death(shard_id, f"send failed: {error}")
            raise self.unavailable(shard_id, f"send {kind!r}") from error
        return request.id

    def receive(self, shard_id: int, request_id: int, timeout: float) -> Response:
        """Await the response to ``request_id``, within ``timeout`` seconds.

        Responses to abandoned earlier requests (their deadline expired)
        are drained and discarded.  A response already waiting in the pipe
        is read even when the deadline has passed (``timeout`` may be 0),
        since it arrived in time.  A deadline miss raises
        :class:`DeadlineExceededError` and leaves the shard UP — hang
        escalation is the heartbeat path's job; a dead pipe marks the
        shard DOWN and raises :class:`ShardUnavailableError`.
        """
        slot = self._slot(shard_id)
        if slot.conn is None:
            raise self.unavailable(shard_id, "receive")
        deadline = self.clock() + timeout
        while True:
            remaining = deadline - self.clock()
            try:
                ready = slot.conn.poll(max(remaining, 0.0))
                if ready:
                    response: Response = slot.conn.recv()
            except (EOFError, OSError) as error:
                self._note_death(shard_id, f"pipe broke: {error}")
                raise self.unavailable(shard_id, "receive") from error
            if not ready:
                if remaining <= 0:
                    metrics.incr("shard.deadline_misses")
                    raise DeadlineExceededError(
                        f"shard {shard_id} missed its {timeout:.3f}s deadline "
                        f"for request {request_id}"
                    )
                continue
            if response.id < request_id:
                metrics.incr("shard.stale_responses")
                continue  # answer to an abandoned request
            if response.id > request_id:
                # Protocol violation — ids are per-shard monotonic.
                self._note_death(shard_id, "response id from the future")
                raise self.unavailable(shard_id, "receive")
            return response

    def request(
        self,
        shard_id: int,
        kind: str,
        payload: Optional[dict] = None,
        timeout: float = 30.0,
    ) -> Response:
        """Round trip: send, await, rehydrate errors, track last_seq.

        A successful *serving* request (anything but ping/shutdown)
        resets the shard's consecutive-failure count — the restart budget
        meters crash *loops*, not lifetime crashes.
        """
        request_id = self.send(shard_id, kind, payload)
        response = self.receive(shard_id, request_id, timeout)
        slot = self._slot(shard_id)
        if kind not in ("ping", "shutdown"):
            # Any response at all — even a typed error — proves the
            # worker is alive and serving; the budget meters crash loops.
            slot.consecutive_failures = 0
        if not response.ok:
            raise rehydrate_error(response.error or {}, shard=shard_id)
        if isinstance(response.value, dict) and "last_seq" in response.value:
            slot.last_seq = max(slot.last_seq, int(response.value["last_seq"]))
        return response

    # ------------------------------------------------------------------
    # Introspection

    def health(self, shard_id: int) -> ShardHealth:
        """The supervision-side health record for one shard."""
        slot = self._slot(shard_id)
        return ShardHealth(
            shard_id=shard_id,
            state=slot.state,
            pid=slot.proc.pid if slot.proc is not None else None,
            restarts=slot.restarts,
            consecutive_failures=slot.consecutive_failures,
            missed_heartbeats=slot.missed_heartbeats,
            last_seq=slot.last_seq,
            quarantine_reason=slot.quarantine_reason,
        )
