"""The shard router: scatter-gather queries, exactly-once mutations.

The router is the single client-facing endpoint of a sharded
collection.  It owns three correctness-critical disciplines:

**Deadline accounting.**  A scatter-gather query has one overall budget;
a slow shard must not consume all of it and starve the shards after it
in gather order.  The gather loop therefore gives each shard
``remaining budget / outstanding shards`` — the fair share that
guarantees the last shard polled still gets time whenever earlier
shards were fast (their unused share rolls forward into the remainder).

**Graceful degradation.**  A query answers with whatever arrived,
*tagged* with the missing shard set (never silently incomplete — an
empty ``missing_shards`` is the completeness proof); a caller that wants
fail-fast reads :attr:`PartialResult.complete`.  A down shard with an
attached replica tailer is read through the replica and tagged *stale*
rather than missing.  A mutation for a DOWN shard is parked in that
shard's journal and acked ``buffered``; only a QUARANTINED or STOPPED
shard refuses it with :class:`~repro.errors.ShardUnavailableError`.

**The redo journal.**  Mutations are acked with the shard's WAL
sequence number.  Per shard the router tracks the highest acked seq,
the single in-flight (sent, unacked) bundle, and a FIFO of bundles
buffered while the shard is away.  When the supervisor restarts a
worker, its recovered WAL seq resolves the in-flight ambiguity exactly:
``recovered > acked`` means the bundle's record reached the log before
death (drop it — replaying would double-apply); ``recovered == acked``
means it never landed (requeue it first).  Each bundle is one WAL
record (a node-op batch, an added document or a compaction), which is
what makes this single-comparison reconciliation sound.

Node ops reach a worker by one route only, :meth:`ShardRouter.apply_batch`
(``apply_batch`` requests; a single op is a one-entry batch).  The
``apply`` request kind carries the two non-node mutations,
:meth:`~ShardRouter.add_document` and :meth:`~ShardRouter.compact_shard`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ShardError,
    ShardUnavailableError,
)
from repro.obs import metrics
from repro.shard.health import ShardState
from repro.shard.messages import rehydrate_error
from repro.shard.partitioner import DocumentMap
from repro.shard.supervisor import ShardSupervisor

__all__ = ["PartialResult", "RemoteRow", "ShardRouter"]

#: A mutation bundle: ``(request kind, payload)`` — exactly one WAL
#: record on the worker, the unit the redo journal reasons about.
Bundle = Tuple[str, Dict[str, Any]]

#: Seconds a scatter-gather waits in all before it answers partially
#: (a call's own ``budget=`` overrides it).
QUERY_BUDGET_S = 5.0
#: Seconds a routed mutation waits for its worker's ack; past it the
#: worker is killed and the mutation stays in flight (``pending``).
MUTATION_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class RemoteRow:
    """One query result row, re-addressed to global document ids."""

    doc: int
    tag: str
    depth: int
    text: str = ""


@dataclass(frozen=True)
class PartialResult:
    """A scatter-gather answer plus its completeness provenance.

    ``missing_shards`` names every shard whose documents are absent from
    ``rows``; ``stale_shards`` names shards answered from their replica
    tailer (present, possibly lagging).  ``complete`` is only True when
    both sets are empty — a partial answer can never masquerade as a
    full one.
    """

    rows: Tuple[RemoteRow, ...]
    missing_shards: frozenset = frozenset()
    stale_shards: frozenset = frozenset()
    elapsed: float = 0.0

    @property
    def complete(self) -> bool:
        """True only when every shard answered authoritatively."""
        return not self.missing_shards and not self.stale_shards


@dataclass
class _Journal:
    """Per-shard redo state: acked watermark, in-flight bundle, buffer."""

    acked_seq: int = 0
    inflight: Optional[Bundle] = None
    buffer: List[Bundle] = field(default_factory=list)


class ShardRouter:
    """Routes queries and mutations across supervised shard workers."""

    def __init__(
        self,
        supervisor: ShardSupervisor,
        doc_map: DocumentMap,
        clock: Callable[[], float] = time.monotonic,
    ):
        """Wire a router over ``supervisor``; wires itself as callbacks."""
        self.supervisor = supervisor
        self.doc_map = doc_map
        self.clock = clock
        self._journals: Dict[int, _Journal] = {
            shard_id: _Journal() for shard_id in supervisor.shard_ids
        }
        self.replicas: Dict[int, Any] = {}
        #: ``(shard, recovered WAL seq)`` per supervisor restart — the
        #: observable record of every recovery the service lived through.
        self.restart_log: List[Tuple[int, int]] = []
        supervisor.on_restart = self._handle_restart
        supervisor.on_down = self._handle_down

    # ------------------------------------------------------------------
    # Lifecycle hooks

    def prime(self) -> None:
        """Adopt the supervisor's post-start watermarks (call once)."""
        for shard_id in self.supervisor.shard_ids:
            self._journals[shard_id].acked_seq = self.supervisor.health(
                shard_id
            ).last_seq

    def pump(self) -> List[Tuple[str, int, int]]:
        """One supervision round (restarts fire redo replay inside)."""
        return self.supervisor.tick()

    def attach_replica(self, shard_id: int, replica: Any) -> None:
        """Register a PR 7 replica tailer as ``shard_id``'s read fallback.

        ``replica`` is duck-typed to :class:`repro.replica.ReplicaCollection`
        (``catch_up()`` + ``read_view()``), so tests can attach doubles.
        """
        self._journal(shard_id)  # validates the shard id
        self.replicas[shard_id] = replica

    def _journal(self, shard_id: int) -> _Journal:
        try:
            return self._journals[shard_id]
        except KeyError:
            raise ShardError(
                f"no such shard {shard_id}; routing over "
                f"{self.supervisor.shard_ids}"
            ) from None

    def _handle_down(self, shard_id: int) -> None:
        metrics.incr("shard.router_down_events")

    def _handle_restart(self, shard_id: int, recovered_seq: int) -> None:
        """Reconcile the redo journal against a restarted worker.

        The in-flight ambiguity resolves by sequence comparison (see the
        module docstring); then the buffered backlog replays in original
        order before any new traffic reaches the shard.
        """
        journal = self._journal(shard_id)
        if journal.inflight is not None:
            if recovered_seq > journal.acked_seq:
                # The bundle's record hit the log before the crash;
                # recovery already replayed it.  Re-sending would apply
                # it twice.
                journal.inflight = None
                metrics.incr("shard.redo_resolved_applied")
            else:
                journal.buffer.insert(0, journal.inflight)
                journal.inflight = None
                metrics.incr("shard.redo_resolved_lost")
        journal.acked_seq = max(journal.acked_seq, recovered_seq)
        self.restart_log.append((shard_id, recovered_seq))
        self._flush(shard_id)

    def _flush(self, shard_id: int) -> None:
        """Drain the buffered backlog to a freshly-UP shard, in order."""
        journal = self._journal(shard_id)
        while journal.buffer and self.supervisor.is_up(shard_id):
            bundle = journal.buffer.pop(0)
            journal.inflight = bundle
            kind, payload = bundle
            try:
                response = self.supervisor.request(
                    shard_id, kind, payload, timeout=MUTATION_TIMEOUT_S
                )
            except ShardUnavailableError:
                # Died mid-replay; the next restart reconciles inflight.
                metrics.incr("shard.replay_interrupted")
                return
            except DeadlineExceededError:
                self.supervisor.fail(shard_id, "mutation replay deadline")
                metrics.incr("shard.replay_interrupted")
                return
            journal.acked_seq = max(
                journal.acked_seq, int(response.value["last_seq"])
            )
            journal.inflight = None
            metrics.incr("shard.replayed_ops")

    # ------------------------------------------------------------------
    # Mutations

    def add_document(self, xml: str) -> Dict[str, Any]:
        """Place and ship a new document; returns the ack + global id.

        The global id is assigned here (placement must happen even when
        the owning shard is down, so later documents keep their ids);
        the shipped op carries only the XML — the worker's local index
        is implied by arrival order, which the buffer preserves.
        """
        doc_id, shard_id, _local = self.doc_map.add()
        ack = self._mutate(
            shard_id, ("apply", {"op": {"op": "add_document", "xml": xml}})
        )
        return {**ack, "doc": doc_id, "shard": shard_id}

    def apply_batch(
        self, entries: Sequence[Dict[str, Any]]
    ) -> Dict[int, Dict[str, Any]]:
        """Route an addressed batch, split by owning shard.

        Each shard's sub-batch group-commits as one WAL record — atomic
        *per shard*, the strongest unit a shared-nothing layout offers
        (there is no cross-shard transaction).  This is the only route for
        node ops: a single op is a one-entry batch.  Returns each involved
        shard's ack, keyed by shard id: ``{"status": "applied", ...}``,
        or ``buffered`` / ``pending`` while the shard is away
        (``pending``: sent but unacked when the worker died; the restart
        reconciliation decides whether it must replay).
        """
        by_shard: Dict[int, List[Dict[str, Any]]] = {}
        for entry in entries:
            shard_id, local = self.doc_map.to_local(int(entry["doc"]))
            by_shard.setdefault(shard_id, []).append({**entry, "doc": local})
        acks: Dict[int, Dict[str, Any]] = {}
        for shard_id in sorted(by_shard):
            acks[shard_id] = self._mutate(
                shard_id, ("apply_batch", {"entries": by_shard[shard_id]})
            )
        return acks

    def compact_shard(self, shard_id: int) -> Dict[str, Any]:
        """Route a logged SC compaction to one shard (journalled)."""
        return self._mutate(shard_id, ("apply", {"op": {"op": "compact"}}))

    def _mutate(self, shard_id: int, bundle: Bundle) -> Dict[str, Any]:
        """The single mutation path: journal, send, ack — or degrade."""
        self.pump()
        journal = self._journal(shard_id)
        state = self.supervisor.state_of(shard_id)
        if state in (ShardState.QUARANTINED, ShardState.STOPPED):
            metrics.incr("shard.rejected_mutations")
            raise self.supervisor.unavailable(shard_id, f"apply {bundle[0]}")
        if state is not ShardState.UP or journal.buffer:
            # Away, or an un-drained backlog this op must queue behind to
            # preserve per-shard order.
            journal.buffer.append(bundle)
            metrics.incr("shard.buffered_ops")
            return {"status": "buffered", "shard": shard_id}
        journal.inflight = bundle
        kind, payload = bundle
        try:
            response = self.supervisor.request(
                shard_id, kind, payload, timeout=MUTATION_TIMEOUT_S
            )
        except (ShardUnavailableError, DeadlineExceededError) as error:
            if isinstance(error, DeadlineExceededError):
                # Slow is dead: ack accounting cannot survive an abandoned
                # in-flight response followed by more traffic, so the
                # worker is killed.
                self.supervisor.fail(shard_id, "mutation deadline exceeded")
            # Leave ``inflight`` set: the restart reconciliation decides
            # replay-vs-drop from the recovered sequence number.
            metrics.incr("shard.pending_mutations")
            return {"status": "pending", "shard": shard_id}
        journal.acked_seq = max(journal.acked_seq, int(response.value["last_seq"]))
        journal.inflight = None
        return {"status": "applied", "shard": shard_id, **response.value}

    # ------------------------------------------------------------------
    # Queries

    def query(self, text: str, budget: Optional[float] = None) -> PartialResult:
        """Scatter ``text`` to every shard; gather within ``budget`` s."""
        return self._scatter_gather("query", {"text": text}, budget)

    def count(self, text: str, budget: Optional[float] = None) -> Dict[str, Any]:
        """Scatter-gather a count; same degradation contract as query.

        Returns ``{"count", "missing_shards", "stale_shards"}`` — the
        count is a lower bound whenever ``missing_shards`` is non-empty.
        """
        result = self._scatter_gather("count", {"text": text}, budget)
        return {
            "count": sum(row.depth for row in result.rows),
            "missing_shards": set(result.missing_shards),
            "stale_shards": set(result.stale_shards),
        }

    def _scatter_gather(
        self, kind: str, payload: Dict[str, Any], budget: Optional[float]
    ) -> PartialResult:
        self.pump()
        budget = QUERY_BUDGET_S if budget is None else budget
        start = self.clock()
        sent: List[Tuple[int, int]] = []  # (shard, request id), send order
        away: List[int] = []
        for shard_id in self.supervisor.shard_ids:
            if not self.supervisor.is_up(shard_id):
                away.append(shard_id)
                continue
            try:
                sent.append((shard_id, self.supervisor.send(shard_id, kind, payload)))
            except ShardUnavailableError:
                away.append(shard_id)
        rows: List[RemoteRow] = []
        missing: Set[int] = set()
        stale: Set[int] = set()
        with metrics.timed("shard.scatter_gather"):
            for position, (shard_id, request_id) in enumerate(sent):
                # Satellite-2 deadline accounting: this shard's wait is
                # its fair share of what is left, so one stalled shard
                # can burn only 1/outstanding of the remaining budget.
                outstanding = len(sent) - position
                remaining = max(0.0, budget - (self.clock() - start))
                share = remaining / outstanding
                try:
                    response = self.supervisor.receive(shard_id, request_id, share)
                except DeadlineExceededError:
                    metrics.incr("shard.query_timeouts")
                    missing.add(shard_id)
                    continue
                except ShardUnavailableError:
                    missing.add(shard_id)
                    continue
                if not response.ok:
                    # A typed worker-side error (bad query text, capacity)
                    # is the caller's answer, not a degraded shard.
                    raise rehydrate_error(response.error or {}, shard=shard_id)
                self.supervisor.note_served(shard_id)
                rows.extend(self._remap(kind, shard_id, response.value))
        for shard_id in away:
            if not self._read_from_replica(kind, shard_id, payload, rows, stale):
                missing.add(shard_id)
        if missing:
            metrics.incr("shard.partial_responses")
        rows.sort(key=lambda row: row.doc)  # stable: in-doc order survives
        return PartialResult(
            rows=tuple(rows),
            missing_shards=frozenset(missing),
            stale_shards=frozenset(stale),
            elapsed=self.clock() - start,
        )

    def _remap(self, kind: str, shard_id: int, value: Any) -> List[RemoteRow]:
        """Worker-local result → globally-addressed rows.

        Counts ride the same row channel (``depth`` carries the count)
        so both verbs share one gather loop.
        """
        if kind == "count":
            return [RemoteRow(doc=-1, tag="#count", depth=int(value))]
        return [
            RemoteRow(
                doc=self.doc_map.to_global(shard_id, local),
                tag=tag,
                depth=depth,
                text=text,
            )
            for local, tag, depth, text in value
        ]

    def _read_from_replica(
        self,
        kind: str,
        shard_id: int,
        payload: Dict[str, Any],
        rows: List[RemoteRow],
        stale: Set[int],
    ) -> bool:
        """Serve a down shard from its replica tailer, if one is attached."""
        replica = self.replicas.get(shard_id)
        if replica is None:
            return False
        try:
            replica.catch_up()
            view = replica.read_view()
            if kind == "count":
                rows.append(
                    RemoteRow(doc=-1, tag="#count", depth=view.count(payload["text"]))
                )
            else:
                rows.extend(
                    self._remap(
                        "query",
                        shard_id,
                        [
                            (row.doc_id, row.tag, row.depth, row.text)
                            for row in view.query(payload["text"])
                        ],
                    )
                )
        except ReproError:
            metrics.incr("shard.replica_fallback_failures")
            return False
        stale.add(shard_id)
        metrics.incr("shard.replica_fallbacks")
        return True

    # ------------------------------------------------------------------
    # Maintenance fan-out

    def broadcast(
        self, kind: str, payload: Optional[Dict[str, Any]] = None, timeout: float = 60.0
    ) -> Dict[int, Any]:
        """Run a maintenance verb on every UP shard; skip the rest.

        Returns per-shard values for the shards that answered; callers
        compare the key set against ``supervisor.shard_ids`` when they
        need to know who was skipped.
        """
        out: Dict[int, Any] = {}
        self.pump()
        for shard_id in self.supervisor.shard_ids:
            if not self.supervisor.is_up(shard_id):
                continue
            try:
                out[shard_id] = self.supervisor.request(
                    shard_id, kind, payload or {}, timeout=timeout
                ).value
            except ReproError:
                metrics.incr("shard.broadcast_failures")
        return out

    def buffered_ops(self, shard_id: int) -> int:
        """Bundles parked for ``shard_id`` (including any in-flight one)."""
        journal = self._journal(shard_id)
        return len(journal.buffer) + (1 if journal.inflight else 0)
