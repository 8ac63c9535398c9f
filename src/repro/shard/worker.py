"""The shard worker: one process, one :class:`DurableCollection`.

A worker is intentionally boring — that is the fault-isolation design.
It owns exactly one durable directory (``shard-NN/`` under the sharded
root), opens it through the standard recovery path on every start (a
restart after a crash *is* just recovery), and serves a small
request/response protocol over the control pipe it was born with:
queries, addressed mutations (the same ``(document, preorder position)``
currency the WAL uses), checkpoints, and health pings.

Crash semantics: an :class:`~repro.durable.faults.InjectedCrash` from
the fault injector simulates process death and is honoured literally —
the worker ``os._exit``\\ s without acking, exactly like a SIGKILL.  Any
other failure is *data*: it is classified into a resilient-layer fault
domain, encoded, and shipped back so the router can rehydrate a typed
error without this process dying.  One request's failure must never
poison the next request — the per-shard durable rollback guarantees
already provide that (single ops validate before logging; batches roll
back to the last durable state).

:class:`WorkerServer` is the protocol engine, separable from the process
loop so unit tests can drive it in-process; :func:`worker_main` is the
``multiprocessing`` entry point (module-level, so it is picklable under
the ``spawn`` start method too).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.durable.collection import DurableCollection
from repro.durable.faults import CrashAfterAppends, FaultInjector, InjectedCrash
from repro.durable.recovery import list_generations, shard_directory
from repro.durable.snapshot import collection_fingerprint
from repro.errors import DurabilityError, ShardError
from repro.obs import metrics
from repro.obs.audit import audit_ordered_document
from repro.resilient.chaos import ChaosInjector
from repro.shard.messages import Request, Response, encode_error
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serialize import serialize
from repro.xmlkit.tree import XmlElement

__all__ = ["WorkerConfig", "WorkerServer", "build_fault_injector", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to bootstrap, as picklable primitives.

    This dataclass crosses the process boundary (as a ``Process`` arg
    under ``fork``, pickled under ``spawn``), so it holds only strings
    and numbers — never live handles, trees, or generator objects.  The
    heavyweight bootstrap state (documents, labels, generator position,
    SC groups) stays on disk and is reloaded through recovery.
    """

    shard_id: int
    root: str
    fsync: str = "always"
    verify: bool = True
    #: Scripted fault injection armed inside the worker, for chaos and
    #: crash-loop tests: ``"crash_after_appends:N"`` or ``"chaos:<spec>"``
    #: (a :meth:`repro.resilient.chaos.ChaosInjector.from_spec` string).
    fault_spec: Optional[str] = None


def build_fault_injector(spec: Optional[str]) -> Optional[FaultInjector]:
    """Materialise a :class:`WorkerConfig.fault_spec` inside the worker.

    The spec is a string (picklable) rather than an injector instance so
    every (re)started process arms a *fresh* injector — a crash-loop
    fault keeps crash-looping across restarts instead of being disarmed
    by its own spent counter travelling along.
    """
    if not spec:
        return None
    name, _, arg = spec.partition(":")
    if name == "crash_after_appends":
        try:
            return CrashAfterAppends(int(arg))
        except ValueError:
            raise ShardError(
                f"fault spec {spec!r}: crash_after_appends needs an integer"
            ) from None
    if name == "chaos":
        return ChaosInjector.from_spec(arg)
    raise ShardError(f"unknown worker fault spec {spec!r}")


class WorkerServer:
    """Protocol engine mapping requests onto one durable collection."""

    def __init__(self, config: WorkerConfig):
        """Open (recover) the shard's collection per ``config``."""
        self.config = config
        self.collection = DurableCollection.open(
            shard_directory(config.root, config.shard_id),
            fsync=config.fsync,
            faults=build_fault_injector(config.fault_spec),
            verify=config.verify,
        )

    # ------------------------------------------------------------------
    # Request dispatch

    def handle(self, request: Request) -> Response:
        """Answer one request; failures become error responses.

        :class:`InjectedCrash` is re-raised — simulated process death
        must kill the loop, not turn into a polite error reply.
        """
        try:
            value = self._dispatch(request.kind, request.payload)
        except InjectedCrash:
            raise
        except Exception as error:
            # Worker errors are data: classify, encode, ship back.  The
            # metric keeps worker-side failure visible even when the
            # router that receives the encoding is long gone.
            metrics.incr("shard.worker_errors")
            return Response(id=request.id, ok=False, error=encode_error(error))
        return Response(id=request.id, ok=True, value=value)

    def _dispatch(self, kind: str, payload: Dict[str, Any]) -> Any:
        if kind == "ping":
            return {
                "pid": os.getpid(),
                "last_seq": self.collection.last_seq,
                "docs": len(self.collection.documents),
            }
        if kind == "query":
            return self._rows(self.collection.query(payload["text"]))
        if kind == "count":
            return self.collection.count(payload["text"])
        if kind == "serialize":
            return serialize(self._document(payload["doc"]))
        if kind == "fingerprint":
            return collection_fingerprint(self.collection.live)
        if kind == "audit":
            return self._audit()
        if kind == "apply":
            return self._apply_single(payload["op"])
        if kind == "apply_batch":
            report = self.collection.apply_batch_addressed(payload["entries"])
            return {
                "last_seq": self.collection.last_seq,
                "ops": len(report),
                "relabels": report.node_relabels,
            }
        if kind == "checkpoint":
            generation = self.collection.checkpoint()
            return {"generation": generation, "last_seq": self.collection.last_seq}
        if kind == "stats":
            return {
                "last_seq": self.collection.last_seq,
                "docs": len(self.collection.documents),
                "generations": list_generations(self.collection.directory),
            }
        if kind == "stall":
            # Test/chaos hook: a hung worker, from the router's point of
            # view.  Sleeps inside the handler so the control pipe backs
            # up exactly like a wedged process.
            time.sleep(float(payload.get("seconds", 1.0)))
            return {"stalled": payload.get("seconds", 1.0)}
        raise ShardError(f"unknown shard request kind {kind!r}")

    # ------------------------------------------------------------------
    # Handlers

    def _document(self, local_doc: int) -> XmlElement:
        roots = self.collection.documents
        if type(local_doc) is not int or not 0 <= local_doc < len(roots):
            raise ShardError(
                f"shard {self.config.shard_id} has {len(roots)} documents, "
                f"no local index {local_doc!r}"
            )
        return roots[local_doc]

    def _node_at(self, local_doc: int, position: int) -> XmlElement:
        node = self._document(local_doc).node_at(position)
        if node is None:
            raise DurabilityError(
                f"operation references preorder position {position!r} of local "
                f"document {local_doc}, which does not exist"
            )
        return node

    def _rows(self, rows: List[Any]) -> List[Tuple[int, str, int, str]]:
        """Flatten query rows to picklable ``(local doc, tag, depth, text)``.

        Full :class:`~repro.query.store.ElementRow` objects drag their
        ``node`` back-reference — the whole document tree — through the
        pipe; the flattened form keeps result shipping O(result size).
        """
        return [(row.doc_id, row.tag, row.depth, row.text) for row in rows]

    def _audit(self) -> List[str]:
        violations: List[str] = []
        for index, document in enumerate(self.collection.live.ordered_documents):
            report = audit_ordered_document(document)
            violations.extend(
                f"local doc {index}: {violation}" for violation in report.violations
            )
        return violations

    def _apply_single(self, op: Dict[str, Any]) -> Dict[str, Any]:
        """One logged mutation, addressed in WAL-record form."""
        collection = self.collection
        kind = op.get("op")
        extra: Dict[str, Any] = {}
        if kind == "insert_child":
            collection.insert_child(
                self._node_at(op["doc"], op["parent"]), op["index"], tag=op["tag"]
            )
        elif kind == "insert_before":
            collection.insert_before(self._node_at(op["doc"], op["ref"]), tag=op["tag"])
        elif kind == "insert_after":
            collection.insert_after(self._node_at(op["doc"], op["ref"]), tag=op["tag"])
        elif kind == "delete":
            collection.delete(self._node_at(op["doc"], op["node"]))
        elif kind == "add_document":
            extra["local_doc"] = collection.add_document(parse_document(op["xml"]))
        elif kind == "compact":
            extra["record_counts"] = collection.compact()
        else:
            raise ShardError(f"unknown shard mutation kind {kind!r}")
        return {"last_seq": collection.last_seq, **extra}

    def close(self) -> None:
        """Sync and close the shard's collection (idempotent)."""
        self.collection.close()


def worker_main(config: WorkerConfig, conn: Any) -> None:
    """Process entry point: serve requests from ``conn`` until shutdown.

    The server is built lazily on the first request so a bootstrap
    failure (corrupt shard directory, bad fault spec) reaches the router
    as an error *response* to its handshake ping rather than as a silent
    early exit.  ``InjectedCrash`` exits the process without an ack —
    the supervisor learns of the death from the dead pipe, exactly as
    with a real SIGKILL.
    """
    server: Optional[WorkerServer] = None
    try:
        while True:
            try:
                request: Request = conn.recv()
            except (EOFError, OSError):
                break  # router went away; die quietly
            if request.kind == "shutdown":
                if server is not None:
                    server.close()
                conn.send(Response(id=request.id, ok=True, value={"bye": True}))
                break
            try:
                if server is None:
                    server = WorkerServer(config)
                response = server.handle(request)
            except InjectedCrash:
                # Simulated process death: no ack, no cleanup, no exit
                # handlers — indistinguishable from SIGKILL to the router.
                os._exit(70)
            except Exception as error:
                metrics.incr("shard.worker_errors")
                response = Response(id=request.id, ok=False, error=encode_error(error))
            try:
                conn.send(response)
            except (OSError, BrokenPipeError):
                break  # router went away mid-reply
    finally:
        conn.close()
