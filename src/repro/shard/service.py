""":class:`ShardedCollection` — the user-facing sharded service facade.

Construction mirrors :class:`~repro.durable.collection.DurableCollection`
(``create`` / ``open``), but the directory is a *root* holding one
self-contained durable subdirectory per shard plus the atomic
``SHARDS.json`` manifest::

    root/
      SHARDS.json        shard count + global doc count (placement inputs)
      shard-00/          a complete DurableCollection directory
        wal.log
        snap-*.rpsn
      shard-01/
      ...

``create`` places the documents, then starts the worker fleet with each
shard's documents in its first launch: every worker writes and audits
its own subdirectory, so the shards build concurrently.  ``SHARDS.json``
is written only once every shard is durable; a shard its worker could
not write fails ``create``.  ``open`` reads the manifest and starts
workers, each of which recovers its own subdirectory independently —
shard recovery is single-collection recovery, N times, in parallel
failure domains.  Every restart, after either, is recovery too.

The mutation surface speaks one currency, the addressed batch the
durability stack already uses (``DurableCollection.encode_batch``'s
entries, with a *global* document index): ``apply_batch`` takes a list
of ``{"kind", "doc", "pos", ...}`` entries, and a single node op is a
one-entry batch.  Each shard's slice of a batch is one WAL record, the
unit the router's redo journal reconciles.  Addresses rather than node
references are what make the facade's operations routable, retriable,
and bufferable — a node object cannot cross a process boundary, an
address can.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.durable.recovery import list_generations, shard_directory
from repro.errors import ShardError
from repro.obs import metrics
from repro.shard.health import HealthPolicy, ShardHealth, ShardState
from repro.shard.partitioner import (
    MANIFEST_NAME,
    DocumentMap,
    ShardManifest,
    read_manifest,
    write_manifest,
)
from repro.shard.router import PartialResult, ShardRouter
from repro.shard.supervisor import ShardSupervisor
from repro.shard.worker import WorkerConfig
from repro.xmlkit.serialize import serialize
from repro.xmlkit.tree import XmlElement

__all__ = ["ShardedCollection"]


def _holds_snapshot(directory: Path) -> bool:
    """Whether ``directory`` holds a snapshot generation, so is recoverable."""
    return directory.is_dir() and bool(list_generations(directory))


class ShardedCollection:
    """N supervised shard workers behind one router, as one collection."""

    def __init__(
        self,
        root: Path,
        manifest: ShardManifest,
        doc_map: DocumentMap,
        supervisor: ShardSupervisor,
        router: ShardRouter,
    ):
        self.root = root
        self.manifest = manifest
        self.doc_map = doc_map
        self.supervisor = supervisor
        self.router = router
        self._closed = False

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def create(
        cls,
        root: str | Path,
        documents: Sequence[XmlElement],
        shards: int = 2,
        group_size: int = 5,
        strategy: str = "scan",
        fsync: str = "always",
        **serving: Any,
    ) -> "ShardedCollection":
        """Initialise a fresh sharded collection and start its workers.

        Each worker writes its own shard (``DurableCollection.create``,
        then the ``verify`` audit) on its first launch, concurrently with
        the others.  A shard its worker could not write raises
        :class:`ShardError` naming it, after every worker is stopped and
        before ``SHARDS.json`` exists.  A shard that was written but
        whose bootstrap then failed (a bad ``fault_spec``, say) starts
        DOWN and recovers like any other.

        ``serving`` keywords pass through to :meth:`_start`: ``policy``
        (a :class:`HealthPolicy`), ``fault_spec``, ``start_method``,
        ``verify``.  The query budget and mutation timeout are router
        constants (``QUERY_BUDGET_S``, ``MUTATION_TIMEOUT_S``).  There is
        one degraded behaviour: queries answer partially, naming the
        missing shards, and mutations for a down shard are buffered in
        the router's redo journal.
        """
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if (root / MANIFEST_NAME).exists():
            raise ShardError(
                f"{root} already holds a sharded collection; open() it instead"
            )
        for shard_id in range(shards):
            # A leftover shard would read as one its worker just wrote.
            if _holds_snapshot(shard_directory(root, shard_id)):
                raise ShardError(
                    f"shard {shard_id} of {root} already holds a durable "
                    f"collection; remove {shard_directory(root, shard_id).name}/ "
                    "(left by an earlier create) and retry"
                )
        doc_map = DocumentMap(shards)
        placed: List[List[XmlElement]] = [[] for _ in range(shards)]
        for document in documents:
            _, shard_id, _ = doc_map.add()
            placed[shard_id].append(document)
        manifest = ShardManifest(
            shards=shards,
            doc_count=doc_map.doc_count,
            group_size=group_size,
            strategy=strategy,
            fsync=fsync,
        )
        return cls._start(root, manifest, placed, **serving)

    @classmethod
    def open(
        cls,
        root: str | Path,
        fsync: Optional[str] = None,
        **serving: Any,
    ) -> "ShardedCollection":
        """Start workers over an existing root; each recovers its shard."""
        root = Path(root)
        manifest = read_manifest(root)
        if fsync is not None:
            manifest = replace(manifest, fsync=fsync)
        return cls._start(root, manifest, None, **serving)

    @classmethod
    def _start(
        cls,
        root: Path,
        manifest: ShardManifest,
        placed: Optional[List[List[XmlElement]]],
        policy: Optional[HealthPolicy] = None,
        fault_spec: Optional[str] = None,
        start_method: Optional[str] = None,
        verify: bool = True,
    ) -> "ShardedCollection":
        """Spawn the fleet, wire supervisor ⇄ router, prime watermarks.

        ``placed`` holds each shard's documents when the workers are to
        write their shards first (``create``), and is ``None`` when they
        recover them (``open``).
        """
        doc_map = DocumentMap(manifest.shards, manifest.doc_count)
        configs = [
            WorkerConfig(
                shard_id=shard_id,
                root=str(root),
                fsync=manifest.fsync,
                verify=verify,
                fault_spec=fault_spec,
                create=None
                if placed is None
                else {
                    "documents": placed[shard_id],
                    "group_size": manifest.group_size,
                    "strategy": manifest.strategy,
                },
            )
            for shard_id in range(manifest.shards)
        ]
        supervisor = ShardSupervisor(
            configs, policy=policy, start_method=start_method
        )
        router = ShardRouter(supervisor, doc_map)
        failures = supervisor.start()
        if placed is not None:
            unwritten = [
                f"shard {shard_id}: {reason}"
                for shard_id, reason in sorted(failures.items())
                if not _holds_snapshot(shard_directory(root, shard_id))
            ]
            if unwritten:
                supervisor.stop()
                raise ShardError(
                    f"cannot create the sharded collection in {root}; no "
                    "SHARDS.json was written; "
                    + "; ".join(unwritten)
                )
            write_manifest(root, manifest)
        router.prime()
        metrics.gauge("shard.workers", manifest.shards)
        return cls(root, manifest, doc_map, supervisor, router)

    # ------------------------------------------------------------------
    # Mutations (global addressed batches)

    def add_document(self, document: "XmlElement | str") -> Dict[str, Any]:
        """Add a document (tree or XML text); updates the manifest.

        The manifest's ``doc_count`` is republished immediately so a
        concurrent ``shard-status`` or a later ``open()`` derives the
        same placement this router is using.
        """
        xml = document if isinstance(document, str) else serialize(document)
        ack = self.router.add_document(xml)
        self.manifest = replace(self.manifest, doc_count=self.doc_map.doc_count)
        write_manifest(self.root, self.manifest)
        return ack

    def apply_batch(
        self, entries: Sequence[Dict[str, Any]]
    ) -> Dict[int, Dict[str, Any]]:
        """Apply an addressed batch; atomic per shard (see the router).

        Entries use the durable layer's ``encode_batch`` addressed form
        with a *global* ``doc``: ``{"kind": "insert_child", "doc": g,
        "pos": parent, "index": i, "tag": t}``, ``{"kind": "delete",
        "doc": g, "pos": node}``, or ``{"kind": "insert_before" |
        "insert_after", "doc": g, "pos": ref, "tag": t}``.  A single node
        op is a one-entry batch.
        """
        return self.router.apply_batch(entries)

    def compact(self) -> Dict[int, Dict[str, Any]]:
        """Run logged SC compaction on every shard (through the journal)."""
        return {
            shard_id: self.router.compact_shard(shard_id)
            for shard_id in self.supervisor.shard_ids
        }

    # ------------------------------------------------------------------
    # Reads

    def query(self, text: str, budget: Optional[float] = None) -> PartialResult:
        """Scatter-gather query; see :class:`PartialResult` for the contract."""
        return self.router.query(text, budget=budget)

    def count(self, text: str, budget: Optional[float] = None) -> Dict[str, Any]:
        """Scatter-gather count (a lower bound when shards are missing)."""
        return self.router.count(text, budget=budget)

    def serialize_document(self, doc: int) -> str:
        """The serialized XML of global document ``doc`` (authoritative).

        Routed to the owning worker; raises
        :class:`~repro.errors.ShardUnavailableError` while it is away —
        byte-identity checks must never silently read stale state.
        """
        shard_id, local = self.doc_map.to_local(doc)
        self.router.pump()
        response = self.supervisor.request(
            shard_id, "serialize", {"doc": local}, timeout=60.0
        )
        return response.value

    def audit(self) -> Dict[int, List[str]]:
        """Per-shard invariant-audit violations from every UP shard."""
        return self.router.broadcast("audit")

    def fingerprints(self) -> Dict[int, str]:
        """Per-shard collection fingerprints from every UP shard."""
        return self.router.broadcast("fingerprint")

    # ------------------------------------------------------------------
    # Supervision surface

    def tick(self) -> List[Any]:
        """One supervision round (restarts, heartbeats, quarantines)."""
        return self.router.pump()

    def status(self) -> List[ShardHealth]:
        """Every shard's health, including router-side buffered ops."""
        out: List[ShardHealth] = []
        for shard_id in self.supervisor.shard_ids:
            health = self.supervisor.health(shard_id)
            health.buffered_ops = self.router.buffered_ops(shard_id)
            out.append(health)
        return out

    def kill_worker(self, shard_id: int) -> None:
        """Chaos hook: SIGKILL one worker; the supervisor takes it from there."""
        self.supervisor.kill(shard_id)

    def attach_replica(self, shard_id: int, replica: Any) -> None:
        """Attach a PR 7 replica tailer as a read fallback for one shard."""
        self.router.attach_replica(shard_id, replica)

    def settle(
        self,
        timeout: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> bool:
        """Drive supervision until no shard is DOWN (or ``timeout`` passes).

        Returns True when every shard is UP with an empty router buffer —
        i.e. all restarts finished and every buffered mutation replayed.
        Quarantined shards never settle; the method then returns False
        once nothing remains restartable.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.router.pump()
            states = [self.supervisor.state_of(s) for s in self.supervisor.shard_ids]
            buffered = sum(
                self.router.buffered_ops(s) for s in self.supervisor.shard_ids
            )
            if ShardState.DOWN not in states:
                return (
                    all(state is ShardState.UP for state in states) and buffered == 0
                )
            sleep(0.01)
        return False

    def checkpoint(self) -> Dict[int, Any]:
        """Checkpoint every UP shard (new snapshot generation each)."""
        return self.router.broadcast("checkpoint")

    @property
    def doc_count(self) -> int:
        """Global documents across all shards."""
        return self.doc_map.doc_count

    def close(self) -> None:
        """Shut the fleet down cleanly (idempotent)."""
        if self._closed:
            return
        try:
            self.supervisor.stop()
        finally:
            self._closed = True

    def __enter__(self) -> "ShardedCollection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
