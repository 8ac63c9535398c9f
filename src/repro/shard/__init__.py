"""Sharded serving: fault-isolated worker processes behind a router.

The scale-out layer the ROADMAP names as the natural next step for the
paper's scheme: because the prime generator and SC congruence groups are
*per-document* state, hash-partitioning documents across N worker
processes needs no cross-shard coordination — each worker owns a fully
self-contained :class:`~repro.durable.collection.DurableCollection`
(private WAL, snapshots, and recovery), and the composite is
byte-identical to one unsharded collection holding the same documents.

The robustness core is the failure-domain boundary at the process line:

* :mod:`repro.shard.partitioner` — deterministic BLAKE2b placement, the
  atomic ``SHARDS.json`` manifest, global ⇄ local index mapping,
* :mod:`repro.shard.worker` — one process, one collection, recovery on
  every start; crashes are honoured literally (no ack, hard exit),
* :mod:`repro.shard.supervisor` — heartbeat health checks, hang kills,
  restart-through-recovery with resilient-layer backoff, quarantine of
  crash-loopers after a capped restart budget,
* :mod:`repro.shard.router` — scatter-gather with fair-share deadline
  accounting, partial answers that always name the missing shard set,
  mutations for a down shard buffered in an exactly-once redo journal
  reconciled against recovered WAL sequence numbers,
* :mod:`repro.shard.service` — :class:`ShardedCollection`, the facade
  that wires all of the above and mirrors the durable-collection API.

See ``docs/SHARDING.md`` for the supervision state machine, the
partial-result contract, and the on-disk layout.
"""

from repro.shard.health import HealthPolicy, ShardHealth, ShardState
from repro.shard.messages import Request, Response, encode_error, rehydrate_error
from repro.shard.partitioner import (
    MANIFEST_NAME,
    DocumentMap,
    HashPartitioner,
    ShardManifest,
    read_manifest,
    write_manifest,
)
from repro.shard.router import PartialResult, RemoteRow, ShardRouter
from repro.shard.service import ShardedCollection
from repro.shard.supervisor import ShardSupervisor
from repro.shard.worker import WorkerConfig, WorkerServer, worker_main

__all__ = [
    "MANIFEST_NAME",
    "DocumentMap",
    "HashPartitioner",
    "HealthPolicy",
    "PartialResult",
    "RemoteRow",
    "Request",
    "Response",
    "ShardHealth",
    "ShardManifest",
    "ShardRouter",
    "ShardState",
    "ShardSupervisor",
    "ShardedCollection",
    "WorkerConfig",
    "WorkerServer",
    "encode_error",
    "read_manifest",
    "rehydrate_error",
    "worker_main",
    "write_manifest",
]
