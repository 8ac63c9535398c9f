"""Satellite 5's local half: the shard kill-and-recover soak.

A randomized workload keeps flowing while a seeded chaos hand SIGKILLs
a random worker every ``KILL_EVERY`` operations.  The buffer mutation
policy parks writes for dead shards; supervision restarts them through
recovery; the redo journal replays the backlog.  At the end the fleet
must have converged: every shard UP, no buffered ops, every document
byte-identical to a fault-free twin, every audit clean.

The WAL fsync policy comes from ``REPRO_WAL_FSYNC`` (default
``always``) so CI can run the same soak under ``batch:3`` — the policy
only moves the durability-vs-throughput point, never the bytes.
"""

import os
import random

from repro.query.live import LiveCollection
from repro.resilient.policy import RetryPolicy
from repro.shard import HealthPolicy, ShardState, ShardedCollection
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serialize import serialize
from tests.test_shard_equivalence import SEED_DOCS, generate_workload, route

OPERATIONS = 120
KILL_EVERY = 30
FSYNC = os.environ.get("REPRO_WAL_FSYNC", "always")


def test_shard_soak_converges_through_random_worker_kills(tmp_path):
    twin = LiveCollection([parse_document(xml) for xml in SEED_DOCS])
    ops = generate_workload(seed=41, twin=twin, count=OPERATIONS)
    chaos = random.Random(117)
    policy = HealthPolicy(
        heartbeat_interval=60.0,
        restart_budget=5,
        restart=RetryPolicy(
            max_attempts=4, base_delay=0.02, max_delay=0.05, jitter=0.0, seed=0
        ),
    )
    kills = 0
    with ShardedCollection.create(
        tmp_path / "store",
        [parse_document(xml) for xml in SEED_DOCS],
        shards=2,
        fsync=FSYNC,
        policy=policy,
    ) as service:
        for step, op in enumerate(ops):
            if step and step % KILL_EVERY == 0:
                service.kill_worker(chaos.choice(service.supervisor.shard_ids))
                kills += 1
            ack = route(service, op)
            # Buffered and pending acks are the degraded-write contract;
            # under the buffer policy nothing is ever refused or lost.
            assert ack["status"] in ("applied", "buffered", "pending"), (op, ack)

        assert kills == 3
        assert service.settle(timeout=30.0)
        states = [
            service.supervisor.state_of(s) for s in service.supervisor.shard_ids
        ]
        assert states == [ShardState.UP, ShardState.UP]
        assert [
            service.serialize_document(doc) for doc in range(service.doc_count)
        ] == [serialize(document) for document in twin.documents]
        assert all(v == [] for v in service.audit().values())
        result = service.query("//*")
        assert result.complete
