"""Router degradation contracts: deadlines, partial answers, buffered
mutations for a down shard, and replica fallback.

It also holds the fair-share deadline regression with an injected
stalled worker — the total wait for a scatter-gather is bounded
by *one* query budget even when every shard stalls, because each shard's
wait is its share of what remains, not a private full budget.
"""

import time

from repro.query.live import LiveCollection
from repro.resilient.policy import RetryPolicy
from repro.shard import HealthPolicy, ShardState, ShardedCollection
from repro.xmlkit.parser import parse_document

DOCS = [
    "<r><a><b/></a><c/></r>",
    "<r><x/><y><z/></y></r>",
    "<r><m/><n/></r>",
    "<r><p><q/></p></r>",
]

# Heartbeats parked; restarts held off for 5s so a killed shard stays
# DOWN for the whole assertion window (jitter=0 keeps that exact).
SLOW = HealthPolicy(
    heartbeat_interval=60.0,
    restart_budget=3,
    restart=RetryPolicy(
        max_attempts=4, base_delay=5.0, max_delay=5.0, jitter=0.0, seed=0
    ),
)


def make_service(root, **serving):
    documents = [parse_document(xml) for xml in DOCS]
    serving.setdefault("policy", SLOW)
    return ShardedCollection.create(root / "store", documents, shards=2, **serving)


def wait_down(service, shard_id, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        service.tick()
        if service.supervisor.state_of(shard_id) is ShardState.DOWN:
            return
        time.sleep(0.01)
    raise AssertionError(f"shard {shard_id} never went DOWN")


class FakeReplica:
    """Duck-typed stand-in for a PR 7 replica tailer."""

    def __init__(self, live):
        self.live = live
        self.catch_ups = 0

    def catch_up(self):
        self.catch_ups += 1

    def read_view(self):
        return self.live.read_view()


# ---------------------------------------------------------------------------
# Satellite 2: fair-share deadline accounting


def test_stalled_worker_yields_partial_rows_within_budget(tmp_path):
    with make_service(tmp_path) as service:
        stalled = 0
        healthy_docs = sorted(service.doc_map.by_shard[1])
        service.supervisor.send(stalled, "stall", {"seconds": 1.5})

        result = service.query("//r", budget=0.5)
        assert result.missing_shards == frozenset({stalled})
        assert not result.complete
        # The healthy shard's documents all answered — a stalled peer
        # degrades the answer, it does not starve it.
        assert [row.doc for row in result.rows] == healthy_docs
        assert result.elapsed < 1.0


def test_fair_share_bounds_total_wait_to_one_budget(tmp_path):
    # Regression: both workers stall.  Naive per-shard deadlines would
    # wait a full budget per shard (2 x 0.6s); fair-share accounting
    # gives each gather its share of what *remains*, so the whole
    # scatter-gather is bounded by a single budget.
    with make_service(tmp_path) as service:
        for shard_id in service.supervisor.shard_ids:
            service.supervisor.send(shard_id, "stall", {"seconds": 2.0})
        started = time.monotonic()
        result = service.query("//r", budget=0.6)
        wall = time.monotonic() - started
        assert result.missing_shards == frozenset({0, 1})
        assert result.rows == ()
        assert result.elapsed < 1.0 and wall < 1.1  # naive would be ~1.2s
        # Deadline misses are not crashes: both workers are merely slow
        # and stay UP for the heartbeat path to escalate if it repeats.
        assert all(service.supervisor.is_up(s) for s in (0, 1))


# ---------------------------------------------------------------------------
# Degraded behaviour


def test_down_shard_buffers_mutations_and_degrades_reads(tmp_path):
    with make_service(tmp_path) as service:
        shard_id, _ = service.doc_map.to_local(0)
        service.kill_worker(shard_id)
        wait_down(service, shard_id)
        acks = service.apply_batch(
            [{"kind": "insert_child", "doc": 0, "pos": 0, "index": 0, "tag": "w"}]
        )
        assert acks == {shard_id: {"status": "buffered", "shard": shard_id}}
        assert service.router.buffered_ops(shard_id) == 1
        # Reads degrade alongside: the answer names the missing shard.
        result = service.query("//r", budget=0.5)
        assert result.missing_shards == frozenset({shard_id})
        assert not result.complete


def test_replica_fallback_serves_stale_reads_for_a_down_shard(tmp_path):
    with make_service(tmp_path) as service:
        shard_id, _ = service.doc_map.to_local(0)
        owned = service.doc_map.by_shard[shard_id]
        replica = FakeReplica(
            LiveCollection([parse_document(DOCS[g]) for g in owned])
        )
        service.attach_replica(shard_id, replica)
        service.kill_worker(shard_id)
        wait_down(service, shard_id)

        result = service.query("//r", budget=1.0)
        # Nothing is *missing* — the replica answered for the down shard
        # — but the answer is honestly tagged stale, never complete.
        assert result.missing_shards == frozenset()
        assert result.stale_shards == frozenset({shard_id})
        assert not result.complete
        assert [row.doc for row in result.rows] == list(range(len(DOCS)))
        assert replica.catch_ups >= 1

        counted = service.count("//r", budget=1.0)
        assert counted["count"] == len(DOCS)
        assert counted["stale_shards"] == {shard_id}
