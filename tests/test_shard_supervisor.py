"""Supervision state machine: restart, quarantine, and hang detection.

These tests run real worker processes — the supervision loop is only
meaningful across a genuine process boundary (SIGKILL, pipe EOF, a
handler wedged in a sleep).  Policies use ``jitter=0.0`` so backoff
delays are exact and the tests never race their own timeouts.
"""

import time

import pytest

from repro.errors import ShardUnavailableError
from repro.obs import metrics
from repro.resilient.policy import RetryPolicy
from repro.shard import HealthPolicy, ShardState, ShardedCollection
from repro.shard.supervisor import ShardSupervisor
from repro.shard.worker import WorkerConfig
from repro.xmlkit.parser import parse_document

DOCS = [
    "<r><a><b/></a><c/></r>",
    "<r><x/><y><z/></y></r>",
    "<r><m/><n/></r>",
    "<r><p><q/></p></r>",
]

# No proactive heartbeats (interval parked at a minute) so each test
# exercises exactly one detection path; restarts retry every 20ms.
FAST = HealthPolicy(
    heartbeat_interval=60.0,
    restart_budget=3,
    restart=RetryPolicy(
        max_attempts=4, base_delay=0.02, max_delay=0.05, jitter=0.0, seed=0
    ),
)

#: One node op on the sharded stack: a one-entry addressed batch.
INSERT_W = {"kind": "insert_child", "doc": 0, "pos": 0, "index": 0, "tag": "w"}


def make_service(root, **serving):
    documents = [parse_document(xml) for xml in DOCS]
    serving.setdefault("policy", FAST)
    return ShardedCollection.create(root / "store", documents, shards=2, **serving)


def drive(service, want, timeout=15.0):
    """Tick the supervisor until a ``want`` event shows up (or fail)."""
    deadline = time.monotonic() + timeout
    events = []
    while time.monotonic() < deadline:
        events.extend(service.tick())
        if any(event[0] == want for event in events):
            return events
        time.sleep(0.01)
    raise AssertionError(f"no {want!r} event within {timeout}s; saw {events}")


def test_killed_worker_restarts_through_recovery(tmp_path):
    with make_service(tmp_path) as service:
        shard_id, _ = service.doc_map.to_local(0)
        ack = service.apply_batch([INSERT_W])[shard_id]
        assert ack["status"] == "applied" and ack["last_seq"] == 1

        service.kill_worker(shard_id)
        events = drive(service, "restarted")
        restarts = [e for e in events if e[0] == "restarted"]
        # The restart handshake re-establishes the exact durable
        # watermark: the killed worker had acked seq 1, so recovery
        # must report seq 1 — nothing lost, nothing replayed twice.
        assert restarts == [("restarted", shard_id, 1)]
        assert service.supervisor.state_of(shard_id) is ShardState.UP
        assert service.supervisor.health(shard_id).restarts == 1

        assert service.settle(timeout=10.0)
        result = service.query("//w")
        assert result.complete and [r.tag for r in result.rows] == ["w"]


def test_crash_looper_is_quarantined_and_names_its_budget(tmp_path):
    # ``crash=append@1`` poisons every WAL append: the worker
    # dies unacked on the first mutation and again on every restart's
    # redo replay — a deterministic crash loop.
    with make_service(tmp_path, fault_spec="crash=append@1") as service:
        shard_id, _ = service.doc_map.to_local(0)
        acks = service.apply_batch([INSERT_W])
        assert acks == {shard_id: {"status": "pending", "shard": shard_id}}

        events = drive(service, "quarantined")
        assert any(e == ("quarantined", shard_id, 0) for e in events)
        assert service.supervisor.state_of(shard_id) is ShardState.QUARANTINED
        health = service.supervisor.health(shard_id)
        assert health.restarts == FAST.restart_budget
        assert "restart budget" in (health.quarantine_reason or "")

        # Settle must give up (quarantine is terminal), and the other
        # shard must be untouched by its neighbour's poison.
        assert not service.settle(timeout=2.0)
        other = next(s for s in service.supervisor.shard_ids if s != shard_id)
        assert service.supervisor.state_of(other) is ShardState.UP

        # Satellite 1: routing to the quarantined shard refuses with the
        # shard id and the restart-budget state in the message itself.
        with pytest.raises(ShardUnavailableError) as excinfo:
            service.apply_batch(
                [{"kind": "insert_child", "doc": 0, "pos": 0, "index": 1, "tag": "x"}]
            )
        message = str(excinfo.value)
        assert f"shard {shard_id}" in message
        assert "quarantined" in message
        assert (
            f"restart budget {FAST.restart_budget}/{FAST.restart_budget} spent"
            in message
        )
        assert "shard-status" in message  # the operator hint


def test_hung_worker_is_detected_killed_and_restarted(tmp_path):
    policy = HealthPolicy(
        heartbeat_interval=0.05,
        heartbeat_timeout=0.2,
        max_missed_heartbeats=2,
        restart_budget=3,
        restart=RetryPolicy(
            max_attempts=4, base_delay=0.02, max_delay=0.05, jitter=0.0, seed=0
        ),
    )
    with make_service(tmp_path, policy=policy) as service:
        shard_id = service.supervisor.shard_ids[0]
        # Fire-and-forget: the worker wedges inside the handler, so its
        # control pipe backs up exactly like a deadlocked process.
        service.supervisor.send(shard_id, "stall", {"seconds": 30.0})

        events = drive(service, "restarted")
        assert any(e[0] == "hung" and e[1] == shard_id for e in events)
        assert service.supervisor.state_of(shard_id) is ShardState.UP
        assert service.supervisor.health(shard_id).restarts == 1
        assert service.settle(timeout=10.0)


def test_served_requests_reset_the_crash_loop_budget(tmp_path):
    with make_service(tmp_path) as service:
        shard_id, _ = service.doc_map.to_local(0)
        # Two kill/recover cycles with a served request in between: the
        # budget meters *consecutive* failures, so neither cycle brings
        # the shard near quarantine.
        for expected_restarts in (1, 2):
            service.kill_worker(shard_id)
            drive(service, "restarted")
            assert service.settle(timeout=10.0)
            assert service.query("//c").complete
            health = service.supervisor.health(shard_id)
            assert health.restarts == expected_restarts
            assert health.consecutive_failures == 0
        assert service.supervisor.state_of(shard_id) is ShardState.UP


def test_start_brings_up_the_fleet_when_one_shard_cannot_bootstrap(tmp_path):
    """Workers start together; one bad bootstrap is charged to its shard alone."""
    make_service(tmp_path).close()
    configs = [
        WorkerConfig(shard_id=0, root=str(tmp_path / "store"), fault_spec="bogus"),
        WorkerConfig(shard_id=1, root=str(tmp_path / "store")),
    ]
    supervisor = ShardSupervisor(configs, policy=FAST)
    with metrics.collecting() as registry:
        supervisor.start()
    try:
        assert supervisor.state_of(1) is ShardState.UP
        assert supervisor.request(1, "ping").ok
        assert supervisor.state_of(0) is ShardState.DOWN
        assert supervisor.health(0).consecutive_failures == 1
        assert registry.counter_value("shard.handshake_failures") == 1
    finally:
        supervisor.stop()
