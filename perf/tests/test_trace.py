"""Self-time arithmetic and the router/worker join on a synthetic span tree."""

from __future__ import annotations

import sys
import types

from perf.trace import Recorder, layer_report


def _span(name, layer, start, end, parent, request, key=None):
    return [name, layer, start, end, parent, request, key]


def _bench() -> Recorder:
    """One request, 0..100 ns: a routed batch that waits on two shards."""
    recorder = Recorder()
    recorder.requests = [[0, 0, 100]]
    recorder.spans = [
        _span("ShardRouter.apply_batch", "shard.router", 5, 95, -1, 0),
        _span("ShardSupervisor.send", "shard.rpc", 10, 12, 0, 0),
        _span("ShardSupervisor.receive", "shard.rpc", 12, 50, 0, 0, (0, 7)),
        _span("ShardSupervisor.send", "shard.rpc", 50, 52, 0, 0),
        _span("ShardSupervisor.receive", "shard.rpc", 52, 90, 0, 0, (1, 3)),
    ]
    recorder.deltas = {0: {"wal.appends": 0}}
    return recorder


def _worker(shard, rid, start, end, wal):
    key = [shard, rid]
    return {
        "pid": 100 + shard,
        "spans": [
            _span("WorkerServer.handle", "shard.worker", start, end, -1, key),
            _span("WriteAheadLog.append", "wal.append", wal[0], wal[1], 0, key),
        ],
        "deltas": [[key, {"wal.appends": 1}], [[shard, rid + 100], {"wal.appends": 5}]],
    }


def test_self_time_subtracts_children_and_clips_worker_spans():
    # Shard 0's handle (11..40) starts before its receive window (12..50):
    # the 1 ns outside is clipped, not double counted against send.
    # Shard 1's handle (60..80) sits inside its window (52..90).
    workers = [_worker(0, 7, 11, 40, (20, 30)), _worker(1, 3, 60, 80, (70, 75))]
    report = layer_report(_bench(), workers)
    assert report["e2e_ns"] == 100
    assert report["self_ns"]["shard.router"] == 90 - (2 + 38 + 2 + 38)
    # receive self = window - clipped handle: (38 - 28) + (38 - 20)
    assert report["self_ns"]["shard.rpc"] == 2 + 2 + 10 + 18
    assert report["self_ns"]["shard.worker"] == (28 - 10) + (20 - 5)
    assert report["self_ns"]["wal.append"] == 10 + 5
    assert sum(report["self_ns"].values()) == 90
    assert (report["receives"], report["joined"]) == (2, 2)
    # Only deltas of joined worker requests count.
    assert report["counters"]["wal.appends"] == 2
    assert report["handle_ns"] == 29 + 20
    assert report["batch_ns"] == 90


def test_unjoined_worker_spans_are_dropped():
    report = layer_report(_bench(), [_worker(0, 99, 20, 30, (21, 22))])
    assert report["joined"] == 0
    assert "shard.worker" not in report["self_ns"]
    assert report["counters"].get("wal.appends", 0) == 0


def test_wrappers_record_nested_spans_and_restore(monkeypatch):
    class Store:
        def outer(self, depth):
            return self.inner(depth) + 1

        def inner(self, depth):
            return self.inner(depth - 1) if depth else 0

    recorder = Recorder()
    layers = (
        (f"{__name__}:Store.outer", "outer", "call"),
        (f"{__name__}:Store.inner", "inner", "call"),
    )
    monkeypatch.setitem(globals(), "Store", Store)
    original = Store.inner
    recorder.install(layers)
    try:
        assert Store().outer(2) == 1  # outside a request: nothing recorded
        assert recorder.spans == []
        recorder.begin_request(0)
        assert Store().outer(2) == 1
        recorder.end_request()
    finally:
        recorder.uninstall()
    assert Store.inner is original
    names = [(span[0], span[1], span[4]) for span in recorder.spans]
    assert names == [
        ("Store.outer", "outer", -1),
        ("Store.inner", "inner", 0),
        ("Store.inner", "inner", 1),
        ("Store.inner", "inner", 2),
    ]
    report = layer_report(recorder)
    assert report["calls"] == {"outer": 1, "inner": 3}
    assert sum(report["self_ns"].values()) == recorder.spans[0][3] - recorder.spans[0][2]


def test_recursion_through_another_name_keeps_the_callers_layer(monkeypatch):
    # The replica's replay and crash recovery share apply_operation, and a
    # batch record recurses through the recovery module's name for it.
    first = types.ModuleType("perf_fake_replica")
    second = types.ModuleType("perf_fake_recovery")

    def replay(depth):
        return second.replay(depth - 1) if depth else 0

    first.replay = second.replay = replay
    for module in (first, second):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    recorder = Recorder()
    recorder.install(
        (
            ("perf_fake_replica:replay", "replica.replay", "call"),
            ("perf_fake_recovery:replay", "recovery.replay", "call"),
        )
    )
    try:
        recorder.begin_request(0)
        first.replay(2)
        second.replay(1)
        recorder.end_request()
    finally:
        recorder.uninstall()
    assert [span[1] for span in recorder.spans] == ["replica.replay"] * 3 + [
        "recovery.replay"
    ] * 2
