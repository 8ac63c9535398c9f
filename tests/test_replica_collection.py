"""ReplicaCollection: bootstrap, replay, resync, and socket shipping."""

import json

import pytest

from repro.durable import (
    DurableCollection,
    collection_fingerprint,
    resolve_bootstrap,
    truncate_durably,
)
from repro.durable.recovery import WAL_NAME, list_generations, snapshot_path
from repro.durable.snapshot import read_snapshot_seq
from repro.obs import metrics
from repro.errors import ReplicationError
from repro.replica import (
    ReplicaCollection,
    SocketTransport,
    TailerThread,
    WalShipServer,
)
from repro.xmlkit.parser import parse_document

DOC = "<r><a><a1/><a2/></a><b/><c/></r>"


@pytest.fixture
def primary(tmp_path):
    col = DurableCollection.create(
        tmp_path / "col", [parse_document(DOC)], fsync="never"
    )
    yield col
    col.close()


def _churn(col, count, start=0):
    for i in range(count):
        col.insert_child(col.documents[0], i % 2, tag=f"n{start + i}")


class TestBootstrap:
    def test_bootstraps_from_newest_snapshot(self, primary):
        _churn(primary, 4)
        primary.checkpoint()
        replica = ReplicaCollection(primary.directory)
        assert replica.applied_seq == 4
        view = replica.read_view()
        assert view.applied_seq == 4 and view.audit() == []

    def test_bootstrap_resolves_the_newest_generation(self, primary):
        _churn(primary, 3)
        primary.checkpoint()
        newest = snapshot_path(
            primary.directory, list_generations(primary.directory)[-1]
        )
        state = resolve_bootstrap(primary.directory)
        assert state.last_seq == read_snapshot_seq(newest) == 3

    def test_truncated_newest_generation_falls_back_one(self, primary):
        _churn(primary, 3)
        primary.checkpoint()
        _churn(primary, 2, start=3)
        primary.checkpoint()
        _churn(primary, 2, start=5)
        newest = snapshot_path(
            primary.directory, list_generations(primary.directory)[-1]
        )
        truncate_durably(newest, newest.stat().st_size // 2)
        with metrics.collecting() as registry:
            replica = ReplicaCollection(primary.directory)
        counters = registry.snapshot()["counters"]
        assert counters["durable.bootstrap_scan_fallbacks"] >= 1
        assert replica.applied_seq == 3  # the previous generation's coverage
        replica.catch_up()
        assert replica.applied_seq == primary.last_seq == 7
        assert collection_fingerprint(replica.live) == collection_fingerprint(
            primary.live
        )

    def test_a_leftover_current_file_is_ignored(self, primary):
        _churn(primary, 2)
        primary.checkpoint()
        (primary.directory / "CURRENT").write_text(
            '{"generation": 99, "last_seq": 99, "snapshot": "snap-00000099.rpsn"}'
        )
        assert resolve_bootstrap(primary.directory).last_seq == 2

    def test_missing_directory_is_replication_error_material(self, tmp_path):
        from repro.errors import RecoveryError

        with pytest.raises(RecoveryError):
            ReplicaCollection(tmp_path / "nowhere")


class TestConvergence:
    def test_catch_up_is_byte_identical(self, primary):
        replica = ReplicaCollection(primary.directory)
        _churn(primary, 10)
        applied = replica.catch_up()
        assert applied == 10
        assert replica.applied_seq == primary.last_seq
        assert collection_fingerprint(replica.live) == collection_fingerprint(
            primary.live
        )

    def test_batches_replay_atomically(self, primary):
        replica = ReplicaCollection(primary.directory)
        root = primary.documents[0]
        primary.bulk_insert([(root, 0, "x")] * 4)
        primary.bulk_delete([root.children[0]])
        replica.catch_up()
        assert collection_fingerprint(replica.live) == collection_fingerprint(
            primary.live
        )
        # One WAL record per group commit.
        assert replica.applied_seq == 2

    def test_survives_checkpoint_rotation(self, primary):
        replica = ReplicaCollection(primary.directory)
        _churn(primary, 6)
        replica.catch_up()
        primary.checkpoint()  # prunes the log: the file shrinks
        _churn(primary, 3, start=6)
        replica.catch_up()
        assert replica.applied_seq == primary.last_seq == 9
        assert collection_fingerprint(replica.live) == collection_fingerprint(
            primary.live
        )

    def test_repeated_checkpoints_rewind_without_resyncing(self, primary):
        """A pruned log keeps records the replica already scanned, so the
        rewound tailer must not demand that the chain resume after them."""
        replica = ReplicaCollection(primary.directory)
        start = 0
        for _ in range(4):
            _churn(primary, 5, start=start)
            replica.catch_up()
            primary.checkpoint()
            _churn(primary, 2, start=start + 5)
            start += 7
            replica.catch_up()
            assert replica.applied_seq == primary.last_seq
        assert replica.resyncs == 0
        assert collection_fingerprint(replica.live) == collection_fingerprint(
            primary.live
        )

    def test_views_never_show_half_applied_state(self, primary):
        replica = ReplicaCollection(primary.directory)
        _churn(primary, 5)
        before = replica.read_view()
        replica.catch_up()
        after = replica.read_view()
        # The stale view is immutable and still audit-clean; the new view
        # is a different published version at the new LSN.
        assert before.applied_seq == 0 and before.audit() == []
        assert after.applied_seq == 5 and after.version > before.version

    def test_lag_reports_records_and_bytes(self, primary):
        replica = ReplicaCollection(primary.directory)
        replica.catch_up()
        _churn(primary, 4)
        lag = replica.lag()
        assert lag.record_lag == 4 and lag.byte_lag > 0
        replica.catch_up()
        lag = replica.lag()
        assert lag.record_lag == 0 and lag.byte_lag == 0


class TestReplicaViewColumns:
    PLAY = "<play><act><scene/></act><act><scene/></act></play>"

    def test_view_answers_order_axes_like_the_primary(self, tmp_path):
        # The replica's view carried window columns rebuilt from rows in
        # insertion order: the inserted first child landed last.
        primary = DurableCollection.create(
            tmp_path / "auto", [parse_document(self.PLAY)], fsync="never",
            strategy="auto",
        )
        try:
            replica = ReplicaCollection(primary.directory)
            primary.insert_child(primary.documents[0], 0, tag="prologue")
            replica.catch_up()
            view = replica.read_view()
            expected = {
                "/prologue/Following::act": ["act", "act"],
                "/act/Preceding-Sibling::prologue": ["prologue"],
                "/play/*": ["prologue", "act", "act"],
            }
            for query, tags in expected.items():
                assert [r.tag for r in primary.query(query)] == tags, query
                assert [r.tag for r in view.query(query)] == tags, query
            assert view.audit() == []
        finally:
            primary.close()


class TestResync:
    def test_gap_triggers_snapshot_resync(self, primary):
        replica = ReplicaCollection(primary.directory)
        replica.catch_up()
        # The primary checkpoints twice while the replica is not looking:
        # with two-generation retention, the second checkpoint prunes the
        # log past records the replica never saw.
        _churn(primary, 6)
        primary.checkpoint()
        _churn(primary, 3, start=6)
        primary.checkpoint()
        _churn(primary, 2, start=9)
        replica.catch_up()
        assert replica.resyncs >= 1
        assert replica.applied_seq == primary.last_seq == 11
        assert collection_fingerprint(replica.live) == collection_fingerprint(
            primary.live
        )

    def test_mid_stream_corruption_resyncs_from_snapshot(self, primary):
        replica = ReplicaCollection(primary.directory)
        _churn(primary, 5)
        replica.catch_up()
        primary.checkpoint()  # snapshot now covers seq 5
        _churn(primary, 2, start=5)
        # Flip a byte in the last record, beyond the replica's position.
        wal_path = primary.directory / WAL_NAME
        blob = bytearray(wal_path.read_bytes())
        blob[-3] ^= 0xFF
        wal_path.write_bytes(bytes(blob))
        # First pass: record 6 applies; the damaged record 7 is only a
        # *suspect* torn tail, so nothing is raised and nothing skipped.
        replica.catch_up()
        assert replica.applied_seq == 6 and replica.resyncs == 0
        # The primary keeps writing past the damage: now it is confirmed
        # corruption and the replica re-bootstraps from the checkpoint
        # snapshot instead of crashing or skipping.
        _churn(primary, 1, start=7)
        replica.catch_up()
        assert replica.resyncs >= 1
        assert replica.applied_seq >= 5

    def test_transport_loss_serves_stale_views(self, primary, tmp_path):
        server = WalShipServer(primary.directory / WAL_NAME)
        host, port = server.start()
        replica = ReplicaCollection(
            primary.directory, transport=SocketTransport(host, port)
        )
        _churn(primary, 3)
        replica.catch_up()
        assert replica.applied_seq == 3
        server.stop()  # primary "dies"
        # stop() only closes the listener; drop the replica's live
        # connection too so the next poll must reconnect (and fail).
        replica.transport.close()
        _churn(primary, 2, start=3)
        assert replica.poll() == 0  # absorbed: TRANSIENT, not fatal
        view = replica.read_view()
        assert view.applied_seq == 3 and view.audit() == []
        lag = replica.lag()
        assert lag.primary_seq is None and lag.applied_seq == 3
        replica.close()


class TestSocketShipping:
    def test_socket_round_trip_converges(self, primary):
        server = WalShipServer(primary.directory / WAL_NAME)
        host, port = server.start()
        try:
            replica = ReplicaCollection(
                primary.directory, transport=SocketTransport(host, port)
            )
            _churn(primary, 8)
            replica.catch_up()
            assert replica.applied_seq == 8
            assert collection_fingerprint(
                replica.live
            ) == collection_fingerprint(primary.live)
            replica.close()
        finally:
            server.stop()

    def test_tailer_thread_converges_concurrently(self, primary):
        import time

        replica = ReplicaCollection(primary.directory)
        thread = TailerThread(replica, interval=0.001).start()
        _churn(primary, 30)
        deadline = time.monotonic() + 10.0
        while replica.applied_seq < primary.last_seq and time.monotonic() < deadline:
            time.sleep(0.005)
        thread.stop()
        assert replica.applied_seq == primary.last_seq == 30
        assert collection_fingerprint(replica.live) == collection_fingerprint(
            primary.live
        )

    def test_garbage_server_is_replication_error(self, primary):
        import socket
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def answer_garbage():
            conn, _ = listener.accept()
            conn.recv(64)
            conn.sendall(b"\xff" * 20 + b"not a frame")
            conn.close()

        thread = threading.Thread(target=answer_garbage, daemon=True)
        thread.start()
        transport = SocketTransport("127.0.0.1", listener.getsockname()[1])
        with pytest.raises(ReplicationError):
            transport.read(0, 0)
        transport.close()
        listener.close()


class TestReplicationLagType:
    def test_record_lag_none_without_primary(self):
        from repro.replica import ReplicationLag

        lag = ReplicationLag(applied_seq=5, primary_seq=None, byte_lag=0)
        assert lag.record_lag is None
        lag = ReplicationLag(applied_seq=5, primary_seq=9, byte_lag=120)
        assert lag.record_lag == 4
