"""Shipping transports: bytes only, probes for lag, one decode per record."""

import socket
import struct
import threading

import pytest

from repro.durable import wal as wal_module
from repro.durable.recovery import WAL_NAME
from repro.errors import ReplicationError
from repro.replica import FileTransport, ReplicaCollection, ShipFrame, SocketTransport
from tests.test_replica_collection import _churn, primary  # noqa: F401 (fixture)

#: The wire layout, spelled out here so a change to it fails these tests.
_REQUEST = struct.Struct(">QI")
_RESPONSE = struct.Struct(">QQI")


class TestFileTransport:
    def test_probe_reports_the_last_whole_record(self, primary):
        _churn(primary, 3)
        path = primary.directory / WAL_NAME
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00")  # a torn fourth record
        probe = FileTransport(path).read(0, 0)
        assert probe.last_seq == 3 and probe.payload == b""
        assert probe.size == path.stat().st_size

    def test_data_reads_ship_bytes_without_a_sequence_number(self, primary):
        _churn(primary, 3)
        path = primary.directory / WAL_NAME
        frame = FileTransport(path).read(0, 1 << 20)
        assert frame.payload == path.read_bytes()
        assert frame.last_seq == 0

    def test_catch_up_decodes_each_record_once(self, primary, monkeypatch):
        replica = ReplicaCollection(primary.directory)
        _churn(primary, 10)
        decoded = []
        real = wal_module._decode_payload

        def counting(blob, version, *bounds):
            decoded.append(bounds)
            return real(blob, version, *bounds)

        monkeypatch.setattr(wal_module, "_decode_payload", counting)
        assert replica.catch_up() == 10
        assert len(decoded) == 10
        decoded.clear()
        for i in range(5):
            _churn(primary, 1, start=10 + i)
            assert replica.poll() == 1
        assert len(decoded) == 5

    def test_lag_after_checkpoint_rotation(self, primary):
        replica = ReplicaCollection(primary.directory)
        _churn(primary, 6)
        replica.catch_up()
        primary.checkpoint()
        _churn(primary, 3, start=6)
        # With two retained generations, this checkpoint prunes the log
        # under the replica: the probe reads the new, shorter generation.
        primary.checkpoint()
        _churn(primary, 2, start=9)
        lag = replica.lag()
        assert lag.record_lag == 5
        # The replica's offset points into the previous generation; the
        # new, shorter one is all unread.
        assert lag.byte_lag > 0
        replica.catch_up()
        lag = replica.lag()
        assert lag.primary_seq == primary.last_seq == 11
        assert lag.record_lag == 0 and lag.byte_lag == 0


class TestSocketTransport:
    def test_refused_frame_drops_its_connection(self):
        """An oversized header leaves its payload on the wire; the next
        read must reconnect instead of parsing those bytes as a header."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        accepted = []

        def serve():
            for _ in range(2):
                conn, _ = listener.accept()
                accepted.append(conn)
                try:
                    while conn.recv(_REQUEST.size, socket.MSG_WAITALL):
                        if len(accepted) == 1:
                            conn.sendall(_RESPONSE.pack(10, 7, 1 << 30) + bytes(40))
                        else:
                            conn.sendall(_RESPONSE.pack(10, 7, 3) + b"abc")
                except OSError:
                    pass  # the client reset the refused connection
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        transport = SocketTransport("127.0.0.1", listener.getsockname()[1])
        try:
            with pytest.raises(ReplicationError):
                transport.read(0, 64)
            assert transport.read(0, 64) == ShipFrame(size=10, last_seq=7, payload=b"abc")
            assert len(accepted) == 2
        finally:
            transport.close()
            thread.join(timeout=5.0)
            listener.close()
