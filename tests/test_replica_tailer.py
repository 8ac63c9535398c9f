"""WalTailer stream semantics: the one incremental WAL cursor."""

import struct
import zlib

import pytest

from repro.durable import wal as wal_module
from repro.durable.wal import WAL_HEADER, WriteAheadLog
from repro.errors import ReplicationError
from repro.replica import FileTransport, WalTailer

_HEADER = struct.Struct(">QII")


def _append(wal, count, start=0):
    for i in range(count):
        wal.append({"op": "noop", "i": start + i})


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "wal.log"


class TestWalTailer:
    def _tailer(self, path, **kwargs):
        return WalTailer(FileTransport(path), **kwargs)

    def test_incremental_polls_return_only_new_records(self, wal_path):
        wal = WriteAheadLog(wal_path, fsync="never")
        tailer = self._tailer(wal_path)
        assert tailer.poll() == []
        _append(wal, 3)
        first = tailer.poll()
        assert [r.seq for r in first] == [1, 2, 3]
        assert tailer.poll() == []
        _append(wal, 2)
        assert [r.seq for r in tailer.poll()] == [4, 5]
        wal.close()

    def test_small_chunks_drain_the_whole_log(self, wal_path):
        wal = WriteAheadLog(wal_path, fsync="never")
        _append(wal, 20)
        tailer = self._tailer(wal_path, chunk_bytes=64)
        assert [r.seq for r in tailer.poll()] == list(range(1, 21))
        wal.close()

    def test_torn_tail_is_pending_then_consumed(self, wal_path):
        wal = WriteAheadLog(wal_path, fsync="never")
        _append(wal, 2)
        tailer = self._tailer(wal_path)
        tailer.poll()
        # Simulate the primary mid-append: header promising the payload's
        # full length, only part of it on disk.  The payload must be in the
        # log's own (v3) encoding or the eventual full read would be a
        # decode error, not a consumed record.
        payload = wal_module._encode_payload(
            {"op": "noop", "i": 99, "note": "x" * 30}
        )
        crc = zlib.crc32(struct.pack(">QI", 3, len(payload)) + payload)
        frame = _HEADER.pack(3, len(payload), crc) + payload
        with open(wal_path, "ab") as handle:
            handle.write(frame[:30])
        assert tailer.poll() == []  # pending, not an error
        with open(wal_path, "ab") as handle:
            handle.write(frame[30:])
        assert [r.seq for r in tailer.poll()] == [3]
        wal.close()

    def test_crc_damage_confirmed_by_growth_raises(self, wal_path):
        wal = WriteAheadLog(wal_path, fsync="never")
        _append(wal, 2)
        tailer = self._tailer(wal_path)
        tailer.poll()
        payload = b'{"op": "noop", "i": 99}'
        frame = _HEADER.pack(3, len(payload), 12345) + payload  # bad CRC
        with open(wal_path, "ab") as handle:
            handle.write(frame)
        # First sighting: could still be a torn write racing us.
        assert tailer.poll() == []
        with open(wal_path, "ab") as handle:
            handle.write(b"newer bytes beyond the damage")
        with pytest.raises(ReplicationError):
            tailer.poll()
        wal.close()

    def test_authentic_damage_raises_immediately(self, wal_path):
        wal = WriteAheadLog(wal_path, fsync="never")
        _append(wal, 2)
        tailer = self._tailer(wal_path)
        tailer.poll()
        # A CRC-valid record with a broken chain (seq 7 after 2) cannot be
        # a torn write: the bytes are authentic and authentically wrong.
        payload = b'{"op": "noop"}'
        crc = zlib.crc32(struct.pack(">QI", 7, len(payload)) + payload)
        with open(wal_path, "ab") as handle:
            handle.write(_HEADER.pack(7, len(payload), crc) + payload)
        with pytest.raises(ReplicationError):
            tailer.poll()
        wal.close()

    def test_rewind_across_reset_rereads_new_generation(self, wal_path):
        wal = WriteAheadLog(wal_path, fsync="never")
        _append(wal, 5)
        tailer = self._tailer(wal_path)
        assert len(tailer.poll()) == 5
        # reset() rewrites the file shorter; the tailer must rewind and
        # pick up the new generation from its header.
        wal.reset(next_seq=6)
        _append(wal, 2, start=5)
        records = tailer.poll()
        assert [r.seq for r in records] == [6, 7]
        wal.close()

    def test_foreign_file_is_rejected(self, tmp_path):
        bogus = tmp_path / "not-a-wal.log"
        bogus.write_bytes(b"XXXXX" + b"garbage" * 10)
        tailer = self._tailer(bogus)
        with pytest.raises(ReplicationError):
            tailer.poll()

    def test_header_only_then_records(self, wal_path):
        # A freshly created WAL is just the 5-byte header.
        wal = WriteAheadLog(wal_path, fsync="never")
        tailer = self._tailer(wal_path)
        assert tailer.poll() == []
        assert tailer.offset == len(WAL_HEADER)
        _append(wal, 1)
        assert [r.seq for r in tailer.poll()] == [1]
        wal.close()
