"""Write-ahead log: append/scan round trips, torn tails, pruning."""

import struct
import zlib

import pytest

from repro.durable.faults import FaultPlan
from repro.durable.wal import (
    FsyncPolicy,
    WriteAheadLog,
    header_prefix,
    scan_wal,
)
from repro.errors import DurabilityError, WalCorruptError
from repro.obs import metrics


def ops(count):
    return [{"op": "insert_child", "doc": 0, "parent": 0, "index": i, "tag": "x"}
            for i in range(count)]


class TestFsyncPolicy:
    @pytest.mark.parametrize(
        "text,interval",
        [("always", 1), ("never", 0), ("batch:1", 1), ("batch:8", 8)],
    )
    def test_parse(self, text, interval):
        assert FsyncPolicy.parse(text).interval == interval

    @pytest.mark.parametrize("text", ["", "sometimes", "batch:", "batch:0", "batch:-2"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(DurabilityError):
            FsyncPolicy.parse(text)

    def test_parse_is_idempotent(self):
        policy = FsyncPolicy.parse("batch:3")
        assert FsyncPolicy.parse(policy) is policy

    def test_round_trips_through_str(self):
        for text in ("always", "never", "batch:7"):
            assert str(FsyncPolicy.parse(text)) == text

    def test_due(self):
        assert FsyncPolicy.parse("always").due(1)
        assert not FsyncPolicy.parse("never").due(10_000)
        batch = FsyncPolicy.parse("batch:3")
        assert not batch.due(2)
        assert batch.due(3)


class TestAppendScanRoundTrip:
    def test_records_come_back_verbatim_in_order(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            sequences = [wal.append(op) for op in ops(10)]
        assert sequences == list(range(1, 11))
        scan = scan_wal(path)
        assert [record.op for record in scan.records] == ops(10)
        assert [record.seq for record in scan.records] == sequences
        assert scan.torn_bytes == 0
        assert scan.last_seq == 10

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_wal(tmp_path / "absent.log")
        assert scan.records == [] and scan.last_seq == 0

    def test_reopen_resumes_sequence_numbers(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for op in ops(3):
                wal.append(op)
        with WriteAheadLog(path) as wal:
            assert wal.next_seq == 4
            assert wal.append({"op": "compact"}) == 4
        assert scan_wal(path).last_seq == 4

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(WalCorruptError):
            wal.append({"op": "compact"})

    def test_fsync_policy_counts(self, tmp_path):
        with metrics.collecting() as registry:
            with WriteAheadLog(tmp_path / "wal.log", fsync="batch:4") as wal:
                for op in ops(9):
                    wal.append(op)
            # 9 appends = 2 batch syncs + the close() sync
            counters = registry.snapshot()["counters"]
        assert counters["wal.fsyncs"] == 3


class TestTornTails:
    def test_torn_final_record_is_dropped_then_repaired(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, faults=FaultPlan(script={"append@4": ("tear", 9)}))
        for op in ops(4):
            try:
                wal.append(op)
            except Exception:
                pass
        scan = scan_wal(path)
        assert len(scan.records) == 3
        assert scan.torn_bytes == 9
        # re-open repairs: the torn bytes are truncated away on disk
        WriteAheadLog(path).close()
        healed = scan_wal(path)
        assert healed.torn_bytes == 0 and len(healed.records) == 3

    @pytest.mark.parametrize("keep", [0, 1, 7, 15, 16, 17])
    def test_every_tear_length_stops_cleanly(self, tmp_path, keep):
        path = tmp_path / f"wal-{keep}.log"
        wal = WriteAheadLog(path, faults=FaultPlan(script={"append@3": ("tear", keep)}))
        for op in ops(3):
            try:
                wal.append(op)
            except Exception:
                pass
        assert len(scan_wal(path).records) == 2

    def test_mid_file_bit_flip_shortens_the_trusted_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for op in ops(6):
                wal.append(op)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        scan = scan_wal(path)
        assert len(scan.records) < 6
        assert scan.torn_bytes > 0

    def test_header_damage_is_an_error_not_a_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "compact"})
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF  # magic
        path.write_bytes(bytes(blob))
        with pytest.raises(WalCorruptError):
            scan_wal(path)

    def test_absurd_length_field_is_corruption_not_a_wait(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "compact"})
        # Forge a record claiming a multi-GiB payload with a valid CRC:
        # the scanner must refuse it via the payload cap, not try to read on.
        payload = b"x"
        fake_len = 2**31
        header = struct.pack(
            ">QII", 2, fake_len, zlib.crc32(struct.pack(">QI", 2, fake_len) + payload)
        )
        with open(path, "ab") as handle:
            handle.write(header + payload)
        scan = scan_wal(path)
        assert len(scan.records) == 1
        assert scan.torn_bytes > 0

    def test_sequence_chain_break_stops_the_scan(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "compact"})
        # append a *valid* record with a skipped sequence number
        payload = b'{"op":"compact"}'
        header = struct.pack(
            ">QII", 9, len(payload), zlib.crc32(header_prefix(9, payload))
        )
        with open(path, "ab") as handle:
            handle.write(header + payload)
        assert len(scan_wal(path).records) == 1


class TestMaintenance:
    def test_prune_drops_covered_records_only(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for op in ops(8):
            wal.append(op)
        freed = wal.prune(keep_after_seq=5)
        assert freed > 0
        scan = scan_wal(path)
        assert [record.seq for record in scan.records] == [6, 7, 8]
        # appending continues seamlessly after a prune
        assert wal.append({"op": "compact"}) == 9
        wal.close()
        assert scan_wal(path).last_seq == 9

    def test_prune_noop_when_nothing_covered(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        for op in ops(3):
            wal.append(op)
        assert wal.prune(keep_after_seq=0) == 0
        wal.close()

    def test_reset_restarts_numbering_without_old_records(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for op in ops(4):
            wal.append(op)
        wal.reset(next_seq=42)
        assert wal.append({"op": "compact"}) == 42
        wal.close()
        scan = scan_wal(path)
        assert [record.seq for record in scan.records] == [42]

    def test_reset_refuses_to_go_backwards(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        for op in ops(4):
            wal.append(op)
        with pytest.raises(ValueError):
            wal.reset(next_seq=2)
        wal.close()


class TestBatchCloseFlush:
    """Regression: close() under batch:N must flush the un-synced tail."""

    def test_close_mid_batch_loses_nothing(self, tmp_path):
        path = tmp_path / "wal.log"
        with metrics.collecting() as registry:
            wal = WriteAheadLog(path, fsync="batch:5")
            for op in ops(3):  # 3 < 5: no batch sync has fired yet
                wal.append(op)
            wal.close()
            counters = registry.snapshot()["counters"]
        assert counters["wal.fsyncs"] == 1  # exactly the close() flush
        reopened = WriteAheadLog(path, fsync="batch:5")
        scan = scan_wal(path)
        assert [record.seq for record in scan.records] == [1, 2, 3]
        assert reopened.next_seq == 4
        reopened.close()

    def test_close_failure_still_closes(self, tmp_path):
        failing_sync = FaultPlan(rate=1.0, sites={"sync"})
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="never",
                            faults=failing_sync)
        wal._pending = 0  # header write is already durable
        with pytest.raises(OSError):
            wal.close()
        # the object is closed for good, not half-usable
        with pytest.raises(WalCorruptError):
            wal.append({"op": "compact"})
        wal.close()  # idempotent


class TestAppendRollback:
    """A failed append must leave the file exactly as it was (retry-safe)."""

    @pytest.mark.parametrize("site", ["append", "after", "sync"])
    def test_retry_after_fault_creates_no_duplicate(self, tmp_path, site):
        path = tmp_path / "wal.log"
        fail_once = FaultPlan(script={f"{site}@1": "fail"})
        wal = WriteAheadLog(path, fsync="always", faults=fail_once)
        with pytest.raises(OSError):
            wal.append({"op": "compact"})
        # the failed record's bytes were rolled back...
        assert scan_wal(path).records == []
        # ...so the retry lands as the one-and-only record 1
        assert wal.append({"op": "compact"}) == 1
        wal.close()
        scan = scan_wal(path)
        assert [record.seq for record in scan.records] == [1]

    def test_reopen_repairs_and_rechains(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for op in ops(3):
            wal.append(op)
        # simulate damage behind the handle's back: torn tail on disk
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        wal.reopen()
        assert wal.next_seq == 3  # record 3 lost its tail -> rescan trusts 1..2
        assert wal.append({"op": "compact"}) == 3
        wal.close()
        assert [r.seq for r in scan_wal(path).records] == [1, 2, 3]

    def test_reopen_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(WalCorruptError):
            wal.reopen()
