"""Damaged shipped streams: the replica tailer against the recovery scanner.

Every truncation and every single-bit flip of the committed RPWL v1/v3
fixtures and of a generated 20-record log is written to a file and
shipped through a :class:`WalTailer` over a :class:`FileTransport` with
64-byte fetch windows, so records straddle windows and the
window-widening path runs.  Each flip is tried twice: as flipped, and
with the damaged record's CRC recomputed so the chain check and the
payload decoder see the damage, not just the checksum.  For the same
bytes, the tailer must agree with :func:`scan_wal`:

* the records it returns are a prefix of the scan's records;
* they are all of them when the scan stops ``clean`` or ``short``;
* it fails only with :class:`ReplicationError` or
  :class:`WalCorruptError`, never ``struct.error``, ``IndexError``,
  ``KeyError`` or ``UnicodeDecodeError``.
"""

import struct
import zlib

import pytest

from repro.durable.wal import WAL_HEADER, WriteAheadLog, batch_record, scan_wal
from repro.errors import ReplicationError, WalCorruptError
from repro.replica import FileTransport, WalTailer
from tests.test_legacy_decoders import LEGACY, bit_flips

_SEQ_BYTES = 8
_RECORD_HEADER = 16  # seq, payload length, crc


def _generated_log(path):
    """About 20 records covering every v3 opcode and the JSON fallback."""
    with WriteAheadLog(path, fsync="never") as wal:
        for i in range(17):
            wal.append(
                {"op": "insert_child", "doc": 0, "parent": i, "index": i % 3, "tag": f"t{i}"}
            )
        wal.append({"op": "insert_before", "doc": 0, "ref": 4, "tag": "é"})
        wal.append(
            batch_record(
                [
                    {"op": "insert_after", "doc": 1, "ref": 2, "tag": "y"},
                    {"op": "delete", "doc": 1, "node": 3},
                ]
            )
        )
        wal.append({"op": "noop", "i": 20})
    return path.read_bytes()


def _records(records):
    return [(r.seq, r.op, r.end_offset) for r in records]


def _with_crc_recomputed(blob, offset, spans):
    """Re-seal the record whose seq or payload holds ``offset``."""
    damaged = bytearray(blob)
    for start, end in spans:
        in_seq = start <= offset < start + _SEQ_BYTES
        in_payload = start + _RECORD_HEADER <= offset < end
        if in_seq or in_payload:
            crc = zlib.crc32(damaged[start : start + 12] + damaged[start + _RECORD_HEADER : end])
            damaged[start + 12 : start + _RECORD_HEADER] = struct.pack(">I", crc)
    return bytes(damaged)


def _damaged(blob, original):
    """Every truncation, then every bit flip as flipped and re-sealed."""
    ends = [r.end_offset for r in original.records]
    spans = list(zip([len(WAL_HEADER)] + ends[:-1], ends))
    for cut in range(len(blob)):
        yield f"cut {cut}", blob[:cut]
    for offset, flipped in bit_flips(blob):
        yield f"flip {offset}", flipped
        resealed = _with_crc_recomputed(flipped, offset, spans)
        if resealed != flipped:
            yield f"flip {offset} resealed", resealed


def _tail(path):
    tailer = WalTailer(FileTransport(path), chunk_bytes=64)
    try:
        return _records(tailer.poll())
    except (ReplicationError, WalCorruptError):
        return None


def _sweep(tmp_path, blob):
    source = tmp_path / "source.log"
    source.write_bytes(blob)
    original = scan_wal(source)
    assert original.stop_reason == "clean" and len(original.records) >= 2
    path = tmp_path / "wal.log"
    checked = 0
    for label, damaged in _damaged(blob, original):
        path.write_bytes(damaged)
        try:
            scan = scan_wal(path)
        except WalCorruptError:
            # A damaged header: nothing is trustworthy, so nothing ships.
            assert not _tail(path), label
            continue
        expected = _records(scan.records)
        tailed = _tail(path)
        if tailed is None:
            continue
        assert tailed == expected[: len(tailed)], label
        if scan.stop_reason in ("clean", "short"):
            assert tailed == expected, label
        checked += 1
    assert checked > len(blob)


@pytest.mark.parametrize("version", [1, 3])
def test_legacy_fixture_sweep(tmp_path, version):
    _sweep(tmp_path, (LEGACY / f"wal-v{version}.rpwl").read_bytes())


def test_generated_log_sweep(tmp_path):
    blob = _generated_log(tmp_path / "generated.log")
    assert len(scan_wal(tmp_path / "generated.log").records) == 20
    assert len(blob) > 64 * 6  # many fetch windows
    _sweep(tmp_path, blob)
