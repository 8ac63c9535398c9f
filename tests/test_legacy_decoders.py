"""Committed legacy files: pinned decodes and an exhaustive decoder sweep.

No code writes RPSN v1/v2, RPLS v1/v2 or RPWL v1 any more, so the files
under ``tests/fixtures/legacy`` (recorded once by the last legacy writers)
are what keeps those read paths honest:

* every fixture decodes with today's readers to a pinned fingerprint;
* every truncation and every single-bit flip of each small fixture gives a
  valid decode or a typed :class:`~repro.errors.ReproError` — with the CRC
  recomputed where the format has one, so the field decoders themselves
  see the damage, not just the checksum.  RPSN also goes through
  :func:`restore_collection`; RPWL must stop the scan (keeping every record
  before the damage) or raise :class:`~repro.errors.WalCorruptError`;
* so does every splice ``A[:k] + B[k:]`` of two fixtures of one format, at
  every ``k``, with the CRC recomputed the same way (for RPWL, each
  record's CRC along the splice's own framing).
"""

import hashlib
import struct
import zlib
from pathlib import Path

import pytest

from repro.durable import collection_fingerprint, recover
from repro.durable.snapshot import read_snapshot, restore_collection, snapshot_bytes
from repro.durable.wal import WAL_HEADER, scan_wal
from repro.errors import ReproError, SnapshotCorruptError, WalCorruptError
from repro.obs import metrics
from repro.primes import gen as gen_module
from repro.primes.gen import PrimeGenerator
from repro.query.engine import QueryEngine
from repro.query.live import LiveCollection
from repro.query.persist import load_store
from repro.query.store import LabelStore
from repro.xmlkit.parser import parse_document

LEGACY = Path(__file__).parent / "fixtures" / "legacy"

#: ``snap-v{1,2,3}.rpsn`` hold this collection.
SNAP_DOC = "<r x='1'><a>t</a><b/></r>"
SNAP_FINGERPRINT = "e8ead4daf66913087aa5fbb208517277a7754fca4cdc8771258ff656f7463f25"

#: ``store-{scheme}-v{1,2,3}.rpls`` hold this document's store.
STORE_DOC = "<r><a>x</a><b><c/><c/></b></r>"
STORE_DIGESTS = {
    "prime": "b5b6100532a844c0",
    "interval": "9b6b8ff3e2b53c01",
    "prefix-2": "f494b576c497fe2f",
}
STORES = [f"store-{scheme}-v{v}.rpls" for scheme in STORE_DIGESTS for v in (1, 2, 3)]

#: ``wal-v{1,3}.rpwl`` hold these two records, seqs 1 and 2.
WAL_OPS = [
    {"op": "insert_child", "doc": 0, "parent": 3, "index": 1, "tag": "x"},
    {"op": "delete", "doc": 0, "node": 7},
]

#: Recovered fingerprints of the two format-2 collection directories.
COLLECTION_FINGERPRINTS = {
    "col-v2": "84aacaf9be94648cf1841e3c819b8b1fac454cf472eb21aa96d8da758a752d92",
    "checkpointed-v2": "ebae23bafdf544d022ae2e3d7a86e79a53cfa4cb4a95ac9e0bdcb0ed0334815e",
}


def snap_collection():
    return LiveCollection([parse_document(SNAP_DOC)], group_size=2)


def store_digest(store):
    rows = [
        (r.doc_id, r.element_id, r.tag, r.label, r.depth, r.parent_id, r.text)
        for r in store.rows
    ]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:16]


def with_crc(body):
    return body + struct.pack(">I", zlib.crc32(body))


def crc_body(blob):
    """``blob`` without its CRC32 footer, when its version carries one."""
    return blob[:-4] if blob[4] >= 2 else blob


def with_crc_if_versioned(body):
    """Append the footer when the (spliced) version byte calls for one."""
    return with_crc(body) if len(body) > 4 and body[4] >= 2 else body


def splices(a, b):
    """Every ``a[:k] + b[k:]`` that keeps part of ``a`` and is not ``a``."""
    for k in range(1, len(a)):
        yield k, a[:k] + b[k:]


def with_record_crcs(blob):
    """Recompute each WAL record's CRC along the blob's own framing."""
    out = bytearray(blob)
    pos = len(WAL_HEADER)
    while pos + 16 <= len(out):
        (length,) = struct.unpack_from(">I", out, pos + 8)
        end = pos + 16 + length
        if end > len(out):
            break
        crc = zlib.crc32(out[pos : pos + 12] + out[pos + 16 : end])
        out[pos + 12 : pos + 16] = struct.pack(">I", crc)
        pos = end
    return bytes(out)


def bit_flips(blob):
    for offset in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[offset] ^= 1 << bit
            yield offset, bytes(flipped)


class TestFixturesArePinned:
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_snapshot_restores_to_its_fingerprint(self, version):
        path = LEGACY / f"snap-v{version}.rpsn"
        assert path.read_bytes()[4] == version
        restored = restore_collection(read_snapshot(path))
        assert collection_fingerprint(restored) == SNAP_FINGERPRINT
        assert collection_fingerprint(snap_collection()) == SNAP_FINGERPRINT

    def test_v3_fixture_is_what_the_writer_still_emits(self):
        blob = (LEGACY / "snap-v3.rpsn").read_bytes()
        assert snapshot_bytes(snap_collection()) == blob

    @pytest.mark.parametrize("name", STORES)
    def test_store_loads_to_its_digest(self, name):
        scheme = name[len("store-") : name.rindex("-v")]
        path = LEGACY / name
        assert path.read_bytes()[4] == int(name[-6])
        built = LabelStore.build([parse_document(STORE_DOC)], scheme=scheme)
        assert store_digest(load_store(path)) == STORE_DIGESTS[scheme]
        assert store_digest(built) == STORE_DIGESTS[scheme]

    @pytest.mark.parametrize("version", [1, 3])
    def test_wal_scans_to_its_records(self, version):
        path = LEGACY / f"wal-v{version}.rpwl"
        scan = scan_wal(path)
        assert scan.version == version and scan.stop_reason == "clean"
        assert [(r.seq, r.op) for r in scan.records] == list(enumerate(WAL_OPS, 1))

    @pytest.mark.parametrize("name", sorted(COLLECTION_FINGERPRINTS))
    def test_collection_recovers_to_its_fingerprint(self, name):
        directory = LEGACY / name
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        recovered = recover(directory)
        assert collection_fingerprint(recovered.collection) == (
            COLLECTION_FINGERPRINTS[name]
        )
        # recover() only reads: the committed files stay as recorded.
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before


class TestSnapshotSweep:
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_every_truncation_is_typed(self, tmp_path, version):
        blob = (LEGACY / f"snap-v{version}.rpsn").read_bytes()
        body = blob[:-4]
        path = tmp_path / "snap.rpsn"
        for cut in range(len(blob)):
            for damaged in (blob[:cut], with_crc(body[:cut])):
                if damaged == blob:
                    continue
                path.write_bytes(damaged)
                with pytest.raises(SnapshotCorruptError):
                    read_snapshot(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_every_bit_flip_restores_or_fails_typed(self, tmp_path, version):
        body = (LEGACY / f"snap-v{version}.rpsn").read_bytes()[:-4]
        path = tmp_path / "snap.rpsn"
        for _offset, flipped in bit_flips(body):
            path.write_bytes(with_crc(flipped))
            try:
                restore_collection(read_snapshot(path))
            except ReproError:
                pass

    @pytest.mark.parametrize(
        "first,second", [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
    )
    def test_every_splice_restores_or_fails_typed(self, tmp_path, first, second):
        a = (LEGACY / f"snap-v{first}.rpsn").read_bytes()[:-4]
        b = (LEGACY / f"snap-v{second}.rpsn").read_bytes()[:-4]
        path = tmp_path / "snap.rpsn"
        for _k, spliced in splices(a, b):
            path.write_bytes(with_crc(spliced))
            try:
                restore_collection(read_snapshot(path))
            except ReproError:
                pass

    def test_a_flip_without_a_new_crc_is_always_caught(self, tmp_path):
        blob = (LEGACY / "snap-v2.rpsn").read_bytes()
        path = tmp_path / "snap.rpsn"
        for _offset, flipped in bit_flips(blob):
            path.write_bytes(flipped)
            with pytest.raises(SnapshotCorruptError):
                read_snapshot(path)


class TestStoreSweep:
    @staticmethod
    def _load_or_typed(path):
        try:
            loaded = load_store(path)
            QueryEngine(loaded).evaluate("/r//c")
        except ReproError:
            pass

    @pytest.mark.parametrize("name", STORES)
    def test_every_truncation_and_bit_flip(self, tmp_path, name):
        blob = (LEGACY / name).read_bytes()
        has_crc = blob[4] >= 2
        body = blob[:-4] if has_crc else blob
        path = tmp_path / "store.rpls"
        for cut in range(len(body)):
            path.write_bytes(with_crc(body[:cut]) if has_crc else body[:cut])
            self._load_or_typed(path)
        for _offset, flipped in bit_flips(body):
            path.write_bytes(with_crc(flipped) if has_crc else flipped)
            self._load_or_typed(path)

    @pytest.mark.parametrize("name", STORES)
    def test_every_splice(self, tmp_path, name):
        a = crc_body((LEGACY / name).read_bytes())
        path = tmp_path / "store.rpls"
        for other in STORES:
            if other == name:
                continue
            b = crc_body((LEGACY / other).read_bytes())
            for _k, spliced in splices(a, b):
                path.write_bytes(with_crc_if_versioned(spliced))
                self._load_or_typed(path)


class TestWalSweep:
    """Damage never costs a record that ends before it."""

    @staticmethod
    def _records(path):
        return [(r.seq, r.op, r.end_offset) for r in scan_wal(path).records]

    @pytest.mark.parametrize("version", [1, 3])
    def test_every_truncation_keeps_the_whole_records(self, tmp_path, version):
        blob = (LEGACY / f"wal-v{version}.rpwl").read_bytes()
        original = self._records(LEGACY / f"wal-v{version}.rpwl")
        path = tmp_path / "wal.log"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            expected = [r for r in original if r[2] <= cut]
            assert self._records(path) == expected, cut

    @pytest.mark.parametrize("version", [1, 3])
    def test_every_bit_flip_stops_the_scan_or_fails_typed(self, tmp_path, version):
        source = LEGACY / f"wal-v{version}.rpwl"
        blob = source.read_bytes()
        original = self._records(source)
        starts = [len(WAL_HEADER)] + [r[2] for r in original[:-1]]
        path = tmp_path / "wal.log"
        for offset, flipped in bit_flips(blob):
            damaged = bytearray(flipped)
            for start, (_seq, _op, end) in zip(starts, original):
                # A flip in the seq field or the payload gets a fresh CRC,
                # so the chain check and the payload decoder see it.
                in_seq = start <= offset < start + 8
                in_payload = start + 16 <= offset < end
                if in_seq or in_payload:
                    crc = zlib.crc32(damaged[start : start + 12] + damaged[start + 16 : end])
                    damaged[start + 12 : start + 16] = struct.pack(">I", crc)
            path.write_bytes(bytes(damaged))
            try:
                records = self._records(path)
            except WalCorruptError:
                assert offset < len(WAL_HEADER)
                continue
            intact = [r for r in original if r[2] <= offset]
            assert records[: len(intact)] == intact, offset


    @pytest.mark.parametrize("first,second", [(1, 3), (3, 1)])
    def test_every_splice_keeps_the_whole_records(self, tmp_path, first, second):
        source = LEGACY / f"wal-v{first}.rpwl"
        original = self._records(source)
        b = (LEGACY / f"wal-v{second}.rpwl").read_bytes()
        path = tmp_path / "wal.log"
        for k, spliced in splices(source.read_bytes(), b):
            path.write_bytes(with_record_crcs(spliced))
            intact = [r for r in original if r[2] <= k]
            assert self._records(path)[: len(intact)] == intact, k


class TestCorruptGeneratorState:
    """A decoded generator state is checked before it sizes the prime table."""

    def test_from_state_checks_the_issuance_identity(self):
        with pytest.raises(ValueError, match="inconsistent generator state"):
            PrimeGenerator.from_state((0, 0, 5000, 2))

    def test_states_the_generator_reaches_pass(self):
        generator = PrimeGenerator(reserved=3)
        for _ in range(5):
            generator.get_reserved_prime()
        generator.get_prime()
        PrimeGenerator.check_state(generator.state())

    def test_restore_rejects_it_before_sieving(self):
        state = read_snapshot(LEGACY / "snap-v3.rpsn")
        # Past anything the shared table holds, so sizing it would sieve.
        reserved_limit = len(gen_module._TABLE) + 50_000
        document = state.documents[0]
        document.generator_state = (reserved_limit, 0, 2, 0)
        with metrics.collecting() as registry:
            with pytest.raises(SnapshotCorruptError, match="inconsistent"):
                restore_collection(state)
            counters = registry.snapshot()["counters"]
        assert counters.get("primes.sieve_extensions", 0) == 0
