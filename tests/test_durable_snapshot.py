"""Snapshots: byte-exact state capture, corruption detection, atomicity."""

import random
import struct
import tracemalloc
import zlib
from pathlib import Path

import pytest

from repro.datasets.shakespeare import play
from repro.durable.collection import DurableCollection
from repro.durable.faults import FaultPlan, flip_bit
from repro.durable.files import truncate_durably
from repro.durable.recovery import list_generations, snapshot_path
from repro.durable.snapshot import (
    collection_fingerprint,
    read_snapshot,
    read_snapshot_seq,
    restore_collection,
    snapshot_bytes,
    write_snapshot,
)
from repro.errors import LabelingError, SnapshotCorruptError
from repro.query.live import BatchOp, LiveCollection
from repro.replica import ReplicaCollection
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serialize import serialize
from repro.xmlkit.tree import XmlElement

DOCS = [
    "<r><a>x</a><b attr='v'><c/><c/></b></r>",
    "<play><act><scene/><scene/></act></play>",
]


def build_collection(churn=12, group_size=5):
    collection = LiveCollection(
        [parse_document(text) for text in DOCS], group_size=group_size
    )
    rng = random.Random(3)
    for _ in range(churn):
        root = collection.documents[rng.randrange(len(collection.documents))]
        nodes = list(root.iter_preorder())
        target = rng.choice(nodes)
        collection.insert_child(target, rng.randint(0, len(target.children)))
    return collection


class TestRoundTrip:
    def test_restore_reproduces_the_fingerprint(self, tmp_path):
        collection = build_collection()
        path = tmp_path / "snap.rpsn"
        write_snapshot(collection, path, last_seq=12)
        state = read_snapshot(path)
        assert state.last_seq == 12
        restored = restore_collection(state)
        assert collection_fingerprint(restored) == collection_fingerprint(collection)

    def test_restore_preserves_future_behaviour(self, tmp_path):
        """The decisive determinism test: a restored collection must make
        the *same future choices* (fresh primes, SC record fills) as the
        original — not merely hold the same current state."""
        collection = build_collection()
        path = tmp_path / "snap.rpsn"
        write_snapshot(collection, path)
        restored = restore_collection(read_snapshot(path))
        rng_a, rng_b = random.Random(9), random.Random(9)
        for source, rng in ((collection, rng_a), (restored, rng_b)):
            for _ in range(15):
                root = source.documents[0]
                nodes = list(root.iter_preorder())
                target = rng.choice(nodes)
                source.insert_child(target, rng.randint(0, len(target.children)))
        assert collection_fingerprint(restored) == collection_fingerprint(collection)
        assert restored.check() and collection.check()

    def test_queries_survive_restore(self, tmp_path):
        collection = build_collection()
        path = tmp_path / "snap.rpsn"
        write_snapshot(collection, path)
        restored = restore_collection(read_snapshot(path))
        for query in ("//c", "/r//b", "//*"):
            assert len(restored.query(query)) == len(collection.query(query))

    def test_none_group_size_round_trips(self, tmp_path):
        collection = build_collection(churn=3, group_size=None)
        path = tmp_path / "snap.rpsn"
        write_snapshot(collection, path)
        restored = restore_collection(read_snapshot(path))
        assert restored.group_size is None
        assert collection_fingerprint(restored) == collection_fingerprint(collection)

    def test_fingerprint_is_content_addressed(self):
        assert collection_fingerprint(build_collection()) == collection_fingerprint(
            build_collection()
        )
        changed = build_collection()
        changed.insert_child(changed.documents[0], 0)
        assert collection_fingerprint(changed) != collection_fingerprint(
            build_collection()
        )


class TestCorruptionDetection:
    def test_every_single_bit_flip_in_a_small_snapshot_is_caught(self, tmp_path):
        collection = LiveCollection([parse_document("<r><a/><b/></r>")])
        path = tmp_path / "snap.rpsn"
        write_snapshot(collection, path)
        blob = path.read_bytes()
        for offset in range(len(blob)):
            for bit in range(8):
                flip_bit(path, offset, bit)
                with pytest.raises(SnapshotCorruptError):
                    read_snapshot(path)
                path.write_bytes(blob)  # restore for the next flip

    def test_random_bit_flips_in_a_large_snapshot_are_caught(self, tmp_path):
        collection = build_collection()
        path = tmp_path / "snap.rpsn"
        write_snapshot(collection, path)
        blob = path.read_bytes()
        rng = random.Random(17)
        for _ in range(80):
            flip_bit(path, rng.randrange(len(blob)), rng.randrange(8))
            with pytest.raises(SnapshotCorruptError):
                read_snapshot(path)
            path.write_bytes(blob)

    def test_every_truncation_point_is_caught(self, tmp_path):
        collection = LiveCollection([parse_document("<r><a/></r>")])
        path = tmp_path / "snap.rpsn"
        write_snapshot(collection, path)
        size = path.stat().st_size
        for cut in range(size):
            truncate_durably(path, cut)
            with pytest.raises(SnapshotCorruptError):
                read_snapshot(path)
            write_snapshot(collection, path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_every_cut_under_a_recomputed_crc_is_typed(self, tmp_path, version):
        # The CRC cannot catch a body cut short and re-footered; the decoder
        # must still fail with the documented error, not the label store
        # reader's QueryEvaluationError.  The fixtures hold
        # LiveCollection([parse_document("<r x='1'><a>t</a><b/></r>")],
        # group_size=2) at each version.
        legacy = Path(__file__).parent / "fixtures" / "legacy"
        body = (legacy / f"snap-v{version}.rpsn").read_bytes()[:-4]
        path = tmp_path / "snap.rpsn"
        for cut in range(len(body)):
            part = body[:cut]
            path.write_bytes(part + struct.pack(">I", zlib.crc32(part)))
            with pytest.raises(SnapshotCorruptError):
                read_snapshot(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_a_cut_body_names_the_snapshot(self, tmp_path, version):
        # The message of a cut body under a recomputed CRC speaks of the
        # snapshot that was cut, not of the label store format.
        legacy = Path(__file__).parent / "fixtures" / "legacy"
        body = (legacy / f"snap-v{version}.rpsn").read_bytes()[:-4]
        path = tmp_path / "snap.rpsn"
        for cut in range(len(body)):
            part = body[:cut]
            path.write_bytes(part + struct.pack(">I", zlib.crc32(part)))
            with pytest.raises(SnapshotCorruptError) as caught:
                read_snapshot(path)
            message = str(caught.value)
            assert f"snapshot {path}" in message, message
            assert "label store" not in message, message

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(tmp_path / "absent.rpsn")

    def test_wrong_magic_with_valid_crc(self, tmp_path):
        import struct
        import zlib

        path = tmp_path / "fake.rpsn"
        body = b"NOPE" + b"\x01" + b"\x00" * 20
        path.write_bytes(body + struct.pack(">I", zlib.crc32(body)))
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_header_reader_agrees_with_the_full_decode(self, tmp_path):
        path = tmp_path / "snap.rpsn"
        write_snapshot(build_collection(), path, last_seq=42)
        assert read_snapshot_seq(path) == read_snapshot(path).last_seq == 42
        legacy = Path(__file__).parent / "fixtures" / "legacy"
        for version in (1, 2, 3):
            fixture = legacy / f"snap-v{version}.rpsn"
            assert read_snapshot_seq(fixture) == read_snapshot(fixture).last_seq

    def test_header_reader_rejects_what_the_full_decode_rejects_first(self, tmp_path):
        collection = LiveCollection([parse_document("<r><a/><b/></r>")])
        path = tmp_path / "snap.rpsn"
        write_snapshot(collection, path, last_seq=7)
        blob = path.read_bytes()
        for offset in range(len(blob)):  # any flipped bit fails the CRC
            flip_bit(path, offset, offset % 8)
            with pytest.raises(SnapshotCorruptError):
                read_snapshot_seq(path)
            path.write_bytes(blob)
        body = blob[:-4]
        for damaged in (
            b"NOPE" + body[4:],  # magic
            body[:4] + b"\x09" + body[5:],  # unsupported version
            body[:12],  # cut inside last_seq
        ):
            path.write_bytes(damaged + struct.pack(">I", zlib.crc32(damaged)))
            with pytest.raises(SnapshotCorruptError):
                read_snapshot_seq(path)
        with pytest.raises(SnapshotCorruptError):
            read_snapshot_seq(tmp_path / "absent.rpsn")

    def test_injected_corruption_on_the_write_path(self, tmp_path):
        collection = build_collection(churn=3)
        path = tmp_path / "snap.rpsn"
        # bit 203 = bit 3 of byte 25
        flip = FaultPlan(script={"snapshot@1": ("flip", 25 * 8 + 3)})
        write_snapshot(collection, path, faults=flip)
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)


def _refooted(body):
    """``body`` with a CRC32 footer that checks out."""
    return body + struct.pack(">I", zlib.crc32(body))


class TestReaderStopsAtTheBody:
    """The field reader indexes the whole file but stops where the CRC
    footer starts: no field may be completed from footer bytes."""

    def test_a_last_varint_cut_at_the_footer_is_truncated(self, tmp_path):
        collection = LiveCollection([parse_document("<r><a/></r>")])
        body = snapshot_bytes(collection)[:-4]
        # The body ends with an empty leaf-counter section; claim one pair
        # whose second varint is cut, its continuation bit still set.
        assert body[-4:] == b"\x00\x00\x00\x00"
        path = tmp_path / "snap.rpsn"
        for last in range(0x80, 0x100):
            cut = body[:-4] + struct.pack(">I", 1) + bytes([5, last])
            blob = _refooted(cut)
            # Only a footer with a byte below 0x80 could end the varint.
            if min(blob[-4:]) < 0x80:
                break
        else:
            pytest.fail("no footer held a byte that could end the varint")
        path.write_bytes(blob)
        with pytest.raises(SnapshotCorruptError, match="truncated varint") as caught:
            read_snapshot(path)
        assert f"snapshot {path}" in str(caught.value)

    def test_a_tag_running_into_the_footer_is_truncated(self, tmp_path):
        collection = LiveCollection([parse_document("<r/>")])
        body = snapshot_bytes(collection)[:-4]
        strategy = collection.strategy.encode()
        tree_start = 4 + 1 + 8 + 8 + 4 + 1 + len(strategy) + 4
        # The root's tag claims 5 bytes, and only its 1 and the footer follow.
        cut = body[:tree_start] + b"\x00\x05r"
        path = tmp_path / "snap.rpsn"
        path.write_bytes(_refooted(cut))
        with pytest.raises(
            SnapshotCorruptError, match=f"truncated: 5 bytes needed at byte {tree_start + 2}$"
        ):
            read_snapshot(path)

    def test_a_child_count_cut_at_the_footer_is_truncated(self, tmp_path):
        collection = LiveCollection([parse_document("<r/>")])
        body = snapshot_bytes(collection)[:-4]
        strategy = collection.strategy.encode()
        tree_start = 4 + 1 + 8 + 8 + 4 + 1 + len(strategy) + 4
        counts_start = tree_start + 3 + 4  # tag "r", then an empty text
        assert body[counts_start : counts_start + 6] == bytes(6)
        # Five of the root's six count bytes: the child count is cut short.
        cut = body[: counts_start + 5]
        path = tmp_path / "snap.rpsn"
        path.write_bytes(_refooted(cut))
        with pytest.raises(
            SnapshotCorruptError, match=f"truncated: 4 bytes needed at byte {counts_start + 2}$"
        ):
            read_snapshot(path)

    def test_invalid_utf8_is_reported_past_its_string(self, tmp_path):
        root = XmlElement("r")
        root.append(XmlElement("a", {"name": "bad"}))
        body = bytearray(snapshot_bytes(LiveCollection([root]))[:-4])
        at = body.index(b"bad")
        body[at] = 0xFF
        path = tmp_path / "snap.rpsn"
        path.write_bytes(_refooted(bytes(body)))
        with pytest.raises(SnapshotCorruptError, match=f"invalid UTF-8 string at byte {at + 3}$"):
            read_snapshot(path)

    def test_an_empty_tag_is_corrupt(self, tmp_path):
        collection = LiveCollection([parse_document("<r/>")])
        body = snapshot_bytes(collection)[:-4]
        strategy = collection.strategy.encode()
        tree_start = 4 + 1 + 8 + 8 + 4 + 1 + len(strategy) + 4
        assert body[tree_start : tree_start + 3] == b"\x00\x01r"
        # The root's tag claims no bytes; every field after it still reads.
        cut = body[:tree_start] + b"\x00\x00" + body[tree_start + 3 :]
        path = tmp_path / "snap.rpsn"
        path.write_bytes(_refooted(cut))
        with pytest.raises(SnapshotCorruptError, match="non-empty") as caught:
            read_snapshot(path)
        assert f"snapshot {path}" in str(caught.value)

    def test_a_tree_string_running_into_the_footer_is_truncated(self, tmp_path):
        collection = LiveCollection([parse_document("<r/>")])
        body = snapshot_bytes(collection)[:-4]
        strategy = collection.strategy.encode()
        tree_start = 4 + 1 + 8 + 8 + 4 + 1 + len(strategy) + 4
        assert body[tree_start : tree_start + 3] == b"\x00\x01r"
        # The root's text claims 3 bytes, and only the footer follows.
        cut = body[: tree_start + 3] + struct.pack(">I", 3)
        path = tmp_path / "snap.rpsn"
        path.write_bytes(_refooted(cut))
        with pytest.raises(SnapshotCorruptError, match="truncated: 3 bytes needed"):
            read_snapshot(path)


class TestTreeFields:
    """The tree decoder reads each node's fields in one pass; every shape
    of node must come back exactly."""

    @staticmethod
    def edge_tree():
        root = XmlElement(
            "库", {"ключ": "значение", "ä": "", "z": "ü" * 1000}, "текст ✓ 𝄞"
        )
        root.append(XmlElement("item", {f"a{i}": f"v{i}" for i in range(60)}))
        root.append(XmlElement("empty"))
        middle = root.append(XmlElement("mitte", {}, "x" * 70_000))
        middle.append(XmlElement("blatt", {"name": "wert"}, ""))
        middle.append(XmlElement("ß"))
        root.append(XmlElement("last", {"only": "one"}, "🙂"))
        # Each 2-byte field at its format's maximum, so a read of any of
        # them at another width or sign cannot come back unchanged.
        root.append(XmlElement("many", {f"a{i}": "" for i in range(0xFFFF)}))
        root.append(XmlElement("t" * 0xFFFF, {"n" * 0xFFFF: "v" * 0xFFFF}))
        return root

    def test_edge_nodes_round_trip(self, tmp_path):
        root = self.edge_tree()
        collection = LiveCollection([root])
        path = tmp_path / "snap.rpsn"
        write_snapshot(collection, path)
        restored = restore_collection(read_snapshot(path))
        assert serialize(restored.documents[0]) == serialize(root)
        assert restored.documents[0].structurally_equal(root)
        assert collection_fingerprint(restored) == collection_fingerprint(collection)

    @pytest.mark.parametrize("marker", ["tagmark", "textmark", "namemark", "valuemark"])
    def test_invalid_utf8_in_each_string_field_names_the_snapshot(
        self, tmp_path, marker
    ):
        root = XmlElement("r")
        root.append(XmlElement("tagmark", {"namemark": "valuemark"}, "textmark"))
        body = bytearray(snapshot_bytes(LiveCollection([root]))[:-4])
        assert body.count(marker.encode()) == 1
        body[body.index(marker.encode())] = 0xFF  # never valid in UTF-8
        path = tmp_path / "snap.rpsn"
        path.write_bytes(_refooted(bytes(body)))
        with pytest.raises(SnapshotCorruptError, match="invalid UTF-8") as caught:
            read_snapshot(path)
        assert f"snapshot {path}" in str(caught.value)


class TestFieldOverflow:
    """A value one past its 2-byte field is refused, typed, before any I/O."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: XmlElement("many", {f"a{i}": "" for i in range(0x10000)}),
            lambda: XmlElement("t" * 0x10000),
            lambda: XmlElement("n", {"n" * 0x10000: ""}),
            lambda: XmlElement("n", {"name": "v" * 0x10000}),
        ],
        ids=["attribute-count", "tag", "attribute-name", "attribute-value"],
    )
    def test_a_field_past_its_maximum_is_a_labeling_error(self, make):
        root = XmlElement("r")
        root.append(make())
        with pytest.raises(LabelingError, match="'>H' cannot hold .*65536"):
            snapshot_bytes(LiveCollection([root]))

    def test_create_leaves_nothing_behind(self, tmp_path):
        root = XmlElement("r", {"name": "v" * 0x10000})
        directory = tmp_path / "state"
        with pytest.raises(LabelingError):
            DurableCollection.create(directory, [root])
        assert list_generations(directory) == []
        assert list(directory.iterdir()) == []


class TestStrategyName:
    """The persisted strategy name is checked when a snapshot is read."""

    # magic, version, last_seq, total cost, group size; then the
    # length-prefixed strategy name
    OFFSET = 4 + 1 + 8 + 8 + 4

    def rename_newest(self, directory, old, new):
        path = snapshot_path(directory, list_generations(directory)[-1])
        body = bytearray(path.read_bytes()[:-4])
        at = self.OFFSET
        assert body[at : at + 1 + len(old)] == bytes([len(old)]) + old.encode()
        body[at + 1 : at + 1 + len(old)] = new.encode()
        path.write_bytes(bytes(body) + struct.pack(">I", zlib.crc32(body)))
        return path

    def checkpointed(self, directory):
        durable = DurableCollection.create(
            directory, [parse_document(text) for text in DOCS], strategy="scan"
        )
        durable.insert_child(durable.live.documents[0], 0, tag="x")
        durable.checkpoint()
        count = durable.count("//*")
        durable.close()
        return count

    def test_unknown_name_is_corruption_and_recovery_falls_back(self, tmp_path):
        count = self.checkpointed(tmp_path)
        path = self.rename_newest(tmp_path, "scan", "sCan")
        with pytest.raises(SnapshotCorruptError, match="unknown strategy 'sCan'"):
            read_snapshot(path)
        reopened = DurableCollection.open(tmp_path, verify=True)
        assert reopened.last_recovery.skipped_generations == [2]
        assert reopened.live.strategy == "scan"
        assert reopened.count("//*") == count
        reopened.close()

    def test_retired_name_restores_as_auto(self, tmp_path):
        count = self.checkpointed(tmp_path)
        path = self.rename_newest(tmp_path, "scan", "twig")
        assert read_snapshot(path).strategy == "auto"
        reopened = DurableCollection.open(tmp_path, verify=True)
        assert reopened.last_recovery.skipped_generations == []
        assert reopened.live.strategy == "auto"
        assert reopened.count("//*") == count
        reopened.close()


class TestAtomicity:
    def test_no_temp_file_survives_a_write(self, tmp_path):
        collection = build_collection(churn=2)
        path = tmp_path / "snap.rpsn"
        write_snapshot(collection, path)
        assert [entry.name for entry in tmp_path.iterdir()] == ["snap.rpsn"]

    def test_rewrite_is_all_or_nothing(self, tmp_path):
        collection = build_collection(churn=2)
        path = tmp_path / "snap.rpsn"
        write_snapshot(collection, path)
        before = path.read_bytes()
        collection.insert_child(collection.documents[0], 0)
        write_snapshot(collection, path)
        after = path.read_bytes()
        assert after != before
        read_snapshot(path)  # still a valid snapshot

    def test_snapshot_bytes_deterministic(self):
        collection = build_collection()
        assert snapshot_bytes(collection) == snapshot_bytes(collection)


class TestDeepDocuments:
    def test_chain_deeper_than_the_recursion_limit_round_trips(self, tmp_path):
        root = XmlElement("r")
        node = root
        for _ in range(1100):
            node = node.append(XmlElement("d"))
        directory = tmp_path / "deep"
        primary = DurableCollection.create(directory, [root], fsync="never")
        primary.apply_batch([BatchOp.insert_child(primary.documents[0], 0, tag="x")])
        primary.checkpoint()
        primary.apply_batch([BatchOp.insert_child(primary.documents[0], 1, tag="y")])
        expected = collection_fingerprint(primary.live)
        primary.close()
        reopened = DurableCollection.open(directory, verify=True)
        replica = ReplicaCollection(directory)
        try:
            replica.catch_up()
            assert collection_fingerprint(reopened.live) == expected
            assert collection_fingerprint(replica.live) == expected
        finally:
            replica.close()
            reopened.close()


class TestEncodeMemory:
    def test_encode_peak_stays_near_the_blob_size(self):
        # One buffer: the transient cost of an encode is a small multiple
        # of the blob, not one bytes object per field.
        collection = LiveCollection([play(seed=4, node_budget=6000)])
        size = len(snapshot_bytes(collection))
        tracemalloc.start()
        try:
            snapshot_bytes(collection)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * size, (peak, size)
