"""Format-v3 regression suite: the serialization bugfix sweep.

Three fixes ride the varint generation and each gets pinned here:

1. the legacy snapshot encoding's ``>H`` length field capped integers at
   64 KiB; format v3, the only one written, has no such limit;
2. the Opt2 leaf counter is keyed by parent label *value* and carried
   through snapshot/restore, so a restored scheme issues the same
   power-of-two self-labels as a never-snapshotted twin;
3. cross-version reads: v2 stores/snapshots and v1 WALs written by older
   code (committed under ``tests/fixtures/legacy``) must load with the
   current readers, while every writer emits v3 — and v3 must actually be
   smaller.
"""

import json
import random
import shutil
from pathlib import Path

import pytest

from repro.durable import DurableCollection, collection_fingerprint, recover
from repro.durable import wal as wal_module
from repro.durable.recovery import WAL_NAME, op_record, resolve_op, snapshot_path
from repro.durable.snapshot import (
    read_snapshot,
    restore_collection,
    snapshot_bytes,
    write_snapshot,
)
from repro.durable.wal import WAL_HEADER, WriteAheadLog, scan_wal
from repro.labeling.codec import read_uvarint
from repro.labeling.prime import PrimeLabel, PrimeScheme
from repro.query.live import BatchOp, LiveCollection
from repro.query.persist import load_store, save_store
from repro.xmlkit.builder import element
from repro.xmlkit.parser import parse_document

DOC = "<r><a><a1/><a2/></a><b/><c/></r>"

#: An integer whose big-endian encoding exceeds the legacy 65535-byte
#: ``>H`` length field (bugfix 1's trigger).
HUGE = (1 << (65_540 * 8)) - 7

#: Files recorded by the last legacy writers: ``churn{10,20}-v2.*`` hold
#: ``build_collection(churn)`` as an RPSN v2 snapshot and an RPLS v2 store
#: of its engine's store; ``wal-v1.rpwl`` holds two records; ``col-v2/``
#: is a format-2 collection directory (v2 snapshot, v1 WAL) after eight
#: seeded inserts.
LEGACY = Path(__file__).parent / "fixtures" / "legacy"
#: ``recover(LEGACY / "col-v2")``'s fingerprint.
COL_V2_FINGERPRINT = (
    "84aacaf9be94648cf1841e3c819b8b1fac454cf472eb21aa96d8da758a752d92"
)


def build_collection(churn=10):
    collection = LiveCollection([parse_document(DOC)], group_size=4)
    rng = random.Random(5)
    for _ in range(churn):
        root = collection.documents[0]
        target = rng.choice(list(root.iter_preorder()))
        collection.insert_child(target, rng.randint(0, len(target.children)))
    return collection


class TestLegacyIntGuard:
    """Bugfix 1: v3 has no 64 KiB ``>H`` ceiling."""

    def test_huge_label_snapshot_v3_round_trips(self, tmp_path):
        collection = build_collection(churn=2)
        document = collection.ordered_documents[0]
        leaf = document.root.children[-1]
        document.scheme._set_label(leaf, PrimeLabel(value=HUGE, self_label=HUGE))
        # Format v3 has no per-field ceiling below the anti-flood cap.
        path = tmp_path / "huge.rpsn"
        write_snapshot(collection, path)
        state = read_snapshot(path)
        assert any(
            value == HUGE for value, _self in state.documents[0].labels
        )


class TestLeafCounterRestore:
    """Bugfix 2: Opt2 leaf counters keyed by parent label value survive
    export/restore, so a restored scheme's future power-of-two leaf labels
    match a never-exported twin's."""

    @staticmethod
    def _tree():
        return element(
            "r", element("a", element("x"), element("y")), element("b")
        )

    def test_counters_round_trip_through_export(self):
        scheme = PrimeScheme(reserved_primes=0, power2_leaves=True)
        scheme.label_tree(self._tree())
        generator_state, leaf_counters = scheme.export_state()
        assert leaf_counters  # Opt2 issued at least one leaf ordinal
        restored = PrimeScheme(reserved_primes=0, power2_leaves=True)
        twin_tree = self._tree()
        labels = [
            (scheme.label_of(n).value, scheme.label_of(n).self_label)
            for n in scheme.root.iter_preorder()
        ]
        restored.restore_state(twin_tree, labels, generator_state, leaf_counters)
        assert tuple(sorted(restored._leaf_counter.items())) == leaf_counters

    def test_restored_scheme_matches_never_exported_twin(self):
        original = PrimeScheme(reserved_primes=0, power2_leaves=True)
        original.label_tree(self._tree())
        generator_state, leaf_counters = original.export_state()
        restored = PrimeScheme(reserved_primes=0, power2_leaves=True)
        restored.restore_state(
            self._tree(),
            [
                (original.label_of(n).value, original.label_of(n).self_label)
                for n in original.root.iter_preorder()
            ],
            generator_state,
            leaf_counters,
        )
        # Identical post-restore insertions must produce identical labels:
        # the counter keeps each parent's next leaf ordinal, so a restore
        # that dropped it would hand out 2**1 again.
        for scheme in (original, restored):
            scheme.insert_leaf(scheme.root.children[0], tag="late")
        late_a = original.label_of(original.root.children[0].children[-1])
        late_b = restored.label_of(restored.root.children[0].children[-1])
        assert late_a == late_b

    def test_restore_without_counters_is_legacy_behaviour(self):
        """Snapshots written before the counter section restore with empty
        counters — the documented legacy semantics, not an error."""
        original = PrimeScheme(reserved_primes=0, power2_leaves=True)
        original.label_tree(self._tree())
        generator_state, _ = original.export_state()
        restored = PrimeScheme(reserved_primes=0, power2_leaves=True)
        restored.restore_state(
            self._tree(),
            [
                (original.label_of(n).value, original.label_of(n).self_label)
                for n in original.root.iter_preorder()
            ],
            generator_state,
        )
        assert restored._leaf_counter == {}


class TestCrossVersionReads:
    """Bugfix 3 + tentpole: old files readable, new files v3."""

    def test_v2_snapshot_restores_identically(self, tmp_path):
        collection = build_collection()
        old, new = LEGACY / "churn10-v2.rpsn", tmp_path / "v3.rpsn"
        write_snapshot(collection, new)
        assert old.read_bytes()[4] == 2
        assert new.read_bytes()[4] == 3
        from_old = restore_collection(read_snapshot(old))
        from_new = restore_collection(read_snapshot(new))
        assert collection_fingerprint(from_old) == collection_fingerprint(from_new)

    def test_v2_store_loads_with_current_reader(self, tmp_path):
        collection = build_collection()
        store = collection.engine.store
        old, new = LEGACY / "churn10-v2.rpls", tmp_path / "v3.rpls"
        save_store(store, new)  # the only writer: v3
        assert old.read_bytes()[4] == 2
        assert new.read_bytes()[4] == 3
        expected = [
            (row.doc_id, row.element_id, row.tag, row.label) for row in store.rows
        ]
        for path in (old, new):
            loaded = load_store(path)
            assert [
                (row.doc_id, row.element_id, row.tag, row.label)
                for row in loaded.rows
            ] == expected

    def test_v1_wal_is_adopted_and_replayed(self, tmp_path):
        path = tmp_path / "old.rpwl"
        shutil.copyfile(LEGACY / "wal-v1.rpwl", path)
        ops = [
            {"op": "insert_child", "doc": 0, "parent": 3, "index": 1, "tag": "x"},
            {"op": "delete", "doc": 0, "node": 7},
        ]
        assert path.read_bytes()[:5] == b"RPWL\x01"
        scan = scan_wal(path)
        assert [record.op for record in scan.records] == ops
        # Opening rewrites the log at v3, same seqs and ops, so appends
        # never mix encodings.
        reopened = WriteAheadLog(path, fsync="never")
        assert path.read_bytes()[:5] == WAL_HEADER
        reopened.append({"op": "compact"})
        reopened.close()
        scan = scan_wal(path)
        assert scan.version == 3
        assert [(r.seq, r.op) for r in scan.records] == list(
            enumerate([*ops, {"op": "compact"}], 1)
        )

    @staticmethod
    def _col_v2(tmp_path):
        directory = tmp_path / "col"
        shutil.copytree(LEGACY / "col-v2", directory)
        return directory

    def test_v2_collection_opens_with_current_code(self, tmp_path):
        directory = self._col_v2(tmp_path)
        assert snapshot_path(directory, 1).read_bytes()[4] == 2
        assert (directory / WAL_NAME).read_bytes()[:5] == b"RPWL\x01"
        seqs = [record.seq for record in scan_wal(directory / WAL_NAME).records]
        reopened = DurableCollection.open(directory)
        assert collection_fingerprint(reopened.live) == COL_V2_FINGERPRINT
        reopened.close()
        # The log now holds the same records at v3.
        scan = scan_wal(directory / WAL_NAME)
        assert (directory / WAL_NAME).read_bytes()[:5] == WAL_HEADER
        assert scan.version == 3 and [r.seq for r in scan.records] == seqs
        assert seqs == list(range(1, 9))
        assert collection_fingerprint(recover(directory).collection) == (
            COL_V2_FINGERPRINT
        )

    def test_v2_collection_recovers_byte_identically(self, tmp_path):
        rng = random.Random(2)
        # The never-crashed twin of the recorded run (create()'s defaults).
        twin = LiveCollection([parse_document(DOC)], strategy="scan")
        for _ in range(8):
            target = rng.choice(list(twin.documents[0].iter_preorder()))
            twin.insert_child(target, rng.randint(0, len(target.children)))
        recovered = recover(self._col_v2(tmp_path))
        assert recovered.info.replayed_records == 8
        assert collection_fingerprint(recovered.collection) == (
            collection_fingerprint(twin)
        )
        assert collection_fingerprint(twin) == COL_V2_FINGERPRINT

    def test_v3_is_the_default_format(self, tmp_path):
        col = DurableCollection.create(tmp_path / "col", [parse_document(DOC)])
        col.close()
        assert snapshot_path(tmp_path / "col", 1).read_bytes()[4] == 3
        assert (tmp_path / "col" / WAL_NAME).read_bytes()[:5] == WAL_HEADER

    def test_checkpoint_upgrades_v2_snapshots(self, tmp_path):
        directory = self._col_v2(tmp_path)
        reopened = DurableCollection.open(directory)
        reopened.insert_child(reopened.documents[0], 0)
        generation = reopened.checkpoint()
        reopened.close()
        assert snapshot_path(directory, generation).read_bytes()[4] == 3


class TestV3IsSmaller:
    """The point of the tentpole: deterministic size reductions."""

    def test_snapshot_shrinks(self):
        collection = build_collection(churn=20)
        v2 = LEGACY / "churn20-v2.rpsn"
        assert collection_fingerprint(
            restore_collection(read_snapshot(v2))
        ) == collection_fingerprint(collection)
        assert len(snapshot_bytes(collection)) < v2.stat().st_size

    def test_store_shrinks(self, tmp_path):
        collection = build_collection(churn=20)
        store = collection.engine.store
        old, new = LEGACY / "churn20-v2.rpls", tmp_path / "v3.rpls"
        assert [row.label for row in load_store(old).rows] == [
            row.label for row in store.rows
        ]
        save_store(store, new)
        assert new.stat().st_size < old.stat().st_size

    def test_wal_payloads_shrink(self):
        ops = [
            {"op": "insert_child", "doc": 0, "parent": 3, "index": 1, "tag": "x"},
            {"op": "insert_before", "doc": 1, "ref": 9, "tag": "scene"},
            {"op": "insert_after", "doc": 1, "ref": 9, "tag": "scene"},
            {"op": "delete", "doc": 0, "node": 7},
            {"op": "compact"},
        ]
        for op in ops:
            # Version 1 payloads were canonical JSON.
            v1 = json.dumps(op, sort_keys=True, separators=(",", ":")).encode()
            v3 = wal_module._encode_payload(op)
            assert len(v3) < len(v1)
            assert wal_module._decode_payload(v3, 3) == op
            assert wal_module._decode_payload(v1, 1) == op

    def test_unknown_op_shapes_fall_back_to_json(self):
        odd = {"op": "insert_child", "doc": 0, "parent": 3, "index": 1,
               "tag": "x", "extra": True}
        payload = wal_module._encode_payload(odd)
        assert payload[0] == 0  # JSON-fallback opcode
        assert wal_module._decode_payload(payload, 3) == odd

    def test_varint_labels_decode_from_snapshot_blob(self):
        """Spot-check the v3 wire layout: the first label field after the
        preorder count is a plain uvarint of the root's label value."""
        import struct

        collection = LiveCollection([parse_document("<r><a/><b/></r>")])
        blob = snapshot_bytes(collection)
        document = collection.ordered_documents[0]
        root_value = document.label_of(document.root).value
        # Anchor on the 20-byte generator-state struct (nonzero once primes
        # were issued, so the match is unique); the 4-byte preorder node
        # count follows it, then the root's label value as a uvarint.
        generator = struct.pack(">IIIQ", *document.scheme._generator.state())
        offset = blob.index(generator) + len(generator) + 4
        value, _end = read_uvarint(blob, offset)
        assert value == root_value


#: The v3 WAL of :func:`golden_stream`, recorded before the named node
#: mutations were folded onto one ``apply(op)`` path: a rewrite of the
#: write path must leave every logged byte where it was.
GOLDEN_WAL_HEX = (
    "5250574c03000000000000000100000006f0a2330f0100010101780000000000"
    "00000200000005d11ed961020005017900000000000000030000000599311e3b"
    "030007017a000000000000000400000003a82b6b030400020000000000000005"
    "0000000e4c58f81f070201000500017001000700017100000000000000060000"
    "000570caa6d5070104000600000000000000070000000a154607eb0702030001"
    "017304000800000000000000080000001130b0fb3f050f3c703e3c713e743c2f"
    "713e3c2f703e000000000000000900000001d803833e06"
)


def golden_stream(directory):
    """Each named DurableCollection mutation once, then one apply_batch,
    one add_document and one compact; returns the WAL bytes."""
    col = DurableCollection.create(
        directory, [parse_document("<r><a><a1/><a2/></a><b/><c/></r>")], fsync="never"
    )
    root = col.documents[0]
    a, b, c = root.children
    col.insert_child(a, 1, tag="x")
    col.insert_before(b, tag="y")
    col.insert_after(c, tag="z")
    col.delete(a.children[0])
    col.bulk_insert([(b, 0, "p"), (c, 0, "q")])
    col.bulk_delete([b.children[0]])
    col.apply_batch([BatchOp.insert_after(a, tag="s"), BatchOp.delete(c.children[0])])
    col.add_document(parse_document("<p><q>t</q></p>"))
    col.compact()
    col.close()
    return (directory / WAL_NAME).read_bytes()


class TestOpRecord:
    """One builder and one resolver own the WAL op-record shape."""

    def test_golden_wal_bytes(self, tmp_path):
        assert golden_stream(tmp_path / "col").hex() == GOLDEN_WAL_HEX

    @pytest.mark.parametrize(
        "op",
        [
            lambda n: BatchOp.insert_child(n, 1, tag="x"),
            lambda n: BatchOp.insert_before(n, tag="y"),
            lambda n: BatchOp.insert_after(n, tag="z"),
            lambda n: BatchOp.delete(n),
        ],
        ids=BatchOp.KINDS,
    )
    def test_resolving_a_built_record_gives_back_the_op(self, op):
        roots = [parse_document(DOC), parse_document(DOC)]
        node = roots[1].children[0]  # <a>, preorder position 1 of document 1
        original = op(node)
        record = op_record(
            original.kind, 1, node.document_position(), original.index, original.tag
        )
        resolved = resolve_op(roots, record)
        assert resolved.node is node
        assert (resolved.kind, resolved.index, resolved.tag) == (
            original.kind, original.index, original.tag
        )
        # The built record is one the binary codec encodes without fallback.
        payload = wal_module._encode_payload(record)
        assert payload[0] != 0
        assert wal_module._decode_payload(payload, 3) == record
