"""CRC-valid files whose fields are wrong must still fail typed.

A CRC32 footer only proves the bytes are the ones written; these files
were written wrong (or re-checksummed after damage), so the decoders
themselves must notice:

* bytes left over after the last field (a snapshot's last document, a
  label store's last row);
* a prime label whose self-label does not divide its value.  The bulk
  labeling walk makes its labels without :class:`PrimeLabel`'s check,
  because it computes each value itself; every pair that comes from a
  file is checked before its label is made;
* a snapshot label that divides but is not its parent's label times its
  self-label, or a root label other than ``(1, 1)``.  Such a label passes
  the divisibility check, yet the ancestor test of a scan and the pre/size
  windows then disagree about the restored document, so the restore
  checks the whole chain.
"""

import struct
import zlib

import pytest

from repro.durable.snapshot import read_snapshot, restore_collection, snapshot_bytes
from repro.errors import LabelingError, QueryEvaluationError, SnapshotCorruptError
from repro.labeling.prime import PrimeLabel, PrimeScheme
from repro.query.live import LiveCollection
from repro.query.persist import load_store, save_store
from repro.query.store import LabelStore
from repro.xmlkit.parser import parse_document

DOC = "<r x='1'><a>t</a><b><c/></b></r>"


def with_junk_before_footer(blob, junk):
    """``blob``'s fields plus ``junk``, under a recomputed CRC32 footer."""
    body = blob[:-4] + junk
    return body + struct.pack(">I", zlib.crc32(body))


def forged(value, self_label):
    """A label that skips the constructor's check, as damaged bytes would."""
    label = object.__new__(PrimeLabel)
    object.__setattr__(label, "value", value)
    object.__setattr__(label, "self_label", self_label)
    return label


class TestTrailingBytes:
    def test_snapshot_with_trailing_bytes_is_corrupt(self, tmp_path):
        path = tmp_path / "snap.rpsn"
        blob = snapshot_bytes(LiveCollection([parse_document(DOC)]))
        path.write_bytes(blob)
        read_snapshot(path)  # the untouched file reads
        path.write_bytes(with_junk_before_footer(blob, b"\x00" * 6))
        with pytest.raises(SnapshotCorruptError, match="6 trailing bytes"):
            read_snapshot(path)

    def test_store_with_trailing_bytes_is_corrupt(self, tmp_path):
        path = tmp_path / "store.rpls"
        save_store(LabelStore.build([parse_document(DOC)], "interval"), path)
        blob = path.read_bytes()
        assert len(load_store(path)) == 4
        path.write_bytes(with_junk_before_footer(blob, b"\x01\x02\x03\x04"))
        with pytest.raises(QueryEvaluationError, match="4 trailing bytes"):
            load_store(path)


class TestUntrustedLabelsAreChecked:
    def test_snapshot_with_a_label_that_does_not_divide(self, tmp_path):
        collection = LiveCollection([parse_document(DOC)])
        scheme = collection.ordered_documents[0].scheme
        node = collection.documents[0].children[0]
        # The writer checksums whatever it is handed: a valid CRC over a
        # label pair no walk could have made.
        scheme._labels[id(node)] = forged(15, 4)
        path = tmp_path / "snap.rpsn"
        path.write_bytes(snapshot_bytes(collection))
        state = read_snapshot(path)
        with pytest.raises(SnapshotCorruptError, match="does not divide"):
            restore_collection(state)

    def test_store_row_with_a_label_that_does_not_divide(self, tmp_path):
        store = LabelStore.build([parse_document(DOC)], "prime")
        store.rows[1].label = forged(15, 4)
        path = tmp_path / "store.rpls"
        save_store(store, path)
        with pytest.raises(QueryEvaluationError, match="does not divide"):
            load_store(path)


CHAIN_DOC = "<r><a><b/></a><c/></r>"


def snapshot_with_label(tmp_path, preorder_index, label):
    """A CRC-valid snapshot of CHAIN_DOC whose node at ``preorder_index``
    carries ``label``: the writer checksums whatever it is handed."""
    collection = LiveCollection([parse_document(CHAIN_DOC)])
    scheme = collection.ordered_documents[0].scheme
    node = list(collection.documents[0].iter_preorder())[preorder_index]
    scheme._labels[id(node)] = label
    path = tmp_path / "snap.rpsn"
    path.write_bytes(snapshot_bytes(collection))
    return path


class TestParentChainIsChecked:
    def test_the_untouched_labels_chain(self, tmp_path):
        collection = LiveCollection([parse_document(CHAIN_DOC)])
        scheme = collection.ordered_documents[0].scheme
        labels = [
            (scheme.label_of(node).value, scheme.label_of(node).self_label)
            for node in collection.documents[0].iter_preorder()
        ]
        assert labels == [(1, 1), (2, 2), (6, 3), (5, 5)]
        path = snapshot_with_label(tmp_path, 2, PrimeLabel(6, 3))
        restore_collection(read_snapshot(path))

    def test_a_dividing_label_off_its_parent_chain(self, tmp_path):
        # 3 divides 303, so the pair passes the divisibility check, but b's
        # parent a holds 2 and 2 * 3 is 6: a scan would miss a//b.
        path = snapshot_with_label(tmp_path, 2, PrimeLabel(303, 3))
        state = read_snapshot(path)
        with pytest.raises(SnapshotCorruptError, match="parent's label 2"):
            restore_collection(state)

    def test_a_root_label_other_than_one(self, tmp_path):
        path = snapshot_with_label(tmp_path, 0, PrimeLabel(7, 7))
        state = read_snapshot(path)
        with pytest.raises(SnapshotCorruptError, match=r"root's label is \(7, 7\)"):
            restore_collection(state)

    def test_a_zero_self_label_under_a_zero_value(self):
        # 0 == 2 * 0, so only the self-label bound catches this pair.
        scheme = PrimeScheme(reserved_primes=0, power2_leaves=False)
        labels = [(1, 1), (2, 2), (0, 0), (5, 5)]
        with pytest.raises(LabelingError, match="self_label 0 does not divide"):
            scheme.restore_state(parse_document(CHAIN_DOC), labels, (0, 0, 3, 3))
