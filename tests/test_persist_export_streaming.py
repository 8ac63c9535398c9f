"""Tests for persistence, exhibit export, and streaming labelers."""

import struct
import zlib

import pytest

from repro.bench.export import (
    exhibit_builders,
    export_all_exhibits,
    table_to_csv,
    table_to_json,
)
from repro.bench.harness import ResultTable
from repro.datasets.shakespeare import play
from repro.errors import LabelingError, QueryEvaluationError
from repro.labeling.codec import VarintCodec
from repro.labeling.dewey import DeweyScheme
from repro.labeling.interval import StartEndIntervalScheme
from repro.labeling.prime import PrimeScheme
from repro.query.engine import QueryEngine
from repro.query.live import LiveCollection
from repro.query.persist import load_store, save_store
from repro.query.store import LabelStore
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serialize import serialize
from repro.xmlkit.streaming import stream_labels, stream_prime_labels
from repro.xmlkit.tree import from_child_counts

DOC = "<play><title/><act><scene><speech><line/><line/></speech></scene></act></play>"


class TestExport:
    def make_table(self):
        table = ResultTable(title="T", columns=("k", "v"), note="n")
        table.add_row("a", 1)
        table.add_row("b", 2)
        return table

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        table_to_csv(self.make_table(), path)
        import csv

        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["k", "v"], ["a", "1"], ["b", "2"]]

    def test_json_payload(self, tmp_path):
        path = tmp_path / "t.json"
        table_to_json(self.make_table(), path)
        import json

        payload = json.loads(path.read_text())
        assert payload["title"] == "T"
        assert payload["rows"][1] == {"k": "b", "v": 2}

    def test_exhibit_builders_registry(self):
        quick = exhibit_builders(include_slow=False)
        full = exhibit_builders(include_slow=True)
        assert set(quick) <= set(full)
        assert "fig18" in full and "fig18" not in quick

    def test_export_all_quick(self, tmp_path):
        written = export_all_exhibits(tmp_path, include_slow=False)
        names = {p.name for p in written}
        assert "fig4.csv" in names and "table1.json" in names
        assert all(p.stat().st_size > 0 for p in written)


def chain(length, tag="c", text=""):
    """A ``length``-node chain, built bottom-up; its deepest row has depth
    ``length - 1``.  The second node carries ``tag`` and ``text``."""
    counts = [1] * (length - 1) + [0]
    rows = [("c", {}, "", count) for count in counts]
    rows[1] = (tag, {}, text, counts[1])
    return from_child_counts(rows)


class TestPersist:
    @pytest.mark.parametrize("scheme", ["prime", "interval", "prefix-2"])
    def test_round_trip_preserves_rows(self, tmp_path, scheme):
        documents = [parse_document(DOC), play(seed=2)]
        if scheme == "interval":
            # Each 2-byte row field at its format's maximum: the depth, a
            # tag and a text.  Only interval labels stay small on a chain.
            documents.append(chain(0x10000, tag="t" * 0xFFFF, text="x" * 0xFFFF))
        store = LabelStore.build(documents, scheme=scheme)
        path = tmp_path / "store.bin"
        written = save_store(store, path)
        assert written == path.stat().st_size > 0
        loaded = load_store(path)
        assert len(loaded) == len(store)
        for original, restored in zip(store.rows, loaded.rows):
            assert (original.doc_id, original.element_id) == (
                restored.doc_id, restored.element_id,
            )
            assert original.tag == restored.tag
            assert original.label == restored.label
            assert original.depth == restored.depth
            assert original.parent_id == restored.parent_id
            assert original.text == restored.text

    @pytest.mark.parametrize("scheme", ["prime", "interval", "prefix-2"])
    def test_loaded_store_answers_queries_identically(self, tmp_path, scheme):
        documents = [parse_document(DOC), play(seed=2)]
        store = LabelStore.build(documents, scheme=scheme)
        path = tmp_path / "store.bin"
        save_store(store, path)
        loaded = load_store(path)
        queries = (
            "/play//line",
            "/PLAY//SPEECH[2]",
            "/act//Following::line",
            "/SPEECH//Following-Sibling::SPEECH",
        )
        before = QueryEngine(store)
        after = QueryEngine(loaded)
        for query in queries:
            assert [r.element_id for r in before.evaluate(query)] == [
                r.element_id for r in after.evaluate(query)
            ], (scheme, query)

    def test_reloaded_mutated_store_keeps_document_order(self, tmp_path):
        # An insert draws a larger prime than the nodes after it, so the
        # reload must take order from the file's per-document preorder,
        # not from ascending primes.
        live = LiveCollection([parse_document(DOC), play(seed=2)])
        live.insert_child(live.documents[0], 0, tag="prologue")
        live.insert_child(live.documents[0].children[2], 0, tag="prologue")
        live.delete(live.documents[1].children[1])
        path = tmp_path / "store.bin"
        save_store(live.engine.store, path)
        loaded = load_store(path)
        queries = (
            "/play/*",
            "/play//*",
            "/prologue/Following::*",
            "/line/Preceding::*",
            "/act//Following-Sibling::*",
            "/PLAY/*",
            "/SPEECH//Following::LINE",
        )
        for strategy in ("scan", "auto"):
            engine = QueryEngine(loaded, strategy=strategy)
            for query in queries:
                assert [r.element_id for r in engine.evaluate(query)] == [
                    r.element_id for r in live.query(query)
                ], (strategy, query)

    @pytest.mark.parametrize(
        "length, tag, text",
        [(0x10001, "c", ""), (2, "c", "x" * 0x10000), (2, "t" * 0x10000, "")],
        ids=["depth", "text", "tag"],
    )
    def test_a_field_past_its_maximum_is_a_labeling_error(
        self, tmp_path, length, tag, text
    ):
        store = LabelStore.build([chain(length, tag, text)], scheme="interval")
        path = tmp_path / "store.bin"
        with pytest.raises(LabelingError, match="cannot hold .*65536"):
            save_store(store, path)
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(QueryEvaluationError):
            load_store(path)

    def test_rows_that_are_not_a_preorder_rejected(self, tmp_path):
        # A file whose CRC holds but whose rows are no preorder must not
        # load: window columns over such rows would answer wrongly.
        store = LabelStore.build([parse_document(DOC)], scheme="prime")
        path = tmp_path / "store.bin"
        save_store(store, path)
        blob = bytearray(path.read_bytes()[:-4])
        offset = 6 + blob[5]  # magic, version, scheme name
        offset += 1 + blob[offset]  # codec kind
        (tag_count,) = struct.unpack_from(">I", blob, offset)
        offset += 4
        for _ in range(tag_count):
            (length,) = struct.unpack_from(">H", blob, offset)
            offset += 2 + length
        offset += 4 + 18  # row count, then the root row's fixed fields
        _, offset = VarintCodec("prime").decode(bytes(blob), offset)
        (text_length,) = struct.unpack_from(">H", blob, offset)
        offset += 2 + text_length
        # The second row (<title/>, depth 1) now claims depth 3 under a root.
        struct.pack_into(">H", blob, offset + 12, 3)
        path.write_bytes(bytes(blob) + struct.pack(">I", zlib.crc32(blob)))
        with pytest.raises(QueryEvaluationError, match="not a preorder"):
            load_store(path)

    def test_truncated_file_rejected(self, tmp_path):
        documents = [parse_document(DOC)]
        store = LabelStore.build(documents, scheme="interval")
        path = tmp_path / "store.bin"
        save_store(store, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(QueryEvaluationError):
            load_store(path)


class TestStreaming:
    def test_prime_matches_tree_labeling(self):
        text = serialize(play(seed=5))
        tree = parse_document(text)
        scheme = PrimeScheme(reserved_primes=0, power2_leaves=False)
        scheme.label_tree(tree)
        streamed = list(stream_prime_labels(text))
        nodes = list(tree.iter_preorder())
        assert len(streamed) == len(nodes)
        for record, node in zip(streamed, nodes):
            assert record.tag == node.tag
            assert record.depth == node.depth
            assert record.label == scheme.label_of(node)

    def test_startend_matches_tree_labeling(self):
        text = serialize(play(seed=5))
        tree = parse_document(text)
        scheme = StartEndIntervalScheme().label_tree(tree)
        by_start = {
            scheme.label_of(node).start: node for node in tree.iter_preorder()
        }
        for record in stream_labels(text, "interval-startend"):
            node = by_start[record.label.start]
            assert scheme.label_of(node) == record.label
            assert node.tag == record.tag

    def test_dewey_matches_tree_labeling(self):
        text = serialize(play(seed=5))
        tree = parse_document(text)
        scheme = DeweyScheme().label_tree(tree)
        streamed = list(stream_labels(text, "dewey"))
        for record, node in zip(streamed, tree.iter_preorder()):
            assert record.label == scheme.label_of(node)

    def test_paths_are_root_anchored(self):
        records = list(stream_prime_labels(DOC))
        assert records[0].path == "/play"
        assert records[-1].path == "/play/act/scene/speech/line"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            list(stream_labels(DOC, scheme="prefix-2"))

    def test_streaming_is_lazy(self):
        iterator = stream_prime_labels(DOC)
        first = next(iterator)
        assert first.tag == "play"
