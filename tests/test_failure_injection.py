"""Failure injection: corrupted inputs must fail loudly, never wrongly.

Random corruption of persisted stores and malformed data paths: the
library must raise its own exception types (never IndexError/struct.error
leaking out, and never silently return wrong data structures).
"""

import random
from pathlib import Path

import pytest

from repro.errors import LabelingError, QueryEvaluationError, ReproError, XmlSyntaxError
from repro.labeling.codec import FixedWidthCodec, VarintCodec
from repro.query.engine import QueryEngine
from repro.query.persist import load_store, save_store
from repro.query.store import LabelStore
from repro.xmlkit.parser import parse_document

DOC = "<r><a>x</a><b><c/><c/></b></r>"
#: ``store-prime-v{1,2}.rpls`` there: DOC's prime store, recorded by the
#: last legacy writers.
LEGACY = Path(__file__).parent / "fixtures" / "legacy"


@pytest.fixture
def store_file(tmp_path):
    store = LabelStore.build([parse_document(DOC)], scheme="interval")
    path = tmp_path / "store.bin"
    save_store(store, path)
    return path


class TestCorruptedStoreFiles:
    def test_truncations_never_crash(self, store_file):
        blob = store_file.read_bytes()
        for cut in range(0, len(blob), max(len(blob) // 40, 1)):
            store_file.write_bytes(blob[:cut])
            try:
                load_store(store_file)
            except ReproError:
                pass  # the only acceptable failure mode

    def test_random_byte_flips_never_crash(self, store_file):
        blob = bytearray(store_file.read_bytes())
        rng = random.Random(5)
        for _ in range(60):
            corrupted = bytearray(blob)
            position = rng.randrange(len(corrupted))
            corrupted[position] ^= 1 << rng.randrange(8)
            store_file.write_bytes(bytes(corrupted))
            try:
                loaded = load_store(store_file)
                # a surviving load must still be internally consistent
                # enough to answer a query without crashing
                QueryEngine(loaded).evaluate("/r//c")
            except ReproError:
                pass
            except (KeyError, ValueError) as error:
                pytest.fail(f"leaked low-level exception: {error!r}")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(QueryEvaluationError):
            load_store(path)


class TestStoreChecksum:
    """The v2 RPLS footer: corruption is *detected*, not merely survived."""

    def test_v3_is_the_default_and_round_trips(self, tmp_path):
        store = LabelStore.build([parse_document(DOC)], scheme="prime")
        path = tmp_path / "store.bin"
        save_store(store, path)
        assert path.read_bytes()[4] == 3  # version byte
        loaded = load_store(path)
        assert len(QueryEngine(loaded).evaluate("/r//c")) == 2

    def test_v2_files_remain_readable(self):
        path = LEGACY / "store-prime-v2.rpls"
        assert path.read_bytes()[4] == 2
        loaded = load_store(path)
        assert len(QueryEngine(loaded).evaluate("/r//c")) == 2

    def test_v1_files_remain_readable(self):
        path = LEGACY / "store-prime-v1.rpls"
        assert path.read_bytes()[4] == 1
        loaded = load_store(path)
        assert len(QueryEngine(loaded).evaluate("/r//c")) == 2

    def test_every_bit_flip_in_a_v2_store_is_rejected(self, tmp_path):
        """With the CRC footer, *silent* acceptance of damage is over: every
        single-bit flip must raise, where v1 only promised not to crash."""
        store = LabelStore.build([parse_document(DOC)], scheme="prime")
        path = tmp_path / "store.bin"
        save_store(store, path)
        blob = path.read_bytes()
        for offset in range(len(blob)):
            for bit in range(8):
                corrupted = bytearray(blob)
                corrupted[offset] ^= 1 << bit
                path.write_bytes(bytes(corrupted))
                with pytest.raises(ReproError):
                    load_store(path)

    def test_every_truncation_of_a_v2_store_is_rejected(self, tmp_path):
        store = LabelStore.build([parse_document(DOC)], scheme="interval")
        path = tmp_path / "store.bin"
        save_store(store, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ReproError):
                load_store(path)


class TestCodecGarbage:
    def test_fixed_codec_garbage_blob(self):
        codec = FixedWidthCodec("prime", 2, 2)
        with pytest.raises(LabelingError):
            codec.decode(b"\xff")

    def test_fixed_codec_inconsistent_prime_fields(self):
        # decoded fields that are not a valid PrimeLabel must raise the
        # library error, not a bare dataclass ValueError escaping unwrapped
        codec = FixedWidthCodec("prime", 2, 2)
        blob = (7).to_bytes(2, "big") + (3).to_bytes(2, "big")  # 3 !| 7
        with pytest.raises((LabelingError, ValueError)):
            codec.decode(blob)

    def test_varint_shift_bomb(self):
        codec = VarintCodec("dewey")
        with pytest.raises(LabelingError):
            codec.decode(b"\xff" * 3)  # truncated continuation chain


class TestParserHostileInput:
    @pytest.mark.parametrize(
        "hostile",
        [
            "<" * 2000,
            "<a " + "x" * 500,
            "<a>" + "&" * 100,
            "<!DOCTYPE " + "[" * 200,
            "<a><![CDATA[" + "x" * 10_000,
        ],
    )
    def test_pathological_inputs_raise_cleanly(self, hostile):
        with pytest.raises(XmlSyntaxError):
            parse_document(hostile)

    def test_deeply_nested_within_reason(self):
        depth = 400
        text = "<a>" * depth + "</a>" * depth
        root = parse_document(text)
        assert root.stats().depth == depth - 1
