"""Unit tests for the label codecs (fixed-width and varint)."""

import random
import time

import pytest

from repro.errors import LabelingError
from repro.labeling.codec import (
    MAX_VARINT_FIELD_BYTES,
    FieldReader,
    FieldWriter,
    FixedWidthCodec,
    VarintCodec,
    ints_to_label,
    label_to_ints,
    read_uvarint,
    write_uvarint,
)
from repro.labeling.dewey import DeweyScheme
from repro.labeling.interval import (
    FloatIntervalScheme,
    OrderSizeLabel,
    StartEndIntervalScheme,
    StartEndLabel,
    XissIntervalScheme,
)
from repro.labeling.prefix import Bits, Prefix2Scheme
from repro.labeling.prime import PrimeLabel, PrimeScheme
from repro.xmlkit.parser import parse_document

ALL_SCHEMES = [
    XissIntervalScheme,
    StartEndIntervalScheme,
    Prefix2Scheme,
    DeweyScheme,
    lambda: PrimeScheme(reserved_primes=0, power2_leaves=False),
]


class TestLabelToInts:
    def test_prime(self):
        assert label_to_ints(PrimeLabel(value=30, self_label=5)) == (30, 5)

    def test_interval(self):
        assert label_to_ints(OrderSizeLabel(order=3, size=7)) == (3, 7)
        assert label_to_ints(StartEndLabel(start=1, end=12)) == (1, 12)

    def test_bits(self):
        assert label_to_ints(Bits.from_string("1101")) == (4, 13)

    def test_dewey(self):
        assert label_to_ints((1, 4, 2)) == (1, 4, 2)
        assert label_to_ints(()) == ()

    def test_fractional_interval_rejected(self):
        from fractions import Fraction

        with pytest.raises(LabelingError):
            label_to_ints(StartEndLabel(start=Fraction(3, 2), end=Fraction(2)))

    def test_unsupported_type_rejected(self):
        with pytest.raises(LabelingError):
            label_to_ints("not-a-label")

    def test_round_trip_all_kinds(self):
        for kind, label in [
            ("prime", PrimeLabel(value=30, self_label=5)),
            ("order-size", OrderSizeLabel(order=3, size=7)),
            ("start-end", StartEndLabel(start=1, end=12)),
            ("bits", Bits.from_string("0101")),
            ("dewey", (2, 3)),
        ]:
            assert ints_to_label(kind, label_to_ints(label)) == label

    def test_unknown_kind_rejected(self):
        with pytest.raises(LabelingError):
            ints_to_label("mystery", (1, 2))

    def test_bare_int_labels(self):
        assert label_to_ints(42) == (42,)
        assert ints_to_label("int", (42,)) == 42

    def test_bottomup_scheme_round_trips(self, paper_tree):
        from repro.labeling.prime import BottomUpPrimeScheme

        scheme = BottomUpPrimeScheme().label_tree(paper_tree)
        codec = VarintCodec.for_scheme(scheme)
        column = codec.encode_column(scheme)
        assert codec.decode_column(column) == [
            scheme.label_of(n) for n in scheme.labeled_nodes()
        ]


class TestFixedWidthCodec:
    @pytest.mark.parametrize("factory", ALL_SCHEMES)
    def test_round_trips_whole_document(self, factory, any_tree):
        scheme = factory().label_tree(any_tree)
        codec = FixedWidthCodec.for_scheme(scheme)
        for node in any_tree.iter_preorder():
            label = scheme.label_of(node)
            assert codec.decode(codec.encode(label)) == label

    def test_record_size_fixed(self, paper_tree):
        scheme = PrimeScheme().label_tree(paper_tree)
        codec = FixedWidthCodec.for_scheme(scheme)
        sizes = {
            len(codec.encode(scheme.label_of(node)))
            for node in paper_tree.iter_preorder()
        }
        assert sizes == {codec.record_bytes}

    def test_column_round_trip(self, paper_tree):
        scheme = XissIntervalScheme().label_tree(paper_tree)
        codec = FixedWidthCodec.for_scheme(scheme)
        column = codec.encode_column(scheme)
        labels = codec.decode_column(column)
        assert labels == [scheme.label_of(n) for n in scheme.labeled_nodes()]

    def test_oversized_field_rejected(self):
        codec = FixedWidthCodec("prime", 2, 1)
        with pytest.raises(LabelingError):
            codec.encode(PrimeLabel(value=70000, self_label=7))

    def test_bad_blob_length_rejected(self):
        codec = FixedWidthCodec("prime", 2, 2)
        with pytest.raises(LabelingError):
            codec.decode(b"abc")

    def test_bad_column_length_rejected(self):
        codec = FixedWidthCodec("prime", 2, 2)
        with pytest.raises(LabelingError):
            codec.decode_column(b"abcde")

    def test_dewey_padding_unambiguous(self, paper_tree):
        scheme = DeweyScheme().label_tree(paper_tree)
        codec = FixedWidthCodec.for_scheme(scheme)
        root_label = scheme.label_of(paper_tree)
        assert codec.decode(codec.encode(root_label)) == ()

    def test_empty_scheme_rejected(self):
        with pytest.raises(LabelingError):
            FixedWidthCodec.for_scheme(PrimeScheme())

    def test_bad_construction(self):
        with pytest.raises(LabelingError):
            FixedWidthCodec("prime", 0, 2)


class TestVarintCodec:
    @pytest.mark.parametrize("factory", ALL_SCHEMES)
    def test_round_trips_whole_document(self, factory, any_tree):
        scheme = factory().label_tree(any_tree)
        codec = VarintCodec.for_scheme(scheme)
        column = codec.encode_column(scheme)
        labels = codec.decode_column(column)
        assert labels == [scheme.label_of(n) for n in scheme.labeled_nodes()]

    def test_small_values_one_byte(self):
        codec = VarintCodec("dewey")
        assert len(codec.encode((1,))) == 2  # count byte + one value byte

    def test_multibyte_varint(self):
        codec = VarintCodec("prime")
        label = PrimeLabel(value=2**40, self_label=2**40)
        decoded, _offset = codec.decode(codec.encode(label))
        assert decoded == label
        # A Dewey label of 128+ components: the field count is multibyte.
        codec = VarintCodec("dewey")
        for depth in (127, 128, 300):
            label = tuple(range(1, depth + 1))
            blob = codec.encode(label)
            assert codec.decode(blob) == (label, len(blob))

    def test_truncated_blob_rejected(self):
        codec = VarintCodec("prime")
        blob = codec.encode(PrimeLabel(value=300, self_label=300))
        with pytest.raises(LabelingError):
            codec.decode(blob[:-1])

    def test_varint_beats_fixed_on_skewed_labels(self):
        """One huge label forces fixed-width to pad everything."""
        from repro.xmlkit.builder import element
        from repro.datasets.random_tree import chain_tree

        tree = chain_tree(20)
        scheme = PrimeScheme(reserved_primes=0, power2_leaves=False).label_tree(tree)
        fixed = FixedWidthCodec.for_scheme(scheme)
        varint = VarintCodec.for_scheme(scheme)
        assert len(varint.encode_column(scheme)) < len(fixed.encode_column(scheme))


def _random_label(kind: str, rng: random.Random):
    """One random label of ``kind`` spanning 1-bit to ~200-bit fields."""

    def value() -> int:
        return rng.getrandbits(rng.randint(1, 200))

    if kind == "prime":
        # PrimeLabel enforces self_label | value, as divisibility is the
        # whole point of the scheme.
        self_label = value() or 1
        return PrimeLabel(value=self_label * value(), self_label=self_label)
    if kind == "order-size":
        return OrderSizeLabel(order=value(), size=value())
    if kind == "start-end":
        start = value()
        return StartEndLabel(start=start, end=start + value())
    if kind == "bits":
        length = rng.randint(0, 200)
        return Bits(rng.getrandbits(length) if length else 0, length)
    if kind == "dewey":
        return tuple(1 + value() for _ in range(rng.randint(0, 6)))
    raise AssertionError(kind)


class TestRandomizedRoundTrips:
    """Property tests: encode∘decode is the identity for every label kind,
    under both codecs, across randomized magnitudes."""

    KINDS = ("prime", "order-size", "start-end", "bits", "dewey")

    @pytest.mark.parametrize("kind", KINDS)
    def test_varint_round_trip(self, kind):
        rng = random.Random(20240 + self.KINDS.index(kind))
        codec = VarintCodec(kind)
        for _ in range(200):
            label = _random_label(kind, rng)
            decoded, end = codec.decode(codec.encode(label))
            assert decoded == label
            assert end == len(codec.encode(label))

    @pytest.mark.parametrize("kind", KINDS)
    def test_fixed_round_trip(self, kind):
        rng = random.Random(30240 + self.KINDS.index(kind))
        for _ in range(100):
            labels = [_random_label(kind, rng) for _ in range(rng.randint(1, 8))]
            if kind == "dewey":
                # Zero-padding is how FixedWidthCodec pads short Dewey
                # tuples, so ordinals are 1-based by construction.
                assert all(all(part > 0 for part in label) for label in labels)
            field_count = max(1, max(len(label_to_ints(l)) for l in labels))
            widest = max(
                (part for l in labels for part in label_to_ints(l)), default=0
            )
            codec = FixedWidthCodec(
                kind, field_count, max(1, (widest.bit_length() + 7) // 8)
            )
            for label in labels:
                assert codec.decode(codec.encode(label)) == label

    @pytest.mark.parametrize("kind", KINDS)
    def test_varint_column_round_trip(self, kind):
        rng = random.Random(40240 + self.KINDS.index(kind))
        codec = VarintCodec(kind)
        labels = [_random_label(kind, rng) for _ in range(50)]
        column = b"".join(codec.encode(label) for label in labels)
        assert codec.decode_column(column) == labels

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_truncation_rejected(self, kind):
        """No proper prefix of an encoded label decodes: the field count
        demands missing fields and a cut varint's last byte still has its
        continuation bit set, so every cut surfaces as truncation."""
        rng = random.Random(50240 + self.KINDS.index(kind))
        codec = VarintCodec(kind)
        for _ in range(20):
            blob = codec.encode(_random_label(kind, rng))
            for cut in range(len(blob)):
                with pytest.raises(LabelingError):
                    codec.decode(blob[:cut])


class TestVarintFieldBound:
    """The anti-flood cap of read_uvarint/write_uvarint (bugfix: a crafted
    run of 0x80 continuation bytes must fail fast, not allocate)."""

    def test_continuation_flood_rejected(self):
        flood = b"\x80" * (MAX_VARINT_FIELD_BYTES * 8 // 7 + 2)
        with pytest.raises(LabelingError, match="bound"):
            read_uvarint(flood, 0)

    def test_flood_inside_a_label_rejected(self):
        codec = VarintCodec("prime")
        blob = b"\x02" + b"\x80" * (2 * MAX_VARINT_FIELD_BYTES)
        with pytest.raises(LabelingError):
            codec.decode(blob)

    def test_oversized_field_count_rejected(self):
        """A record claiming more fields than bytes remain is corruption."""
        codec = VarintCodec("dewey")
        out = []
        write_uvarint(10_000, out)
        with pytest.raises(LabelingError, match="fields"):
            codec.decode(bytes(out) + b"\x01\x01")

    def test_write_side_cap_matches_read_side(self):
        too_big = 1 << (MAX_VARINT_FIELD_BYTES * 8 + 1)
        with pytest.raises(LabelingError):
            write_uvarint(too_big, [])

    def test_negative_rejected(self):
        with pytest.raises(LabelingError):
            write_uvarint(-1, [])

    def test_large_values_round_trip(self):
        # Far past any real label but far below the cap: the bound must
        # not bite legitimate multi-kilobit prime products.
        value = (1 << 5000) - 3
        out = []
        write_uvarint(value, out)
        decoded, end = read_uvarint(bytes(out), 0)
        assert decoded == value and end == len(out)


def _leb128(value):
    """A reference LEB128 encoder, seven bits at a time."""
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _deep_label_value():
    """The full label of the innermost of twelve nested elements."""
    root = parse_document("<n>" * 12 + "</n>" * 12)
    scheme = PrimeScheme()
    scheme.label_tree(root)
    return scheme.label_of(list(root.iter_preorder())[-1]).value


class TestVarintBoundaries:
    """Every varint width edge, through the writer's and the reader's
    one-byte fast paths and their loops.  The pinned bytes are the LEB128
    encodings the format has always written."""

    PINNED = [
        (0, "00"),
        (127, "7f"),
        (128, "8001"),
        (2**14 - 1, "ff7f"),
        (2**14, "808001"),
        (2**63 - 1, "ffffffffffffffff7f"),
        (2**64, "80808080808080808002"),
    ]

    @pytest.mark.parametrize("value, encoded", PINNED, ids=lambda v: str(v))
    def test_pinned_bytes_round_trip(self, value, encoded):
        out = FieldWriter()
        out.uvarint(value)
        assert bytes(out.buffer) == bytes.fromhex(encoded) == _leb128(value)
        listed = []
        write_uvarint(value, listed)
        assert bytes(listed) == bytes(out.buffer)
        reader = FieldReader(bytes(out.buffer), LabelingError, "varint")
        assert reader.uvarint() == value
        assert reader.remaining == 0

    def test_a_real_label_product_round_trips(self):
        value = _deep_label_value()
        assert value.bit_length() > 64  # wider than any machine word
        out = FieldWriter()
        out.uvarint(value)
        assert bytes(out.buffer) == bytes.fromhex("c6b886ffaaa39ea38ae8bc02")
        assert bytes(out.buffer) == _leb128(value)
        assert read_uvarint(bytes(out.buffer), 0) == (value, len(out.buffer))

    def test_a_run_of_varints_reads_back_in_order(self):
        values = [value for value, _ in self.PINNED] + [_deep_label_value()]
        out = FieldWriter()
        for value in values:
            out.uvarint(value)
        reader = FieldReader(bytes(out.buffer), LabelingError, "varint")
        assert [reader.uvarint() for _ in values] == values
        assert reader.remaining == 0

    @pytest.mark.parametrize("value", [-1, -128, -(2**64)])
    def test_negative_values_raise_on_the_fast_path(self, value):
        with pytest.raises(LabelingError, match="unsigned"):
            FieldWriter().uvarint(value)
        with pytest.raises(LabelingError, match="unsigned"):
            write_uvarint(value, [])

    def test_the_bit_bound_is_exact(self):
        # The reader takes at most ceil(bits / 7) bytes of one field: the
        # last continuation byte it may read still has a shift below the
        # bound, and the byte after it is never read.
        run = -(-(MAX_VARINT_FIELD_BYTES * 8) // 7)
        longest = b"\x80" * (run - 1) + b"\x01"
        value, end = read_uvarint(longest, 0)
        assert value == 1 << (7 * (run - 1)) and end == run
        with pytest.raises(LabelingError, match="bound"):
            read_uvarint(b"\x80" * run + b"\x01", 0)

    def test_a_continuation_run_past_the_bound_fails_before_the_end(self):
        flood = b"\x80" * (2 * MAX_VARINT_FIELD_BYTES)
        with pytest.raises(LabelingError, match="bound"):
            read_uvarint(flood, 0)

    def test_a_cut_varint_is_truncated_not_bounded(self):
        for cut in range(1, 10):
            with pytest.raises(LabelingError, match="truncated varint"):
                read_uvarint(b"\xff" * cut, 0)
        with pytest.raises(LabelingError, match="truncated varint"):
            read_uvarint(b"", 0)

    def test_the_reader_stops_at_its_end_not_the_blob(self):
        # A field ending at ``end`` never borrows the bytes after it.
        blob = b"\x85" + b"\x01"
        reader = FieldReader(blob, LabelingError, "varint", end=1)
        with pytest.raises(LabelingError, match="truncated varint"):
            reader.uvarint()
        assert FieldReader(blob, LabelingError, "varint").uvarint() == 5 | 1 << 7


class TestLongVarints:
    """Past its byte-by-byte prefix the reader finds a run's end before it
    accumulates anything, so every run, whatever its payload bits, costs
    time linear in its length: a crafted run fails fast, a long value
    still reads back."""

    RUN = -(-(MAX_VARINT_FIELD_BYTES * 8) // 7)

    def test_a_flood_of_full_payload_bytes_fails_fast(self):
        # Each 0xFF byte carries seven set bits, so accumulating the run
        # byte by byte builds a growing integer: minutes, not milliseconds.
        started = time.monotonic()
        with pytest.raises(LabelingError, match="bound"):
            read_uvarint(b"\xff" * (self.RUN + 2), 0)
        assert time.monotonic() - started < 10

    def test_a_flood_cut_by_the_end_is_truncated(self):
        with pytest.raises(LabelingError, match="truncated varint"):
            read_uvarint(b"\xff" * (self.RUN // 2), 0)

    def test_the_longest_full_payload_varint_reads_back(self):
        started = time.monotonic()
        value, end = read_uvarint(b"\xff" * (self.RUN - 1) + b"\x7f", 0)
        assert value == (1 << 7 * self.RUN) - 1 and end == self.RUN
        assert time.monotonic() - started < 10

    @pytest.mark.parametrize("bits", [71, 77, 78, 500, 4093, 40_000, 80_001])
    def test_a_multi_kilobyte_varint_round_trips(self, bits):
        value = random.Random(bits).getrandbits(bits) | 1 << (bits - 1)
        out = FieldWriter()
        out.uvarint(value)
        out.uvarint(5)
        assert bytes(out.buffer[:-1]) == _leb128(value)
        reader = FieldReader(bytes(out.buffer), LabelingError, "varint")
        assert reader.uvarint() == value
        assert reader.uvarint() == 5
        assert reader.remaining == 0


#: One value at each varint width edge, up to past the ten bytes the pair
#: methods code inline.
EDGES = sorted({0, 1} | {(1 << 7 * width) + delta for width in range(1, 13) for delta in (-1, 0)})


class TestVarintPairs:
    """A section of pairs is the bytes of ``uvarint`` on each value in
    turn, and reads back through the same bounds and errors."""

    @staticmethod
    def pairs():
        rng = random.Random(7)
        values = EDGES + [rng.getrandbits(rng.randrange(1, 100)) for _ in range(200)]
        rng.shuffle(values)
        return list(zip(values[0::2], values[1::2]))

    def test_the_bytes_are_one_uvarint_per_value(self):
        pairs = self.pairs()
        together = FieldWriter()
        together.uvarint_pairs(pairs)
        one_by_one = FieldWriter()
        for first, second in pairs:
            one_by_one.uvarint(first)
            one_by_one.uvarint(second)
        assert together.buffer == one_by_one.buffer
        assert bytes(together.buffer) == b"".join(
            _leb128(value) for pair in pairs for value in pair
        )

    def test_a_section_reads_back(self):
        pairs = self.pairs()
        out = FieldWriter()
        out.uvarint(3)
        out.uvarint_pairs(pairs)
        out.uvarint_pairs([])
        out.uvarint(9)
        reader = FieldReader(bytes(out.buffer), LabelingError, "pairs")
        assert reader.uvarint() == 3
        assert reader.uvarint_pairs(len(pairs)) == pairs
        assert reader.uvarint_pairs(0) == []
        assert reader.uvarint() == 9
        assert reader.remaining == 0

    def test_every_cut_is_truncated_and_no_byte_past_end_is_read(self):
        pairs = [(3, 1 << 20), (1 << 63, 1 << 90), (200, 0)]
        out = FieldWriter()
        out.uvarint_pairs(pairs)
        body = bytes(out.buffer)
        starts = [0]
        for value in (value for pair in pairs for value in pair):
            starts.append(starts[-1] + len(_leb128(value)))
        for cut in range(len(body)):
            # The bytes past ``end`` would complete any cut varint, so a
            # reader that reads one reports a later byte, or none.
            cut_start = max(start for start in starts if start <= cut)
            reader = FieldReader(body[:cut] + b"\x01" * 16, LabelingError, "pairs", end=cut)
            with pytest.raises(LabelingError, match=f"truncated varint at byte {cut_start}$"):
                reader.uvarint_pairs(len(pairs))

    def test_a_flood_inside_a_section_is_bounded(self):
        blob = b"\x01\x02" + b"\xff" * (TestLongVarints.RUN + 2)
        reader = FieldReader(blob, LabelingError, "pairs")
        with pytest.raises(LabelingError, match="bound") as caught:
            reader.uvarint_pairs(2)
        assert "at byte 2" in str(caught.value)

    @pytest.mark.parametrize("value", [-1, -200, -(2**80)])
    def test_negative_values_are_refused(self, value):
        with pytest.raises(LabelingError, match="unsigned"):
            FieldWriter().uvarint_pairs([(1, value)])

    def test_the_write_side_bound_holds(self):
        with pytest.raises(LabelingError, match="bound"):
            FieldWriter().uvarint_pairs([(1 << (MAX_VARINT_FIELD_BYTES * 8 + 1), 0)])


class TestFixedWidthFormats:
    """Every fixed-width field is big-endian and unsigned, on both sides."""

    @pytest.mark.parametrize("fmt", [">h", ">i", ">IIIhI", "<H", "H", ">", ">2H"])
    def test_any_other_format_fails_its_first_use(self, fmt):
        with pytest.raises(LabelingError, match="not big-endian unsigned"):
            FieldWriter().pack(fmt, 1)
        with pytest.raises(LabelingError, match="not big-endian unsigned"):
            FieldWriter().string(fmt, "x")
        reader = FieldReader(b"\x00" * 16, LabelingError, "field")
        with pytest.raises(LabelingError, match="not big-endian unsigned"):
            reader.unpack(fmt)
        with pytest.raises(LabelingError, match="not big-endian unsigned"):
            reader.string(fmt)

    @pytest.mark.parametrize(
        "fmt, value",
        [(">B", 0xFF), (">H", 0xFFFF), (">I", 2**32 - 1), (">Q", 2**64 - 1)],
    )
    def test_each_unsigned_width_holds_its_maximum(self, fmt, value):
        out = FieldWriter()
        out.pack(fmt, value)
        reader = FieldReader(bytes(out.buffer), LabelingError, "field")
        assert reader.unpack(fmt) == (value,)
        with pytest.raises(LabelingError, match="cannot hold"):
            FieldWriter().pack(fmt, value + 1)
