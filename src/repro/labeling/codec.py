"""Binary codecs for labels — the storage story of Section 3.1.

The paper's size analysis exists because labels live in database columns:
"it is possible to use a fixed length representation for storing the
labels. In so doing, we can take advantage of the standard DBMS functions
for XML query processing."  This module provides that representation:

* :class:`FixedWidthCodec` — every label of a document encoded at the
  width of the widest one (the paper's fixed-length columns).  Decoding is
  O(1) per label and the column is directly comparable byte-wise for
  integer labels.
* :class:`VarintCodec` — the variable-length (LEB128-style) encoding that
  format v3 of every binary file uses on disk: the RPLS label store, the
  RPSN snapshot, and RPWL WAL payloads all write label integers through
  :meth:`FieldWriter.uvarint` and read them back through
  :meth:`FieldReader.uvarint` (:func:`write_uvarint` and
  :func:`read_uvarint` are the same codec over a list or a blob), which
  bound each field at :data:`MAX_VARINT_FIELD_BYTES` so corrupt
  continuation runs fail fast instead of allocating huge integers.
* :class:`FieldWriter` / :class:`FieldReader` — the one field codec of
  those three formats: a single growing buffer on the write side, a
  bounds-checked cursor over the file's own ``bytes`` on the read side
  (no copy; an explicit ``end`` stops every field at the CRC footer),
  the same field names on both (``pack``/``unpack``, ``uvarint``,
  ``string``), one CRC32 footer (:meth:`FieldWriter.finish`,
  :func:`check_crc_footer`) and one translation of decode failures into
  the caller's typed error (:func:`decoding`).  Both varint methods
  return a one-byte value before their loop starts, and fixed-width
  formats are compiled once.  The snapshot's label, SC-member and
  leaf-counter sections go through :meth:`FieldWriter.uvarint_pairs` and
  :meth:`FieldReader.uvarint_pairs`, one call per section, which code
  varints of up to ten bytes (any label a real document makes) inline
  and hand longer ones to ``uvarint``; its tree section appends and
  reads its fixed-width fields in place (:mod:`repro.durable.snapshot`).
  ``FieldReader.uvarint`` reads at most ten bytes one at a time and
  joins the rest of a longer run in linear time, once it has found the
  run's end within the bound.

Codecs cover every label type in the library: ``PrimeLabel`` (two
integers), interval labels (two integers), prefix ``Bits`` (length +
payload) and Dewey tuples.
"""

from __future__ import annotations

import re
import struct
import zlib
from itertools import chain
from typing import Any, Iterable, List, Optional, Tuple, Type

from repro.errors import LabelingError, ReproError
from repro.labeling.base import LabelingScheme
from repro.labeling.interval import OrderSizeLabel, StartEndLabel
from repro.labeling.prefix import Bits
from repro.labeling.prime import PrimeLabel

__all__ = [
    "FieldReader",
    "FieldWriter",
    "FixedWidthCodec",
    "MAX_VARINT_FIELD_BYTES",
    "UVARINT",
    "VarintCodec",
    "check_crc_footer",
    "decoding",
    "ints_to_label",
    "label_to_ints",
    "read_uvarint",
    "write_uvarint",
]

#: Sanity bound on one varint-encoded integer field, as magnitude bytes.
#: 1 MiB of magnitude (2^23 bits) is 16x the 64 KiB ceiling the legacy
#: ``>H``-length snapshot encoding imposed and far beyond any label a real
#: document produces; past it, a run of continuation bytes is treated as
#: corruption instead of being accumulated into an ever-larger integer.
MAX_VARINT_FIELD_BYTES = 1 << 20
_MAX_FIELD_BITS = MAX_VARINT_FIELD_BYTES * 8


def write_uvarint(value: int, out: List[int]) -> None:
    """Append the LEB128 encoding of ``value`` (an unsigned int) to ``out``.

    ``out`` is a list of byte values or a ``bytearray``;
    :meth:`FieldWriter.uvarint` does the encoding and raises
    :class:`repro.errors.LabelingError` here.
    """
    writer = FieldWriter()
    writer.uvarint(value)
    out.extend(writer.buffer)


def read_uvarint(blob: bytes, offset: int) -> Tuple[int, int]:
    """Decode one LEB128 integer from ``blob`` at ``offset``.

    Returns ``(value, next_offset)``; :meth:`FieldReader.uvarint` does the
    decoding and raises :class:`repro.errors.LabelingError` here.
    """
    reader = FieldReader(blob, LabelingError, "varint", offset)
    return reader.uvarint(), reader.offset


#: The ``width`` of a string whose byte length is a varint (the RPWL
#: payload strings) rather than a fixed-width ``struct`` field.
UVARINT = "uvarint"
#: The CRC32 footer of RPSN snapshots and RPLS v2-v3 stores.
_FOOTER = struct.Struct(">I")
#: The shortest footed file: 4 magic bytes, a version byte and the footer.
_MIN_FOOTED = 4 + 1 + _FOOTER.size
#: The most bytes one varint field may span: the first byte whose shift
#: would reach :data:`_MAX_FIELD_BITS` is never read.
_MAX_VARINT_RUN = -(-_MAX_FIELD_BITS // 7)
#: Bytes of one varint the readers accumulate byte by byte: any label a
#: real document makes fits.  :meth:`FieldReader.uvarint` finds the rest
#: of a longer run whole, then joins it.
_SHORT_VARINT_RUN = 10
#: The values :meth:`FieldWriter.uvarint_pairs` encodes inline: those of
#: at most :data:`_SHORT_VARINT_RUN` bytes.
_SHORT_VARINT_LIMIT = 1 << 7 * _SHORT_VARINT_RUN
#: A run of continuation bytes (high bit set).
_CONTINUATION_RUN = re.compile(rb"[\x80-\xff]*")
#: Maps each byte to its low seven bits: a varint byte's payload.
_LOW_SEVEN = bytes(byte & 0x7F for byte in range(256))
#: The masks and shift of each step of :func:`_join_septets`: 7-bit
#: groups one per byte become 14-bit groups per 16-bit lane, then 28 per
#: 32, then 56 per 64 (little-endian byte patterns of one lane).
_JOIN_STEPS = (
    (b"\x7f\x00", b"\x00\x7f", 1),
    (b"\xff\x3f\x00\x00", b"\x00\x00\xff\x3f", 2),
    (b"\xff\xff\xff\x0f\x00\x00\x00\x00", b"\x00\x00\x00\x00\xff\xff\xff\x0f", 4),
)


def _repeat(pattern: bytes, size: int) -> int:
    """``pattern`` repeated over ``size`` bytes, read as a little-endian int."""
    return int.from_bytes(pattern * (size // len(pattern)), "little")


def _join_septets(run: bytes) -> int:
    """The integer whose little-endian 7-bit groups are ``run``'s low bits.

    Linear in ``len(run)``: a few whole-integer mask steps pack the
    groups eight to a 64-bit word, which leaves one zero byte per word to
    drop, instead of one shift-and-or of a growing integer per byte.
    """
    groups = run.translate(_LOW_SEVEN) + bytes(-len(run) % 8)
    size = len(groups)
    value = int.from_bytes(groups, "little")
    for low, high, shift in _JOIN_STEPS:
        value = value & _repeat(low, size) | (value & _repeat(high, size)) >> shift
    packed = bytearray(value.to_bytes(size, "little"))
    del packed[7::8]
    return int.from_bytes(packed, "little")


#: The ``struct`` codes a fixed-width field may use: every one unsigned.
_UNSIGNED_CODES = frozenset("BHIQ")


class _Structs(dict[str, struct.Struct]):
    """Compiled ``struct`` formats by format string, compiled on first use.

    Formats are constants of the field layouts, so this stays as small as
    they are, and a lookup is cheaper per field than an ``lru_cache`` call.
    Every field is big-endian and unsigned: any other format fails its
    first use, so no layout can write a field unsigned and read it signed.
    """

    def __missing__(self, fmt: str) -> struct.Struct:
        codes = fmt[1:]
        if fmt[:1] != ">" or not codes or not _UNSIGNED_CODES.issuperset(codes):
            raise LabelingError(f"field format {fmt!r} is not big-endian unsigned")
        packer = self[fmt] = struct.Struct(fmt)
        return packer


_STRUCTS = _Structs()


class FieldWriter:
    """One growing buffer that a binary format writes its fields into.

    Each method appends one field; :class:`FieldReader` reads it back with
    the method of the same name (``unpack`` for ``pack``).  ``prefix`` (a
    format's magic) starts the buffer.
    """

    __slots__ = ("buffer",)

    def __init__(self, prefix: bytes = b""):
        self.buffer = bytearray(prefix)

    def pack(self, fmt: str, *values: int) -> None:
        """Append ``values`` as the fixed-width ``struct`` format ``fmt``.

        Raises :class:`repro.errors.LabelingError` naming ``fmt`` and
        ``values`` when a value does not fit its field.
        """
        try:
            self.buffer += _STRUCTS[fmt].pack(*values)
        except struct.error as cause:
            raise LabelingError(
                f"field {fmt!r} cannot hold {values}: {cause}"
            ) from cause

    def uvarint(self, value: int) -> None:
        """Append ``value`` as a bounded LEB128 varint.

        The shared integer encoding of every format-v3 file (RPLS store,
        RPSN snapshot, RPWL WAL payloads).  Raises
        :class:`repro.errors.LabelingError` for negative values and for
        fields beyond :data:`MAX_VARINT_FIELD_BYTES` — the write-side twin
        of the read-side cap, so nothing encodable is ever unreadable.  A
        value under 128 is one byte, appended before the bound is computed.
        """
        buffer = self.buffer
        if value < 0x80:
            if value < 0:
                raise LabelingError(f"varints are unsigned; got {value}")
            buffer.append(value)
            return
        if value.bit_length() > _MAX_FIELD_BITS:
            raise LabelingError(
                f"integer field of {value.bit_length()} bits exceeds the "
                f"{_MAX_FIELD_BITS}-bit varint field bound"
            )
        while value > 0x7F:
            buffer.append(value & 0x7F | 0x80)
            value >>= 7
        buffer.append(value)

    def uvarint_pairs(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Append each ``(first, second)`` of ``pairs`` as two varints.

        The bytes of :meth:`uvarint` called on each value in turn, with
        values of up to :data:`_SHORT_VARINT_RUN` bytes encoded inline;
        longer values, and the error for a negative one, go through
        :meth:`uvarint`.  One call writes a whole section of pairs.
        """
        append = self.buffer.append
        uvarint = self.uvarint
        for value in chain.from_iterable(pairs):
            if 0 <= value < _SHORT_VARINT_LIMIT:
                while value > 0x7F:
                    append(value & 0x7F | 0x80)
                    value >>= 7
                append(value)
            else:
                uvarint(value)

    def string(self, width: str, text: str) -> None:
        """Append ``text`` as UTF-8 behind its byte length.

        ``width`` is the length's ``struct`` format, or :data:`UVARINT`.
        Raises :class:`repro.errors.LabelingError` naming ``width`` and the
        length when the length does not fit.
        """
        data = text.encode()
        if width == UVARINT:
            self.uvarint(len(data))
        else:
            try:
                self.buffer += _STRUCTS[width].pack(len(data))
            except struct.error as cause:
                raise LabelingError(
                    f"length field {width!r} cannot hold a string of "
                    f"{len(data)} bytes: {cause}"
                ) from cause
        self.buffer += data

    def finish(self) -> bytearray:
        """Append the CRC32 footer of everything written; returns the buffer."""
        self.buffer += _FOOTER.pack(zlib.crc32(self.buffer))
        return self.buffer


class FieldReader:
    """A bounds-checked cursor over a file's bytes, reading what FieldWriter wrote.

    ``blob`` is the file's own bytes object, read in place: no copy and no
    ``memoryview`` (indexing ``bytes`` is the cheaper of the two per byte).
    ``end`` is where the fields stop — the start of a CRC footer, or the
    end of ``blob`` by default — and no field ever reads past it, so the
    footer's bytes can never be decoded as a field.

    Every failure — a field running past ``end``, invalid UTF-8, a varint
    over :data:`MAX_VARINT_FIELD_BYTES` — raises ``error`` (the caller's
    typed exception) with a message that starts with ``name``, so a damaged
    file is reported as the format and file it is.
    """

    __slots__ = ("blob", "offset", "end", "error", "name")

    def __init__(
        self,
        blob: bytes,
        error: Type[ReproError],
        name: str,
        offset: int = 0,
        end: Optional[int] = None,
    ):
        self.blob = blob
        self.offset = offset
        self.end = len(blob) if end is None else end
        self.error = error
        self.name = name

    @property
    def remaining(self) -> int:
        """Bytes left between the cursor and ``end``."""
        return self.end - self.offset

    def fail(self, what: str) -> ReproError:
        """The typed error for damage found at the cursor."""
        return self.error(f"{self.name}: {what} at byte {self.offset}")

    def take(self, count: int) -> bytes:
        """The next ``count`` raw bytes."""
        start = self.offset
        stop = start + count
        if stop > self.end:
            raise self.fail(f"truncated: {count} bytes needed")
        self.offset = stop
        return self.blob[start:stop]

    def unpack(self, fmt: str) -> Tuple[Any, ...]:
        """The next fixed-width ``struct`` field(s) of format ``fmt``."""
        packer = _STRUCTS[fmt]
        start = self.offset
        stop = start + packer.size
        if stop > self.end:
            raise self.fail(f"truncated: {packer.size} bytes needed")
        self.offset = stop
        return packer.unpack_from(self.blob, start)

    def uvarint(self) -> int:
        """The next LEB128 varint.

        Fails on a truncated field or when the continuation run exceeds
        :data:`MAX_VARINT_FIELD_BYTES` of magnitude — a crafted run of
        continuation bytes must fail fast, whatever their payload bits,
        instead of building an arbitrarily large integer before any
        checksum is consulted.  A one-byte value returns before the loop
        is set up, and the loop reads at most :data:`_SHORT_VARINT_RUN`
        bytes.  Past that, the run's end is found first, so a run that
        reaches the bound fails without accumulating anything, and a
        legitimate long value is joined in linear time.
        """
        blob, offset, end = self.blob, self.offset, self.end
        if offset < end:
            byte = blob[offset]
            if byte < 0x80:
                self.offset = offset + 1
                return byte
        limit = offset + _MAX_VARINT_RUN
        if limit > end:
            limit = end
        short = offset + _SHORT_VARINT_RUN
        if short > limit:
            short = limit
        result = shift = 0
        while offset < short:
            byte = blob[offset]
            offset += 1
            if byte < 0x80:
                self.offset = offset
                return result | byte << shift
            result |= (byte ^ 0x80) << shift
            shift += 7
        if offset < limit:
            last = _CONTINUATION_RUN.match(blob, offset, limit).end()
            if last < limit:
                self.offset = last + 1
                return result | _join_septets(blob[offset : last + 1]) << shift
            offset = last
        if offset >= end:
            raise self.fail("truncated varint")
        raise self.fail(
            f"varint field exceeds the {_MAX_FIELD_BITS}-bit bound "
            "(corrupt or adversarial continuation run)"
        )

    def uvarint_pairs(self, count: int) -> List[Tuple[int, int]]:
        """The next ``count`` pairs of varints (see :meth:`FieldWriter.uvarint_pairs`).

        Each varint of up to :data:`_SHORT_VARINT_RUN` bytes is decoded
        inline, every byte checked against ``end``: up to three bytes
        unrolled, the rest one byte a pass.  Any other varint, and any cut
        short by ``end``, is read by :meth:`uvarint` from its first byte,
        so it meets the same bounds and raises the same errors there.
        """
        blob, offset, end = self.blob, self.offset, self.end
        uvarint = self.uvarint
        values: List[int] = []
        append = values.append
        for _ in range(2 * count):
            if offset < end:
                first = blob[offset]
                if first < 0x80:
                    append(first)
                    offset += 1
                    continue
                if offset + 2 < end:
                    second = blob[offset + 1]
                    if second < 0x80:
                        append((first ^ 0x80) | second << 7)
                        offset += 2
                        continue
                    byte = blob[offset + 2]
                    if byte < 0x80:
                        append((first ^ 0x80) | (second ^ 0x80) << 7 | byte << 14)
                        offset += 3
                        continue
                    result = (first ^ 0x80) | (second ^ 0x80) << 7 | (byte ^ 0x80) << 14
                    shift = 21
                    position = offset + 3
                    stop = offset + _SHORT_VARINT_RUN
                    if stop > end:
                        stop = end
                    while position < stop:
                        byte = blob[position]
                        position += 1
                        if byte < 0x80:
                            break
                        result |= (byte ^ 0x80) << shift
                        shift += 7
                    if byte < 0x80:
                        append(result | byte << shift)
                        offset = position
                        continue
            self.offset = offset
            append(uvarint())
            offset = self.offset
        self.offset = offset
        pending = iter(values)
        return list(zip(pending, pending))

    def string(self, width: str) -> str:
        """The next length-prefixed UTF-8 string (see :meth:`FieldWriter.string`).

        The fixed-width length is read in place rather than through
        :meth:`unpack`.
        """
        if width == UVARINT:
            length = self.uvarint()
        else:
            packer = _STRUCTS[width]
            start = self.offset
            if start + packer.size > self.end:
                raise self.fail(f"truncated: {packer.size} bytes needed")
            (length,) = packer.unpack_from(self.blob, start)
            self.offset = start + packer.size
        start = self.offset
        stop = start + length
        if stop > self.end:
            raise self.fail(f"truncated: {length} bytes needed")
        self.offset = stop
        try:
            return self.blob[start:stop].decode()
        except UnicodeDecodeError as cause:
            raise self.fail("invalid UTF-8 string") from cause


def check_crc_footer(blob: bytes, error: Type[ReproError], name: str) -> int:
    """Where the fields of ``blob`` end, once its CRC32 footer has checked out.

    The one footer check of RPSN snapshots and RPLS v2-v3 stores, made
    before a single field is decoded, so truncation and bit rot are caught
    whole-file rather than wherever the parser happens to trip.  The
    returned offset is the footer's start: the ``end`` of the
    :class:`FieldReader` over ``blob``.  Raises ``error`` naming ``name``
    when ``blob`` is too short to hold a magic, a version byte and the
    footer, or when the checksum disagrees.
    """
    if len(blob) < _MIN_FOOTED:
        raise error(f"{name} is truncated")
    end = len(blob) - _FOOTER.size
    (stored_crc,) = _FOOTER.unpack_from(blob, end)
    if zlib.crc32(memoryview(blob)[:end]) != stored_crc:
        raise error(f"{name} failed its CRC32 check (truncated or corrupt)")
    return end


class decoding:
    """Re-raise what a decoder trips over on damaged bytes as ``error``.

    The one translation of RPLS, RPSN and RPWL decode failures, used as
    ``with decoding(error, name):``.  ``error`` itself passes through, and
    a ``ValueError`` (``UnicodeDecodeError`` included), an ``IndexError``
    or any other :class:`~repro.errors.ReproError` (a label the codec
    rejects, a strategy name the engine refuses) becomes ``error`` naming
    ``name``.  A class rather than a generator: the WAL scanner enters it
    once per record.
    """

    __slots__ = ("error", "name")

    def __init__(self, error: Type[ReproError], name: str):
        self.error = error
        self.name = name

    def __enter__(self) -> None:
        return None

    def __exit__(
        self, kind: object, cause: Optional[BaseException], trace: object
    ) -> None:
        if isinstance(cause, self.error):
            return
        if isinstance(cause, (ValueError, IndexError, ReproError)):
            raise self.error(f"corrupt {self.name}: {cause}") from cause


def label_to_ints(label: Any) -> Tuple[int, ...]:
    """Decompose any supported label into a tuple of non-negative ints.

    ``PrimeLabel`` -> (value, self_label); interval labels -> their two
    endpoints; ``Bits`` -> (length, value); Dewey tuples pass through.
    """
    if isinstance(label, PrimeLabel):
        return (label.value, label.self_label)
    if isinstance(label, OrderSizeLabel):
        return (label.order, label.size)
    if isinstance(label, StartEndLabel):
        start, end = label.start, label.end
        if int(start) != start or int(end) != end:
            raise LabelingError("fractional interval labels are not codec-encodable")
        return (int(start), int(end))
    if isinstance(label, Bits):
        return (label.length, label.value)
    if isinstance(label, tuple):
        return tuple(int(component) for component in label)
    if isinstance(label, int):  # bottom-up prime labels are bare products
        return (label,)
    raise LabelingError(f"no integer decomposition for label {label!r}")


def ints_to_label(kind: str, parts: Tuple[int, ...]) -> Any:
    """Reassemble a label from :func:`label_to_ints` output.

    ``kind`` is one of ``prime``, ``order-size``, ``start-end``, ``bits``,
    ``dewey``.
    """
    if kind == "prime":
        value, self_label = parts
        return PrimeLabel(value=value, self_label=self_label)
    if kind == "order-size":
        order, size = parts
        return OrderSizeLabel(order=order, size=size)
    if kind == "start-end":
        start, end = parts
        return StartEndLabel(start=start, end=end)
    if kind == "bits":
        length, value = parts
        return Bits(value, length)
    if kind == "dewey":
        return tuple(parts)
    if kind == "int":
        (value,) = parts
        return value
    raise LabelingError(f"unknown label kind {kind!r}")


def _kind_of(label: Any) -> str:
    if isinstance(label, PrimeLabel):
        return "prime"
    if isinstance(label, OrderSizeLabel):
        return "order-size"
    if isinstance(label, StartEndLabel):
        return "start-end"
    if isinstance(label, Bits):
        return "bits"
    if isinstance(label, tuple):
        return "dewey"
    if isinstance(label, int):
        return "int"
    raise LabelingError(f"no codec kind for label {label!r}")


class FixedWidthCodec:
    """Fixed-length encoding sized to a document's widest label.

    Construct from a labeled scheme (:meth:`for_scheme`) or explicitly with
    ``(kind, field_count, field_bytes)``.  Every encoded label occupies
    ``field_count * field_bytes`` bytes (Dewey labels are padded to the
    document's maximum component count with zeros, which are invalid Dewey
    ordinals and therefore unambiguous).
    """

    def __init__(self, kind: str, field_count: int, field_bytes: int):
        if field_count < 1 or field_bytes < 1:
            raise LabelingError("field_count and field_bytes must be >= 1")
        self.kind = kind
        self.field_count = field_count
        self.field_bytes = field_bytes

    @classmethod
    def for_scheme(cls, scheme: LabelingScheme) -> "FixedWidthCodec":
        """Size a codec to hold every label the scheme has issued."""
        labels = [scheme.label_of(node) for node in scheme.labeled_nodes()]
        if not labels:
            raise LabelingError("scheme has no labels to size a codec from")
        kind = _kind_of(labels[0])
        # A lone Dewey root has the empty label; keep at least one field so
        # records have nonzero width.
        field_count = max(1, max(len(label_to_ints(label)) for label in labels))
        widest = max(
            (part for label in labels for part in label_to_ints(label)), default=0
        )
        field_bytes = max((widest.bit_length() + 7) // 8, 1)
        return cls(kind, field_count, field_bytes)

    @property
    def record_bytes(self) -> int:
        """Encoded size of one label, in bytes."""
        return self.field_count * self.field_bytes

    def encode(self, label: Any) -> bytes:
        """Encode one label into exactly ``record_bytes`` bytes."""
        parts = label_to_ints(label)
        if len(parts) > self.field_count:
            raise LabelingError(
                f"label has {len(parts)} fields; codec holds {self.field_count}"
            )
        padded = parts + (0,) * (self.field_count - len(parts))
        chunks = []
        for part in padded:
            if part < 0 or part.bit_length() > self.field_bytes * 8:
                raise LabelingError(
                    f"field {part} does not fit in {self.field_bytes} bytes"
                )
            chunks.append(part.to_bytes(self.field_bytes, "big"))
        return b"".join(chunks)

    def decode(self, blob: bytes) -> Any:
        """Decode one fixed-width record back into a label."""
        if len(blob) != self.record_bytes:
            raise LabelingError(
                f"expected {self.record_bytes} bytes, got {len(blob)}"
            )
        parts = tuple(
            int.from_bytes(blob[i * self.field_bytes : (i + 1) * self.field_bytes], "big")
            for i in range(self.field_count)
        )
        if self.kind == "dewey":
            parts = tuple(part for part in parts if part != 0)
        return ints_to_label(self.kind, parts)

    def read_label(self, reader: FieldReader) -> Any:
        """Read one ``record_bytes`` label from ``reader``."""
        return self.decode(reader.take(self.record_bytes))

    def encode_column(self, scheme: LabelingScheme) -> bytes:
        """Encode every label of the scheme into one packed column."""
        return b"".join(
            self.encode(scheme.label_of(node)) for node in scheme.labeled_nodes()
        )

    def decode_column(self, blob: bytes) -> List[Any]:
        """Decode a packed column into its label list."""
        if len(blob) % self.record_bytes:
            raise LabelingError("column length is not a multiple of the record size")
        return [
            self.decode(blob[offset : offset + self.record_bytes])
            for offset in range(0, len(blob), self.record_bytes)
        ]


class VarintCodec:
    """Variable-length (LEB128-style) label encoding with field counts.

    Layout per label: ``varint(field_count) || varint(field_0) || ...``.
    Self-delimiting, so columns can be decoded without a side table.
    """

    def __init__(self, kind: str):
        self.kind = kind

    @classmethod
    def for_scheme(cls, scheme: LabelingScheme) -> "VarintCodec":
        nodes = list(scheme.labeled_nodes())
        if not nodes:
            raise LabelingError("scheme has no labels to derive a codec from")
        return cls(_kind_of(scheme.label_of(nodes[0])))

    def write_label(self, out: FieldWriter, label: Any) -> None:
        """Append one label as a self-delimiting varint record."""
        parts = label_to_ints(label)
        out.uvarint(len(parts))
        for part in parts:
            out.uvarint(part)

    def read_label(self, reader: FieldReader) -> Any:
        """Read one label written by :meth:`write_label`."""
        count = reader.uvarint()
        if count > reader.remaining:
            # Every field costs at least one byte, so a count beyond the
            # remaining bytes is corruption — reject before looping.
            raise reader.fail(
                f"varint record claims {count} fields but only "
                f"{reader.remaining} bytes remain"
            )
        return ints_to_label(
            self.kind, tuple(reader.uvarint() for _ in range(count))
        )

    def encode(self, label: Any) -> bytes:
        """Encode one label as a self-delimiting varint record."""
        out = FieldWriter()
        self.write_label(out, label)
        return bytes(out.buffer)

    def decode(self, blob: bytes, offset: int = 0) -> Tuple[Any, int]:
        """Decode one label starting at ``offset``; returns (label, next)."""
        reader = FieldReader(blob, LabelingError, "varint label", offset)
        return self.read_label(reader), reader.offset

    def encode_column(self, scheme: LabelingScheme) -> bytes:
        """Encode every label of the scheme into one packed column."""
        return b"".join(
            self.encode(scheme.label_of(node)) for node in scheme.labeled_nodes()
        )

    def decode_column(self, blob: bytes) -> List[Any]:
        """Decode a packed varint column into its label list."""
        reader = FieldReader(blob, LabelingError, "varint column")
        labels = []
        while reader.remaining:
            labels.append(self.read_label(reader))
        return labels
