"""Checksummed full-state snapshots of a live collection.

A snapshot is everything recovery needs to resume a
:class:`~repro.query.live.LiveCollection` *exactly* where it stood:

* each document's element tree (tags, attributes, text, child order),
* each node's prime label (full value + self-label) in preorder,
* each prime generator's issuance position (so replayed inserts draw the
  same fresh primes the original run would have),
* each SC table's records — group membership, residues, and routing keys
  preserved record by record, because future ``register`` calls append to
  the last record and must see the same fill level,
* the collection's configuration (``group_size``, ``strategy``) and its
  accumulated update cost.

Every field goes through the shared field codec of
:mod:`repro.labeling.codec` (big-endian fixed-width fields,
length-prefixed strings, arbitrary-precision varints), the same one the
RPLS label store and the RPWL payloads use, with a CRC32 footer over the
whole body; the tree section alone is coded in place, on the codec's
buffer, with the same field widths::

    magic    4 bytes b"RPSN", 1 byte version
    header   8B last_seq   8B total_update_cost
             4B group_size (0xFFFFFFFF = None)   1B+len strategy
    docs     4B count, then per document:
               tree     preorder: 2B+len tag, 4B+len text,
                        2B attr count ×(2B+len name, 2B+len value),
                        4B child count
               gen      4B reserved_limit, 4B next_reserved,
                        4B next_general, 8B issued
               labels   4B count ×(int value, int self_label)  [preorder]
               sc       4B record count, per record: 4B members,
                        int max_prime ×(int modulus, int residue)
    footer   4 bytes CRC32 of everything above

where ``int`` is the LEB128 varint of
:meth:`repro.labeling.codec.FieldWriter.uvarint` (labels are products of
primes and routinely exceed machine words).  Each document also carries
the Opt2 leaf-allocation counters of
:meth:`repro.labeling.prime.PrimeScheme.export_state`::

    leaf     4B entry count ×(varint parent_value, varint next_index)

so a restored scheme resumes power-of-two leaf issuance exactly where the
snapshotted one stood.  That is version 3, the only layout any code
writes.  Readers still accept versions 1–2, whose ``int`` is a 2-byte
length + big-endian magnitude and which carry no leaf section (their
schemes restore with empty counters).

Writes are atomic (:func:`repro.durable.files.replace_durably`): the
blob goes to ``<name>.tmp``, is fsynced, and is renamed over the final
name, then the directory is fsynced — a crash mid-snapshot leaves the
previous generation untouched.  :func:`read_snapshot` verifies the footer
before decoding a single field, so truncation and bit-flips surface as
:class:`repro.errors.SnapshotCorruptError`, never as plausible garbage.
The same holds for the strategy name: the retired names of
:data:`repro.query.engine.RETIRED_STRATEGIES` restore as ``auto``, and
any other name the engine does not accept is corruption.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.durable.faults import FaultPlan
from repro.durable.files import replace_durably
from repro.errors import LabelingError, OrderingError, SnapshotCorruptError
from repro.labeling.codec import (
    FieldReader,
    FieldWriter,
    check_crc_footer,
    decoding,
)
from repro.labeling.prime import PrimeScheme
from repro.obs import metrics
from repro.order.document import OrderedDocument
from repro.order.sc_table import SCTable
from repro.primes.gen import PrimeGenerator
from repro.query.engine import upgrade_strategy
from repro.query.live import LiveCollection
from repro.xmlkit.tree import XmlElement, from_child_counts

__all__ = [
    "SnapshotState",
    "write_snapshot",
    "read_snapshot",
    "read_snapshot_seq",
    "restore_collection",
    "collection_fingerprint",
]

_MAGIC = b"RPSN"
#: Versions :func:`read_snapshot` decodes, oldest first; 1 and 2
#: (2-byte-length integers, no leaf section) are read-only.
_SUPPORTED_VERSIONS = (1, 2, 3)
#: The version every snapshot is written at: the newest one read.
_VERSION = _SUPPORTED_VERSIONS[-1]
_NO_GROUP_SIZE = 0xFFFFFFFF

Groups = List[Tuple[int, List[Tuple[int, int]]]]


@dataclass
class DocumentState:
    """One document's decoded snapshot: tree + labels + generator + SC."""

    root: XmlElement
    labels: List[Tuple[int, int]]  # (value, self_label) in preorder
    generator_state: Tuple[int, int, int, int]
    sc_groups: Groups
    #: Opt2 leaf-allocation counters (parent label value -> next leaf
    #: index); always empty for legacy (v1/v2) snapshots.
    leaf_counters: Tuple[Tuple[int, int], ...] = ()


@dataclass
class SnapshotState:
    """A decoded snapshot, ready for :func:`restore_collection`."""

    last_seq: int
    total_update_cost: int
    group_size: Optional[int]
    strategy: str
    documents: List[DocumentState]


# ----------------------------------------------------------------------
# Field layout: one FieldWriter/FieldReader pair per file.  Integers are
# LEB128 varints; legacy (v1/v2) files read 2B length + magnitude.  The
# tree section is the one part coded in place: one loop per direction
# over the buffer itself, with the fixed-width fields of the layout.
# ----------------------------------------------------------------------

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
#: A node's attribute count and child count, adjacent when it has no
#: attributes (most nodes).
_U16_U32 = struct.Struct(">HI")


def _read_legacy_int(reader: FieldReader) -> int:
    (length,) = reader.unpack(">H")
    return int.from_bytes(reader.take(length), "big")


def _read_legacy_pairs(reader: FieldReader, count: int) -> List[Tuple[int, int]]:
    return [
        (_read_legacy_int(reader), _read_legacy_int(reader)) for _ in range(count)
    ]


def _write_tree(out: FieldWriter, root: XmlElement) -> List[XmlElement]:
    """Write ``root``'s subtree in preorder; returns the nodes in that order.

    Each node's fields go straight onto ``out.buffer`` through compiled
    ``>H``/``>I`` packers.  A value that does not fit its field raises
    :class:`~repro.errors.LabelingError` naming the field's format and the
    value, before anything is written to disk.
    """
    buffer = out.buffer
    u16 = _U16.pack
    u32 = _U32.pack
    counts = _U16_U32.pack
    nodes = list(root.iter_preorder())
    node = root
    try:
        for node in nodes:
            tag = node.tag.encode()
            text = node.text.encode()
            attributes = node.attributes
            buffer += u16(len(tag))
            buffer += tag
            buffer += u32(len(text))
            buffer += text
            if not attributes:
                buffer += counts(0, len(node))
                continue
            buffer += u16(len(attributes))
            for string in chain.from_iterable(attributes.items()):
                data = string.encode()
                buffer += u16(len(data))
                buffer += data
            buffer += u32(len(node))
    except struct.error as cause:
        raise _overflow(node) from cause
    return nodes


def _overflow(node: XmlElement) -> LabelingError:
    """The error for the first of ``node``'s fields its width cannot hold."""
    fields = [(_U16, len(node.tag.encode())), (_U32, len(node.text.encode()))]
    fields.append((_U16, len(node.attributes)))
    for string in chain.from_iterable(node.attributes.items()):
        fields.append((_U16, len(string.encode())))
    fields.append((_U32, len(node)))
    packer, size = next(
        (packer, size) for packer, size in fields if size >> 8 * packer.size
    )
    return LabelingError(
        f"field {packer.format!r} cannot hold {size} in node {node.tag[:32]!r}"
    )


def _truncated(reader: FieldReader, at: int, count: int) -> SnapshotCorruptError:
    """The error for a field at ``at`` that needs ``count`` bytes past ``end``."""
    reader.offset = at
    return reader.fail(f"truncated: {count} bytes needed")


def _read_tree(reader: FieldReader) -> XmlElement:
    """Read one preorder tree, one node's run of fields per pass.

    The loop reads the file's bytes in place, checking each field against
    ``reader.end`` before it reads it, so no field is ever decoded from
    the footer.  ``unread`` counts the children still owed, so the loop
    stops exactly when the rows form one tree, and
    :func:`~repro.xmlkit.tree.from_child_counts` links them bottom-up
    without a check per child or any recursion.
    """
    blob, offset, end = reader.blob, reader.offset, reader.end
    u16 = _U16.unpack_from
    u32 = _U32.unpack_from
    counts = _U16_U32.unpack_from
    rows: List[Tuple[str, Dict[str, str], str, int]] = []
    append = rows.append
    unread = 1

    try:
        while unread:
            if offset + 2 > end:
                raise _truncated(reader, offset, 2)
            (length,) = u16(blob, offset)
            offset += 2
            stop = offset + length
            if stop > end:
                raise _truncated(reader, offset, length)
            tag = blob[offset:stop].decode()
            offset = stop
            if offset + 4 > end:
                raise _truncated(reader, offset, 4)
            (length,) = u32(blob, offset)
            offset += 4
            stop = offset + length
            if stop > end:
                raise _truncated(reader, offset, length)
            text = blob[offset:stop].decode()
            offset = stop
            if offset + 6 <= end:
                attr_count, child_count = counts(blob, offset)
                if not attr_count:
                    offset += 6
                    append((tag, {}, text, child_count))
                    unread += child_count - 1
                    continue
            elif offset + 2 > end:
                raise _truncated(reader, offset, 2)
            (attr_count,) = u16(blob, offset)
            offset += 2
            strings = []
            for _ in range(2 * attr_count):
                if offset + 2 > end:
                    raise _truncated(reader, offset, 2)
                (length,) = u16(blob, offset)
                offset += 2
                stop = offset + length
                if stop > end:
                    raise _truncated(reader, offset, length)
                strings.append(blob[offset:stop].decode())
                offset = stop
            names_and_values = iter(strings)
            attributes = dict(zip(names_and_values, names_and_values))
            if offset + 4 > end:
                raise _truncated(reader, offset, 4)
            (child_count,) = u32(blob, offset)
            offset += 4
            append((tag, attributes, text, child_count))
            unread += child_count - 1
    except UnicodeDecodeError as cause:
        reader.offset = stop
        raise reader.fail("invalid UTF-8 string") from cause
    reader.offset = offset
    return from_child_counts(rows)


# ----------------------------------------------------------------------
# Write
# ----------------------------------------------------------------------


#: A prime label's ``(value, self_label)``, the pair a snapshot stores.
_label_pair = attrgetter("value", "self_label")


def _encode_snapshot(collection: LiveCollection, last_seq: int) -> bytearray:
    """The whole snapshot, footer included, in one buffer."""
    out = FieldWriter(_MAGIC)
    out.pack(">B", _VERSION)
    out.pack(">QQ", last_seq, collection.total_update_cost)
    group_size = collection.group_size
    out.pack(">I", _NO_GROUP_SIZE if group_size is None else group_size)
    out.string(">B", collection.strategy)
    ordered = collection.ordered_documents
    out.pack(">I", len(ordered))
    for document in ordered:
        nodes = _write_tree(out, document.root)
        scheme = document.scheme
        generator_state, leaf_counters = scheme.export_state()
        out.pack(">IIIQ", *generator_state)
        out.pack(">I", len(nodes))
        out.uvarint_pairs(map(_label_pair, map(scheme.label_of, nodes)))
        groups = document.sc_table.groups()
        out.pack(">I", len(groups))
        for max_prime, members in groups:
            out.pack(">I", len(members))
            out.uvarint(max_prime)
            out.uvarint_pairs(members)
        out.pack(">I", len(leaf_counters))
        out.uvarint_pairs(leaf_counters)
    return out.finish()


def snapshot_bytes(collection: LiveCollection, last_seq: int = 0) -> bytes:
    """Encode ``collection`` as a complete version-3 snapshot blob.

    Every field is appended to a single ``bytearray`` in one iterative
    preorder walk per tree, so the transient cost is about the blob's own
    size and no document depth is too deep to write.
    """
    return bytes(_encode_snapshot(collection, last_seq))


def write_snapshot(
    collection: LiveCollection,
    path: str | Path,
    last_seq: int = 0,
    faults: Optional[FaultPlan] = None,
) -> int:
    """Atomically write a snapshot of ``collection``; returns bytes written.

    ``last_seq`` is the WAL sequence number of the last operation already
    reflected in the collection — recovery replays strictly after it.
    """
    with metrics.timed("snapshot.write"):
        blob = _encode_snapshot(collection, last_seq)
        if faults is not None:
            # The hook fires before the temp file is opened, so an
            # injected failure (or stall) is always retry-safe.
            blob = faults.on_snapshot(str(path), blob)
        replace_durably(path, blob)
        metrics.incr("snapshot.writes")
        metrics.incr("snapshot.bytes", len(blob))
    return len(blob)


# ----------------------------------------------------------------------
# Read + restore
# ----------------------------------------------------------------------


def read_snapshot(path: str | Path) -> SnapshotState:
    """Decode and checksum-verify the snapshot at ``path``.

    Raises :class:`repro.errors.SnapshotCorruptError` naming the snapshot
    on any damage — truncation, bit-flip, bad magic, or undecodable
    structure.  That holds even for a body cut short, or run on past its
    last document, under a recomputed, valid CRC: the shared field reader
    raises the snapshot's own error.
    The tree is read with a loop, so every file :func:`snapshot_bytes`
    can write (at any document depth) reads back.
    """
    state = _decode_checked(Path(path), header_only=False)
    metrics.incr("snapshot.loads")
    return state


def read_snapshot_seq(path: str | Path) -> int:
    """The ``last_seq`` a snapshot covers, read from its CRC-checked header.

    Makes the same first checks as :func:`read_snapshot` — length, the
    CRC32 over the whole body, magic and version — and reads the header
    through the same decoder, then stops before the documents.  Raises
    :class:`repro.errors.SnapshotCorruptError` on any failure.  Checkpoint
    pruning needs only this one integer from the oldest retained
    generation, so it pays one CRC pass instead of a full decode.
    """
    return _decode_checked(Path(path), header_only=True).last_seq


def _decode_checked(path: Path, header_only: bool) -> SnapshotState:
    """Read ``path``, verify its length and CRC32 footer, then decode it.

    Every decoding failure is re-raised as
    :class:`~repro.errors.SnapshotCorruptError`.
    """
    try:
        blob = path.read_bytes()
    except OSError as error:
        raise SnapshotCorruptError(f"cannot read snapshot {path}: {error}") from error
    name = f"snapshot {path}"
    end = check_crc_footer(blob, SnapshotCorruptError, name)
    reader = FieldReader(blob, SnapshotCorruptError, name, end=end)
    with decoding(SnapshotCorruptError, name):
        return _decode_body(reader, header_only)


def _decode_body(reader: FieldReader, header_only: bool) -> SnapshotState:
    """Decode a CRC-verified body.

    ``header_only`` stops after the fixed header (magic through the
    strategy name) and returns a state with no documents: the one field
    layout serves both the full decode and :func:`read_snapshot_seq`.
    """
    if reader.take(4) != _MAGIC:
        raise SnapshotCorruptError(f"{reader.name} is not a snapshot file")
    (version,) = reader.unpack(">B")
    if version not in _SUPPORTED_VERSIONS:
        raise SnapshotCorruptError(f"unsupported snapshot version {version}")
    if version >= 3:
        read_int, read_pairs = FieldReader.uvarint, FieldReader.uvarint_pairs
    else:
        read_int, read_pairs = _read_legacy_int, _read_legacy_pairs
    last_seq, total_cost = reader.unpack(">QQ")
    (raw_group_size,) = reader.unpack(">I")
    group_size = None if raw_group_size == _NO_GROUP_SIZE else raw_group_size
    strategy = upgrade_strategy(reader.string(">B"))
    if header_only:
        return SnapshotState(last_seq, total_cost, group_size, strategy, [])
    (doc_count,) = reader.unpack(">I")
    documents: List[DocumentState] = []
    for _ in range(doc_count):
        root = _read_tree(reader)
        generator_state = reader.unpack(">IIIQ")
        (label_count,) = reader.unpack(">I")
        labels = read_pairs(reader, label_count)
        (group_count,) = reader.unpack(">I")
        groups: Groups = []
        for _ in range(group_count):
            (member_count,) = reader.unpack(">I")
            max_prime = read_int(reader)
            groups.append((max_prime, read_pairs(reader, member_count)))
        leaf_counters: Tuple[Tuple[int, int], ...] = ()
        if version >= 3:
            (counter_count,) = reader.unpack(">I")
            leaf_counters = tuple(reader.uvarint_pairs(counter_count))
        documents.append(
            DocumentState(
                root=root,
                labels=labels,
                generator_state=generator_state,
                sc_groups=groups,
                leaf_counters=leaf_counters,
            )
        )
    if reader.remaining:
        raise reader.fail(f"{reader.remaining} trailing bytes after the last document")
    return SnapshotState(
        last_seq=last_seq,
        total_update_cost=total_cost,
        group_size=group_size,
        strategy=strategy,
        documents=documents,
    )


def restore_collection(state: SnapshotState) -> LiveCollection:
    """Rebuild a live collection from a decoded snapshot, relabeling nothing."""
    with metrics.timed("snapshot.restore"):
        ordered: List[OrderedDocument] = []
        try:
            for doc_state in state.documents:
                # Validate before the constructor sieves reserved_limit
                # primes: a corrupt state must fail typed, not exhaust memory.
                PrimeGenerator.check_state(doc_state.generator_state)
                scheme = PrimeScheme(
                    reserved_primes=doc_state.generator_state[0],
                    power2_leaves=False,
                )
                # Rejects a label count other than the tree's node count,
                # and any label off its parent's chain.
                scheme.restore_state(
                    doc_state.root,
                    doc_state.labels,
                    doc_state.generator_state,
                    doc_state.leaf_counters,
                )
                table = SCTable.from_groups(
                    doc_state.sc_groups, group_size=state.group_size
                )
                ordered.append(
                    OrderedDocument.from_state(doc_state.root, scheme, table)
                )
            return LiveCollection.from_ordered(
                ordered,
                group_size=state.group_size,
                strategy=state.strategy,
                total_update_cost=state.total_update_cost,
            )
        except (ValueError, OrderingError, LabelingError) as error:
            raise SnapshotCorruptError(
                f"snapshot state is internally inconsistent: {error}"
            ) from error


def collection_fingerprint(collection: LiveCollection) -> str:
    """A canonical content hash of the collection's entire durable state.

    Two collections with identical trees, labels, SC grouping, config, and
    accumulated update cost produce the same hex digest — the "byte
    identical" oracle of the crash-recovery tests.  Implemented as a
    SHA-256 of the canonical snapshot encoding at ``last_seq=0`` (the
    sequence number is bookkeeping, not state).
    """
    return hashlib.sha256(_encode_snapshot(collection, 0)).hexdigest()
