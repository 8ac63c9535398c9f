"""On-disk persistence for label stores.

The paper stores labels in DBMS tables precisely so they outlive the
documents; this module provides the equivalent for the in-memory
:class:`~repro.query.store.LabelStore`: a compact binary file holding one
record per element (document id, tag, depth, parent id, encoded label),
written and read through the shared field codec of
:mod:`repro.labeling.codec` (:class:`~repro.labeling.codec.FieldWriter` /
:class:`~repro.labeling.codec.FieldReader`).

File layout (all integers big-endian)::

    magic   4 bytes  b"RPLS"
    version 1 byte
    scheme  1 byte length + UTF-8 name        ("prime" | "interval" | "prefix-2")
    kind    1 byte length + UTF-8 codec kind
    widths  2 bytes field_count, 2 bytes field_bytes   (versions 1-2 only)
    tags    4 bytes count, then per tag: 2 bytes length + UTF-8
    rows    4 bytes count, then per row (each document's rows in preorder):
              4B doc_id  4B element_id  4B tag_index  2B depth
              4B parent_id (0xFFFFFFFF = none)  encoded label
              2B text length + UTF-8 text (the value column)
    footer  4 bytes CRC32 of everything above      (version >= 2 only)

:func:`save_store` writes version 3 only: labels are the self-delimiting
varint records of :class:`repro.labeling.codec.VarintCodec`, so every
label pays for its own bits instead of the document's widest, which is
what shrinks prime-label columns whose sizes span orders of magnitude.
:func:`load_store` also reads the older files: version 2 stores labels in
the paper's fixed-width column (:class:`~repro.labeling.codec.FixedWidthCodec`,
sized by the ``widths`` header), and version 1 is version 2 without the
CRC footer.

Loading rebuilds a fully queryable store.  The ``node`` back-references of
a loaded store are *placeholder* elements (tag only) — queries never touch
them; they exist so result rows still render a tag.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from repro.errors import QueryEvaluationError
from repro.labeling.codec import (
    FieldReader,
    FieldWriter,
    FixedWidthCodec,
    VarintCodec,
    check_crc_footer,
    decoding,
)
from repro.order.sc_table import SCTable
from repro.query.store import (
    ElementRow,
    IntervalOps,
    LabelStore,
    PrefixOps,
    PrimeOps,
    StoreOps,
)
from repro.xmlkit.tree import XmlElement

__all__ = ["save_store", "load_store"]

_MAGIC = b"RPLS"
#: Versions :func:`load_store` decodes, oldest first; 1 and 2 are read-only.
_SUPPORTED_VERSIONS = (1, 2, 3)
#: The version every store is written at: the newest one read.
_VERSION = _SUPPORTED_VERSIONS[-1]
_NO_PARENT = 0xFFFFFFFF

_KIND_BY_SCHEME = {"prime": "prime", "interval": "order-size", "prefix-2": "bits"}


def _scheme_name(ops: StoreOps) -> str:
    if isinstance(ops, PrimeOps):
        return "prime"
    if isinstance(ops, IntervalOps):
        return "interval"
    if isinstance(ops, PrefixOps):
        return "prefix-2"
    raise QueryEvaluationError(f"cannot persist ops of type {type(ops).__name__}")


def save_store(store: LabelStore, path: str | Path) -> int:
    """Write ``store`` to ``path`` as a version-3 file; returns its size."""
    scheme = _scheme_name(store.ops)
    kind = _KIND_BY_SCHEME[scheme]
    rows = store.rows  # per document in preorder: the order loads rebuild
    codec = VarintCodec(kind)

    tags: List[str] = []
    tag_index: Dict[str, int] = {}
    for row in rows:
        if row.tag not in tag_index:
            tag_index[row.tag] = len(tags)
            tags.append(row.tag)

    out = FieldWriter(_MAGIC)
    out.pack(">B", _VERSION)
    out.string(">B", scheme)
    out.string(">B", kind)
    out.pack(">I", len(tags))
    for tag in tags:
        out.string(">H", tag)
    out.pack(">I", len(rows))
    for row in rows:
        parent = _NO_PARENT if row.parent_id is None else row.parent_id
        out.pack(
            ">IIIHI", row.doc_id, row.element_id, tag_index[row.tag], row.depth, parent
        )
        codec.write_label(out, row.label)
        out.string(">H", row.text)
    blob = out.finish()
    Path(path).write_bytes(blob)
    return len(blob)


def _rebuild_ops(scheme: str, rows: List[ElementRow]) -> StoreOps:
    if scheme == "interval":
        return IntervalOps()
    if scheme == "prefix-2":
        return PrefixOps()
    # prime: rebuild the per-document SC tables from the stored labels.
    # Each row's order is its position in its document's stream, which
    # save_store writes in preorder; the primes themselves are no guide
    # (an insert draws a larger prime than every node after it).
    ordered: Dict[int, Any] = {}
    by_doc: Dict[int, List[ElementRow]] = {}
    for row in rows:
        by_doc.setdefault(row.doc_id, []).append(row)
    for doc_id, doc_rows in by_doc.items():
        table = SCTable(group_size=5)
        for order, row in enumerate(doc_rows):
            if row.depth > 0:
                table.register(row.label.self_label, order)
        holder = _LoadedOrderHolder(table)
        ordered[doc_id] = holder
    return PrimeOps(ordered)


class _LoadedOrderHolder:
    """Duck-typed stand-in for OrderedDocument: only ``sc_table`` is used."""

    def __init__(self, sc_table: SCTable):
        self.sc_table = sc_table


def load_store(path: str | Path) -> LabelStore:
    """Load a store written by :func:`save_store`.

    Raises :class:`repro.errors.QueryEvaluationError` on anything that is
    not a well-formed store file (wrong magic, truncation, bytes after the
    last row, corrupted indices or labels).
    """
    name = f"label store {path}"
    with decoding(QueryEvaluationError, name):
        return _load_store_checked(path, name)


def _load_store_checked(path: str | Path, name: str) -> LabelStore:
    blob = Path(path).read_bytes()
    end = len(blob)
    if len(blob) >= 5 and blob[:4] == _MAGIC and blob[4] >= 2:
        # version >= 2 ends in a CRC32 footer over everything else.
        end = check_crc_footer(blob, QueryEvaluationError, name)
    reader = FieldReader(blob, QueryEvaluationError, name, end=end)
    if reader.take(4) != _MAGIC:
        raise QueryEvaluationError(f"{path} is not a label store file")
    (version,) = reader.unpack(">B")
    if version not in _SUPPORTED_VERSIONS:
        raise QueryEvaluationError(f"unsupported label store version {version}")
    scheme = reader.string(">B")
    kind = reader.string(">B")
    if scheme not in _KIND_BY_SCHEME or _KIND_BY_SCHEME[scheme] != kind:
        raise QueryEvaluationError(
            f"corrupt label store: scheme {scheme!r} / kind {kind!r}"
        )
    codec: FixedWidthCodec | VarintCodec
    if version >= 3:
        codec = VarintCodec(kind)
    else:
        field_count, field_bytes = reader.unpack(">HH")
        codec = FixedWidthCodec(kind, field_count, field_bytes)
    (tag_count,) = reader.unpack(">I")
    tags = [reader.string(">H") for _ in range(tag_count)]
    (row_count,) = reader.unpack(">I")
    rows: List[ElementRow] = []
    for _ in range(row_count):
        doc_id, element_id, tag_idx, depth, parent = reader.unpack(">IIIHI")
        label = codec.read_label(reader)
        text = reader.string(">H")
        rows.append(
            ElementRow(
                doc_id=doc_id,
                element_id=element_id,
                tag=tags[tag_idx],
                label=label,
                depth=depth,
                parent_id=None if parent == _NO_PARENT else parent,
                node=XmlElement(tags[tag_idx]),
                text=text,
            )
        )
    if reader.remaining:
        raise reader.fail(f"{reader.remaining} trailing bytes after the last row")
    return LabelStore(rows, _rebuild_ops(scheme, rows))
