"""Document placement: hash partitioning, the shard manifest, the map.

The paper's labeling scheme keeps all order-sensitive state (the prime
generator and SC congruence groups) *per document*, so a document is the
natural unit of placement: no label, residue, or order number ever spans
two documents, and a shard holding a subset of the documents is a fully
self-contained collection.  Placement is a pure function of the global
document id — a keyed BLAKE2b digest of the id's decimal form modulo
the shard count — so the router, a restarted worker, and an offline
inspector all agree on where every document lives without coordination.

Three pieces live here:

* :class:`HashPartitioner` — the pure placement function,
* :class:`ShardManifest` — the atomically-replaced ``SHARDS.json`` at
  the root of a sharded directory tree, recording shard count and global
  document count (the two inputs placement depends on),
* :class:`DocumentMap` — the deterministic global ⇄ (shard, local)
  index translation both the router and the tests derive from the
  manifest alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.durable.files import replace_durably
from repro.errors import QueryEvaluationError, ShardError
from repro.query.engine import upgrade_strategy

__all__ = [
    "MANIFEST_NAME",
    "DocumentMap",
    "HashPartitioner",
    "ShardManifest",
    "read_manifest",
    "write_manifest",
]

#: Atomic manifest at the root of a sharded collection directory.
MANIFEST_NAME = "SHARDS.json"


class HashPartitioner:
    """Deterministic document → shard placement by BLAKE2b hash.

    A real digest rather than :func:`hash` because Python string hashing
    is salted per process (``PYTHONHASHSEED``) — a restarted router must
    compute the *same* placement the dead one did.  BLAKE2b rather than
    CRC32 because placement keys are tiny consecutive integers and CRC's
    weak avalanche visibly clusters them (ids 0–3 all landing on one of
    two shards); a cryptographic digest spreads any key shape evenly.
    """

    def __init__(self, shards: int):
        """A partitioner over ``shards`` workers (must be ≥ 1)."""
        if shards < 1:
            raise ShardError(f"shard count must be at least 1, got {shards}")
        self.shards = shards

    def shard_of(self, doc_id: int) -> int:
        """The shard that owns global document ``doc_id``."""
        digest = hashlib.blake2b(
            f"doc:{doc_id}".encode("ascii"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") % self.shards


@dataclass(frozen=True)
class ShardManifest:
    """The durable facts every shard participant must agree on.

    Everything else (which shard holds which document, local indexes) is
    derived deterministically from ``shards`` and ``doc_count`` via
    :class:`DocumentMap`; keeping only the inputs in the manifest means
    there is no derived table on disk to drift out of sync.
    """

    shards: int
    doc_count: int
    group_size: int
    strategy: str
    fsync: str
    version: int = 1


def write_manifest(root: str | Path, manifest: ShardManifest) -> None:
    """Atomically publish ``manifest`` as ``root/SHARDS.json``.

    Written by :func:`~repro.durable.files.replace_durably`, like every
    snapshot: a crashed writer leaves either the old complete manifest or
    the new complete manifest, never a torn one.
    """
    blob = json.dumps(asdict(manifest), sort_keys=True).encode("utf-8")
    replace_durably(Path(root) / MANIFEST_NAME, blob)


def read_manifest(root: str | Path) -> ShardManifest:
    """Decode ``root/SHARDS.json``; raises :class:`ShardError` if unusable.

    Unlike a snapshot generation there is no scan fallback: the
    manifest is the only record of the shard count, and guessing it
    wrong would silently route documents to the wrong workers.  A retired
    strategy name (``merge``/``window``/``twig``) reads as ``auto``.
    """
    path = Path(root) / MANIFEST_NAME
    try:
        decoded = json.loads(path.read_text("utf-8"))
    except FileNotFoundError:
        raise ShardError(
            f"{path} not found: not a sharded collection root "
            "(create one with ShardedCollection.create)"
        ) from None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ShardError(f"shard manifest {path} is unreadable: {error}") from error
    try:
        return ShardManifest(
            shards=int(decoded["shards"]),
            doc_count=int(decoded["doc_count"]),
            group_size=int(decoded["group_size"]),
            strategy=upgrade_strategy(str(decoded["strategy"])),
            fsync=str(decoded["fsync"]),
            version=int(decoded.get("version", 1)),
        )
    except (KeyError, TypeError, ValueError, QueryEvaluationError) as error:
        raise ShardError(
            f"shard manifest {path} is missing or mistypes a field: {error}"
        ) from error


class DocumentMap:
    """Global ⇄ (shard, local) document index translation.

    Local indexes are assignment-ordered: the k-th global document routed
    to a shard is that shard's local document k.  Because global ids are
    assigned monotonically and placement is deterministic, replaying ids
    ``0..doc_count-1`` through the partitioner reconstructs the exact map
    any other participant holds.
    """

    def __init__(self, shards: int, doc_count: int = 0):
        """Derive the map for ``doc_count`` documents over ``shards``."""
        self.partitioner = HashPartitioner(shards)
        self.by_shard: List[List[int]] = [[] for _ in range(shards)]
        self._location: Dict[int, Tuple[int, int]] = {}
        for doc_id in range(doc_count):
            self.add()

    @property
    def doc_count(self) -> int:
        """Number of global documents currently mapped."""
        return len(self._location)

    def add(self) -> Tuple[int, int, int]:
        """Assign the next global id; returns (global, shard, local)."""
        doc_id = len(self._location)
        shard = self.partitioner.shard_of(doc_id)
        local = len(self.by_shard[shard])
        self.by_shard[shard].append(doc_id)
        self._location[doc_id] = (shard, local)
        return doc_id, shard, local

    def to_local(self, doc_id: int) -> Tuple[int, int]:
        """``(shard, local index)`` for global ``doc_id``."""
        try:
            return self._location[doc_id]
        except KeyError:
            raise ShardError(
                f"global document {doc_id} does not exist "
                f"(collection holds {len(self._location)})"
            ) from None

    def to_global(self, shard: int, local: int) -> int:
        """The global id of ``shard``'s ``local``-th document."""
        if not 0 <= shard < len(self.by_shard):
            raise ShardError(
                f"shard {shard} does not exist (have {len(self.by_shard)})"
            )
        docs = self.by_shard[shard]
        if not 0 <= local < len(docs):
            raise ShardError(
                f"shard {shard} has {len(docs)} documents, no local index {local}"
            )
        return docs[local]

    def shard_of(self, doc_id: int) -> int:
        """The shard owning global ``doc_id``."""
        return self.to_local(doc_id)[0]
