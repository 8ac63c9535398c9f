"""Seeded benchmark inputs: op streams, query schedules, and the shadow oracle.

Every input a workload feeds the system is made here, from ``--seed``,
before any timing starts.  Op streams are generated against a *shadow*:
plain :class:`~repro.xmlkit.tree.XmlElement` copies of the documents that
never touch labels, SC tables or the query engine.  The shadow is also the
oracle.  After the system has applied the first ``k`` requests of a
stream, its documents must serialize byte-identically to the shadow after
the same ``k`` requests, and a sampled query must return exactly what
:class:`~repro.query.naive.NaiveEvaluator` finds by walking the shadow.

Streams are prefix-stable: ``op_stream(docs, seed, k)`` yields the first
``k`` requests of ``op_stream(docs, seed, n)`` for every ``n >= k``, and
ends with the shadow in the state those ``k`` requests leave.  A run that
stops early regenerates its prefix instead of keeping per-request copies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.response import PAPER_QUERIES
from repro.query.naive import NaiveEvaluator
from repro.xmlkit.serialize import serialize
from repro.xmlkit.tree import XmlElement

__all__ = ["OPS_PER_BATCH", "Request", "Shadow", "Stream", "op_stream", "query_rounds"]

#: Ops in one request's batch.
OPS_PER_BATCH = 8

#: Tags given to inserted elements.  All but NOTE appear in the Table 2
#: queries, so inserts change what the queries retrieve and exercise the
#: incrementally patched query store, not just the SC tables.
INSERT_TAGS = ("SPEECH", "LINE", "ACT", "PERSONA", "NOTE")

#: How many random nodes a generator draws before it gives up on finding
#: a target of the wanted kind (a leaf to delete, a non-root sibling).
_DRAWS = 64


@dataclass(frozen=True)
class Request:
    """One closed-loop request: an addressed batch, then one Table 2 query.

    ``entries`` use the durable layer's addressed form
    (``{"kind", "doc", "pos", ...}``), every address in pre-batch
    coordinates.  ``expected`` is the oracle's count for ``query`` after the
    batch, or ``None`` when this request is not one of the sampled checks.
    """

    entries: Tuple[dict, ...]
    query: Tuple[str, str]
    expected: Optional[int] = None


class Shadow:
    """Plain-tree mirror of a collection, mutated op by op."""

    def __init__(self, documents: Sequence[XmlElement]):
        self.documents = [document.copy() for document in documents]
        # Preorder lists are kept incrementally so a batch can snapshot its
        # pre-batch coordinates with one list copy per touched document.
        self._preorder = [list(root.iter_preorder()) for root in self.documents]

    def serialized(self) -> List[str]:
        """Every document's compact serialization, in collection order."""
        return [serialize(root) for root in self.documents]

    def count(self, query: str) -> int:
        """What a plain tree walk retrieves for ``query`` right now."""
        return NaiveEvaluator(self.documents).count(query)

    def node_count(self) -> int:
        """Elements across every document."""
        return sum(len(order) for order in self._preorder)

    def random_batch(self, rng: random.Random, size: int) -> List[dict]:
        """Draw ``size`` ops, apply them here, return them addressed.

        The mix is 25% ``insert_child``, 25% ``insert_before`` /
        ``insert_after`` and 50% leaf ``delete``, so documents stay close
        to their starting size.  Every target existed before the batch and
        is still alive when its op applies: that is what makes a batch
        replayable from pre-batch addresses.
        """
        before: Dict[int, List[XmlElement]] = {}
        deleted: set = set()
        entries: List[dict] = []
        while len(entries) < size:
            roll = rng.random()
            if roll < 0.25:
                kind = "insert_child"
            elif roll < 0.5:
                kind = "insert_before" if roll < 0.375 else "insert_after"
            else:
                kind = "delete"
            doc = rng.randrange(len(self.documents))
            if doc not in before:
                before[doc] = list(self._preorder[doc])
            target = self._draw(rng, before[doc], deleted, kind)
            if target is None:
                continue
            position, node = target
            entry = {"kind": kind, "doc": doc, "pos": position}
            if kind == "delete":
                deleted.add(id(node))
                node.detach()
                self._preorder[doc].remove(node)
            else:
                if kind == "insert_child":
                    parent, index = node, rng.randint(0, len(node))
                    entry["index"] = index
                else:
                    parent = node.parent
                    index = node.child_index + (kind == "insert_after")
                entry["tag"] = rng.choice(INSERT_TAGS)
                self._insert(doc, parent, index, entry["tag"])
            entries.append(entry)
        return entries

    @staticmethod
    def _draw(
        rng: random.Random,
        order: List[XmlElement],
        deleted: set,
        kind: str,
    ) -> Optional[Tuple[int, XmlElement]]:
        for _ in range(_DRAWS):
            position = rng.randrange(len(order))
            node = order[position]
            if id(node) in deleted:
                continue
            if kind != "insert_child" and node.parent is None:
                continue
            if kind == "delete" and len(node):
                continue
            return position, node
        return None

    def _insert(self, doc: int, parent: XmlElement, index: int, tag: str) -> None:
        # The new node follows, in preorder, the last node of its previous
        # sibling's subtree, or its parent when it becomes the first child.
        anchor = parent
        if index:
            anchor = parent[index - 1]
            while len(anchor):
                anchor = anchor[-1]
        node = XmlElement(tag)
        parent.insert(index, node)
        order = self._preorder[doc]
        order.insert(order.index(anchor) + 1, node)


def query_rounds(seed: int, rounds: int) -> List[List[Tuple[str, str]]]:
    """``rounds`` shuffles of the nine Table 2 queries, seeded."""
    rng = random.Random(f"queries:{seed}")
    schedule = []
    for _ in range(rounds):
        order = list(PAPER_QUERIES)
        rng.shuffle(order)
        schedule.append(order)
    return schedule


@dataclass
class Stream:
    """Generated requests and the shadow in the state they leave."""

    requests: List[Request]
    shadow: Shadow


def op_stream(
    documents: Sequence[XmlElement],
    seed: int,
    requests: int,
    oracle_every: int = 0,
) -> Stream:
    """The first ``requests`` requests of the stream for ``seed``.

    Each request is a batch of :data:`OPS_PER_BATCH` ops and one Table 2 query
    taken round-robin from :func:`query_rounds`.  With ``oracle_every``
    set, every ``oracle_every``-th request carries the shadow's count for
    its query as ``expected``.
    """
    rng = random.Random(f"ops:{seed}")
    stream = Stream([], Shadow(documents))
    schedule = [query for round_ in query_rounds(seed, -(-requests // 9)) for query in round_]
    for index in range(requests):
        entries = tuple(stream.shadow.random_batch(rng, OPS_PER_BATCH))
        query = schedule[index]
        expected = None
        if oracle_every and (index + 1) % oracle_every == 0:
            expected = stream.shadow.count(query[1])
        stream.requests.append(Request(entries, query, expected))
    return stream
