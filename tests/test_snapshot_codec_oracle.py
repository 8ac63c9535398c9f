"""The snapshot's inlined section loops against a field-call reference.

``snapshot_bytes`` writes the tree section straight onto its buffer and
the label, SC-member and leaf-counter sections through
``FieldWriter.uvarint_pairs``; ``read_snapshot`` reads them back in place.
The reference writer below spells the same RPSN v3 layout out one
``FieldWriter`` call per field, as the format documents it, and must
produce the very same bytes for random trees: attributes, empty and
multi-byte UTF-8 strings, fan-out up to six, every group size, after a
few random inserts and deletes.  Reading the bytes back must restore a
collection with the same fingerprint and the same trees.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.durable.snapshot import (
    collection_fingerprint,
    read_snapshot,
    restore_collection,
    snapshot_bytes,
)
from repro.labeling.codec import FieldWriter
from repro.labeling.prime import PrimeScheme
from repro.query.live import LiveCollection
from repro.xmlkit.tree import XmlElement

#: One-, two-, three- and four-byte UTF-8 characters.
ALPHABET = "aZ_0é߷库✓𝄞"
TAGS = st.text(alphabet=ALPHABET, min_size=1, max_size=4)
STRINGS = st.text(alphabet=ALPHABET, max_size=6)
ATTRIBUTES = st.dictionaries(STRINGS, STRINGS, max_size=3)


@st.composite
def trees(draw, max_nodes: int = 30) -> XmlElement:
    """A random tree with fan-out 0 to 6, built breadth- or depth-first.

    Depth-first trees run deep enough for label products of four to
    seven varint bytes.
    """
    root = XmlElement(draw(TAGS), draw(ATTRIBUTES), draw(STRINGS))
    frontier, count = [root], 1
    deepest_first = draw(st.booleans())
    while frontier and count < max_nodes:
        node = frontier.pop() if deepest_first else frontier.pop(0)
        for _ in range(draw(st.integers(0, 6))):
            if count == max_nodes:
                break
            child = XmlElement(draw(TAGS), draw(ATTRIBUTES), draw(STRINGS))
            frontier.append(node.append(child))
            count += 1
    return root


def chain(depth: int) -> XmlElement:
    """A path of ``depth`` nodes below a root: the deepest label is the
    product of ``depth`` primes, past the ten varint bytes the codec
    joins inline."""
    root = node = XmlElement("chain")
    for level in range(depth):
        node = node.append(XmlElement("链", {"level": str(level)}))
    return root


def reference_snapshot(collection: LiveCollection, last_seq: int = 0) -> bytes:
    """RPSN v3, written one field call at a time (see durable/snapshot.py)."""
    out = FieldWriter(b"RPSN")
    out.pack(">B", 3)
    out.pack(">QQ", last_seq, collection.total_update_cost)
    group_size = collection.group_size
    out.pack(">I", 0xFFFFFFFF if group_size is None else group_size)
    out.string(">B", collection.strategy)
    out.pack(">I", len(collection.ordered_documents))
    for document in collection.ordered_documents:
        nodes = list(document.root.iter_preorder())
        for node in nodes:
            out.string(">H", node.tag)
            out.string(">I", node.text)
            out.pack(">H", len(node.attributes))
            for name, value in node.attributes.items():
                out.string(">H", name)
                out.string(">H", value)
            out.pack(">I", len(node))
        generator_state, leaf_counters = document.scheme.export_state()
        out.pack(">IIIQ", *generator_state)
        out.pack(">I", len(nodes))
        for node in nodes:
            label = document.scheme.label_of(node)
            out.uvarint(label.value)
            out.uvarint(label.self_label)
        groups = document.sc_table.groups()
        out.pack(">I", len(groups))
        for max_prime, members in groups:
            out.pack(">I", len(members))
            out.uvarint(max_prime)
            for modulus, residue in members:
                out.uvarint(modulus)
                out.uvarint(residue)
        out.pack(">I", len(leaf_counters))
        for parent_value, next_index in leaf_counters:
            out.uvarint(parent_value)
            out.uvarint(next_index)
    return bytes(out.finish())


def churn(collection: LiveCollection, seed: int, steps: int) -> None:
    """A few random inserts (every kind) and leaf-or-subtree deletes."""
    rng = random.Random(seed)
    for step in range(steps):
        root = rng.choice(collection.documents)
        nodes = list(root.iter_preorder())
        target = rng.choice(nodes)
        kind = rng.randrange(4)
        if kind == 0 or target is root:
            collection.insert_child(target, rng.randint(0, len(target)), tag=f"n{step}")
        elif kind == 1:
            collection.insert_before(target, tag="前")
        elif kind == 2:
            collection.insert_after(target, tag="after")
        else:
            collection.delete(target)


def with_opt2_counters(collection: LiveCollection) -> None:
    """Give each document the Opt2 leaf counters of its own tree.

    Ordered documents label without Opt2, so their counter section is
    always empty; an Opt2 labeling of the same tree supplies counters
    (parent label values and leaf counts) for that section to carry.
    """
    for document in collection.ordered_documents:
        opt2 = PrimeScheme(reserved_primes=0, power2_leaves=True)
        opt2.label_tree(document.root.copy())
        _, counters = opt2.export_state()
        document.scheme._leaf_counter = dict(counters)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    roots=st.lists(trees(), min_size=1, max_size=3),
    deep=st.booleans(),
    group_size=st.sampled_from([None, 3, 5]),
    opt2=st.booleans(),
    seed=st.integers(0, 2**16),
    steps=st.integers(0, 6),
)
def test_inlined_sections_match_the_reference(
    tmp_path_factory, roots, deep, group_size, opt2, seed, steps
):
    if deep:
        roots.append(chain(24))
    collection = LiveCollection(roots, group_size=group_size)
    churn(collection, seed, steps)
    if opt2:
        with_opt2_counters(collection)
    blob = snapshot_bytes(collection, last_seq=seed)
    assert blob == reference_snapshot(collection, last_seq=seed)

    path = tmp_path_factory.mktemp("snap") / "snap.rpsn"
    path.write_bytes(blob)
    state = read_snapshot(path)
    assert state.last_seq == seed
    restored = restore_collection(state)
    assert collection_fingerprint(restored) == collection_fingerprint(collection)
    assert len(restored.documents) == len(collection.documents)
    for mine, theirs in zip(restored.documents, collection.documents):
        assert mine.structurally_equal(theirs)
        assert mine.subtree_size == theirs.subtree_size
