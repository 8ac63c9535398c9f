"""A fresh ordered document loads its SC table on first use, unobservably.

Construction labels the tree, checks that every order fits its self-label
(raising the load's :class:`~repro.errors.CapacityError`) and charges the
load's ``sc.*`` registrations; the table itself is loaded by the first
reader or mutator of :attr:`OrderedDocument.sc_table`.  Two things are
pinned here:

* the laziness shows nowhere: a lazily loaded document and a twin whose
  table was read right after construction agree on the snapshot bytes,
  every node's order and every ``sc.*`` counter after each step of a
  random insert / delete / compact sequence;
* when the table gets loaded: never for an ``auto`` collection answering
  the Table 2 queries, and by every order reader and every mutator.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.response import PAPER_QUERIES, build_query_corpus
from repro.datasets.random_tree import RandomTreeBuilder
from repro.durable.snapshot import snapshot_bytes
from repro.errors import ReproError
from repro.labeling.prime import PrimeScheme
from repro.obs import metrics
from repro.obs.audit import audit_ordered_document
from repro.order.document import OrderedDocument
from repro.order.sc_table import SCTable
from repro.query.engine import QueryEngine
from repro.query.live import LiveCollection
from repro.xmlkit.builder import element
from repro.xmlkit.tree import XmlElement


@pytest.fixture
def loads(monkeypatch) -> List[int]:
    """Counts :meth:`SCTable.from_groups` calls: one per table loaded."""
    calls: List[int] = []
    original = SCTable.from_groups.__func__

    def counting(cls, groups, group_size=5):
        calls.append(len(groups))
        return original(cls, groups, group_size)

    monkeypatch.setattr(SCTable, "from_groups", classmethod(counting))
    return calls


def library() -> XmlElement:
    return element(
        "library",
        element("book", element("title"), element("year")),
        element("book", element("title"), element("year")),
        element("journal", element("title")),
    )


# ----------------------------------------------------------------------
# Laziness is unobservable
# ----------------------------------------------------------------------

#: An op is (kind, a, b); ``a`` and ``b`` pick nodes and positions modulo
#: what the current tree offers, so every drawn sequence is applicable.
OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert_child", "insert_before", "insert_after", "append_child", "delete", "compact"]
        ),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    ),
    min_size=1,
    max_size=12,
)


def apply_op(document: OrderedDocument, op: Tuple[str, int, int], step: int) -> None:
    kind, a, b = op
    nodes = list(document.root.iter_preorder())
    non_root = nodes[1:] or nodes
    tag = f"n{step}"
    if kind == "insert_child":
        parent = nodes[a % len(nodes)]
        document.insert_child(parent, b % (len(parent.children) + 1), tag=tag)
    elif kind == "append_child":
        document.append_child(nodes[a % len(nodes)], tag=tag)
    elif kind == "compact":
        document.compact()
    elif len(nodes) == 1:
        document.append_child(document.root, tag=tag)  # nothing but the root
    elif kind == "insert_before":
        document.insert_before(non_root[a % len(non_root)], tag=tag)
    elif kind == "insert_after":
        document.insert_after(non_root[a % len(non_root)], tag=tag)
    else:
        document.delete(non_root[a % len(non_root)])


def sc_counters(run: Callable[[], None]) -> Tuple[Dict[str, int], str]:
    """The ``sc.*`` counters ``run`` charges, and the error it raised."""
    with metrics.collecting() as registry:
        try:
            run()
            error = ""
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
    counters = registry.snapshot()["counters"]
    return {name: value for name, value in counters.items() if name.startswith("sc.")}, error


def observed(document: OrderedDocument, group_size: int | None) -> Tuple[bytes, List[int]]:
    collection = LiveCollection.from_ordered([document], group_size=group_size)
    orders = [document.order_of(node) for node in document.root.iter_preorder()]
    return snapshot_bytes(collection), orders


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**16),
    nodes=st.integers(1, 60),
    group_size=st.sampled_from([1, 3, 5, None]),
    ops=OPS,
)
def test_lazy_load_matches_an_eager_twin(seed, nodes, group_size, ops):
    def build() -> OrderedDocument:
        tree = RandomTreeBuilder(seed=seed, max_depth=5, max_fanout=6).build(nodes)
        return OrderedDocument(tree, group_size=group_size)

    with metrics.collecting() as lazy_build:
        lazy = build()
    with metrics.collecting() as eager_build:
        eager = build()
    eager.sc_table  # the twin loads its table at once
    assert lazy_build.snapshot()["counters"] == eager_build.snapshot()["counters"]
    for step, op in enumerate(ops):
        lazy_step = sc_counters(lambda: apply_op(lazy, op, step))
        eager_step = sc_counters(lambda: apply_op(eager, op, step))
        assert lazy_step == eager_step, f"step {step}: {op}"
        assert observed(lazy, group_size) == observed(eager, group_size), f"step {step}: {op}"


# ----------------------------------------------------------------------
# When the table gets loaded
# ----------------------------------------------------------------------


def test_auto_collection_answers_table2_without_loading(loads):
    corpus = build_query_corpus(plays=2, replicate=2, seed=100)
    collection = LiveCollection(corpus, strategy="auto")
    counts = [len(collection.query(text)) for _name, text in PAPER_QUERIES]
    assert sum(counts) > 0
    assert loads == []
    assert all(document._sc_table is None for document in collection.ordered_documents)


def test_construction_loads_nothing_but_charges_the_load(loads):
    with metrics.collecting() as registry:
        document = OrderedDocument(library(), group_size=3)
    assert loads == []
    assert registry.counter_value("sc.registered") == 8
    assert registry.counter_value("sc.records_opened") == 3
    with metrics.collecting() as registry:
        assert document.sc_table.node_count == 8
        assert document.sc_table is document.sc_table
    assert loads == [3]
    assert registry.snapshot()["counters"] == {}


def _scan_query(collection: LiveCollection) -> None:
    scan = QueryEngine(collection.engine.store, strategy="scan")
    assert scan.evaluate("/library//Following::title")


def _first_book(document: OrderedDocument) -> XmlElement:
    return document.root.children[0]


COLLECTION_READERS = {
    "scan query": _scan_query,
    "publish_view": lambda collection: collection.publish_view(),
    "snapshot encode": snapshot_bytes,
    "audit": lambda collection: audit_ordered_document(
        collection.ordered_documents[0]
    ).raise_if_failed(),
}

MUTATORS = {
    "insert_child": lambda doc: doc.insert_child(_first_book(doc), 1),
    "insert_before": lambda doc: doc.insert_before(_first_book(doc)),
    "insert_after": lambda doc: doc.insert_after(_first_book(doc)),
    "append_child": lambda doc: doc.append_child(doc.root),
    "delete": lambda doc: doc.delete(_first_book(doc)),
    "compact": lambda doc: doc.compact(),
    "order_of": lambda doc: doc.order_of(_first_book(doc)),
    "check": lambda doc: doc.check(),
}


@pytest.mark.parametrize("reader", list(COLLECTION_READERS))
def test_collection_readers_load_the_table(loads, reader):
    collection = LiveCollection([library()], strategy="auto")
    collection.query("/library//title")
    assert loads == []
    COLLECTION_READERS[reader](collection)
    assert len(loads) == 1


@pytest.mark.parametrize("use", list(MUTATORS))
def test_mutators_and_order_readers_load_the_table_once(loads, use):
    document = OrderedDocument(library())
    MUTATORS[use](document)
    assert len(loads) == 1
    assert document.check()
    assert len(loads) == 1


def test_residue_overflow_repair_after_a_lazy_load():
    # Opt1's one reserved prime (2) goes to the first top-level node and
    # the next top-level node takes 3 at order 2, so the first insertion
    # in front of them overflows both residues and relabels; the lazily
    # loaded document must repair exactly as its eager twin does.
    def build() -> OrderedDocument:
        root = element("r", element("t", element("l")), element("t"), element("t"))
        return OrderedDocument(root, scheme=PrimeScheme(reserved_primes=1, power2_leaves=False))

    lazy, eager = build(), build()
    eager.sc_table
    outcomes = []
    for document in (lazy, eager):
        with metrics.collecting() as registry:
            report = document.insert_child(document.root, 0)
        counters = registry.snapshot()["counters"]
        outcomes.append((report.node_relabels, report.sc_records_updated, counters))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2]["sc.residue_overflows"] == 2
    assert lazy.sc_table.groups() == eager.sc_table.groups()
    assert audit_ordered_document(lazy).ok
