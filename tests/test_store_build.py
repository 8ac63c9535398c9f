"""The one-walk store builder, the straight window copy, and the SC load order.

``LabelStore.from_trees`` makes every row of a labeled tree in one preorder
walk and fills the window columns and indexes as it goes;
``LabelStore.__init__`` numbers a row stream with a ``DocWindow.number``
sweep instead, and refuses one that is not a preorder.  Fed the same
preorder rows, the two must build the same table, also over trees that
``insert``, ``wrap_children`` and ``detach`` changed first: the builder
takes ``size`` from the tree's maintained subtree sizes.  ``frozen_copy``
copies each writer window row by row; the copy must equal the writer's
table and stay fixed while the writer moves on.
"""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labeling.interval import XissIntervalScheme
from repro.labeling.prefix import Prefix2Scheme
from repro.labeling.prime import PrimeScheme
from repro.order.document import OrderedDocument
from repro.query.live import LiveCollection
from repro.query.store import ElementRow, IntervalOps, LabelStore, PrefixOps, PrimeOps
from repro.xmlkit.parser import parse_document
from repro.xmlkit.tree import XmlElement

SCHEMES = {
    "prime": lambda: PrimeScheme(reserved_primes=0, power2_leaves=False),
    "interval": XissIntervalScheme,
    "prefix-2": Prefix2Scheme,
}

TAGS = ("a", "b", "c", "d")


@st.composite
def random_trees(draw, max_nodes=25):
    """A random tree from a parent-pointer list, tags from a small pool."""
    size = draw(st.integers(1, max_nodes))
    nodes = [XmlElement(draw(st.sampled_from(TAGS)), text=draw(st.sampled_from(("", "x"))))]
    for index in range(1, size):
        parent = nodes[draw(st.integers(0, index - 1))]
        nodes.append(parent.append(XmlElement(draw(st.sampled_from(TAGS)))))
    return nodes[0]


@st.composite
def edited_trees(draw):
    """A random tree after random ``insert``, ``wrap_children`` and
    ``detach`` edits, so every subtree size the builder reads was
    maintained by the edits rather than counted when the tree was made."""
    root = draw(random_trees())
    for _ in range(draw(st.integers(1, 6))):
        nodes = list(root.iter_preorder())
        node = nodes[draw(st.integers(0, len(nodes) - 1))]
        kind = draw(st.sampled_from(("insert", "wrap", "detach")))
        if kind == "insert":
            node.insert(draw(st.integers(0, len(node))), draw(random_trees(max_nodes=5)))
        elif kind == "wrap":
            start = draw(st.integers(0, len(node)))
            end = draw(st.integers(start, len(node)))
            node.wrap_children(draw(st.sampled_from(TAGS)), start, end)
        elif node is not root:
            node.detach()
    return root


def chain(length):
    root = node = XmlElement("a")
    for index in range(length - 1):
        node = node.append(XmlElement(TAGS[index % len(TAGS)]))
    return root


def preorder_rows(doc_id, root, label_of, next_id):
    """The row stream the builder replaced: preorder rows, no window columns."""
    rows, ancestors = [], []
    for node in root.iter_preorder():
        while ancestors and ancestors[-1].node is not node.parent:
            ancestors.pop()
        row = ElementRow(
            doc_id=doc_id,
            element_id=next_id,
            tag=node.tag,
            label=label_of(node),
            depth=len(ancestors),
            parent_id=ancestors[-1].element_id if ancestors else None,
            node=node,
            text=node.text,
        )
        next_id += 1
        rows.append(row)
        ancestors.append(row)
    return rows, next_id


def row_columns(row):
    return (
        row.doc_id,
        row.element_id,
        row.tag,
        row.label,
        row.depth,
        row.parent_id,
        id(row.node),
        row.text,
        row.pre,
        row.size,
    )


def table(store):
    """Every column, index and counter of a store, as comparable values."""
    windows = {doc_id: store.doc_window(doc_id) for doc_id in store.doc_ids}
    return {
        "rows": [row_columns(row) for row in store.rows],
        "by_pre": {
            doc_id: [row.element_id for row in window.by_pre]
            for doc_id, window in windows.items()
        },
        "by_tag": {
            doc_id: {
                tag: [row.element_id for row in bucket]
                for tag, bucket in window.by_tag.items()
            }
            for doc_id, window in windows.items()
        },
        "by_id": {key: row.element_id for key, row in store._row_by_id.items()},
        "by_node": {key: row.element_id for key, row in store._row_by_node.items()},
        "next_id": store._next_id,
    }


def ops_for(name):
    if name == "prime":
        return PrimeOps({})
    return IntervalOps() if name == "interval" else PrefixOps()


def assert_builder_matches_row_stream(roots):
    for name, factory in SCHEMES.items():
        schemes = [factory().label_tree(root) for root in roots]
        ops = ops_for(name)
        built = LabelStore.from_trees(
            [(root, scheme.label_of) for root, scheme in zip(roots, schemes)], ops
        )
        rows, next_id = [], 0
        for doc_id, (root, scheme) in enumerate(zip(roots, schemes)):
            doc_rows, next_id = preorder_rows(doc_id, root, scheme.label_of, next_id)
            rows.extend(doc_rows)
        swept = LabelStore(rows, ops)
        assert table(built) == table(swept), name


@given(st.lists(random_trees(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_one_walk_builder_equals_the_swept_row_stream(roots):
    assert_builder_matches_row_stream(roots)


@given(st.lists(edited_trees(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_one_walk_builder_equals_the_swept_row_stream_after_edits(roots):
    assert_builder_matches_row_stream(roots)


def test_one_walk_builder_reads_the_sizes_edits_maintained():
    root = parse_document("<r><a><b/><c/></a><d><e/></d><f/></r>")
    a, d, f = root.children
    a.insert(1, parse_document("<g><h/><i/></g>"))
    wrapper = root.wrap_children("w", 0, 2)
    d.detach()
    f.append(d)
    wrapper.children[0].children[2].detach()
    assert_builder_matches_row_stream([root])
    built = LabelStore.build([root], "interval")
    assert [row.size for row in built.rows] == [
        sum(1 for _ in row.node.iter_preorder()) for row in built.rows
    ]


def test_one_walk_builder_takes_a_chain_past_the_recursion_limit():
    assert_builder_matches_row_stream([chain(sys.getrecursionlimit() + 200)])


def test_every_build_path_is_the_one_walk():
    roots = [parse_document("<r><a><b/>t</a><b/></r>"), parse_document("<s><a/></s>")]
    for name, factory in SCHEMES.items():
        schemes = [factory().label_tree(root) for root in roots]
        reference = LabelStore.from_trees(
            [(root, scheme.label_of) for root, scheme in zip(roots, schemes)],
            ops_for(name),
        )
        assert table(LabelStore.build(roots, name)) == table(reference), name
    live = LiveCollection(roots)
    documents = live.ordered_documents
    reference = LabelStore.from_trees(
        [(document.root, document.scheme.label_of) for document in documents],
        PrimeOps({}),
    )
    assert table(live.engine.store) == table(reference)


class TestFrozenCopy:
    DOC = "<r><a><a1/><a2/></a><b><b1/></b><c/></r>"

    def test_copy_has_equal_columns_and_distinct_rows(self):
        live = LiveCollection([parse_document(self.DOC), parse_document("<s><t/></s>")])
        writer = live.engine.store
        copy = live.publish_view().engine.store
        assert table(copy) == table(writer)
        assert all(ours is not theirs for ours, theirs in zip(copy.rows, writer.rows))
        assert all(
            copy.doc_window(doc_id) is not writer.doc_window(doc_id)
            for doc_id in writer.doc_ids
        )

    def test_earlier_view_survives_insert_delete_and_relabel_cascade(self):
        live = LiveCollection([parse_document(self.DOC)])
        root = live.documents[0]
        view = live.publish_view()
        before = table(view.engine.store)
        orders = {
            row.element_id: view.engine.store.ops.order_key(row)
            for row in view.engine.store.rows
        }
        live.insert_child(root.children[1], 1, tag="new")
        live.delete(root.children[2])
        # The first child holds the smallest prime (2) at order 1; a new
        # first node pushes its order to 2 and forces a relabel of its subtree.
        report = live.insert_child(root, 0, tag="front")
        assert [node for node in report.relabeled_nodes if node is not report.new_node]
        assert table(live.engine.store) != before
        assert table(view.engine.store) == before
        assert {
            row.element_id: view.engine.store.ops.order_key(row)
            for row in view.engine.store.rows
        } == orders
        assert view.audit() == []
        assert live.publish_view().audit() == []


def test_label_map_order_is_preorder_after_label_tree():
    for root in (parse_document(TestFrozenCopy.DOC), chain(50)):
        scheme = PrimeScheme(reserved_primes=0, power2_leaves=False).label_tree(root)
        assert list(scheme.labels_in_order()) == [
            scheme.label_of(node) for node in root.iter_preorder()
        ]


@given(random_trees(max_nodes=40), st.sampled_from([1, 2, 5, None]))
@settings(max_examples=40, deadline=None)
def test_fresh_sc_load_equals_a_compact_walk(root, group_size):
    document = OrderedDocument(root, group_size=group_size)
    loaded = document.sc_table.groups()
    document.compact()
    assert document.sc_table.groups() == loaded
    assert document.check()
