"""Randomized soak for incremental window-column maintenance.

The acceptance bar: after any interleaving of single-op and batched
mutations, the patched store's pre/post/level/size columns must be
*byte-identical* to a from-scratch rebuild (keyed by node identity,
since element ids are assigned differently by the two paths), the
collection must stay audit-clean, and ``live.engine_rebuilds`` must not
grow per-op.  The two named satellite regressions — per-document scheme
resolution in ``PrimeOps`` and ``BatchOp.insert_child`` index
validation — are pinned at the bottom.
"""

from dataclasses import replace
from random import Random

import pytest

from repro.errors import QueryEvaluationError
from repro.obs import metrics
from repro.obs.audit import audit_ordered_document
from repro.query.live import BatchOp, LiveCollection
from repro.query.naive import NaiveEvaluator
from repro.xmlkit.parser import parse_document

DOC = """
<play>
  <act><scene><speech><line/><line/></speech></scene></act>
  <act><scene><speech><line/></speech><speech><line/></speech></scene></act>
</play>
"""

QUERIES = (
    "/play//line",
    "/play/act/scene",
    "/act//Following::speech",
    "/speech//Preceding::line",
    "/scene/Following-Sibling::scene",
    "/play//speech[2]",
    "/play/*",
    "/scene/Preceding::*",
)


def columns_by_node(store):
    """The window columns keyed by (doc_id, node identity).

    Element ids differ between a patched store (monotonic ``_next_id``)
    and a rebuilt one (preorder renumbering); the tree nodes are the
    stable identity shared by both.
    """
    return {
        (row.doc_id, id(row.node)): (row.pre, row.post, row.depth, row.size)
        for row in store.rows
    }


def assert_columns_match_rebuild(collection):
    patched = collection.engine.store
    rebuilt = collection._build_engine().store
    assert columns_by_node(patched) == columns_by_node(rebuilt)
    # The row tables themselves must agree too (same nodes, same labels).
    patched_rows = {
        (row.doc_id, id(row.node)): (row.tag, row.depth, str(row.label))
        for row in patched.rows
    }
    rebuilt_rows = {
        (row.doc_id, id(row.node)): (row.tag, row.depth, str(row.label))
        for row in rebuilt.rows
    }
    assert patched_rows == rebuilt_rows


def assert_audit_clean(collection):
    for ordered in collection.ordered_documents:
        audit_ordered_document(ordered).raise_if_failed()


def random_mutation(rng, collection):
    """Apply one random single-document mutation; returns its kind."""
    doc = rng.randrange(len(collection.documents))
    root = collection.documents[doc]
    nodes = list(root.iter_preorder())
    kind = rng.choice(("insert_child", "insert_before", "insert_after", "delete"))
    if kind == "insert_child":
        parent = rng.choice(nodes)
        collection.insert_child(
            parent, rng.randint(0, len(parent.children)), tag=f"n{rng.randrange(9)}"
        )
    elif kind in ("insert_before", "insert_after"):
        candidates = [n for n in nodes if n.parent is not None]
        if not candidates:
            return None
        getattr(collection, kind)(rng.choice(candidates), tag=f"n{rng.randrange(9)}")
    else:
        candidates = [n for n in nodes if n.parent is not None]
        if len(candidates) < 4:  # keep the tree from collapsing
            return None
        collection.delete(rng.choice(candidates))
    return kind


def random_batch(rng, collection):
    """Apply one randomly assembled batch via ``apply_batch``."""
    root = rng.choice(collection.documents)
    ops = []
    nodes = [n for n in root.iter_preorder() if n.parent is not None]
    for _ in range(rng.randint(1, 4)):
        parent = rng.choice(list(root.iter_preorder()))
        ops.append(
            BatchOp.insert_child(
                parent, rng.randint(0, len(parent.children)), tag="batched"
            )
        )
    if len(nodes) > 6 and rng.random() < 0.5:
        victim = rng.choice(nodes)
        if all(op.node is not victim for op in ops):
            ops.append(BatchOp.delete(victim))
    collection.apply_batch(ops)


class TestIncrementalMaintenanceSoak:
    @pytest.mark.parametrize("seed", [11, 29, 83])
    def test_interleaved_soak_matches_rebuild(self, seed):
        rng = Random(seed)
        collection = LiveCollection(
            [parse_document(DOC), parse_document(DOC)], group_size=5
        )
        engine = collection.engine  # build once, then never again
        oracle_rebuilds = 0
        with metrics.collecting() as collected:
            for round_no in range(12):
                if rng.random() < 0.3:
                    random_batch(rng, collection)
                else:
                    random_mutation(rng, collection)
                if round_no % 4 == 3:
                    # The oracle's from-scratch build is the only rebuild
                    # the soak may observe; the live engine never rebuilds.
                    assert_columns_match_rebuild(collection)
                    oracle_rebuilds += 1
            assert collection.engine is engine
            assert (
                collected.counter_value("live.engine_rebuilds") == oracle_rebuilds
            )
            assert collected.counter_value("live.store_patch_failures") == 0
        assert_columns_match_rebuild(collection)
        assert_audit_clean(collection)
        assert collection.check()

    @pytest.mark.parametrize("seed", [7, 41])
    def test_soak_preserves_query_parity(self, seed):
        rng = Random(seed)
        collection = LiveCollection([parse_document(DOC)], group_size=5)
        for _ in range(10):
            random_mutation(rng, collection)
        fresh = collection._build_engine()
        for query in QUERIES:
            live_ids = [id(r.node) for r in collection.query(query)]
            fresh_ids = [id(r.node) for r in fresh.evaluate(query)]
            assert live_ids == fresh_ids, query

    @pytest.mark.parametrize("strategy", ["scan", "auto"])
    @pytest.mark.parametrize("seed", [5, 23])
    def test_published_views_match_live_and_oracle(self, strategy, seed):
        # A view's columns come from the writer's rows in preorder; copied
        # in insertion order they put inserted nodes last in the view.
        rng = Random(seed)
        collection = LiveCollection(
            [parse_document(DOC), parse_document(DOC)], group_size=5, strategy=strategy
        )
        for _ in range(10):
            if rng.random() < 0.3:
                random_batch(rng, collection)
            else:
                random_mutation(rng, collection)
            view = collection.publish_view()
            oracle = NaiveEvaluator(collection.documents)
            for query in QUERIES:
                expected = [id(node) for node in oracle.evaluate(query)]
                assert [id(r.node) for r in collection.query(query)] == expected, query
                assert [id(r.node) for r in view.query(query)] == expected, query
            assert view.audit() == []

    def test_patch_failure_falls_back_to_rebuild(self, monkeypatch):
        collection = LiveCollection([parse_document(DOC)])
        engine = collection.engine

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic patch fault")

        monkeypatch.setattr(engine.store, "insert_row", boom)
        with metrics.collecting() as collected:
            collection.insert_child(collection.documents[0], 0)
            assert collected.counter_value("live.store_patch_failures") == 1
        assert collection.engine is not engine  # rebuilt, still correct
        assert collection.count("/play/new") == 1


class TestPerDocumentSchemeResolution:
    """Regression: ``PrimeOps`` once trusted only the first doc's scheme.

    Each document labels itself with its own ``PrimeScheme`` instance,
    and those diverge under mutation.  The ancestor test now reads the
    two labels alone (divisibility), so no instance can be the wrong one;
    queries over divergently mutated documents must stay correct.
    """

    def test_ops_resolve_each_documents_own_scheme(self):
        collection = LiveCollection(
            [parse_document(DOC), parse_document("<r><a><b/></a></r>")]
        )
        collection.insert_child(collection.documents[1], 0, tag="c")
        store = collection.engine.store
        ops = store.ops
        for doc_id, ordered in enumerate(collection.ordered_documents):
            assert ops.ordered_documents[doc_id] is ordered
            rows = [row for row in store.rows if row.doc_id == doc_id]
            for first in rows:
                for second in rows:
                    assert ops.is_ancestor(first, second) == (
                        ordered.scheme.is_ancestor_label(first.label, second.label)
                    )

    def test_fallback_scheme_when_document_unknown(self):
        collection = LiveCollection([parse_document(DOC)])
        store = collection.engine.store
        ops = store.ops
        # The ancestor test reads the two labels alone, so rows of a doc
        # id the operators do not know still answer like the owner's scheme.
        scheme = collection.ordered_documents[0].scheme
        for first in store.rows:
            for second in store.rows:
                stray_first = replace(first, doc_id=999)
                stray_second = replace(second, doc_id=999)
                assert ops.is_ancestor(stray_first, stray_second) == (
                    scheme.is_ancestor_label(first.label, second.label)
                )

    @pytest.mark.parametrize("seed", [3, 17])
    def test_queries_stay_correct_after_divergent_mutations(self, seed):
        rng = Random(seed)
        collection = LiveCollection(
            [parse_document(DOC), parse_document(DOC), parse_document(DOC)]
        )
        # Mutate only the later documents so their schemes diverge from
        # document 0's (the old code's single source of truth).
        for _ in range(8):
            doc = rng.choice((1, 2))
            root = collection.documents[doc]
            parent = rng.choice(list(root.iter_preorder()))
            collection.insert_child(parent, len(parent.children), tag="inserted")
        fresh = collection._build_engine()
        for query in ("/play//inserted", "/play//line", "/act//Following::speech"):
            assert collection.count(query) == len(fresh.evaluate(query)), query
        assert_audit_clean(collection)


class TestBatchOpIndexValidation:
    """Satellite regression: bad ``insert_child`` indexes were accepted.

    A negative index silently wrapped (list semantics) and a past-end
    index appended — both corrupting the intended sibling order.  Negative
    indexes now fail at construction; past-end fails at application,
    naming the op's position in the batch.
    """

    def test_negative_index_rejected_at_construction(self):
        parent = parse_document("<r><a/></r>")
        with pytest.raises(QueryEvaluationError, match="negative"):
            BatchOp.insert_child(parent, -1)

    def test_past_end_index_rejected_naming_position(self):
        root = parse_document("<r><a/><b/></r>")
        collection = LiveCollection([root])
        ops = [
            BatchOp.insert_child(root, 0, tag="ok"),
            BatchOp.insert_child(root, 99, tag="overflow"),
        ]
        with pytest.raises(QueryEvaluationError, match=r"batch op 1.*past the end"):
            collection.apply_batch(ops)
        # The applied prefix stays (all-or-nothing is the durable layer's
        # contract), the overflow op does not, and the store is rebuilt
        # consistent with the tree.
        assert collection.count("/r/ok") == 1
        assert collection.count("/r/overflow") == 0
        assert_columns_match_rebuild(collection)

    def test_boundary_index_still_accepted(self):
        root = parse_document("<r><a/><b/></r>")
        collection = LiveCollection([root])
        collection.apply_batch([BatchOp.insert_child(root, len(root.children))])
        assert [child.tag for child in root.children] == ["a", "b", "new"]
