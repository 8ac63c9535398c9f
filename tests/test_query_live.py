"""Tests for the live (updatable, queryable) collection."""

import pytest

from repro.durable import collection_fingerprint
from repro.errors import QueryEvaluationError
from repro.query.live import LiveCollection
from repro.xmlkit.parser import parse_document

DOC_A = "<play><act><speech><line/></speech></act><act><speech><line/><line/></speech></act></play>"
DOC_B = "<book><title/><author>Jane</author><author>John</author></book>"


@pytest.fixture
def collection():
    return LiveCollection([parse_document(DOC_A), parse_document(DOC_B)])


class TestQueries:
    def test_query_across_documents(self, collection):
        assert collection.count("/play//line") == 3
        assert collection.count("/book/author") == 2

    def test_text_predicate(self, collection):
        assert collection.count("/book/author[.='John']") == 1

    def test_empty_collection_answers_empty(self):
        # Legal since sharding: a shard that owns no documents still
        # serves queries (they just match nothing) and accepts adds.
        live = LiveCollection([])
        assert live.count("//*") == 0
        assert live.query("//line") == []
        live.add_document(parse_document(DOC_A))
        assert live.count("/play//line") == 3


class TestStrategyName:
    def test_unknown_strategy_rejected_at_construction(self):
        with pytest.raises(QueryEvaluationError, match="unknown strategy"):
            LiveCollection([parse_document(DOC_A)], strategy="bogus")

    def test_retired_strategy_rejected_at_construction(self):
        with pytest.raises(QueryEvaluationError, match="unknown strategy"):
            LiveCollection([parse_document(DOC_A)], strategy="merge")

    def test_unknown_strategy_rejected_by_from_ordered(self, collection):
        with pytest.raises(QueryEvaluationError, match="unknown strategy"):
            LiveCollection.from_ordered(collection.ordered_documents, strategy="bogus")


class TestUpdates:
    def test_insert_visible_to_next_query(self, collection):
        before = collection.count("/play//line")
        speech = collection.documents[0].find_by_tag("SPEECH".lower())[0]
        collection.insert_child(speech, 0, tag="line")
        assert collection.count("/play//line") == before + 1

    def test_update_costs_accumulate(self, collection):
        play = collection.documents[0]
        collection.insert_child(play, 0, tag="prologue")
        collection.insert_after(play.children[0], tag="interlude")
        assert collection.total_update_cost > 0
        assert collection.check()

    def test_delete_visible(self, collection):
        book = collection.documents[1]
        collection.delete(book.find_by_tag("author")[0])
        assert collection.count("/book/author") == 1

    def test_foreign_node_rejected(self, collection):
        stranger = parse_document("<x><y/></x>")
        with pytest.raises(QueryEvaluationError):
            collection.insert_child(stranger, 0)

    def test_add_document(self, collection):
        index = collection.add_document(parse_document("<play><act/></play>"))
        assert index == 2
        assert collection.count("/play//act") == 3

    def test_engine_cached_between_queries(self, collection):
        first = collection.engine
        collection.count("/book/title")
        assert collection.engine is first
        # Inserts patch the cached engine in place — no rebuild, and the
        # new node is immediately visible.
        collection.insert_child(collection.documents[1], 0, tag="isbn")
        assert collection.engine is first
        assert collection.count("/book/isbn") == 1

    def test_compact_preserves_results(self, collection):
        play = collection.documents[0]
        for _ in range(4):
            collection.insert_child(play, 0, tag="tmp")
        for node in [n for n in play.children if n.tag == "tmp"]:
            collection.delete(node)
        baseline = collection.count("/play//line")
        collection.compact()
        assert collection.count("/play//line") == baseline
        assert collection.check()

    def test_mixed_session_order_consistent(self, collection):
        import random

        rng = random.Random(12)
        for step in range(25):
            docs = collection.documents
            root = rng.choice(docs)
            nodes = list(root.iter_preorder())
            parent = rng.choice(nodes)
            collection.insert_child(
                parent, rng.randint(0, len(parent.children)), tag=f"s{step}"
            )
        assert collection.check()
        # order axis still correct through the store
        rows = collection.query("/play//act[1]/Following::act")
        assert all(row.tag == "act" for row in rows)


class TestSingleOpIndexBounds:
    """``insert_child`` rejects what ``list.insert`` would silently clamp."""

    @pytest.mark.parametrize("index", [99, 3, -1, True, "1", None])
    def test_out_of_range_or_malformed_index_is_rejected(self, collection, index):
        play = collection.documents[0]  # two children: 2 is the last legal index
        before = collection_fingerprint(collection)
        with pytest.raises(QueryEvaluationError):
            collection.insert_child(play, index)
        assert collection_fingerprint(collection) == before
        assert collection.total_update_cost == 0

    def test_past_end_message_names_no_batch_position(self, collection):
        with pytest.raises(QueryEvaluationError, match="past the end") as info:
            collection.insert_child(collection.documents[0], 3)
        assert "batch op" not in str(info.value)


class TestDocumentLookup:
    def test_index_lookup_from_any_depth(self, collection):
        for index, root in enumerate(collection.documents):
            for node in root.iter_preorder():
                assert collection.document_index_of(node) == index
                assert collection.document_of(node).root is root

    def test_lookup_tracks_added_documents(self, collection):
        extra = parse_document("<z><zz/></z>")
        index = collection.add_document(extra)
        assert collection.document_index_of(extra.children[0]) == index

    def test_lookup_covers_nodes_created_by_updates(self, collection):
        play = collection.documents[0]
        collection.insert_child(play, 0, tag="fresh")
        assert collection.document_index_of(play.children[0]) == 0

    def test_foreign_node_raises(self, collection):
        with pytest.raises(QueryEvaluationError):
            collection.document_index_of(parse_document("<lone/>"))

    def test_duplicate_document_rejected_at_build(self):
        document = parse_document(DOC_A)
        with pytest.raises(QueryEvaluationError):
            LiveCollection([document, document])


class TestAddDocumentValidation:
    def test_attached_root_rejected(self, collection):
        attached = collection.documents[0].children[0]
        with pytest.raises(QueryEvaluationError):
            collection.add_document(attached)

    def test_duplicate_rejected(self, collection):
        with pytest.raises(QueryEvaluationError):
            collection.add_document(collection.documents[1])

    def test_divergent_group_size_rejected(self, collection):
        with pytest.raises(QueryEvaluationError) as excinfo:
            collection.add_document(parse_document("<solo/>"), group_size=9)
        assert "group_size" in str(excinfo.value)

    def test_matching_group_size_accepted(self, collection):
        index = collection.add_document(parse_document("<solo/>"), group_size=5)
        assert index == 2

    def test_added_document_is_updatable(self, collection):
        extra = parse_document("<z/>")
        collection.add_document(extra)
        collection.insert_child(extra, 0, tag="kid")
        assert collection.count("/z/kid") == 1
        assert collection.check()


class TestEngineCacheMaintenance:
    """Node mutations patch the cached engine; wholesale changes rebuild."""

    def mutate_insert_child(self, collection):
        collection.insert_child(collection.documents[0], 0)

    def mutate_insert_before(self, collection):
        collection.insert_before(collection.documents[0].children[0])

    def mutate_insert_after(self, collection):
        collection.insert_after(collection.documents[0].children[0])

    def mutate_delete(self, collection):
        collection.delete(collection.documents[1].children[0])

    def mutate_add_document(self, collection):
        collection.add_document(parse_document("<fresh/>"))

    def mutate_compact(self, collection):
        collection.compact()

    @pytest.mark.parametrize(
        "mutation",
        ["insert_child", "insert_before", "insert_after", "delete"],
    )
    def test_node_mutations_patch_in_place(self, collection, mutation):
        from repro.obs import metrics

        cached = collection.engine
        with metrics.collecting() as collected:
            getattr(self, f"mutate_{mutation}")(collection)
        # no rebuild on the mutation hot path ...
        assert collection.engine is cached
        assert collected.counter_value("live.engine_rebuilds") == 0
        assert collected.counter_value("live.store_patches") == 1
        # ... and the patched engine answers correctly
        assert collection.count("//*") == sum(
            root.stats().node_count for root in collection.documents
        )

    @pytest.mark.parametrize("mutation", ["add_document", "compact"])
    def test_wholesale_mutations_invalidate(self, collection, mutation):
        cached = collection.engine
        getattr(self, f"mutate_{mutation}")(collection)
        assert collection.engine is not cached
        assert collection.count("//*") == sum(
            root.stats().node_count for root in collection.documents
        )

    def test_queries_alone_never_invalidate(self, collection):
        cached = collection.engine
        collection.count("//line")
        collection.count("/book/author")
        collection.document_index_of(collection.documents[0])
        assert collection.engine is cached

class TestCapacityContext:
    """The collection stamps CapacityError with the owning document index."""

    def _collection(self):
        return LiveCollection(
            [parse_document("<a><b/></a>"), parse_document("<c><d/></c>")]
        )

    def test_insert_paths_stamp_the_document_index(self, monkeypatch):
        from repro.errors import CapacityError

        collection = self._collection()

        def exhausted(*args, **kwargs):
            raise CapacityError("full", group=0, hint="compact()")

        monkeypatch.setattr(collection._ordered[1], "insert_child", exhausted)
        target = collection.documents[1]
        with pytest.raises(CapacityError) as info:
            collection.insert_child(target, 0)
        assert info.value.document == 1
        assert info.value.group == 0

    def test_compact_stamps_the_failing_document(self, monkeypatch):
        from repro.errors import CapacityError

        collection = self._collection()

        def exhausted():
            raise CapacityError("full", group=2)

        monkeypatch.setattr(collection._ordered[1], "compact", exhausted)
        with pytest.raises(CapacityError) as info:
            collection.compact()
        assert info.value.document == 1

    def test_existing_document_attribution_is_preserved(self, monkeypatch):
        from repro.errors import CapacityError

        collection = self._collection()

        def exhausted(*args, **kwargs):
            raise CapacityError("full", document=7)

        monkeypatch.setattr(collection._ordered[0], "insert_before", exhausted)
        node = collection.documents[0].children[0]
        with pytest.raises(CapacityError) as info:
            collection.insert_before(node)
        assert info.value.document == 7  # never overwritten
