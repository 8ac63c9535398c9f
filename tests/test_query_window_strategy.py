"""Tests for the engine's two evaluation paths: label scan and windows.

Parity is the contract: ``auto`` reads the store's pre/post
accelerator columns and must return byte-identical rows *in identical
order* to the paper-faithful ``scan`` evaluation, for every axis, every
scheme, and every Table 2 query — it is a physical optimization, never a
semantic one.  The per-step path counters, the strategy-name check and
the regression for the ``_seed_context`` doc_ids normalization live
here too.
"""

import pytest

from repro.bench.response import PAPER_QUERIES
from repro.datasets.shakespeare import shakespeare_corpus
from repro.errors import QueryEvaluationError
from repro.obs import metrics
from repro.query.engine import RETIRED_STRATEGIES, QueryEngine
from repro.query.store import LabelStore
from repro.xmlkit.parser import parse_document

DOC = """
<play>
  <title/>
  <act><title/><scene><speech><line/><line/></speech></scene></act>
  <act><scene><speech><line/></speech><speech><line/></speech></scene></act>
</play>
"""

QUERIES = (
    "/play//line",
    "/play/act",
    "/play/act/scene/speech",
    "/act//line",
    "/PLAY//SPEECH/SPEAKER",
    "/PLAY//ACT//LINE",
    "/play//nothing",
    "/play//act[2]//line",                  # positional predicate
    "/line/Parent::speech",                 # parent axis
    "/line/Ancestor::act",                  # ancestor axis
    "/act/Following::speech",               # order axis, plain
    "/act//Following::speech",              # order axis, expanded (Q4 shape)
    "/speech//Preceding::line",             # expanded preceding (Q5 shape)
    "/act/Following-Sibling::act",
    "/scene//Following-Sibling::speech",    # expanded sibling (Q7 shape)
    "/speech/Preceding-Sibling::speech",
    "/SPEECH/LINE",
)


@pytest.fixture(params=["interval", "prime", "prefix-2"])
def store(request):
    documents = [parse_document(DOC)] + shakespeare_corpus(plays=2, seed=55)
    return LabelStore.build(documents, scheme=request.param)


class TestWindowEquivalence:
    def test_identical_rows_and_order(self, store):
        scan = QueryEngine(store, strategy="scan")
        window = QueryEngine(store, strategy="auto")
        for query in QUERIES:
            scan_rows = scan.evaluate(query)
            window_rows = window.evaluate(query)
            assert [r.element_id for r in scan_rows] == [
                r.element_id for r in window_rows
            ], query
            assert [r.doc_id for r in scan_rows] == [
                r.doc_id for r in window_rows
            ], query

    def test_paper_queries_identical(self, store):
        scan = QueryEngine(store, strategy="scan")
        auto = QueryEngine(store, strategy="auto")
        for _name, text in PAPER_QUERIES:
            assert auto.count(text) == scan.count(text), text

    def test_text_filter_parity(self):
        documents = [parse_document("<r><a>x</a><a>y</a><b><a>x</a></b></r>")]
        store = LabelStore.build(documents, scheme="prime")
        for strategy in ("scan", "auto"):
            engine = QueryEngine(store, strategy=strategy)
            assert engine.count("/r//a[.='x']") == 2, strategy


class TestWindowDetails:
    def make(self, strategy="auto"):
        store = LabelStore.build([parse_document(DOC)], scheme="prime")
        return QueryEngine(store, strategy=strategy)

    def test_results_in_document_order(self):
        window = self.make()
        rows = window.evaluate("/play//line")
        keys = [window.store.ops.order_key(row) for row in rows]
        assert keys == sorted(keys)

    def test_columns_match_identity(self):
        # post = pre + size - 1 - level on every row (Grust's identity).
        store = self.make().store
        for row in store.rows:
            assert row.post == row.pre + row.size - 1 - row.depth, (row.doc_id, row.pre)

    def test_doc_ids_restriction(self, subtests=None):
        documents = [parse_document(DOC), parse_document(DOC)]
        store = LabelStore.build(documents, scheme="prime")
        for strategy in ("scan", "auto"):
            engine = QueryEngine(store, strategy=strategy)
            rows = engine.evaluate("/play//line", doc_ids=[1])
            assert rows and all(row.doc_id == 1 for row in rows), strategy


class TestPaths:
    """Which path runs, as the ``planner.pick.*`` counters report it."""

    def picks(self, engine, query):
        with metrics.collecting() as collected:
            engine.evaluate(query)
        return {
            name: collected.counter_value(f"planner.pick.{name}")
            for name in ("scan", "window")
        }

    def test_auto_on_a_windowed_store_takes_windows_per_step(self):
        store = LabelStore.build([parse_document(DOC)], scheme="prime")
        engine = QueryEngine(store, strategy="auto")
        assert self.picks(engine, "/play/act/scene//line") == {"scan": 0, "window": 3}

    def test_scan_pins_the_label_path(self):
        store = LabelStore.build([parse_document(DOC)], scheme="prime")
        engine = QueryEngine(store, strategy="scan")
        assert self.picks(engine, "/play/act//line") == {"scan": 2, "window": 0}

    @pytest.mark.parametrize("name", ["hash-join", "Auto", *RETIRED_STRATEGIES])
    def test_unknown_and_retired_names_rejected(self, name):
        store = LabelStore.build([parse_document(DOC)], scheme="prime")
        with pytest.raises(QueryEvaluationError, match="unknown strategy"):
            QueryEngine(store, strategy=name)


class _MembershipCountingList(list):
    """A doc_ids argument that counts linear membership probes."""

    def __init__(self, items):
        super().__init__(items)
        self.probes = 0

    def __contains__(self, item):  # pragma: no cover - trivial
        self.probes += 1
        return super().__contains__(item)


class TestSeedContextDocIdsRegression:
    """The ``_seed_context`` O(n) list-membership bug (satellite fix).

    Before the fix, a list passed as ``doc_ids`` was probed once per
    candidate row — O(docs x rows) for the DataGuide pre-filter.  The
    engine now normalizes to a set up front, so the caller's list sees
    zero ``in`` probes and results are unchanged for list/set/generator.
    """

    def build(self):
        documents = [parse_document(DOC) for _ in range(4)]
        return LabelStore.build(documents, scheme="interval")

    def test_list_never_probed_linearly(self):
        store = self.build()
        engine = QueryEngine(store, strategy="scan")
        doc_ids = _MembershipCountingList([0, 2])
        rows = engine.evaluate("/play//line", doc_ids=doc_ids)
        assert {row.doc_id for row in rows} == {0, 2}
        assert doc_ids.probes == 0

    def test_list_set_generator_agree(self):
        store = self.build()
        for strategy in ("scan", "auto"):
            engine = QueryEngine(store, strategy=strategy)
            as_list = engine.evaluate("/play//line", doc_ids=[1, 3])
            as_set = engine.evaluate("/play//line", doc_ids={1, 3})
            as_gen = engine.evaluate("/play//line", doc_ids=iter([1, 3]))
            ids = [row.element_id for row in as_list]
            assert [row.element_id for row in as_set] == ids, strategy
            assert [row.element_id for row in as_gen] == ids, strategy
