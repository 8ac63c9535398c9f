"""Property tests: the label-only engine vs the tree-walking oracle.

Random documents × random queries × three schemes × two strategies — every
combination must return exactly the node set a direct tree walk computes.
This is the library's strongest end-to-end correctness statement.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.ast import Axis, Query, Step
from repro.query.engine import QueryEngine
from repro.query.naive import NaiveEvaluator
from repro.query.store import LabelStore
from repro.xmlkit.tree import XmlElement

TAGS = ["a", "b", "c", "d"]


@st.composite
def random_documents(draw):
    count = draw(st.integers(1, 3))
    documents = []
    for _ in range(count):
        size = draw(st.integers(1, 25))
        nodes = [XmlElement(draw(st.sampled_from(TAGS)))]
        for index in range(1, size):
            parent = nodes[draw(st.integers(0, index - 1))]
            nodes.append(parent.append(XmlElement(draw(st.sampled_from(TAGS)))))
        documents.append(nodes[0])
    return documents


_FIRST_AXES = [Axis.CHILD, Axis.DESCENDANT]
_LATER_AXES = list(Axis)


@st.composite
def random_queries(draw):
    steps = [
        Step(
            axis=draw(st.sampled_from(_FIRST_AXES)),
            tag=draw(st.sampled_from(TAGS + ["*"])),
            position=draw(st.one_of(st.none(), st.integers(1, 3))),
        )
    ]
    for _ in range(draw(st.integers(0, 3))):
        axis = draw(st.sampled_from(_LATER_AXES))
        steps.append(
            Step(
                axis=axis,
                tag=draw(st.sampled_from(TAGS + ["*"])),
                position=draw(st.one_of(st.none(), st.integers(1, 3))),
                from_descendants=draw(st.booleans())
                and axis
                in (
                    Axis.FOLLOWING,
                    Axis.PRECEDING,
                    Axis.FOLLOWING_SIBLING,
                    Axis.PRECEDING_SIBLING,
                ),
            )
        )
    return Query(steps=tuple(steps))


class TestEngineMatchesOracle:
    @given(random_documents(), random_queries())
    @settings(max_examples=60, deadline=None)
    def test_all_schemes_and_strategies_match_tree_walk(self, documents, query):
        oracle = NaiveEvaluator(documents)
        expected = {id(node) for node in oracle.evaluate(query)}
        for scheme in ("interval", "prime", "prefix-2"):
            store = LabelStore.build(documents, scheme=scheme)
            for strategy in ("scan", "auto"):
                engine = QueryEngine(store, strategy=strategy)
                actual = {id(row.node) for row in engine.evaluate(query)}
                assert actual == expected, (scheme, strategy, str(query))

    @given(random_documents())
    @settings(max_examples=30, deadline=None)
    def test_paper_query_shapes_match(self, documents):
        oracle = NaiveEvaluator(documents)
        store = LabelStore.build(documents, scheme="prime")
        engine = QueryEngine(store)
        for text in (
            "/a//b",
            "/a//b[2]",
            "/b//Following::c",
            "/c//Preceding::a",
            "/a//Following-Sibling::b",
            "/d/Parent::*",
            "/b/Ancestor::a",
        ):
            expected = {id(n) for n in oracle.evaluate(text)}
            actual = {id(row.node) for row in engine.evaluate(text)}
            assert actual == expected, text


class TestOracleBasics:
    def test_rejects_empty_collection(self):
        import pytest as _pytest

        with _pytest.raises(Exception):
            NaiveEvaluator([])

    def test_counts_simple_document(self):
        from repro.xmlkit.parser import parse_document

        oracle = NaiveEvaluator([parse_document("<a><b/><b/><c><b/></c></a>")])
        assert oracle.count("/a//b") == 3
        assert oracle.count("/a/b") == 2
        assert oracle.count("/c/b") == 1
