"""Tests for the LabelingScheme protocol itself and cross-scheme agreement."""

import sys

import pytest

from repro import labeling
from repro.datasets.random_tree import chain_tree
from repro.errors import LabelingError
from repro.labeling.base import Relationship
from repro.labeling.dewey import DeweyScheme
from repro.labeling.interval import StartEndIntervalScheme, XissIntervalScheme
from repro.labeling.prefix import Prefix1Scheme, Prefix2Scheme
from repro.labeling.prime import BottomUpPrimeScheme, PrimeScheme
from repro.query.dataguide import DataGuide
from repro.xmlkit.builder import element

ALL_SCHEMES = [
    XissIntervalScheme,
    StartEndIntervalScheme,
    Prefix1Scheme,
    Prefix2Scheme,
    DeweyScheme,
    BottomUpPrimeScheme,
    lambda: PrimeScheme(reserved_primes=0, power2_leaves=False),
    lambda: PrimeScheme(reserved_primes=16, power2_leaves=True),
]

SCHEME_IDS = [
    "xiss", "startend", "prefix1", "prefix2", "dewey",
    "bottomup", "prime-orig", "prime-opt",
]


@pytest.fixture(params=ALL_SCHEMES, ids=SCHEME_IDS)
def scheme_factory(request):
    return request.param


class TestProtocol:
    def test_label_of_before_labeling_raises(self, scheme_factory):
        scheme = scheme_factory()
        with pytest.raises(LabelingError):
            scheme.label_of(element("x"))

    def test_max_label_bits_before_labeling_raises(self, scheme_factory):
        with pytest.raises(LabelingError):
            scheme_factory().max_label_bits()

    def test_root_property_before_labeling_raises(self, scheme_factory):
        with pytest.raises(LabelingError):
            _ = scheme_factory().root

    def test_every_node_labeled(self, scheme_factory, any_tree):
        scheme = scheme_factory().label_tree(any_tree)
        for node in any_tree.iter_preorder():
            scheme.label_of(node)  # must not raise

    def test_labeled_nodes_roundtrip(self, scheme_factory, paper_tree):
        scheme = scheme_factory().label_tree(paper_tree)
        assert len(list(scheme.labeled_nodes())) == 6

    def test_total_at_least_max(self, scheme_factory, any_tree):
        scheme = scheme_factory().label_tree(any_tree)
        assert scheme.total_label_bits() >= scheme.max_label_bits()

    def test_delete_root_rejected(self, scheme_factory, paper_tree):
        scheme = scheme_factory().label_tree(paper_tree)
        with pytest.raises(LabelingError):
            scheme.delete(paper_tree)

    def test_delete_removes_subtree_labels(self, scheme_factory, paper_tree):
        scheme = scheme_factory().label_tree(paper_tree)
        a = paper_tree.children[0]
        a1 = a.children[0]
        scheme.delete(a)
        with pytest.raises(LabelingError):
            scheme.label_of(a1)


class TestRelationship:
    def test_ancestor_descendant_classification(self, scheme_factory, paper_tree):
        scheme = scheme_factory().label_tree(paper_tree)
        a = paper_tree.children[0]
        a1 = a.children[0]
        assert scheme.relationship(a, a1) == Relationship.ANCESTOR
        assert scheme.relationship(a1, a) == Relationship.DESCENDANT

    def test_unrelated(self, scheme_factory, paper_tree):
        scheme = scheme_factory().label_tree(paper_tree)
        b, c = paper_tree.children[1], paper_tree.children[2]
        assert scheme.relationship(b, c) == Relationship.UNRELATED

    def test_self(self, scheme_factory, paper_tree):
        scheme = scheme_factory().label_tree(paper_tree)
        a = paper_tree.children[0]
        assert scheme.relationship(a, a) == Relationship.SELF


class TestCrossSchemeAgreement:
    """Every scheme answers the same relationship questions identically."""

    def test_all_schemes_agree_on_all_pairs(self, any_tree):
        schemes = [factory().label_tree(any_tree) for factory in ALL_SCHEMES]
        nodes = list(any_tree.iter_preorder())
        for first in nodes[::3]:
            for second in nodes[::3]:
                answers = {s.relationship(first, second) for s in schemes}
                assert len(answers) == 1, (
                    f"schemes disagree on {first.tag} vs {second.tag}: {answers}"
                )

    def test_all_schemes_survive_leaf_insert(self, paper_tree):
        for factory in ALL_SCHEMES:
            tree = paper_tree.copy()
            scheme = factory().label_tree(tree)
            scheme.insert_leaf(tree.children[0])
            _pairs, mismatches = scheme.check_against_tree()
            assert mismatches == 0, f"{scheme.name} broken after leaf insert"

    def test_all_schemes_survive_wrap(self, paper_tree):
        for factory in ALL_SCHEMES:
            tree = paper_tree.copy()
            scheme = factory().label_tree(tree)
            scheme.insert_internal(tree, 0, 2)
            _pairs, mismatches = scheme.check_against_tree()
            assert mismatches == 0, f"{scheme.name} broken after wrap"


#: Every scheme the package exports, by name.
EXPORTED_SCHEMES = sorted(
    name
    for name in labeling.__all__
    if name.endswith("Scheme") and name != "LabelingScheme"
)


@pytest.mark.parametrize("subject", EXPORTED_SCHEMES + ["DataGuide"])
def test_chain_past_the_recursion_limit(subject):
    """Labeling and path summaries are iterative: no depth is too deep."""
    depth = sys.getrecursionlimit() + 200
    root = chain_tree(depth, tag="n")
    deepest = root
    while deepest.children:
        deepest = deepest.children[0]
    if subject == "DataGuide":
        guide = DataGuide([root])
        assert guide.path_count == depth
        paths = guide.paths()
        assert len(paths) == depth and paths[-1] == ("n",) * depth
        assert guide.documents_with_tag("n") == {0}
        assert guide.documents_with_subsequence(["n"] * depth) == {0}
        assert guide.documents_with_subsequence(["n"] * (depth + 1)) == set()
        return
    scheme = getattr(labeling, subject)().label_tree(root)
    assert scheme.is_ancestor(root, deepest)
    assert scheme.is_ancestor(deepest.parent, deepest)
    assert not scheme.is_ancestor(deepest, root)
