"""Unit tests for repro.xmlkit.tree.XmlElement."""

import copy
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlkit.builder import element
from repro.xmlkit.tree import XmlElement, from_child_counts


@pytest.fixture
def sample():
    return element(
        "r",
        element("a", element("a1"), element("a2", element("a2x"))),
        element("b"),
    )


class TestBasics:
    def test_empty_tag_rejected(self):
        with pytest.raises(ValueError):
            XmlElement("")

    def test_children_view_is_immutable_tuple(self, sample):
        assert isinstance(sample.children, tuple)

    def test_len_iter_getitem(self, sample):
        assert len(sample) == 2
        assert [c.tag for c in sample] == ["a", "b"]
        assert sample[0].tag == "a"

    def test_is_leaf_is_root(self, sample):
        assert sample.is_root and not sample.is_leaf
        assert sample[1].is_leaf and not sample[1].is_root

    def test_depth_and_root(self, sample):
        a2x = sample[0][1][0]
        assert a2x.depth == 3
        assert a2x.root is sample

    def test_child_index(self, sample):
        assert sample[1].child_index == 1
        with pytest.raises(ValueError):
            sample.child_index

    def test_path(self, sample):
        assert sample[0][1][0].path() == "/r/a/a2/a2x"


class TestMutation:
    def test_append_sets_parent(self, sample):
        new = sample.append(XmlElement("c"))
        assert new.parent is sample
        assert sample[2] is new

    def test_insert_at_position(self, sample):
        new = sample.insert(1, XmlElement("mid"))
        assert [c.tag for c in sample] == ["a", "mid", "b"]
        assert new.child_index == 1

    def test_attached_child_rejected(self, sample):
        with pytest.raises(ValueError):
            sample.append(sample[0][0])

    def test_cycle_rejected(self, sample):
        descendant = sample[0][1]
        with pytest.raises(ValueError):
            descendant.append(sample.detach())

    def test_self_insert_rejected(self, sample):
        with pytest.raises(ValueError):
            sample.insert(0, sample)

    def test_detach(self, sample):
        a = sample[0]
        a.detach()
        assert a.parent is None
        assert [c.tag for c in sample] == ["b"]

    def test_detach_root_is_noop(self, sample):
        assert sample.detach() is sample

    def test_wrap_children(self, sample):
        wrapper = sample.wrap_children("w", 0, 2)
        assert [c.tag for c in sample] == ["w"]
        assert [c.tag for c in wrapper] == ["a", "b"]
        assert wrapper[0].parent is wrapper

    def test_wrap_subrange(self):
        root = element("r", element("x"), element("y"), element("z"))
        root.wrap_children("w", 1, 2)
        assert [c.tag for c in root] == ["x", "w", "z"]

    def test_wrap_bad_range(self, sample):
        with pytest.raises(IndexError):
            sample.wrap_children("w", 1, 5)


class TestTraversal:
    def test_preorder(self, sample):
        assert [n.tag for n in sample.iter_preorder()] == [
            "r", "a", "a1", "a2", "a2x", "b",
        ]

    def test_descendants_excludes_self(self, sample):
        assert [n.tag for n in sample.iter_descendants()] == ["a", "a1", "a2", "a2x", "b"]

    def test_leaves(self, sample):
        assert [n.tag for n in sample.iter_leaves()] == ["a1", "a2x", "b"]

    def test_iter_level(self, sample):
        assert [n.tag for n in sample.iter_level(2)] == ["a1", "a2"]
        assert [n.tag for n in sample.iter_level(0)] == ["r"]

    def test_find_by_tag(self, sample):
        assert len(sample.find_by_tag("a2x")) == 1

    def test_is_ancestor_of(self, sample):
        a2x = sample[0][1][0]
        assert sample.is_ancestor_of(a2x)
        assert sample[0].is_ancestor_of(a2x)
        assert not a2x.is_ancestor_of(sample)
        assert not sample.is_ancestor_of(sample)
        assert not sample[0].is_ancestor_of(sample[1])

    def test_document_position(self, sample):
        assert sample.document_position() == 0
        assert sample[1].document_position() == 5

    def test_node_at_inverts_document_position(self, sample):
        assert [sample.node_at(i).tag for i in range(6)] == [
            "r", "a", "a1", "a2", "a2x", "b",
        ]
        assert sample.node_at(6) is None
        assert sample.node_at(-1) is None
        # Relative to the subtree it is called on.
        assert sample[0].node_at(3).tag == "a2x"

    @pytest.mark.parametrize("bad", [True, False, 1.0, 3.0, "1", None, [1]])
    def test_node_at_rejects_anything_but_int(self, sample, bad):
        assert sample.node_at(bad) is None


class TestStatsCopy:
    def test_stats(self, sample):
        stats = sample.stats()
        assert stats.node_count == 6
        assert stats.depth == 3
        assert stats.max_fanout == 2
        assert stats.leaf_count == 3
        assert stats.internal_count == 3

    def test_single_node_stats(self):
        stats = XmlElement("x").stats()
        assert (stats.node_count, stats.depth, stats.max_fanout, stats.leaf_count) == (
            1, 0, 0, 1,
        )

    def test_copy_is_deep_and_detached(self, sample):
        clone = sample[0].copy()
        assert clone.parent is None
        assert clone.structurally_equal(sample[0])
        clone.append(XmlElement("extra"))
        assert not clone.structurally_equal(sample[0])

    def test_pickle_round_trip_is_detached_and_keeps_sizes(self, sample):
        sample[0].attributes["k"] = "v"
        sample[0].text = "t"
        clone = pickle.loads(pickle.dumps(sample[0]))
        assert clone.parent is None
        assert clone.structurally_equal(sample[0])
        assert_addressing_consistent(clone)

    def test_pickle_round_trip_of_a_chain_deeper_than_the_stack(self):
        """A deep document crosses a process boundary under ``spawn``."""
        root = chain(sys.getrecursionlimit() + 200)
        clone = pickle.loads(pickle.dumps(root))
        assert clone.structurally_equal(root)
        assert clone._size == root._size == sys.getrecursionlimit() + 201
        assert clone.node_at(root._size - 1).depth == root._size - 1

    def test_copies_never_share_attribute_dicts(self, sample):
        sample[0].attributes["k"] = "v"
        for clone in (
            copy.copy(sample[0]),
            copy.deepcopy(sample[0]),
            pickle.loads(pickle.dumps(sample[0])),
        ):
            assert clone.structurally_equal(sample[0])
            clone.attributes["k"] = "changed"
            assert sample[0].attributes["k"] == "v"

    def test_rows_with_an_empty_tag_are_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            from_child_counts([("r", {}, "", 1), ("", {}, "", 0)])

    def test_structurally_equal_checks_text_and_attrs(self):
        a = XmlElement("t", {"k": "v"}, text="x")
        b = XmlElement("t", {"k": "v"}, text="x")
        assert a.structurally_equal(b)
        b.text = "y"
        assert not a.structurally_equal(b)


def chain(depth):
    """A root with ``depth`` nested single children below it."""
    root = node = XmlElement("n")
    for _ in range(depth):
        node = node.append(XmlElement("n"))
    return root


def assert_addressing_consistent(root):
    """``_size``, ``document_position`` and ``node_at`` against a walk."""
    nodes = list(root.iter_preorder())
    for index, node in enumerate(nodes):
        assert node._size == sum(1 for _ in node.iter_preorder())
        assert node.document_position() == index
        assert root.node_at(index) is node
    assert root.node_at(len(nodes)) is None


class TestSubtreeSizeProperties:
    """Random mutation sequences over a forest keep addressing exact.

    The forest holds every detached tree, so ``detach`` results and fresh
    nodes get mutated (and grafted back) too.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 40))
    def test_random_mutations_keep_sizes_positions_and_node_at(self, rng, steps):
        forest = [element("r", element("a", element("a1")), element("b"))]
        for step in range(steps):
            tree = rng.choice(forest)
            nodes = list(tree.iter_preorder())
            target = rng.choice(nodes)
            action = rng.choice(["insert", "append", "detach", "wrap", "graft"])
            if action in ("insert", "append"):
                child = XmlElement(f"n{step}")
                if action == "insert":
                    target.insert(rng.randint(0, len(target)), child)
                else:
                    target.append(child)
            elif action == "detach" and target is not tree:
                forest.append(target.detach())
            elif action == "wrap":
                start = rng.randint(0, len(target))
                target.wrap_children(f"w{step}", start, rng.randint(start, len(target)))
            elif action == "graft" and len(forest) > 1:
                other = rng.choice([root for root in forest if root is not tree])
                forest.remove(other)
                target.insert(rng.randint(0, len(target)), other)
            for root in forest:
                assert root.parent is None
                assert_addressing_consistent(root)
