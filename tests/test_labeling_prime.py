"""Unit tests for the top-down prime number scheme — the paper's core."""

import pytest

from repro.labeling.prime import PrimeLabel, PrimeScheme
from repro.primes.primality import is_prime
from repro.xmlkit.builder import element


def make_scheme(**kwargs):
    defaults = dict(reserved_primes=0, power2_leaves=False)
    defaults.update(kwargs)
    return PrimeScheme(**defaults)


class TestPrimeLabel:
    def test_parent_value(self):
        assert PrimeLabel(value=30, self_label=5).parent_value == 6

    def test_invalid_self_label_rejected(self):
        with pytest.raises(ValueError):
            PrimeLabel(value=10, self_label=3)
        with pytest.raises(ValueError, match="does not divide"):
            PrimeLabel(15, 4)
        with pytest.raises(ValueError):
            PrimeLabel(value=10, self_label=0)


class TestOriginalScheme:
    """The un-optimized top-down scheme (Figure 2)."""

    def test_root_label_is_one(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        assert scheme.label_of(paper_tree) == PrimeLabel(value=1, self_label=1)

    def test_every_nonroot_self_label_is_prime(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        for node in paper_tree.iter_descendants():
            assert is_prime(scheme.label_of(node).self_label)

    def test_self_labels_distinct(self, any_tree):
        scheme = make_scheme().label_tree(any_tree)
        self_labels = [
            scheme.label_of(n).self_label for n in any_tree.iter_descendants()
        ]
        assert len(set(self_labels)) == len(self_labels)

    def test_label_is_product_down_the_path(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        a = paper_tree.children[0]
        a1 = a.children[0]
        assert (
            scheme.label_of(a1).value
            == scheme.label_of(a).value * scheme.label_of(a1).self_label
        )

    def test_figure2_shape_labels(self):
        """Top-down labels on the Figure 2 shape: primes in preorder."""
        tree = element("r", element("a", element("x"), element("y")), element("b"))
        scheme = make_scheme().label_tree(tree)
        a, b = tree.children
        x, y = a.children
        assert scheme.label_of(a).value == 2
        assert scheme.label_of(x).value == 2 * 3
        assert scheme.label_of(y).value == 2 * 5
        assert scheme.label_of(b).value == 7

    def test_matches_ground_truth(self, any_tree):
        scheme = make_scheme().label_tree(any_tree)
        _pairs, mismatches = scheme.check_against_tree()
        assert mismatches == 0

    def test_divisibility_is_the_ancestor_test(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        a = paper_tree.children[0]
        a1 = a.children[0]
        assert scheme.label_of(a1).value % scheme.label_of(a).value == 0
        b = paper_tree.children[1]
        assert scheme.label_of(b).value % scheme.label_of(a).value != 0

    def test_label_not_ancestor_of_itself(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        label = scheme.label_of(paper_tree.children[0])
        assert not scheme.is_ancestor_label(label, label)


class TestOpt1ReservedPrimes:
    def test_top_level_nodes_get_smallest_primes(self):
        tree = element(
            "r",
            element("a", element("x", element("deep"))),
            element("b", element("y")),
        )
        scheme = PrimeScheme(reserved_primes=8, power2_leaves=False)
        scheme.label_tree(tree)
        a, b = tree.children
        assert scheme.label_of(a).self_label == 2
        assert scheme.label_of(b).self_label == 3
        # non-top-level internals draw from beyond the reserved pool (p_9 = 23)
        x = a.children[0]
        assert scheme.label_of(x).self_label >= 23

    def test_still_correct(self, any_tree):
        scheme = PrimeScheme(reserved_primes=16, power2_leaves=False)
        scheme.label_tree(any_tree)
        _pairs, mismatches = scheme.check_against_tree()
        assert mismatches == 0


class TestOpt2PowerOfTwoLeaves:
    def test_leaves_get_powers_of_two(self, book_tree):
        scheme = PrimeScheme(reserved_primes=0, power2_leaves=True)
        scheme.label_tree(book_tree)
        title, author1, author2, author3 = book_tree.children
        assert scheme.label_of(title).self_label == 2
        assert scheme.label_of(author1).self_label == 4
        assert scheme.label_of(author2).self_label == 8
        assert scheme.label_of(author3).self_label == 16

    def test_leaf_counters_are_per_parent(self):
        tree = element("r", element("a", element("l1")), element("b", element("l2")))
        scheme = PrimeScheme(power2_leaves=True)
        scheme.label_tree(tree)
        l1 = tree.children[0].children[0]
        l2 = tree.children[1].children[0]
        assert scheme.label_of(l1).self_label == 2
        assert scheme.label_of(l2).self_label == 2

    def test_property3_even_labels_never_ancestors(self, book_tree):
        scheme = PrimeScheme(power2_leaves=True).label_tree(book_tree)
        author1 = book_tree.children[1]
        author2 = book_tree.children[2]
        # author2's label is divisible by author1's, but author1 is even.
        assert scheme.label_of(author2).value % scheme.label_of(author1).value == 0
        assert not scheme.is_ancestor(author1, author2)

    def test_matches_ground_truth(self, any_tree):
        scheme = PrimeScheme(reserved_primes=8, power2_leaves=True)
        scheme.label_tree(any_tree)
        _pairs, mismatches = scheme.check_against_tree()
        assert mismatches == 0

    def test_labels_unique(self, any_tree):
        scheme = PrimeScheme(reserved_primes=8, power2_leaves=True)
        scheme.label_tree(any_tree)
        values = [scheme.label_of(n).value for n in any_tree.iter_preorder()]
        assert len(set(values)) == len(values)

    def test_leaf_threshold_falls_back_to_primes(self):
        wide = element("r", *[element("x") for _ in range(40)])
        scheme = PrimeScheme(power2_leaves=True, leaf_threshold_bits=8)
        scheme.label_tree(wide)
        self_labels = [scheme.label_of(n).self_label for n in wide.children]
        powers = [s for s in self_labels if s & (s - 1) == 0]
        odd_primes = [s for s in self_labels if s % 2 and is_prime(s)]
        assert len(powers) == 7  # 2^1 .. 2^7 within 8 bits
        assert len(odd_primes) == 33
        _pairs, mismatches = scheme.check_against_tree()
        assert mismatches == 0

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            PrimeScheme(leaf_threshold_bits=1)


class TestDynamicUpdates:
    def test_original_leaf_insert_relabels_only_new_node(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        report = scheme.insert_leaf(paper_tree.children[1])
        assert report.count == 1
        _pairs, mismatches = scheme.check_against_tree()
        assert mismatches == 0

    def test_opt2_insert_under_leaf_relabels_two(self, paper_tree):
        """The paper's Figure 16 narrative: leaf parent upgrades to a prime."""
        scheme = PrimeScheme(power2_leaves=True).label_tree(paper_tree)
        leaf = paper_tree.children[1]  # "b" is a leaf
        assert scheme.label_of(leaf).self_label % 2 == 0
        report = scheme.insert_leaf(leaf)
        assert report.count == 2
        assert is_prime(scheme.label_of(leaf).self_label)
        _pairs, mismatches = scheme.check_against_tree()
        assert mismatches == 0

    def test_opt2_insert_under_internal_relabels_one(self, paper_tree):
        scheme = PrimeScheme(power2_leaves=True).label_tree(paper_tree)
        internal = paper_tree.children[0]  # "a" has children
        report = scheme.insert_leaf(internal)
        assert report.count == 1

    def test_new_node_gets_fresh_prime(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        before = {scheme.label_of(n).self_label for n in paper_tree.iter_preorder()}
        report = scheme.insert_leaf(paper_tree)
        new_self = scheme.label_of(report.new_node).self_label
        assert new_self not in before

    def test_wrap_relabels_new_node_plus_descendants(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        report = scheme.insert_internal(paper_tree, 0, 1)  # wrap "a"
        assert report.count == 4  # wrapper + a + a1 + a2
        _pairs, mismatches = scheme.check_against_tree()
        assert mismatches == 0

    def test_wrap_preserves_self_labels_of_moved_nodes(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        a = paper_tree.children[0]
        old_self = scheme.label_of(a).self_label
        scheme.insert_internal(paper_tree, 0, 1)
        assert scheme.label_of(a).self_label == old_self

    def test_ordered_insert_same_as_unordered(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        report = scheme.insert_leaf_ordered(paper_tree, 1)
        assert report.count == 1
        _pairs, mismatches = scheme.check_against_tree()
        assert mismatches == 0

    def test_many_random_updates_stay_correct(self):
        import random

        rng = random.Random(42)
        tree = element("r", element("a"), element("b"))
        scheme = PrimeScheme(reserved_primes=4, power2_leaves=True)
        scheme.label_tree(tree)
        for _ in range(40):
            nodes = list(tree.iter_preorder())
            target = rng.choice(nodes)
            action = rng.random()
            if action < 0.6:
                scheme.insert_leaf(target)
            elif target.children:
                end = rng.randint(1, len(target.children))
                scheme.insert_internal(target, 0, end)
        _pairs, mismatches = scheme.check_against_tree()
        assert mismatches == 0

    def test_delete_is_free_and_labels_stay_valid(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        assert scheme.delete(paper_tree.children[0]).count == 0
        _pairs, mismatches = scheme.check_against_tree()
        assert mismatches == 0


class TestSizeAccounting:
    def test_label_bits_is_bit_length(self):
        scheme = make_scheme()
        assert scheme.label_bits(PrimeLabel(value=1, self_label=1)) == 1
        assert scheme.label_bits(PrimeLabel(value=6, self_label=3)) == 3

    def test_max_self_label_bits(self, paper_tree):
        scheme = make_scheme().label_tree(paper_tree)
        assert scheme.max_self_label_bits() >= 2

    def test_depth_drives_label_size(self):
        from repro.datasets.random_tree import chain_tree, star_tree

        deep = make_scheme().label_tree(chain_tree(20))
        wide = make_scheme().label_tree(star_tree(19))
        assert deep.max_label_bits() > wide.max_label_bits()


# sha256 (first 16 hex digits) of every preorder (value, self_label) pair,
# recorded with the per-node labeling walk the explicit-stack walk replaced.
LABEL_DIGESTS = {
    ("D4", 0, False, None): "6e144d0d8509cf17",
    ("D4", 0, False, 16): "6e144d0d8509cf17",
    ("D4", 0, True, None): "8121441e0283d4ac",
    ("D4", 0, True, 16): "8b184b4011889063",
    ("D4", 8, False, None): "1a6f36c703a3b6c1",
    ("D4", 8, False, 16): "1a6f36c703a3b6c1",
    ("D4", 8, True, None): "8121441e0283d4ac",
    ("D4", 8, True, 16): "39c43afaec754a4b",
    ("D4", 64, False, None): "204e421c8f0d327a",
    ("D4", 64, False, 16): "204e421c8f0d327a",
    ("D4", 64, True, None): "8121441e0283d4ac",
    ("D4", 64, True, 16): "f5495c4c2db5aa65",
    ("D6", 0, False, None): "e4ed1d1ba04b3d99",
    ("D6", 0, False, 16): "e4ed1d1ba04b3d99",
    ("D6", 0, True, None): "7be2aa8d5d82078f",
    ("D6", 0, True, 16): "8fa016dac80e974e",
    ("D6", 8, False, None): "9e75d424a16531ef",
    ("D6", 8, False, 16): "9e75d424a16531ef",
    ("D6", 8, True, None): "5e0bfedd30ef4a72",
    ("D6", 8, True, 16): "f955a36c8f532359",
    ("D6", 64, False, None): "27c84f098fe4a769",
    ("D6", 64, False, 16): "27c84f098fe4a769",
    ("D6", 64, True, None): "1750e7419be8f0a1",
    ("D6", 64, True, 16): "28fc784231afefd1",
    ("random", 0, False, None): "dc40731629ed16f0",
    ("random", 0, False, 16): "dc40731629ed16f0",
    ("random", 0, True, None): "9f65ce0bac4e25ba",
    ("random", 0, True, 16): "9f65ce0bac4e25ba",
    ("random", 8, False, None): "bbc155a0fe321dd8",
    ("random", 8, False, 16): "bbc155a0fe321dd8",
    ("random", 8, True, None): "55c9cf184e1912cc",
    ("random", 8, True, 16): "55c9cf184e1912cc",
    ("random", 64, False, None): "1c5e9c4d0b395c31",
    ("random", 64, False, 16): "1c5e9c4d0b395c31",
    ("random", 64, True, None): "c503005aada1f2ab",
    ("random", 64, True, 16): "c503005aada1f2ab",
}


def _digest_tree(name):
    from repro.datasets.niagara import build_dataset
    from repro.datasets.random_tree import RandomTreeBuilder

    if name == "random":
        return RandomTreeBuilder(seed=5, max_depth=6, max_fanout=40).build(1500)
    return build_dataset(name)


@pytest.mark.parametrize("name", ["D4", "D6", "random"])
def test_bulk_labels_match_recorded_digests(name):
    import hashlib

    root = _digest_tree(name)
    for (dataset, reserved, power2, threshold), expected in LABEL_DIGESTS.items():
        if dataset != name:
            continue
        scheme = PrimeScheme(
            reserved_primes=reserved,
            power2_leaves=power2,
            leaf_threshold_bits=threshold,
        ).label_tree(root)
        digest = hashlib.sha256()
        for node in root.iter_preorder():
            label = scheme.label_of(node)
            digest.update(b"%d,%d;" % (label.value, label.self_label))
        assert digest.hexdigest()[:16] == expected, (reserved, power2, threshold)


@pytest.mark.parametrize("threshold", [None, 3])
def test_bulk_leaf_counters_match_incremental_labeling(threshold):
    """The walk leaves the same Opt2 counters a leaf-by-leaf build would."""
    scheme = PrimeScheme(power2_leaves=True, leaf_threshold_bits=threshold)
    tree = element(
        "r", element("a", element("x"), element("y"), element("z")), element("b")
    )
    scheme.label_tree(tree)
    _generator, counters = scheme.export_state()
    a_value = scheme.label_of(tree.children[0]).value
    # 2**3 has 4 bits, past a 3-bit threshold: z takes a prime instead.
    assert counters == ((1, 1), (a_value, 2 if threshold else 3))
