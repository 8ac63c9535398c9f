"""The bulk labeling walk against the paper's definition, computed by hand.

``PrimeScheme._assign_labels`` draws general primes by index from the
shared prime table and makes its labels without the constructor's check.
The reference below shares none of that: it walks the tree in preorder
and hands out, from its own ``primes_first_n`` list, exactly what
Section 3 and Figure 7 prescribe — ``1`` for the root, Opt1's reserved
pool for top-level non-leaves while it lasts, ``2**n`` for the ``n``-th
leaf child under Opt2 (up to the threshold), and the next general prime
for everything else.  Labels, the generator's position and the metric
totals must all agree.
"""

import sys

import pytest

from repro.datasets.random_tree import RandomTreeBuilder
from repro.labeling.prime import PrimeScheme
from repro.obs import metrics
from repro.primes import gen as gen_module
from repro.primes.sieve import primes_first_n
from repro.xmlkit.builder import element
from repro.xmlkit.parser import parse_document
from repro.xmlkit.tree import XmlElement

COMBOS = [
    (reserved, power2, threshold)
    for reserved in (0, 64)
    for power2 in (False, True)
    for threshold in (None, 3)
]


def reference(root, reserved, power2, threshold):
    """``(labels, generator state, leaf counters, metric totals)`` by definition."""
    nodes = list(root.iter_preorder())
    primes = primes_first_n(len(nodes) + reserved + 1)
    reserved_pool, general_pool = primes[:reserved], primes[reserved:]
    used = {"reserved": 0, "general": 0}

    def draw(pool_name):
        pool = reserved_pool if pool_name == "reserved" else general_pool
        prime = pool[used[pool_name]]
        used[pool_name] += 1
        return prime

    if power2:
        # Opt2 keeps evenness for leaves: 2 is drawn and never used.
        assert draw("reserved" if reserved else "general") == 2
    max_ordinal = None if threshold is None else threshold - 1
    ordinal = {}
    values = {}
    labels = []
    counters = {}
    for node in nodes:
        parent = node.parent
        if parent is None:
            self_label = 1
        elif id(node) in ordinal:
            self_label = 2 ** ordinal[id(node)]
        elif not node.is_leaf and parent.parent is None and used["reserved"] < reserved:
            self_label = draw("reserved")
        else:
            self_label = draw("general")
        value = (values[id(parent)] if parent is not None else 1) * self_label
        values[id(node)] = value
        labels.append((value, self_label))
        if power2:
            leaves = 0
            for child in node.children:
                if child.is_leaf and (max_ordinal is None or leaves < max_ordinal):
                    leaves += 1
                    ordinal[id(child)] = leaves
            if leaves:
                counters[value] = leaves
    state = (
        reserved,
        used["reserved"],
        reserved + used["general"],
        used["reserved"] + used["general"],
    )
    totals = {
        "primes.issued": used["reserved"] + used["general"],
        "primes.reserved_hits": used["reserved"],
        "label.power2_leaves": sum(counters.values()),
    }
    return labels, state, tuple(sorted(counters.items())), totals


def walked(root, reserved, power2, threshold):
    """The same four things from the scheme's bulk walk."""
    scheme = PrimeScheme(
        reserved_primes=reserved, power2_leaves=power2, leaf_threshold_bits=threshold
    )
    with metrics.collecting() as registry:
        scheme.label_tree(root)
    labels = [
        (label.value, label.self_label)
        for label in map(scheme.label_of, root.iter_preorder())
    ]
    state, counters = scheme.export_state()
    totals = {
        name: registry.counter_value(name)
        for name in ("primes.issued", "primes.reserved_hits", "label.power2_leaves")
    }
    return labels, state, counters, totals


def assert_walk_matches_reference(root, reserved, power2, threshold):
    assert walked(root, reserved, power2, threshold) == reference(
        root, reserved, power2, threshold
    )


def wide_top_level(internal):
    """``internal`` top-level non-leaves (two leaves each), with top-level
    leaves between them, which take general primes even under Opt1."""
    root = XmlElement("r")
    for index in range(internal):
        root.append(element("t", element("x"), element("y")))
        if index % 10 == 0:
            root.append(XmlElement("leaf"))
    return root


def chain(length):
    root = node = XmlElement("c")
    for _ in range(length - 1):
        node = node.append(XmlElement("c"))
    return root


TREES = {
    "mixed": lambda: parse_document(
        "<r><a><b/><c><d/><e/><f/><g/></c><h/></a><i/><j><k/></j></r>"
    ),
    "random": lambda: RandomTreeBuilder(seed=5, max_depth=6, max_fanout=40).build(1500),
    # More top-level non-leaves than Opt1's 64 reserved primes: the rest
    # fall back to the general pool.
    "reserved-exhausted": lambda: wide_top_level(70),
}


@pytest.mark.parametrize("tree", sorted(TREES))
@pytest.mark.parametrize("reserved, power2, threshold", COMBOS)
def test_walk_matches_the_definition(tree, reserved, power2, threshold):
    assert_walk_matches_reference(TREES[tree](), reserved, power2, threshold)


@pytest.mark.parametrize("reserved, power2", [(0, False), (64, True)])
def test_walk_grows_the_prime_table_mid_walk(reserved, power2):
    # One prime-taking non-leaf per comb tooth, more than the shared table
    # holds now, so the walk must extend the table while it draws.
    start = len(gen_module._TABLE)
    root = XmlElement("r")
    for _ in range(start + 10):
        root.append(element("t", XmlElement("leaf")))
    assert_walk_matches_reference(root, reserved, power2, None)
    assert len(gen_module._TABLE) > start


@pytest.mark.parametrize("power2", [False, True])
def test_walk_takes_a_chain_past_the_recursion_limit(power2):
    root = chain(sys.getrecursionlimit() + 200)
    assert_walk_matches_reference(root, 64, power2, None)

