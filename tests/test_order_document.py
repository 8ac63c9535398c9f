"""Unit tests for OrderedDocument — labels + SC table kept consistent."""

import random

import pytest

from repro.errors import CapacityError, OrderingError
from repro.labeling.prime import PrimeScheme
from repro.obs import metrics
from repro.order.document import OrderedDocument
from repro.order.sc_table import SCTable
from repro.xmlkit.builder import element


def small_doc():
    return element(
        "r",
        element("a", element("a1"), element("a2")),
        element("b"),
        element("c"),
    )


class TestConstruction:
    def test_orders_match_preorder(self):
        doc = OrderedDocument(small_doc())
        orders = [doc.order_of(n) for n in doc.root.iter_preorder()]
        assert orders == [0, 1, 2, 3, 4, 5]

    def test_root_order_zero_not_stored(self):
        doc = OrderedDocument(small_doc())
        assert doc.order_of(doc.root) == 0
        assert doc.sc_table.node_count == 5

    def test_check_passes(self):
        assert OrderedDocument(small_doc()).check()

    def test_rejects_power2_scheme(self):
        with pytest.raises(OrderingError):
            OrderedDocument(small_doc(), scheme=PrimeScheme(power2_leaves=True))

    def test_group_size_none_single_record(self):
        doc = OrderedDocument(small_doc(), group_size=None)
        assert len(doc.sc_table) == 1

    def test_nodes_in_order(self):
        doc = OrderedDocument(small_doc())
        tags = [n.tag for n in doc.nodes_in_order()]
        assert tags == ["r", "a", "a1", "a2", "b", "c"]


class TestOrderedInsertion:
    def test_insert_between_siblings(self):
        doc = OrderedDocument(small_doc())
        doc.insert_child(doc.root, 1, tag="x")
        assert [n.tag for n in doc.nodes_in_order()] == [
            "r", "a", "a1", "a2", "x", "b", "c",
        ]
        assert doc.check()

    def test_insert_before_and_after(self):
        doc = OrderedDocument(small_doc())
        b = doc.root.children[1]
        doc.insert_before(b, tag="pre")
        doc.insert_after(b, tag="post")
        tags = [n.tag for n in doc.root.children]
        assert tags == ["a", "pre", "b", "post", "c"]
        assert doc.check()

    def test_append_child(self):
        doc = OrderedDocument(small_doc())
        doc.append_child(doc.root, tag="z")
        assert doc.root.children[-1].tag == "z"
        assert doc.check()

    def test_insert_sibling_of_root_rejected(self):
        doc = OrderedDocument(small_doc())
        with pytest.raises(OrderingError):
            doc.insert_before(doc.root)

    def test_report_counts_new_node_and_records(self):
        doc = OrderedDocument(small_doc(), group_size=2)
        report = doc.insert_child(doc.root, 0, tag="front")
        assert report.new_node is not None
        assert report.node_relabels >= 1
        assert report.sc_records_updated >= 1
        assert report.total_cost == report.node_relabels + report.sc_records_updated

    def test_tail_insert_touches_fewer_records(self):
        front_doc = OrderedDocument(small_doc(), group_size=1)
        back_doc = OrderedDocument(small_doc(), group_size=1)
        front = front_doc.insert_child(front_doc.root, 0, tag="x")
        back = back_doc.append_child(back_doc.root, tag="x")
        assert back.sc_records_updated < front.sc_records_updated

    def test_many_random_inserts_stay_consistent(self):
        rng = random.Random(7)
        doc = OrderedDocument(small_doc(), group_size=3)
        for _ in range(30):
            parent = rng.choice(list(doc.root.iter_preorder()))
            index = rng.randint(0, len(parent.children))
            doc.insert_child(parent, index, tag=f"n{rng.randrange(100)}")
        assert doc.check()
        assert doc.sc_table.check()

    def test_residue_overflow_repair(self):
        """Repeatedly inserting at the very front forces the small-prime
        nodes' orders up to their moduli; the document must repair by
        relabeling instead of corrupting the SC table (a gap in the paper)."""
        doc = OrderedDocument(element("r", element("a"), element("b")), group_size=2)
        repaired = 0
        for _ in range(10):
            report = doc.insert_child(doc.root, 0, tag="front")
            repaired += sum(
                1 for n in report.relabeled_nodes if n is not report.new_node
            )
        assert doc.check()
        assert repaired > 0  # the gap really bites, and we really repair it


class TestDeletion:
    def test_delete_keeps_order_of_survivors(self):
        doc = OrderedDocument(small_doc())
        a = doc.root.children[0]
        doc.delete(a)
        assert [n.tag for n in doc.nodes_in_order()] == ["r", "b", "c"]
        assert doc.sc_table.check()

    def test_delete_then_insert(self):
        doc = OrderedDocument(small_doc())
        doc.delete(doc.root.children[1])
        doc.insert_child(doc.root, 1, tag="replacement")
        assert doc.check()

    def test_deletion_costs_nothing(self):
        doc = OrderedDocument(small_doc())
        report = doc.delete(doc.root.children[0])
        assert report.total_cost == 0

    def test_delete_root_rejected_with_clear_error(self):
        """Pinned behavior: deleting the root raises OrderingError up front.

        The root's self-label 1 was never registered (order 0 is implicit),
        so the old code crashed mid-loop with an opaque "self-label 1 is not
        in the SC table" after the decision to reject was already forced;
        skipping the root instead would silently turn "delete the document"
        into "delete some children", which is worse.  The table must be left
        untouched by the rejected call.
        """
        doc = OrderedDocument(small_doc())
        before = doc.sc_table.orders()
        with pytest.raises(OrderingError, match="root"):
            doc.delete(doc.root)
        assert doc.sc_table.orders() == before
        assert doc.check()

    def test_scheme_delete_purges_leaf_counter(self):
        """The Opt2 leaf counter (keyed by parent label value) must not
        leak entries for deleted parents: a stale entry would inflate a
        later parent's leaf ordinals if the value were ever reissued."""
        scheme = PrimeScheme(reserved_primes=0, power2_leaves=True)
        root = element("r", element("a", element("x"), element("y")), element("b"))
        scheme.label_tree(root)
        victim = root.children[0]
        victim_value = scheme.label_of(victim).value
        assert victim_value in scheme._leaf_counter  # two leaves were labeled
        scheme.delete(victim)
        assert victim_value not in scheme._leaf_counter

    def test_fresh_parent_after_delete_starts_ordinals_at_one(self):
        """A parent labeled after a purge hands its first Opt2 leaf 2**1,
        not a stale 2**n resurrected from the deleted parent's entry."""
        scheme = PrimeScheme(reserved_primes=0, power2_leaves=True)
        root = element("r", element("a", element("x"), element("y")), element("b"))
        scheme.label_tree(root)
        victim = root.children[0]
        stale_value = scheme.label_of(victim).value
        scheme.delete(victim)
        # Without the purge this would resurrect the counter at 2.
        assert scheme._leaf_counter.get(stale_value, 0) == 0


class TestCompaction:
    def test_compact_renumbers_densely(self):
        doc = OrderedDocument(small_doc(), group_size=2)
        doc.delete(doc.root.children[0])  # leaves gaps 1..3
        doc.compact()
        orders = sorted(doc.order_of(n) for n in doc.root.iter_preorder())
        assert orders == [0, 1, 2]
        assert doc.check()

    def test_compact_reduces_record_count_after_churn(self):
        doc = OrderedDocument(small_doc(), group_size=2)
        for _ in range(6):
            doc.append_child(doc.root, tag="tmp")
        for node in [n for n in doc.root.children if n.tag == "tmp"]:
            doc.delete(node)
        before = len(doc.sc_table)
        doc.compact()
        assert len(doc.sc_table) <= before
        assert doc.check()

    def test_compact_is_idempotent(self):
        doc = OrderedDocument(small_doc())
        first = doc.compact()
        second = doc.compact()
        assert first == second
        assert doc.check()


class TestFreshBuild:
    """The bulk SC load gives what one register() call per node gave."""

    @staticmethod
    def tree():
        from repro.datasets.random_tree import RandomTreeBuilder

        return RandomTreeBuilder(seed=5, max_depth=6, max_fanout=40).build(1500)

    @pytest.mark.parametrize("group_size", [1, 5, None])
    def test_groups_equal_per_node_registration(self, group_size):
        doc = OrderedDocument(self.tree(), group_size=group_size)
        reference = SCTable(group_size=group_size)
        for order, node in enumerate(doc.root.iter_preorder()):
            if order:
                reference.register(doc.label_of(node).self_label, order)
        assert doc.sc_table.groups() == reference.groups()

    def test_capacity_error_in_first_group(self):
        from repro.datasets.niagara import build_dataset

        scheme = PrimeScheme(reserved_primes=8, power2_leaves=False)
        with pytest.raises(CapacityError) as info:
            OrderedDocument(build_dataset("D4"), scheme=scheme)
        assert info.value.group == 0

    @pytest.mark.parametrize(
        "group_size, opened", [(1, 1499), (5, 300), (None, 1)]
    )
    def test_counter_totals(self, group_size, opened):
        # Totals recorded with the per-node register() build.
        with metrics.collecting() as registry:
            OrderedDocument(self.tree(), group_size=group_size)
        counts = {
            name: registry.counter_value(name)
            for name in (
                "primes.issued",
                "sc.registered",
                "sc.records_opened",
                "sc.records_touched",
            )
        }
        assert counts == {
            "primes.issued": 1499,
            "sc.registered": 1499,
            "sc.records_opened": opened,
            "sc.records_touched": 1499,
        }

    def test_capacity_error_counters(self):
        from repro.datasets.niagara import build_dataset

        # D6 under an 8-prime reserved pool fails at the 114th registration.
        scheme = PrimeScheme(reserved_primes=8, power2_leaves=False)
        with metrics.collecting() as registry:
            with pytest.raises(CapacityError) as info:
                OrderedDocument(build_dataset("D6"), scheme=scheme)
        assert info.value.group == 22
        assert registry.counter_value("sc.registered") == 113
        assert registry.counter_value("sc.records_opened") == 23
        assert registry.counter_value("sc.capacity_errors") == 1
