import itertools

import pytest

from cge.errors import ImmediateNo, NotExact, TooLarge
from cge.exact import exact_decide
from cge.hardness import (
    BinPackingInstance,
    bin_to_rob,
    binpacking_to_exact,
    brute_binpacking,
)

from conftest import edge_items


class TestToExact:
    def test_overfull_is_immediate_no(self):
        inst = BinPackingInstance((3,), 2, 2)
        with pytest.raises(ImmediateNo):
            binpacking_to_exact(BinPackingInstance((5,), 2, 2))
        # 3 <= 4 total: pads one unit
        out = binpacking_to_exact(inst)
        assert out.sizes == (3, 1)
        assert out.exact

    def test_zero_slack_identity(self):
        out = binpacking_to_exact(BinPackingInstance((2, 2), 2, 2))
        assert out.sizes == (2, 2)
        assert out.exact

    def test_single_unit_pad(self):
        out = binpacking_to_exact(BinPackingInstance((1,), 2, 1))
        assert out.sizes == (1, 1)
        assert brute_binpacking(out)

    def test_equivalence_exhaustive(self):
        """Yes answers agree before and after padding, exhaustively."""
        for n_items in range(1, 5):
            for sizes in itertools.product(range(1, 5), repeat=n_items):
                for k in range(1, 4):
                    total = sum(sizes)
                    for capacity in range(1, 13):
                        if not (total <= capacity * k <= 12):
                            continue
                        plain = BinPackingInstance(tuple(sizes), capacity, k)
                        before = brute_binpacking(plain)
                        after = brute_binpacking(binpacking_to_exact(plain))
                        assert before == after, (sizes, capacity, k)


class TestBinToRob:
    def test_two_twos(self):
        inst = bin_to_rob(BinPackingInstance((2, 2), 2, 2, exact=True))
        assert inst.graph.n == 5
        assert inst.budget == 4
        assert inst.k == 2
        assert inst.v_init == 0
        assert edge_items(inst.graph) == [
            ((0, 1), 1), ((0, 2), 1), ((1, 3), 1), ((2, 4), 1),
        ]

    def test_single_unit_item(self):
        inst = bin_to_rob(BinPackingInstance((1,), 1, 1, exact=True))
        assert edge_items(inst.graph) == [((0, 1), 1)]
        assert inst.budget == 2

    def test_requires_exact(self):
        with pytest.raises(NotExact):
            bin_to_rob(BinPackingInstance((1,), 2, 1))

    def test_tree_shape_and_depth(self):
        inst = bin_to_rob(BinPackingInstance((3, 2, 1), 3, 2, exact=True))
        g = inst.graph
        assert g.num_edges == g.n - 1  # tree
        assert g.components() == [list(range(g.n))]
        # three-level elimination: root, centers, leaves
        centers = set(range(1, 4))
        for (u, v) in g.distinct_edges():
            assert u == 0 and v in centers or u in centers
        assert sum(inst.graph.degree(v) for v in range(g.n)) == 2 * (g.n - 1)


class TestBrute:
    def test_exact_yes(self):
        assert brute_binpacking(BinPackingInstance((2, 2), 2, 2, exact=True))

    def test_exact_no(self):
        assert not brute_binpacking(BinPackingInstance((3, 1), 2, 2, exact=True))

    def test_split_two_one_one(self):
        assert brute_binpacking(BinPackingInstance((2, 1, 1), 2, 2, exact=True))

    def test_too_large_guard(self):
        with pytest.raises(TooLarge):
            brute_binpacking(BinPackingInstance((1,) * 17, 17, 1))


class TestHardnessEquivalence:
    def test_exhaustive_against_oracle(self):
        """Exact packing answers match exploration answers on the trees."""
        checked = 0
        for n_items in range(1, 4):
            for sizes in itertools.product((1, 2, 3), repeat=n_items):
                total = sum(sizes)
                for k in (1, 2):
                    if total % k:
                        continue
                    capacity = total // k
                    inst = BinPackingInstance(tuple(sizes), capacity, k, exact=True)
                    expected = brute_binpacking(inst)
                    got, witness = exact_decide(bin_to_rob(inst))
                    assert got == expected, (sizes, capacity, k)
                    checked += 1
        assert checked >= 30
