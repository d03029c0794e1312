import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from shoprec.errors import EmptyDatasetError, RangeError
from shoprec.rules import format_rule, fp_growth, generate_rules

from conftest import tx
from oracles import itemset_support


def brute_force_frequent_itemsets(transactions, minsup_pct):
    """Full power-set enumeration oracle (fine for universes up to ~10 items)."""
    universe = sorted({i for t in transactions for i in t.items})
    n = len(transactions)
    found = {}
    for size in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            wanted = set(combo)
            count = sum(1 for t in transactions if wanted.issubset(t.items))
            if count and 100.0 * count / n >= minsup_pct:
                found[combo] = count
    return found


TABLE1_EXPECTED = {
    ("P1",): 4,
    ("P2",): 2,
    ("P4",): 3,
    ("P5",): 2,
    ("P1", "P2"): 2,
    ("P1", "P4"): 2,
}


@pytest.fixture
def table1_txns(table1):
    return table1.transactions


class TestItemsetSupport:
    def test_single_item(self, table1_txns):
        assert itemset_support(table1_txns, {"P1"}) == (4, 80.0)

    def test_pair(self, table1_txns):
        assert itemset_support(table1_txns, {"P1", "P2"}) == (2, 40.0)

    def test_absent_item(self, table1_txns):
        count, pct = itemset_support(table1_txns, {"P9"})
        assert count == 0 and pct == 0.0

    def test_empty_transactions(self):
        with pytest.raises(EmptyDatasetError):
            itemset_support([], {"P1"})

    def test_empty_itemset(self, table1_txns):
        with pytest.raises(RangeError):
            itemset_support(table1_txns, set())


class TestFpGrowth:
    def test_table1_minsup_40(self, table1_txns):
        got = {(f.items, f.support_count) for f in fp_growth(table1_txns, 40.0)}
        assert got == set(TABLE1_EXPECTED.items())
        for f in fp_growth(table1_txns, 40.0):
            assert f.support_pct == approx(100.0 * f.support_count / 5)

    def test_minsup_100_empty(self, table1_txns):
        assert fp_growth(table1_txns, 100.0) == []

    def test_no_transactions(self):
        assert fp_growth([], 40.0) == []

    def test_invalid_minsup(self, table1_txns):
        for bad in (0.0, -1.0, 100.1):
            with pytest.raises(RangeError):
                fp_growth(table1_txns, bad)

    def test_canonical_output_order(self, table1_txns):
        out = [f.items for f in fp_growth(table1_txns, 40.0)]
        assert out == sorted(out, key=lambda i: (len(i), i))

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(12)
        for _ in range(200):
            items = [f"I{i}" for i in range(1, rng.randint(2, 8) + 1)]
            txns = [
                tx(f"U{t}", 1, *rng.sample(items, rng.randint(1, len(items))))
                for t in range(rng.randint(1, 12))
            ]
            minsup = float(rng.randint(5, 95))
            got = {(f.items, f.support_count) for f in fp_growth(txns, minsup)}
            expected = set(brute_force_frequent_itemsets(txns, minsup).items())
            assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_oracle_equivalence_across_byte_boundaries(self, data):
        """Up to 70 transactions, so tid bitsets span several bytes and machine words;
        two item groups that never share a transaction; minsup down to one transaction."""
        n = data.draw(st.integers(1, 70), label="transactions")
        masks = data.draw(st.lists(st.integers(1, 2**9 - 1), min_size=n, max_size=n), label="masks")
        items = ["A1", "A2", "A3", "A4", "A5", "A6", "B1", "B2", "B3"]
        txns = []
        for t, mask in enumerate(masks):
            mask = mask & 0b111111 or mask  # either A items only or B items only
            txns.append(tx(f"U{t}", 1, *(item for bit, item in enumerate(items) if mask >> bit & 1)))
        min_count = data.draw(st.integers(1, len(txns)), label="min_count")
        minsup = 100.0 * min_count / len(txns)
        found = fp_growth(txns, minsup)
        assert [(f.items, f.support_count) for f in found] == list(brute_force_frequent_itemsets(txns, minsup).items())
        assert all(f.support_pct == 100.0 * f.support_count / len(txns) for f in found)

    def test_anti_monotonicity(self, table1_txns):
        rng = random.Random(13)
        for _ in range(30):
            items = [f"I{i}" for i in range(1, 7)]
            txns = [
                tx(f"U{t}", 1, *rng.sample(items, rng.randint(1, len(items))))
                for t in range(rng.randint(1, 10))
            ]
            minsup = float(rng.randint(10, 90))
            frequent = {f.items for f in fp_growth(txns, minsup)}
            for itemset in frequent:
                for size in range(1, len(itemset)):
                    for sub in itertools.combinations(itemset, size):
                        assert sub in frequent

    def test_deterministic(self, table1_txns):
        assert fp_growth(table1_txns, 40.0) == fp_growth(table1_txns, 40.0)


class TestGenerateRules:
    def test_full_confidence_rule(self, table1_txns):
        rules = generate_rules(fp_growth(table1_txns, 40.0), 100.0)
        assert [(r.antecedent, r.consequent) for r in rules] == [(("P2",), ("P1",))]
        rule = rules[0]
        assert rule.support_pct == approx(40.0)
        assert rule.confidence_pct == approx(100.0)

    def test_sixty_percent_floor(self, table1_txns):
        rules = generate_rules(fp_growth(table1_txns, 40.0), 60.0)
        pairs = {(r.antecedent, r.consequent): r for r in rules}
        weaker = pairs[(("P4",), ("P1",))]
        assert weaker.confidence_pct == approx(100 * 2 / 3)

    def test_invalid_minconf(self, table1_txns):
        with pytest.raises(RangeError):
            generate_rules(fp_growth(table1_txns, 40.0), 0.0)

    def test_confidence_arithmetic_is_exact(self):
        rng = random.Random(14)
        for _ in range(30):
            items = [f"I{i}" for i in range(1, 6)]
            txns = [
                tx(f"U{t}", 1, *rng.sample(items, rng.randint(1, len(items))))
                for t in range(rng.randint(1, 10))
            ]
            oracle = brute_force_frequent_itemsets(txns, 10.0)
            for rule in generate_rules(fp_growth(txns, 10.0), 20.0):
                union = tuple(sorted(rule.antecedent + rule.consequent))
                assert rule.union_count == oracle[union]
                assert rule.antecedent_count == oracle[rule.antecedent]
                # tau * count(X) == 100 * count(X u Y), checked in integers
                assert rule.confidence_pct * rule.antecedent_count == approx(
                    100 * rule.union_count, abs=1e-9
                )
                assert not set(rule.antecedent) & set(rule.consequent)
                assert rule.consequent

    def test_deterministic_ordering(self, table1_txns):
        a = generate_rules(fp_growth(table1_txns, 20.0), 20.0)
        b = generate_rules(fp_growth(table1_txns, 20.0), 20.0)
        assert a == b
        keys = [(r.antecedent, r.consequent) for r in a]
        assert keys == sorted(keys)


def test_format_rule(table1):
    rules = generate_rules(fp_growth(table1.transactions, 40.0), 100.0)
    assert format_rule(rules[0]) == "P2 => P1, support=40%, confidence=100%"
    rules = generate_rules(fp_growth(table1.transactions, 40.0), 60.0)
    formatted = {format_rule(r) for r in rules}
    assert "P4 => P1, support=40%, confidence=66.6667%" in formatted
