"""Frequent itemsets and association rules over the transaction database.

Support and confidence are percentages: an itemset X has support
100 * |{t : X subseteq t}| / |T|, and a rule X => Y holds with confidence
100 * count(X u Y) / count(X). Frequent itemsets are mined by tid-set
intersection (Zaki, "Scalable Algorithms for Association Mining", IEEE TKDE
2000): each frequent item's transactions form an int bitset, an item pair is
counted over the transactions of its first item, and a larger itemset's
transactions are the ``&`` of two of its subsets', counted with
``int.bit_count()``. Output is in canonical order (size, then item ids), so it
is deterministic and golden-testable.

The miner and the rule generator are internal: the engine and ``mine-rules``
give them thresholds a ``RecommenderConfig`` has checked, and they check
nothing again.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

from .corpus import Transaction


@dataclass(frozen=True)
class FrequentItemset:
    items: tuple[str, ...]  # ascending item id
    support_count: int
    support_pct: float


@dataclass(frozen=True)
class AssociationRule:
    """Rule antecedent => consequent with its support/confidence percentages.

    The raw transaction counts are kept so confidence can be cross-checked
    in integer arithmetic.
    """

    antecedent: tuple[str, ...]
    consequent: tuple[str, ...]
    support_pct: float
    confidence_pct: float
    antecedent_count: int
    union_count: int


def _min_count(n_transactions: int, minsup_pct: float) -> int:
    # smallest integer count whose support percentage reaches minsup_pct;
    # the 1e-9 slack absorbs float noise on exact thresholds like 40% of 5
    return max(1, math.ceil(n_transactions * minsup_pct / 100.0 - 1e-9))


def _bitset(indexes: list[int]) -> int:
    """The int whose bit i is set for each transaction index i."""
    bits = bytearray(indexes[-1] // 8 + 1)  # indexes ascend
    for i in indexes:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def _extend(prefix: tuple[str, ...], tails: list[tuple[str, int, int]], min_count: int, out) -> None:
    """Emit prefix + (item,) for each (item, tid bitset, count) tail, ascending by item,
    and recurse into each one's frequent extensions by the tails after it."""
    for index, (item, bits, count) in enumerate(tails):
        itemset = prefix + (item,)
        out.append((itemset, count))
        deeper = []
        for other, other_bits, _ in tails[index + 1 :]:
            both = bits & other_bits
            both_count = both.bit_count()
            if both_count >= min_count:
                deeper.append((other, both, both_count))
        if deeper:
            _extend(itemset, deeper, min_count, out)


def fp_growth(transactions: Iterable[Transaction], minsup_pct: float) -> list[FrequentItemset]:
    """All itemsets with support >= minsup_pct, canonically ordered.

    The transactions may be Transaction records or their plain ``(tid, user,
    seq, items)`` rows, such as ``Dataset.transaction_rows``; only the items
    are read, once per transaction.

    Output is sorted by itemset size then lexicographically, so identical
    inputs always produce identical lists. The miner is tid-set intersection,
    not FP-growth, but both find exactly the frequent itemsets; the name
    stays because the benchmark's tracer and build counters look the
    function up by it, and renaming it is a change to the benchmark.
    """
    baskets = [items for _, _, _, items in transactions]
    n = len(baskets)  # with none, min_count is 1 and no item is found, so n is never divided by
    min_count = _min_count(n, minsup_pct)

    tids: dict[str, list[int]] = defaultdict(list)
    for index, items in enumerate(baskets):
        for item in items:
            tids[item].append(index)
    frequent = sorted(item for item, indexes in tids.items() if len(indexes) >= min_count)
    bits = {item: _bitset(tids[item]) for item in frequent}

    found: list[tuple[tuple[str, ...], int]] = []
    for item in frequent:
        found.append(((item,), len(tids[item])))
        # a pair's count, over the transactions of its first item only: a sparse
        # catalogue never pays for the pairs that never occur
        together = Counter(itertools.chain.from_iterable(baskets[i] for i in tids[item]))
        tails = sorted(
            (other, bits[item] & bits[other], count)
            for other, count in together.items()
            if other > item and count >= min_count
        )
        _extend((item,), tails, min_count, found)
    # depth first in item order is lexicographic order; the stable sort keeps it within a size
    found.sort(key=lambda e: len(e[0]))
    return [
        FrequentItemset(items=items, support_count=c, support_pct=100.0 * c / n)
        for items, c in found
    ]


def generate_rules(frequents: Iterable[FrequentItemset], minconf_pct: float) -> list[AssociationRule]:
    """Derive every rule X => Y from the frequent itemsets at the confidence floor.

    Confidence comes from the frequent-itemset counts themselves: every
    antecedent of a frequent itemset is frequent, so ``frequents``, which
    holds every frequent itemset as ``fp_growth`` returns them, has its count.
    """
    by_items = {f.items: f for f in frequents}
    rules = []
    for f in by_items.values():
        for r in range(1, len(f.items)):  # none for a single item
            for antecedent in itertools.combinations(f.items, r):
                parent = by_items[antecedent]
                if 100.0 * f.support_count < minconf_pct * parent.support_count - 1e-9:
                    continue
                consequent = tuple(i for i in f.items if i not in antecedent)
                rules.append(
                    AssociationRule(
                        antecedent=antecedent,
                        consequent=consequent,
                        support_pct=f.support_pct,
                        confidence_pct=100.0 * f.support_count / parent.support_count,
                        antecedent_count=parent.support_count,
                        union_count=f.support_count,
                    )
                )
    rules.sort(key=lambda rule: (rule.antecedent, rule.consequent))
    return rules


def format_pct(value: float) -> str:
    """Percentage for display: up to 4 decimals, trailing zeros trimmed."""
    return f"{value:.4f}".rstrip("0").rstrip(".")


def _sides(rule: AssociationRule) -> str:
    """``A;B => C``: the rule's two sides, as the CLI prints them and Phase B explains a pick."""
    return f"{';'.join(rule.antecedent)} => {';'.join(rule.consequent)}"


def format_rule(rule: AssociationRule) -> str:
    return f"{_sides(rule)}, support={format_pct(rule.support_pct)}%, confidence={format_pct(rule.confidence_pct)}%"
