"""Frequent itemsets and association rules over the transaction database.

Support and confidence are percentages: an itemset X has support
100 * |{t : X subseteq t}| / |T|, and a rule X => Y holds with confidence
100 * count(X u Y) / count(X). Mining is FP-growth over a prefix tree whose
paths are ordered by descending global item frequency (ties broken by
ascending item id), so output is deterministic and golden-testable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import Transaction
from .errors import RangeError


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


class _Node:
    __slots__ = ("item", "count", "parent", "children")

    def __init__(self, item, parent):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[str, _Node] = {}


def _mine(weighted: list[tuple[Sequence[str], int]], min_count: int, suffix: tuple[str, ...], out):
    """Recursive FP-growth step over a (conditional) weighted transaction base."""
    counts: dict[str, int] = {}
    for items, weight in weighted:
        for item in items:
            counts[item] = counts.get(item, 0) + weight
    frequent = {item: c for item, c in counts.items() if c >= min_count}
    if not frequent:
        return

    order = sorted(frequent, key=lambda i: (-frequent[i], i))
    rank = {item: r for r, item in enumerate(order)}

    root = _Node(None, None)
    headers: dict[str, list[_Node]] = {item: [] for item in order}
    for items, weight in weighted:
        path = sorted((i for i in items if i in frequent), key=rank.__getitem__)
        node = root
        for item in path:
            child = node.children.get(item)
            if child is None:
                child = _Node(item, node)
                node.children[item] = child
                headers[item].append(child)
            child.count += weight
            node = child

    # grow patterns from the least frequent item upward
    for item in reversed(order):
        found = tuple(sorted(suffix + (item,)))
        out.append((found, frequent[item]))
        base: list[tuple[list[str], int]] = []
        for node in headers[item]:
            path = []
            parent = node.parent
            while parent is not None and parent.item is not None:
                path.append(parent.item)
                parent = parent.parent
            if path:
                base.append((path, node.count))
        if base:
            _mine(base, min_count, found, out)


def fp_growth(transactions: Sequence[Transaction], minsup_pct: float) -> list[FrequentItemset]:
    """All itemsets with support >= minsup_pct, canonically ordered.

    Output is sorted by itemset size then lexicographically, so identical
    inputs always produce identical lists.
    """
    if not 0.0 < minsup_pct <= 100.0:
        raise RangeError(f"minsup_pct {minsup_pct} outside (0, 100]")
    n = len(transactions)
    if n == 0:
        return []
    min_count = _min_count(n, minsup_pct)

    found: list[tuple[tuple[str, ...], int]] = []
    _mine([(t.items, 1) for t in transactions], min_count, (), found)
    found.sort(key=lambda e: (len(e[0]), e[0]))
    return [
        FrequentItemset(items=items, support_count=c, support_pct=100.0 * c / n)
        for items, c in found
    ]


def generate_rules(frequents: Iterable[FrequentItemset], minconf_pct: float) -> list[AssociationRule]:
    """Derive every rule X => Y from the frequent itemsets at the confidence floor.

    Confidence comes from the frequent-itemset counts themselves (every
    antecedent of a frequent itemset is frequent, so its count is known).
    """
    if not 0.0 < minconf_pct <= 100.0:
        raise RangeError(f"minconf_pct {minconf_pct} outside (0, 100]")
    by_items = {f.items: f for f in frequents}
    rules = []
    for f in by_items.values():
        if len(f.items) < 2:
            continue
        for r in range(1, len(f.items)):
            for antecedent in itertools.combinations(f.items, r):
                parent = by_items.get(antecedent)
                if parent is None:
                    continue  # caller passed a pruned frequent set
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


def format_rule(rule: AssociationRule) -> str:
    return (
        f"{';'.join(rule.antecedent)} => {';'.join(rule.consequent)}, "
        f"support={format_pct(rule.support_pct)}%, "
        f"confidence={format_pct(rule.confidence_pct)}%"
    )
