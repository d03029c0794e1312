"""Purchase-order precedence index.

The filter question is "has this candidate ever been bought after something
the target already owns?" - a candidate that never was is suppressed. "After"
means in a later transaction of the same user, anywhere later in that user's
chronological stream, not immediately next; items inside one transaction are
simultaneous and produce no pair.

The filter only asks whether a pair (earlier h, later c) exists, and it does
exactly when some user bought h first in an earlier transaction than the one
in which they bought c last: first_pos_u(h) < last_pos_u(c), positions being
indexes in the user's seq-sorted transactions. ``build_precedence_index``
therefore makes one pass over each user's transactions, recording the first
and last position of each item, and adds to each item c the prefix, in
first-position order, of the items whose first position precedes c's last
(found by bisection). That costs one pass over the purchase events plus the
pairs each user contributes, instead of the square of each user's events.

Both (a, b) and (b, a) may be present: different users shop in different
orders. How often each pair occurs is only shown by ``dump-index``;
``precedence_counts`` computes it there, on its own quadratic path.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Set
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

from .corpus import Dataset

_NONE: frozenset[str] = frozenset()


@dataclass(frozen=True)
class PrecedenceIndex:
    """For each item, the items some user bought in an earlier transaction.

    The sets are built once and only read afterwards, so one index serves
    concurrent queries.
    """

    before: dict[str, set[str]] = field(default_factory=dict)

    def __len__(self) -> int:
        """The number of (earlier item, later item) pairs."""
        return sum(map(len, self.before.values()))


def build_precedence_index(dataset: Dataset) -> PrecedenceIndex:
    """Find, per item c, every item h with first_pos_u(h) < last_pos_u(c) for some user u."""
    before: dict[str, set[str]] = {}
    for _, rows in groupby(dataset.transaction_rows, itemgetter(1)):  # one user's rows, seq-sorted
        first: dict[str, int] = {}
        last: dict[str, int] = {}
        for pos, (_, _, _, items) in enumerate(rows):
            for item in items:
                first.setdefault(item, pos)
                last[item] = pos
        # first was filled in position order, so its keys are sorted by first position
        order = list(first)
        firsts = list(first.values())
        for item, pos in last.items():
            earlier = bisect_left(firsts, pos)
            if not earlier:
                continue
            items = before.get(item)
            if items is None:
                before[item] = set(order[:earlier])
            else:
                items.update(order[:earlier])
    return PrecedenceIndex(before=before)


def bought_after(index: PrecedenceIndex, candidate: str, history: Set[str]) -> bool:
    """True when the candidate was ever bought after any item in the history.

    An empty history imposes no constraint and always passes, so brand-new
    users receive unfiltered recommendations. The history is any Set, a
    ``dict.keys()`` view included, so a caller need not copy it into a set.
    """
    return not history or not index.before.get(candidate, _NONE).isdisjoint(history)


def precedence_counts(dataset: Dataset) -> dict[tuple[str, str], int]:
    """Count every cross-transaction ordered item pair per user.

    For each user, every purchase event in a transaction with lower seq pairs
    with every event in each strictly later transaction.
    """
    counts: dict[tuple[str, str], int] = {}
    for _, rows in groupby(dataset.transaction_rows, itemgetter(1)):  # as in build_precedence_index
        baskets = [items for _, _, _, items in rows]
        for i, earlier in enumerate(baskets):
            for later in baskets[i + 1 :]:
                for a in earlier:
                    for b in later:
                        counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def dump_lines(counts: dict[tuple[str, str], int]) -> list[str]:
    """Render pair counts as ``earlier,later,count`` lines, lexicographically sorted."""
    return [f"{a},{b},{n}" for (a, b), n in sorted(counts.items())]
