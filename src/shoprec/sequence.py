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
orders. How often a pair occurs is not kept: the filter never reads it, and
counting every pair would cost the square of each user's events.
``dump_lines`` renders the index itself, which is what ``dump-index`` prints.

These functions are internal to the engine and the CLI, which give them only
a checked ``Dataset`` and its own profiles' purchase histories; they check
nothing again.
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


def dump_lines(index: PrecedenceIndex) -> list[str]:
    """Render the index as ``earlier,later`` lines, sorted by the (earlier, later) pair.

    The pairs are grouped by earlier item, so each sort compares ids, not
    tuples. The joined lines are never sorted: an id may hold a character
    below ",", which would put "A!,B" ahead of "A,B".
    """
    after: dict[str, list[str]] = {}
    for later, earlier in index.before.items():
        for item in earlier:
            after.setdefault(item, []).append(later)
    return [f"{item},{later}" for item in sorted(after) for later in sorted(after[item])]
