"""User-to-user similarity kernels over sparse rating vectors.

A user's profile is a sparse item->weight map. Four construction modes exist:

    simple      weight(i) = rating(u, i)
    method1     weight(i) = rating(u, i) * n(u, i) / sum_I n(u, I)
    method2     weight(i) = rating(u, i) * n(u, i) / max_I n(u, I)
    implicit    weight(i) = n(u, i) * iif(i)   (no ratings involved)

where n(u, i) counts purchase occurrences of item i across the user's
transactions. Weight maps are sparse: a coordinate that would be 0 (an item
rated but never purchased, in the weighted modes) is simply absent, and a
user with no purchases has an empty weighted vector.

Users are compared by the restricted cosine: the cosine between the target's
vector and the other user's vector restricted to the target's coordinates,
so items outside them are ignored and items the other user lacks count 0.
Neighbours are found through posting lists (item -> {slot: weight}, a user's
slot being its position in the sorted ``users`` that the postings carry)
rather than by scoring every user: the restricted cosine reads only the
target's coordinates, so both the dot product and the other user's
restricted norm accumulate from the posting lists of the target's items. A
query's cost follows the postings it touches (inverted-index accumulation;
Bayardo, Ma and Srikant, "Scaling Up All Pairs Similarity Search", WWW 2007).

The sums go into one of two accumulators, picked per query from its own
shape (Zobel and Moffat, "Inverted Files for Text Search Engines", ACM
Computing Surveys 2006). A query that reads more posting entries than there
are users, as a long purchase history's implicit vector does, adds into two
float lists indexed by slot; any other adds into a dict of [dot, norm] pairs
keyed by the slots it meets, so users sharing no coordinate with the target
are never visited. Both add the products in the target's coordinate order,
and the lists start at 0.0, which changes no sum of non-negative products
but the sign of a zero dot; a zero dot never ranks, so the two give the
same bits. The k best are then selected by threshold:
one float sort of every candidate's similarity gives the k-th largest, and
only the candidates at or above it, ties included, are sorted by
(similarity, slot), which is (similarity, id) since the slots follow the
sorted ids. This holds for finite, non-negative weights. A user to leave
out is dropped there and nowhere else: the accumulators sum it as any other
slot, the floor is taken at the (k+1)-th largest, and its id is filtered
from the sorted finalists, since the k best of the other users are the
first k of the k + 1 best of all once it is struck out.

Each quantity has one path: ``profile_weights`` builds a weight map, and
``build_postings`` and ``top_k_neighbors`` find the neighbours. They are
internal to the engine, which calls them only with values the boundary has
checked: a ``Profile``'s maps, a ``Dataset``'s tables and a
``RecommenderConfig``'s mode and k. They check nothing again.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import sqrt, ulp
from typing import NamedTuple

from .corpus import _Rule

MODES = ("simple", "method1", "method2", "implicit")
# the mode rule, which RecommenderConfig checks, and ExperimentConfig through it; a list
# or an sNaN Decimal never reaches a hash here, since ``in`` on a tuple compares by ==
_MODE = _Rule(lambda v: v in MODES, f"one of {MODES}")
_LEAST = ulp(0.0)  # the least positive float, the floor below which no similarity ranks


class Postings(NamedTuple):
    """Posting lists over a set of users, each user known by its slot.

    ``users`` holds the user ids in ascending order, and a user's slot is its
    position there; ``lists`` maps each item to {slot: weight}, slots
    ascending. Of ints and floats only, a posting list is not tracked by the
    garbage collector.
    """

    users: tuple[str, ...]
    lists: dict[str, dict[int, float]]


def profile_weights(
    ratings: Mapping[str, float],
    purchase_counts: Mapping[str, int],
    mode: str,
    iif: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Construct the sparse weight map for one profile in one of ``MODES``.

    ``iif`` is required in implicit mode; items absent from it (never bought
    by anyone in the reference dataset) get no coordinate.
    """
    if mode == "simple":
        return dict(ratings)
    if mode == "implicit":
        return {item: n * iif[item] for item, n in purchase_counts.items() if item in iif}
    counts = purchase_counts.values()
    d = sum(counts) if mode == "method1" else max(counts, default=0)
    return {item: r * n / d for item, r in ratings.items() if (n := purchase_counts.get(item))}


def build_postings(vectors: Mapping[str, Mapping[str, float]]) -> Postings:
    """Invert user -> weight maps into item -> {slot: weight} posting lists.

    Every user gets a slot, one with an empty map too.
    """
    users = tuple(sorted(vectors))
    lists: dict[str, dict[int, float]] = {}
    for slot, user in enumerate(users):
        for item, w in vectors[user].items():
            posting = lists.get(item)
            if posting is None:
                posting = lists[item] = {}
            posting[slot] = w
    return Postings(users, lists)


def _in_dict(hits):
    """The sums of the slots the hits meet, as (slots, [dot, norm] pairs)."""
    sums: dict[int, list[float]] = {}
    for w, posting in hits:
        for slot, v in posting.items():
            acc = sums.get(slot)
            if acc is None:
                # w * v alone differs from 0.0 + w * v only in the sign of a
                # zero, and a zero dot never makes a positive similarity
                sums[slot] = [w * v, v * v]
            else:
                acc[0] += w * v
                acc[1] += v * v
    return sums.keys(), sums.values()


def _in_lists(hits, n: int):
    """The sums of every slot, as (slots, (dot, norm) pairs); a slot no hit meets sums to 0."""
    dots = [0.0] * n
    norms = [0.0] * n
    for w, posting in hits:
        for slot, v in posting.items():
            dots[slot] += w * v
            norms[slot] += v * v
    return range(n), zip(dots, norms)


def top_k_neighbors(
    weights: Mapping[str, float], postings: Postings, k: int, exclude: str | None = None
) -> list[tuple[str, float]]:
    """The k users most cosine-similar to a profile, similarity above 0 only.

    Ranked by descending similarity, ties by ascending user id; ``exclude``
    never appears. Each score equals the pairwise restricted cosine bit for
    bit: per candidate, the products are summed in the target's coordinate
    order, and the coordinates the candidate lacks, which are not read here,
    would only ever add 0.0. A query that reads more posting entries than
    there are users sums into lists indexed by slot, any other into a dict
    of the slots it meets; the two give the same bits. Only the candidates
    at or above the k-th best similarity, ties included, are sorted, so the
    answer is a full sort's. With ``exclude`` given, the floor is the
    (k+1)-th best, and ``exclude`` is struck from the sorted finalists: the
    one place it is left out. Weights must be finite and non-negative, as
    ``profile_weights`` makes them, and no sum of squares may overflow but
    the target's, which gives [].
    """
    users, lists = postings
    hits = []  # (weight, posting list) of each target coordinate that has one, in target order
    reads = 0
    norm_t = 0.0
    for item, w in weights.items():
        norm_t += w * w
        posting = lists.get(item)
        if posting is not None:
            hits.append((w, posting))
            reads += len(posting)
    if norm_t == 0.0:
        return []
    n = len(users)
    slots, sums = _in_lists(hits, n) if reads > n else _in_dict(hits)
    root_t = sqrt(norm_t)
    sims = [dot / (root_t * sqrt(norm_o)) if norm_o else 0.0 for dot, norm_o in sums]
    if not sims:  # no candidate
        return []
    cut = k if exclude is None else k + 1  # the user left out may be one of the k + 1 best
    floor = max(sorted(sims)[-cut:][0], _LEAST)  # the cut-th largest, or the least if fewer; 0 never ranks
    finalists = [(-sim, slot) for slot, sim in zip(slots, sims) if sim >= floor]
    finalists.sort()
    return [(users[slot], -neg) for neg, slot in finalists[:cut] if users[slot] != exclude][:k]
