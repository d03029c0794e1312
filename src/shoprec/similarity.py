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
Neighbours are found through posting lists (item -> {user: weight}) rather
than by scoring every user: the restricted cosine reads only the target's
coordinates, so both the dot product and the other user's restricted norm
accumulate from the posting lists of the target's items. A query's cost
follows the postings it touches, and users sharing no coordinate with the
target are never visited (inverted-index accumulation; Bayardo, Ma and
Srikant, "Scaling Up All Pairs Similarity Search", WWW 2007). The k best are
then selected by threshold: one float sort of every candidate's similarity
gives the k-th largest, and only the candidates at or above it, ties included,
are sorted by (similarity, id). This holds for finite, non-negative weights.

Each quantity has one path: ``profile_weights`` builds a weight map, and
``build_postings`` and ``top_k_neighbors`` find the neighbours.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .corpus import _COUNT, _check_id, _require, _Rule

MODES = ("simple", "method1", "method2", "implicit")
# the mode rule, which RecommenderConfig and profile_weights both check; a list or
# an sNaN Decimal never reaches a hash here, since ``in`` on a tuple compares by ==
_MODE = _Rule(lambda v: v in MODES, f"one of {MODES}")
_IIF = _Rule(lambda m: isinstance(m, Mapping), "a mapping of item ids to inverse frequencies in implicit mode")

# item -> {user: weight}, users in the order their vectors were given; unlike a
# list of (user, weight) tuples, such a dict is not tracked by the garbage collector
Postings = dict[str, dict[str, float]]


def profile_weights(
    ratings: Mapping[str, float],
    purchase_counts: Mapping[str, int],
    mode: str,
    iif: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Construct the sparse weight map for one profile in the given mode.

    ``iif`` is required in implicit mode; items absent from it (never bought
    by anyone in the reference dataset) get no coordinate. An unknown mode,
    or implicit mode without an iif mapping, raises RangeError.
    """
    if mode == "simple":
        return dict(ratings)
    if mode in ("method1", "method2"):
        counts = purchase_counts.values()
        d = sum(counts) if mode == "method1" else max(counts, default=0)
        return {item: r * n / d for item, r in ratings.items() if (n := purchase_counts.get(item))}
    if mode == "implicit":
        _require("iif", iif, _IIF)
        return {item: n * iif[item] for item, n in purchase_counts.items() if item in iif}
    _require("mode", mode, _MODE)  # a valid mode has returned above, so this raises


def build_postings(vectors: Mapping[str, Mapping[str, float]]) -> Postings:
    """Invert user -> weight maps into item -> {user: weight} posting lists."""
    postings: Postings = {}
    for user, weights in vectors.items():
        for item, w in weights.items():
            posting = postings.get(item)
            if posting is None:
                posting = postings[item] = {}
            posting[user] = w
    return postings


def top_k_neighbors(
    weights: Mapping[str, float], postings: Postings, k: int, exclude: str | None = None
) -> list[tuple[str, float]]:
    """The k users most cosine-similar to a profile, similarity above 0 only.

    Ranked by descending similarity, ties by ascending user id; ``exclude``
    never appears, and one that is not None must be a valid user id
    (IntegrityError otherwise). Each score equals the pairwise restricted
    cosine bit for bit: per candidate, the products are summed in the
    target's coordinate order, and the coordinates the candidate lacks,
    which are skipped here, would only ever add 0.0. Only the candidates at
    or above the k-th best similarity, ties included, are sorted, so the
    answer is a full sort's. Weights must be finite and non-negative, as
    ``profile_weights`` makes them, and no sum of squares may overflow but
    the target's, which gives [].
    """
    _require("k", k, _COUNT)
    if exclude is not None:
        _check_id("user", exclude)
    sums: dict[str, list[float]] = {}  # user -> [dot, restricted norm]
    norm_t = 0.0
    for item, w in weights.items():
        norm_t += w * w
        posting = postings.get(item)
        if posting is None:
            continue
        for user, v in posting.items():
            acc = sums.get(user)
            if acc is None:
                # w * v alone differs from 0.0 + w * v only in the sign of a
                # zero, and a zero dot never makes a positive similarity
                sums[user] = [w * v, v * v]
            else:
                acc[0] += w * v
                acc[1] += v * v
    sums.pop(exclude, None)
    if norm_t == 0.0 or not sums:
        return []
    root_t = math.sqrt(norm_t)
    sims = [dot / (root_t * math.sqrt(norm_o)) if norm_o else 0.0 for dot, norm_o in sums.values()]
    floor = max(sorted(sims)[-k:][0], math.ulp(0.0))  # the k-th largest, or the least if fewer; 0 never ranks
    finalists = sorted((-sim, user) for user, sim in zip(sums, sims) if sim >= floor)
    return [(user, -neg) for neg, user in finalists[:k]]
