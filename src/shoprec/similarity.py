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

Neighbours are found through posting lists (item -> [(user, weight)]) rather
than by scoring every user: the restricted cosine reads only the target's
coordinates, so both the dot product and the other user's restricted norm
accumulate from the posting lists of the target's items. A query's cost
follows the postings it touches, and users sharing no coordinate with the
target are never visited (inverted-index accumulation; Bayardo, Ma and
Srikant, "Scaling Up All Pairs Similarity Search", WWW 2007).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping

from .corpus import Dataset
from .errors import NoOverlapError, NoProfileError, NotFoundError, RangeError

MODES = ("simple", "method1", "method2", "implicit")

# item -> [(user, weight)], users in the order their vectors were given
Postings = dict[str, list[tuple[str, float]]]


@dataclass
class UserVector:
    """Sparse profile vector of one user in a given construction mode."""

    user: str
    weights: dict[str, float]
    mode: str = "simple"

    def nonzero(self) -> bool:
        return any(w != 0.0 for w in self.weights.values())


@dataclass
class NeighborList:
    """Users ranked by similarity to a target, most similar first.

    Ties are broken by ascending user id; the target never appears.
    """

    target: str
    entries: list[tuple[str, float]]


def msd(target_ratings: UserVector, other_ratings: UserVector) -> float:
    """Mean squared rating difference over co-rated items (0 = most similar).

    This is the classic baseline comparator; it is not used by the
    recommendation pipeline, which ranks neighbors by cosine instead.
    """
    shared = target_ratings.weights.keys() & other_ratings.weights.keys()
    if not shared:
        raise NoOverlapError(
            f"users {target_ratings.user} and {other_ratings.user} share no rated items"
        )
    total = 0.0
    for item in shared:
        diff = target_ratings.weights[item] - other_ratings.weights[item]
        total += diff * diff
    return total / len(shared)


def cosine_restricted(target: UserVector, other: UserVector) -> float:
    """Cosine similarity with the other vector restricted to the target's coordinates.

    Items outside the target's coordinate set are ignored; items the other
    user lacks contribute 0. Returns 0.0 when either restricted norm is zero.
    """
    if not target.weights:
        raise NoProfileError(f"user {target.user} has no profile")
    dot = 0.0
    norm_t = 0.0
    norm_o = 0.0
    for item, w in target.weights.items():
        v = other.weights.get(item, 0.0)
        dot += w * v
        norm_t += w * w
        norm_o += v * v
    if norm_t == 0.0 or norm_o == 0.0:
        return 0.0
    return dot / (math.sqrt(norm_t) * math.sqrt(norm_o))


def profile_weights(
    ratings: Mapping[str, float],
    purchase_counts: Mapping[str, int],
    mode: str,
    iif: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Construct the sparse weight map for one profile in the given mode.

    ``iif`` is required in implicit mode; items absent from it (never bought
    by anyone in the reference dataset) get no coordinate.
    """
    if mode == "simple":
        return dict(ratings)
    if mode == "method1":
        total = sum(purchase_counts.values())
        return {
            item: r * purchase_counts[item] / total
            for item, r in ratings.items()
            if purchase_counts.get(item)
        }
    if mode == "method2":
        peak = max(purchase_counts.values(), default=0)
        return {
            item: r * purchase_counts[item] / peak
            for item, r in ratings.items()
            if purchase_counts.get(item)
        }
    if mode == "implicit":
        if iif is None:
            raise ValueError("implicit mode needs an inverse-frequency table")
        return {item: n * iif[item] for item, n in purchase_counts.items() if item in iif}
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def user_vector(dataset: Dataset, user: str, mode: str = "simple") -> UserVector:
    """Build the profile vector of a dataset user in the given mode."""
    if not dataset.has_user(user):
        raise NotFoundError(f"unknown user {user!r}")
    iif = None
    if mode == "implicit":
        from .implicit_vsm import build_iif

        iif = build_iif(dataset).iif
    weights = profile_weights(
        dataset.ratings_by_user[user], dataset.purchase_counts_by_user[user], mode, iif
    )
    return UserVector(user=user, weights=weights, mode=mode)


def build_postings(vectors: Mapping[str, Mapping[str, float]]) -> Postings:
    """Invert user -> weight maps into item -> [(user, weight)] posting lists."""
    postings: Postings = {}
    for user, weights in vectors.items():
        for item, w in weights.items():
            postings.setdefault(item, []).append((user, w))
    return postings


def top_k_neighbors(
    weights: Mapping[str, float], postings: Postings, k: int, exclude: str | None = None
) -> list[tuple[str, float]]:
    """The k users most cosine-similar to a profile, similarity above 0 only.

    Ranked by descending similarity, ties by ascending user id; ``exclude``
    never appears. Each score equals ``cosine_restricted`` bit for bit: per
    candidate, the products are summed in the target's coordinate order, and
    the coordinates the candidate lacks, which are skipped here, only ever
    added 0.0 there.
    """
    if k < 1:
        raise RangeError(f"k must be >= 1, got {k}")
    sums: dict[str, list[float]] = {}  # user -> [dot, restricted norm]
    norm_t = 0.0
    for item, w in weights.items():
        norm_t += w * w
        for user, v in postings.get(item, ()):
            acc = sums.get(user)
            if acc is None:
                # w * v alone differs from 0.0 + w * v only in the sign of a
                # zero, and a zero dot never makes a positive similarity
                sums[user] = [w * v, v * v]
            else:
                acc[0] += w * v
                acc[1] += v * v
    sums.pop(exclude, None)
    if norm_t == 0.0:
        return []
    root_t = math.sqrt(norm_t)
    scored = []
    for user, (dot, norm_o) in sums.items():
        if dot > 0.0 and norm_o > 0.0:
            sim = dot / (root_t * math.sqrt(norm_o))
            if sim > 0.0:
                scored.append((-sim, user))
    return [(user, -neg) for neg, user in heapq.nsmallest(k, scored)]


def nearest_neighbors(dataset: Dataset, target: str, k: int = 5, mode: str = "simple") -> NeighborList:
    """Find the k most cosine-similar users to a dataset user.

    Users with no positive similarity (no overlap, or a zero restricted norm)
    fill any places left, with similarity 0 and in ascending id order.
    Raises NoProfileError when the target's profile is all-zero in this mode.
    """
    iif = None
    if mode == "implicit":
        from .implicit_vsm import build_iif

        iif = build_iif(dataset).iif

    def vector(u: str) -> UserVector:
        return UserVector(
            user=u,
            weights=profile_weights(
                dataset.ratings_by_user[u], dataset.purchase_counts_by_user[u], mode, iif
            ),
            mode=mode,
        )

    if not dataset.has_user(target):
        raise NotFoundError(f"unknown user {target!r}")
    target_vec = vector(target)
    if not target_vec.nonzero():
        raise NoProfileError(f"user {target} has an all-zero profile in mode {mode}")
    postings = build_postings({u: vector(u).weights for u in dataset.users})
    entries = top_k_neighbors(target_vec.weights, postings, k, exclude=target)
    found = {u for u, _ in entries}
    entries += [(u, 0.0) for u in dataset.users if u != target and u not in found][: k - len(entries)]
    return NeighborList(target=target, entries=entries)
