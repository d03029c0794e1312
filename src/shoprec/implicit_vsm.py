"""Implicit rating from purchase behavior.

Purchase counts play the role of term frequencies and an inverse item
frequency downweights ubiquitous items: a user's coordinate on item i is
n(u, i) * iif(i) with iif(i) = ln((1 + U) / U_i), U the total user count and
U_i the number of distinct purchasers of i. Natural log throughout; every
consumer is ranking-only, so the base is unobservable downstream.
``build_iif`` returns the table as an item -> iif dict, which
``similarity.profile_weights`` reads in implicit mode.

Brand-new users, who have no profile at all, are served a popularity ranking
through ln(U_i / (1 + U)). The formula is negative-valued but strictly
increasing in U_i, so sorting by it descending is exactly purchaser-count
order.

Both functions are internal: the engine and ``recommend.cold_start`` give
them only a checked ``Dataset``, and they check nothing again.
"""

from __future__ import annotations

import math

from .corpus import Dataset


def build_iif(dataset: Dataset) -> dict[str, float]:
    """Compute iif(i) = ln((1 + U) / U_i) for every purchased item.

    Items nobody purchased are absent (their frequency is undefined), so a
    dataset without users gives an empty table.
    """
    total = len(dataset.users)
    return {item: math.log((1 + total) / u_i) for item, u_i in dataset.purchaser_counts.items()}


def new_user_scores(dataset: Dataset) -> list[tuple[str, float]]:
    """Cold-start item ranking: ln(U_i / (1 + U)), best first, ties by item id.

    Scores are negative by construction and used purely as ranking keys;
    the order is identical to descending purchaser count.
    """
    total = len(dataset.users)
    scored = [
        (item, math.log(u_i / (1 + total)))
        for item, u_i in dataset.purchaser_counts.items()
    ]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored
