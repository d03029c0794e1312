"""Brute-force reference computations the tests compare the package against.

Each is the plain definition of a quantity the package computes some faster
way; none is part of the package.
"""

import math
from typing import Iterable, Mapping, Sequence

from shoprec.corpus import Transaction
from shoprec.errors import EmptyDatasetError, NoProfileError, RangeError


def cosine_restricted(target: Mapping[str, float], other: Mapping[str, float]) -> float:
    """Cosine similarity with the other weight map restricted to the target's coordinates.

    Items outside the target's coordinate set are ignored; items the other
    map lacks contribute 0. Returns 0.0 when either restricted norm is zero.
    """
    if not target:
        raise NoProfileError("target has no profile")
    dot = 0.0
    norm_t = 0.0
    norm_o = 0.0
    for item, w in target.items():
        v = other.get(item, 0.0)
        dot += w * v
        norm_t += w * w
        norm_o += v * v
    if norm_t == 0.0 or norm_o == 0.0:
        return 0.0
    return dot / (math.sqrt(norm_t) * math.sqrt(norm_o))


def itemset_support(transactions: Sequence[Transaction], itemset: Iterable[str]) -> tuple[int, float]:
    """Count transactions containing every item of the set; also as a percentage."""
    wanted = set(itemset)
    if not wanted:
        raise RangeError("itemset must be non-empty")
    if not transactions:
        raise EmptyDatasetError("support percentage undefined over zero transactions")
    count = sum(1 for t in transactions if wanted.issubset(t.items))
    return count, 100.0 * count / len(transactions)
