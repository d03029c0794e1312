"""Brute-force reference computations the tests compare the package against.

Each is the plain definition of a quantity the package computes some faster
way; none is part of the package.

``recommend_reference`` reads only an engine's ``train`` and ``config``, as any
caller can: an engine keeps its indexes under private names, and
``dump-index`` and ``mine-rules`` print the precedence pairs and the rules,
one line each. It states each step itself (the weight formulas and the iif
table, the neighbour ranking by ``cosine_restricted``, the ranked ratings, the
precedence pairs of ``precedence_counts`` and the rules counted over every
subset of every transaction) and imports nothing from ``shoprec.similarity``,
``shoprec.sequence`` or ``shoprec.rules``, so a fault in an engine index shows
as a difference rather than reaching both sides. Its tables are derived from
the training rows.
"""

import functools
import math
from collections import Counter
from itertools import combinations, groupby
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from shoprec.corpus import Dataset, Transaction
from shoprec.errors import NoProfileError, RangeError
from shoprec.recommend import Recommendation


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
    """Count transactions containing every item of the set; also as a percentage.

    Over no transactions the percentage divides by zero: ZeroDivisionError.
    """
    wanted = set(itemset)
    if not wanted:
        raise RangeError("itemset must be non-empty")
    count = sum(1 for t in transactions if wanted.issubset(t.items))
    return count, 100.0 * count / len(transactions)


def precedence_counts(dataset: Dataset) -> dict[tuple[str, str], int]:
    """Count every cross-transaction ordered item pair per user.

    For each user, every purchase event in a transaction with lower seq pairs
    with every event in each strictly later transaction; the keys are the
    pairs of ``build_precedence_index``, found the quadratic way.
    """
    counts: dict[tuple[str, str], int] = {}
    for _, rows in groupby(dataset.transaction_rows, itemgetter(1)):  # one user's rows, seq-sorted
        baskets = [items for _, _, _, items in rows]
        for i, earlier in enumerate(baskets):
            for later in baskets[i + 1 :]:
                for a in earlier:
                    for b in later:
                        counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def _weights(ratings: Mapping[str, float], counts: Mapping[str, int], mode: str, iif: Mapping[str, float]):
    """The four weight formulas: the rating, the rating times the purchase count
    over the sum or the largest of the counts, or the count times iif."""
    if mode == "simple":
        return dict(ratings)
    if mode in ("method1", "method2"):
        total = sum(counts.values()) if mode == "method1" else max(counts.values(), default=0)
        return {item: r * counts[item] / total for item, r in ratings.items() if counts.get(item)}
    return {item: n * iif[item] for item, n in counts.items() if item in iif}


# The reference's tables are computed once per training set (a Dataset hashes by
# value) and kept for the few most recent ones.


@functools.lru_cache(maxsize=16)
def _tables(train: Dataset) -> dict:
    """Each user's ratings and purchase counts, the iif table, the ranked ratings, the
    precedence pairs and the count of every subset of every transaction, from the rows."""
    ratings = {user: {} for user in train.users}
    for user, item, value in train.rating_rows:
        ratings[user][item] = value
    counts = {user: {} for user in train.users}
    for _, user, _, items in train.transaction_rows:
        for item in items:
            counts[user][item] = counts[user].get(item, 0) + 1
    buyers = Counter(item for bought in counts.values() for item in bought)
    return {
        "ratings": ratings,
        "counts": counts,
        "iif": {item: math.log((1 + len(train.users)) / n) for item, n in buyers.items()},
        "ranked": {user: sorted(r.items(), key=lambda e: (-e[1], e[0])) for user, r in ratings.items()},
        "after": set(precedence_counts(train)),
        "subsets": Counter(
            subset
            for _, _, _, items in train.transaction_rows
            for size in range(1, len(items) + 1)
            for subset in combinations(sorted(items), size)
        ),
    }


@functools.lru_cache(maxsize=64)
def _user_weights(train: Dataset, mode: str) -> dict[str, dict[str, float]]:
    tables = _tables(train)
    return {user: _weights(r, tables["counts"][user], mode, tables["iif"]) for user, r in tables["ratings"].items()}


@functools.lru_cache(maxsize=64)
def _rules(train: Dataset, minsup_pct: float, minconf_pct: float) -> list[tuple[tuple[str, ...], tuple[str, ...], float]]:
    """Every (antecedent, consequent, confidence) at the floors, in (antecedent, consequent) order.

    A frequent itemset is a counted subset at the support floor; every subset of
    it is counted too, so each antecedent's count is known.
    """
    subsets, n = _tables(train)["subsets"], len(train.transaction_rows)
    rules = []
    for itemset, count in subsets.items():
        if count < n * minsup_pct / 100.0 - 1e-9:
            continue
        for size in range(1, len(itemset)):
            for antecedent in combinations(itemset, size):
                if 100.0 * count >= minconf_pct * subsets[antecedent] - 1e-9:
                    consequent = tuple(item for item in itemset if item not in antecedent)
                    rules.append((antecedent, consequent, 100.0 * count / subsets[antecedent]))
    return sorted(rules)


def recommend_reference(engine, profile, exclude_user=None, rules=True):
    """The engine's answer by its plain definition: every training user scored by
    ``cosine_restricted``, per-query seen and history sets, the filters run for
    every rule entry, every candidate built, and the list truncated last. Reads
    only the engine's ``train`` and ``config``, and derives every table from the
    training rows; with ``rules`` false it expands no rule, which gives the list
    without rules."""
    cfg, train = engine.config, engine.train
    tables = _tables(train)
    weights = _weights(profile.ratings, profile.purchase_counts, cfg.mode, tables["iif"])
    if not any(w != 0.0 for w in weights.values()):
        raise NoProfileError(f"query profile is empty in mode {cfg.mode}")
    scored = [
        (-sim, user)
        for user, other in _user_weights(train, cfg.mode).items()
        if user != exclude_user and (sim := cosine_restricted(weights, other)) > 0.0
    ]
    neighbors = [(user, -neg) for neg, user in sorted(scored)[: cfg.k_neighbors]]
    seen = set(profile.ratings) | set(profile.purchase_counts)
    history = set(profile.purchase_counts)

    def bought_after(item):
        return not history or any((earlier, item) in tables["after"] for earlier in history)

    neighbor_scores = {}
    for user, sim in neighbors:
        for item, value in tables["ranked"][user]:
            if value < cfg.exclusion_threshold:
                break
            if item in seen or not bought_after(item):
                continue
            score = sim * value
            if item not in neighbor_scores or score > neighbor_scores[item][0]:
                neighbor_scores[item] = (score, user)
            break
    ranked_candidates = sorted(neighbor_scores.items(), key=lambda e: (-e[1][0], e[0]))

    mined = _rules(train, cfg.minsup_pct, cfg.minconf_pct) if rules else []
    rule_scores = {}
    for parent_item, (parent_score, _) in ranked_candidates:
        for antecedent, consequent, confidence in mined:
            if parent_item not in antecedent:
                continue
            for item in consequent:
                if item in seen or item in neighbor_scores or not bought_after(item):
                    continue
                score = confidence / 100.0 * parent_score
                if item not in rule_scores or score > rule_scores[item][0]:
                    rule_scores[item] = (score, f"{';'.join(antecedent)} => {';'.join(consequent)}")

    result = [
        Recommendation(item=item, score=score, source="neighbor", explain=user)
        for item, (score, user) in ranked_candidates
    ]
    result.extend(
        Recommendation(item=item, score=score, source="rule", explain=explain)
        for item, (score, explain) in sorted(rule_scores.items(), key=lambda e: (-e[1][0], e[0]))
    )
    return result[: cfg.top_n]
