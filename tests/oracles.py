"""Brute-force reference computations the tests compare the package against.

Each is the plain definition of a quantity the package computes some faster
way; none is part of the package.
"""

import math
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from shoprec.corpus import Dataset, Transaction
from shoprec.errors import NoProfileError, RangeError
from shoprec.recommend import Recommendation
from shoprec.sequence import bought_after
from shoprec.similarity import profile_weights, top_k_neighbors


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


def recommend_reference(engine, profile, exclude_user=None, rules=True):
    """The engine's answer by its plain definition: per-query seen and history
    sets, the filters run for every rule entry, every candidate built, and the
    list truncated last. Reads the engine's config and shared indexes only;
    with ``rules`` false it expands no rule, which gives the list without rules."""
    cfg = engine.config
    weights = profile_weights(profile.ratings, profile.purchase_counts, cfg.mode, engine.iif)
    if not any(w != 0.0 for w in weights.values()):
        raise NoProfileError(f"query profile is empty in mode {cfg.mode}")
    neighbors = top_k_neighbors(weights, engine.postings, cfg.k_neighbors, exclude=exclude_user)
    seen = set(profile.ratings) | set(profile.purchase_counts)
    history = set(profile.purchase_counts)

    neighbor_scores = {}
    for user, sim in neighbors:
        for item, value in engine.ranked[user].items():
            if value < cfg.exclusion_threshold:
                break
            if item in seen or not bought_after(engine.precedence, item, history):
                continue
            score = sim * value
            if item not in neighbor_scores or score > neighbor_scores[item][0]:
                neighbor_scores[item] = (score, user)
            break
    ranked_candidates = sorted(neighbor_scores.items(), key=lambda e: (-e[1][0], e[0]))

    rules_by_item = engine.rules_by_item if rules else {}
    rule_scores = {}
    for parent_item, (parent_score, _) in ranked_candidates:
        for rule in rules_by_item.get(parent_item, ()):
            for item in rule.consequent:
                if item in seen or item in neighbor_scores:
                    continue
                if not bought_after(engine.precedence, item, history):
                    continue
                score = rule.confidence_pct / 100.0 * parent_score
                if item not in rule_scores or score > rule_scores[item][0]:
                    rule_scores[item] = (score, f"{';'.join(rule.antecedent)} => {';'.join(rule.consequent)}")

    result = [
        Recommendation(item=item, score=score, source="neighbor", explain=user)
        for item, (score, user) in ranked_candidates
    ]
    result.extend(
        Recommendation(item=item, score=score, source="rule", explain=explain)
        for item, (score, explain) in sorted(rule_scores.items(), key=lambda e: (-e[1][0], e[0]))
    )
    return result[: cfg.top_n]
