"""End-to-end recommendation pipeline.

Candidate generation runs in two phases over a training dataset:

  Phase A - neighbor candidates. Find the k most cosine-similar users in the
  requested mode; each neighbor offers its best-rated item (rating at or
  above the exclusion threshold) that the target has not seen, falling back
  to its next-best item whenever the purchase-order filter rejects one. Each
  training user's ratings are ranked once, best first, so a neighbor's pick
  is a walk down its ranking that stops below the threshold.

  Phase B - rule expansion, run only when the neighbor candidates leave
  slots in the top-N. For every Phase-A item, association rules whose
  antecedent contains it contribute their consequent items, looked up by
  antecedent item in mined order. Each item keeps its best-scoring rule, the
  first met among equal scores (parents in rank order, each one's rules in
  mined order). Only then does each distinct item meet the filters, once:
  not seen, not a neighbor candidate, and the purchase-order filter. All
  three depend on the item alone, so this keeps the list that filtering each
  rule would give. Only returned items get an explain string.

A query profile is a frozen ``Profile``, whose ids, ratings and counts are
checked once, when it is made, so a query checks only that it was given one.
An item is seen when it is in the profile's ratings or purchase counts, and
the filter's purchase history is the purchase map's keys: a query builds no
set of the profile.

Neighbor candidates are ranked by similarity * neighbor rating, rule
candidates by (confidence / 100) * parent score, each tier by the plain
tuple order of (-score, item), and the final list keeps
all neighbor candidates ahead of all rule candidates. That two-tier order
guarantees that rule expansion never pushes a neighbor recommendation out of
the top-N: the answer's neighbor entries are the list without rules, so
recall can only improve with them.

Brand-new users (no ratings, no purchases) get the popularity ranking from
the implicit model instead, through ``cold_start``, which reads no index.

Every index derived from a training dataset is built by the first engine
over that dataset object that needs it, through ``Dataset._derived``, and
kept in the dataset's one store beside its lookup tables, so building
several engines (one per mode, say) builds each index once, also when they
are built concurrently. None of them refers back to the dataset, and a copy
or a pickle of the dataset carries none of them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from types import MappingProxyType

from .corpus import _COUNT, _PERCENTAGE, _PURCHASE_COUNT, _RATING, _THRESHOLD, Dataset, _check_fields, _check_id
from .corpus import _require, _require_type, _Rule, _shown
from .errors import IntegrityError, NoProfileError, NotFoundError
from .implicit_vsm import build_iif, new_user_scores
from .rules import AssociationRule, _sides, fp_growth, generate_rules
from .sequence import bought_after, build_precedence_index
from .similarity import _MODE, Postings, build_postings, profile_weights, top_k_neighbors


_EMPTY: Mapping = MappingProxyType({})  # the default map, read-only and so shared
_RATINGS_MAP = _Rule(lambda m: isinstance(m, Mapping), "a mapping of item ids to ratings")
_COUNTS_MAP = _Rule(lambda m: isinstance(m, Mapping), "a mapping of item ids to purchase counts")


@dataclass(frozen=True, init=False)
class Profile:
    """A query profile: explicit ratings plus purchase occurrence counts.

    Stands in for users that are not part of the training data (new visitors,
    held-out evaluation users). Items present in either map count as seen.

    Checked once, when made: a map that is not a Mapping or an item id that
    is not a valid id string raises IntegrityError; a rating that is not an
    int or a float in [0, 10] (NaN is not), or a purchase count that is not
    an int in [1, 2**53], raises RangeError. A rating obeys the rule of a
    ``Dataset``'s stored values, so a bool, a Fraction or a numpy int is not
    one. Each map is copied and kept as a read-only view; ``dataclasses.replace``
    checks the copy again. The engine reads the two copied dicts themselves,
    kept under the private ``_dicts``, never the views, which wrap those same
    dicts. So nothing public can change a profile once made, as long as
    nothing writes to ``_dicts``: a value written there skips every check.
    """

    ratings: Mapping[str, float]
    purchase_counts: Mapping[str, int]

    def __init__(self, ratings: Mapping[str, float] = _EMPTY, purchase_counts: Mapping[str, int] = _EMPTY) -> None:
        _require("ratings", ratings, _RATINGS_MAP, IntegrityError)
        _require("purchase_counts", purchase_counts, _COUNTS_MAP, IntegrityError)
        ratings, counts = dict(ratings), dict(purchase_counts)
        for item in chain(ratings, counts):
            _check_id("item", item)
        for item, rating in ratings.items():
            if not _RATING.ok(rating):  # the name is built only for a bad value
                _require(f"item {item}: rating", rating, _RATING)
        for item, count in counts.items():
            if not _PURCHASE_COUNT.ok(count):
                _require(f"item {item}: purchase count", count, _PURCHASE_COUNT)
        # _dicts holds the dicts the views wrap, so a query skips the views' forwarding
        vars(self).update(
            ratings=MappingProxyType(ratings), purchase_counts=MappingProxyType(counts), _dicts=(ratings, counts)
        )

    def __reduce__(self):  # a read-only view does not pickle: copy and pickle rebuild from dicts
        return type(self), (dict(self.ratings), dict(self.purchase_counts))


@dataclass(frozen=True)
class RecommenderConfig:
    """One engine's parameters, checked when constructed; frozen (``dataclasses.replace`` rechecks)."""

    mode: str = "simple"
    k_neighbors: int = 5
    top_n: int = 5
    minsup_pct: float = 40.0
    minconf_pct: float = 60.0
    exclusion_threshold: float = 7.0

    def __post_init__(self) -> None:
        _check_fields(self, "mode", _MODE)
        _check_fields(self, "k_neighbors top_n", _COUNT)
        _check_fields(self, "minsup_pct minconf_pct", _PERCENTAGE)
        _check_fields(self, "exclusion_threshold", _THRESHOLD)


@dataclass
class Recommendation:
    item: str
    score: float
    source: str  # neighbor | rule | popularity
    explain: str  # neighbor user id, triggering rule, or "cold-start"


def profile_of(dataset: Dataset, user: str) -> Profile:
    _require_type("dataset", dataset, Dataset)
    # a list or Decimal("sNaN") has no hash
    if not isinstance(user, str) or user not in (ratings := dataset.ratings_by_user):
        raise NotFoundError(f"unknown user {_shown(user)}")
    return Profile(ratings[user], dataset.purchase_counts_by_user[user])


# Rules listed under each item of their antecedents, each list in mined order.
RulesByItem = dict[str, list[AssociationRule]]

def _ranked_ratings(train: Dataset) -> dict[str, dict[str, float]]:
    # user -> {item: rating} in (-rating, item) order; of strings and floats
    # only, the inner dicts are not tracked by the garbage collector
    ranked: dict[str, dict[str, float]] = {}
    for user, ratings in train.ratings_by_user.items():
        # ratings_by_user is filled from rating_rows, which every Dataset keeps in
        # (user, item) order, so each user's items already ascend; one stable sort
        # by rating then keeps ties by item
        ranked[user] = dict(sorted(ratings.items(), key=itemgetter(1), reverse=True))
    return ranked


def _postings(train: Dataset, mode: str, iif: dict[str, float]) -> Postings:
    ratings, counts = train.ratings_by_user, train.purchase_counts_by_user
    return build_postings({u: profile_weights(ratings[u], counts[u], mode, iif) for u in train.users})


def _rules_by_item(train: Dataset, minsup_pct: float, minconf_pct: float) -> RulesByItem:
    by_item: RulesByItem = {}
    for rule in generate_rules(fp_growth(train.transaction_rows, minsup_pct), minconf_pct):
        for item in rule.antecedent:
            by_item.setdefault(item, []).append(rule)
    return by_item


class Recommender:
    """Recommendation engine over a frozen training dataset and a frozen config.

    Construction takes from the dataset what the config needs, building each
    index the first time an engine over that dataset object asks for it: the
    precedence index, the iif table, the ranked ratings (each user's ratings,
    best first, ties by ascending item id), the posting lists of its mode and
    the rules mined at its (minsup, minconf), listed by antecedent item. A
    query only reads them, so one engine serves concurrent queries, and its
    neighbour search costs the postings of the query's items; only a query
    that reads more posting entries than there are training users also
    passes over every user. The user a query leaves out, such as
    ``recommend_user``'s own, is summed as any other and struck only from
    the ranked finalists. A ``train`` that is not a ``Dataset``, or a
    ``config`` that is neither None nor a ``RecommenderConfig``, raises TypeError.

    An engine exposes ``config``, ``train``, ``recommend_user`` and
    ``recommend_profile``. It keeps its indexes under private names, since
    they are shared by every engine over the dataset and a change to one
    would reach them all; ``dump-index`` prints the precedence pairs and
    ``mine-rules`` the rules, one line each.
    """

    def __init__(self, train: Dataset, config: RecommenderConfig | None = None):
        _require_type("train", train, Dataset)
        self.config = cfg = RecommenderConfig() if config is None else config
        _require_type("config", cfg, RecommenderConfig)
        self.train = train
        # each builder is looked up here, at call time, so a wrapped one is the one called
        self._precedence = train._derived("precedence", build_precedence_index)
        self._iif = train._derived("iif", build_iif)
        self._ranked = train._derived("ranked", _ranked_ratings)
        self._postings = train._derived(("postings", cfg.mode), lambda t: _postings(t, cfg.mode, self._iif))
        thresholds = (cfg.minsup_pct, cfg.minconf_pct)
        self._rules_by_item = train._derived(("rules", *thresholds), lambda t: _rules_by_item(t, *thresholds))

    def recommend_user(self, user: str) -> list[Recommendation]:
        """Recommend for a user already present in the training data."""
        return self.recommend_profile(profile_of(self.train, user), exclude_user=user)

    def recommend_profile(self, profile: Profile, exclude_user: str | None = None) -> list[Recommendation]:
        """Recommend for a query profile, which was checked when made; TypeError for anything else.

        ``exclude_user``, when not None, must be a valid user id (IntegrityError
        otherwise), which the neighbour search leaves out.
        """
        _require_type("profile", profile, Profile)
        cfg = self.config
        ratings, counts = profile._dicts
        weights = profile_weights(ratings, counts, cfg.mode, self._iif)
        if not any(weights.values()):  # 0, 0.0 and -0.0 are false, NaN is true, as for w != 0.0
            raise NoProfileError(f"query profile is empty in mode {cfg.mode}")
        if exclude_user is not None:
            _check_id("user", exclude_user)
        neighbors = top_k_neighbors(weights, self._postings, cfg.k_neighbors, exclude=exclude_user)

        history = counts.keys()
        precedence, ranked, threshold = self._precedence, self._ranked, cfg.exclusion_threshold

        # Phase A: one pick per neighbor, best rating first, sequence-filtered
        neighbor_scores: dict[str, tuple[float, str]] = {}
        for user, sim in neighbors:
            for item, value in ranked[user].items():
                if value < threshold:
                    break  # every later rating is lower still
                if item in ratings or item in counts or not bought_after(precedence, item, history):
                    continue
                score = sim * value
                if item not in neighbor_scores or score > neighbor_scores[item][0]:
                    neighbor_scores[item] = (score, user)
                break  # this neighbor has made its pick

        # best score first, ties by item id: Phase B's parent order and the result's;
        # the items are distinct, so no user is compared, and -(-score) is score
        picks = [(-score, item, user) for item, (score, user) in neighbor_scores.items()]
        picks.sort()
        result = [Recommendation(item, -neg, "neighbor", user) for neg, item, user in picks[: cfg.top_n]]
        slots = cfg.top_n - len(result)
        if not (slots and self._rules_by_item):
            return result

        # Phase B: parents in rank order and rules in mined order, so a later
        # rule with an equal score never replaces an earlier one
        best: dict[str, tuple[float, AssociationRule]] = {}
        for neg, parent_item, _ in picks:
            for rule in self._rules_by_item.get(parent_item, ()):
                score = rule.confidence_pct / 100.0 * -neg
                for item in rule.consequent:
                    kept = best.get(item)
                    if kept is None or score > kept[0]:
                        best[item] = (score, rule)
        # every filter depends on the item alone, so it runs once per item
        survivors = [
            (-score, item, rule)
            for item, (score, rule) in best.items()
            if not (item in ratings or item in counts or item in neighbor_scores)
            and bought_after(precedence, item, history)
        ]
        survivors.sort()  # the items are distinct, so no rule is compared
        for neg, item, rule in survivors[:slots]:
            result.append(Recommendation(item, -neg, "rule", _sides(rule)))
        return result


def cold_start(train: Dataset, top_n: int) -> list[Recommendation]:
    """The top_n most-purchased items, for a user with no profile; builds no index.

    A ``train`` that is not a ``Dataset`` raises TypeError, and a ``top_n``
    that is not an int >= 1 RangeError.
    """
    _require_type("train", train, Dataset)
    _require("top_n", top_n, _COUNT)
    return [Recommendation(item, score, "popularity", "cold-start") for item, score in new_user_scores(train)[:top_n]]
