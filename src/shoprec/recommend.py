"""End-to-end recommendation pipeline.

Candidate generation runs in two phases over a training dataset:

  Phase A - neighbor candidates. Find the k most cosine-similar users in the
  requested mode; each neighbor offers its best-rated item (rating at or
  above the exclusion threshold) that the target has not seen, falling back
  to its next-best item whenever the purchase-order filter rejects one. Each
  training user's ratings are ranked once, best first, so a neighbor's pick
  is a walk down its ranking that stops below the threshold.

  Phase B - rule expansion. For every Phase-A item, association rules whose
  antecedent contains it contribute their consequent items, again subject to
  the purchase-order filter and the not-already-seen rule. The rules are
  looked up by antecedent item, each item's list in mined order.

Neighbor candidates are ranked by similarity * neighbor rating, rule
candidates by (confidence / 100) * parent score, and the final list keeps
all neighbor candidates ahead of all rule candidates. That two-tier order
guarantees that enabling rule expansion never pushes a neighbor
recommendation out of the top-N, so recall can only improve when rules are
switched on.

Brand-new users (no ratings, no purchases) get the popularity ranking from
the implicit model instead, through ``cold_start``, which reads no index.

Every index derived from a training dataset lives in one IndexSnapshot that
all engines over that dataset share, so building several engines (one per
mode, say) builds each index once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from numbers import Real
from operator import itemgetter

from .corpus import Dataset, _check_ids
from .errors import ConfigError, NoProfileError, NotFoundError, RangeError
from .implicit_vsm import build_iif, new_user_scores
from .rules import AssociationRule, fp_growth, generate_rules
from .sequence import bought_after, build_precedence_index
from .similarity import MODES, Postings, build_postings, profile_weights, top_k_neighbors


@dataclass
class Profile:
    """A query profile: explicit ratings plus purchase occurrence counts.

    Stands in for users that are not part of the training data (new visitors,
    held-out evaluation users). Items present in either map count as seen.
    """

    ratings: dict[str, float] = field(default_factory=dict)
    purchase_counts: dict[str, int] = field(default_factory=dict)

    @property
    def seen_items(self) -> set[str]:
        return set(self.ratings) | set(self.purchase_counts)

    @property
    def history(self) -> set[str]:
        return set(self.purchase_counts)


@dataclass
class RecommenderConfig:
    mode: str = "simple"
    k_neighbors: int = 5
    top_n: int = 5
    minsup_pct: float = 40.0
    minconf_pct: float = 60.0
    exclusion_threshold: float = 7.0
    use_rules: bool = True

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.k_neighbors < 1:
            raise ConfigError("k_neighbors must be >= 1")
        if self.top_n < 1:
            raise ConfigError("top_n must be >= 1")
        if not 0.0 <= self.exclusion_threshold <= 10.0:
            raise ConfigError("exclusion_threshold must be within [0, 10]")
        if not 0.0 < self.minsup_pct <= 100.0:
            raise ConfigError("minsup_pct must be within (0, 100]")
        if not 0.0 < self.minconf_pct <= 100.0:
            raise ConfigError("minconf_pct must be within (0, 100]")


@dataclass
class Recommendation:
    item: str
    score: float
    source: str  # neighbor | rule | popularity
    explain: str  # neighbor user id, triggering rule, or "cold-start"


def profile_of(dataset: Dataset, user: str) -> Profile:
    if not dataset.has_user(user):
        raise NotFoundError(f"unknown user {user!r}")
    return Profile(
        ratings=dict(dataset.ratings_by_user[user]),
        purchase_counts=dict(dataset.purchase_counts_by_user[user]),
    )


# Rules listed under each item of their antecedents, each list in mined order.
RulesByItem = dict[str, list[AssociationRule]]

# Serialises snapshot creation and part builds, so that engines constructed
# concurrently still build each part once.
_BUILD_LOCK = threading.Lock()
# Key of the snapshot in its dataset's __dict__, beside the dataset's cached tables.
_SNAPSHOT_KEY = "_index_snapshot"


class IndexSnapshot:
    """Every index engines derive from one training dataset, shared by all of them.

    The precedence index, the iif table and the ranked ratings (each user's
    ratings, best first, ties by ascending item id) are built with the
    snapshot; the posting lists of a mode and the rules of a (minsup,
    minconf) pair, listed by antecedent item, are built by the first engine
    whose config needs them. A part never changes once built, so queries
    only read. The snapshot holds no reference to its dataset, which holds
    the snapshot.
    """

    def __init__(self, train: Dataset):
        self.precedence = build_precedence_index(train)
        self.iif = build_iif(train) if train.users else {}
        # user -> {item: rating} in (-rating, item) order; of strings and floats
        # only, the inner dicts are not tracked by the garbage collector
        self.ranked: dict[str, dict[str, float]] = {}
        for user, ratings in train.ratings_by_user.items():
            ranked = sorted(ratings.items())  # by item: ids are unique
            ranked.sort(key=itemgetter(1), reverse=True)  # stable, so ties stay by item
            self.ranked[user] = dict(ranked)
        self.postings: dict[str, Postings] = {}
        self.rules: dict[tuple[float, float], RulesByItem] = {}

    @classmethod
    def of(cls, train: Dataset) -> "IndexSnapshot":
        """The dataset's snapshot, built on first use and memoised on the dataset."""
        with _BUILD_LOCK:
            snapshot = train.__dict__.get(_SNAPSHOT_KEY)
            if snapshot is None:
                snapshot = train.__dict__[_SNAPSHOT_KEY] = cls(train)
        return snapshot

    def mode_postings(self, train: Dataset, mode: str) -> Postings:
        """Posting lists of the training users' vectors in one mode."""
        with _BUILD_LOCK:
            if mode not in self.postings:
                self.postings[mode] = build_postings(
                    {
                        u: profile_weights(
                            train.ratings_by_user[u], train.purchase_counts_by_user[u], mode, self.iif
                        )
                        for u in train.users
                    }
                )
            return self.postings[mode]

    def mined_rules(self, train: Dataset, minsup_pct: float, minconf_pct: float) -> RulesByItem:
        """Rules mined from the training transactions at these thresholds, listed
        under each item of their antecedents, in mined order."""
        key = (minsup_pct, minconf_pct)
        with _BUILD_LOCK:
            if key not in self.rules:
                by_item: RulesByItem = {}
                for rule in generate_rules(fp_growth(train.transactions, minsup_pct), minconf_pct):
                    for item in rule.antecedent:
                        by_item.setdefault(item, []).append(rule)
                self.rules[key] = by_item
            return self.rules[key]


class Recommender:
    """Recommendation engine over an immutable training dataset.

    Construction validates the config and takes from the dataset's shared
    IndexSnapshot what the config needs: the precedence index, the iif table,
    the ranked ratings, the posting lists of its mode and, with use_rules, the
    mined rules. A query only reads them, so one engine serves concurrent
    queries, and its neighbour search costs the postings of the query's items
    rather than a pass over every training user.
    """

    def __init__(self, train: Dataset, config: RecommenderConfig | None = None):
        self.train = train
        self.config = config or RecommenderConfig()
        self.config.validate()
        self.snapshot = IndexSnapshot.of(train)
        self.precedence = self.snapshot.precedence
        self.iif = self.snapshot.iif
        self.ranked = self.snapshot.ranked
        self.postings = self.snapshot.mode_postings(train, self.config.mode)
        self._rules_by_item = (
            self.snapshot.mined_rules(train, self.config.minsup_pct, self.config.minconf_pct)
            if self.config.use_rules
            else {}
        )

    def recommend_user(self, user: str) -> list[Recommendation]:
        """Recommend for a user already present in the training data."""
        return self.recommend_profile(profile_of(self.train, user), exclude_user=user)

    def recommend_profile(self, profile: Profile, exclude_user: str | None = None) -> list[Recommendation]:
        """Recommend for a query profile.

        IntegrityError for an item id that is not a valid id string; RangeError
        for a rating that is not a real number in [0, 10] or a purchase count
        that is not an int (a bool is not) of at least 1.
        """
        _check_profile(profile)
        cfg = self.config
        weights = profile_weights(profile.ratings, profile.purchase_counts, cfg.mode, self.iif)
        if not any(w != 0.0 for w in weights.values()):
            raise NoProfileError(f"query profile is empty in mode {cfg.mode}")
        neighbors = top_k_neighbors(weights, self.postings, cfg.k_neighbors, exclude=exclude_user)

        seen = profile.seen_items
        history = profile.history

        # Phase A: one pick per neighbor, best rating first, sequence-filtered
        neighbor_scores: dict[str, tuple[float, str]] = {}
        for user, sim in neighbors:
            for item, value in self.ranked[user].items():
                if value < cfg.exclusion_threshold:
                    break  # every later rating is lower still
                if item in seen or not bought_after(self.precedence, item, history):
                    continue
                score = sim * value
                if item not in neighbor_scores or score > neighbor_scores[item][0]:
                    neighbor_scores[item] = (score, user)
                break  # this neighbor has made its pick

        # best score first, ties by item id: Phase B's parent order and the result's
        ranked_candidates = sorted(neighbor_scores.items(), key=lambda e: (-e[1][0], e[0]))

        # Phase B: expand each picked item through its association rules
        rule_scores: dict[str, tuple[float, str]] = {}
        if cfg.use_rules:
            for parent_item, (parent_score, _) in ranked_candidates:
                # mined order, so a later rule with an equal score never replaces an earlier one
                for rule in self._rules_by_item.get(parent_item, ()):
                    for item in rule.consequent:
                        if item in seen or item in neighbor_scores:
                            continue
                        if not bought_after(self.precedence, item, history):
                            continue
                        score = rule.confidence_pct / 100.0 * parent_score
                        if item not in rule_scores or score > rule_scores[item][0]:
                            explain = f"{';'.join(rule.antecedent)} => {';'.join(rule.consequent)}"
                            rule_scores[item] = (score, explain)

        result = [
            Recommendation(item=item, score=score, source="neighbor", explain=user)
            for item, (score, user) in ranked_candidates
        ]
        result.extend(
            Recommendation(item=item, score=score, source="rule", explain=explain)
            for item, (score, explain) in sorted(
                rule_scores.items(), key=lambda e: (-e[1][0], e[0])
            )
        )
        return result[: cfg.top_n]


_INTS = frozenset((int,))  # a bool or any other subclass of int takes the walk


def _check_profile(profile: Profile) -> None:
    """Check the item ids and the counts in bulk, walking a map entry by entry
    only to name its offender; check the ratings in one loop."""
    _check_ids("item", profile.ratings)
    _check_ids("item", profile.purchase_counts)
    try:
        # one chained comparison per rating costs less than a min and a max pass
        for item, rating in profile.ratings.items():
            if not 0.0 <= rating <= 10.0:  # also false for NaN
                raise RangeError(f"item {item}: rating {rating} outside [0, 10]")
        sum(profile.ratings.values(), 0.0)  # a Decimal compares with a float but does not add to one
    except TypeError:
        for item, rating in profile.ratings.items():
            if not isinstance(rating, Real):
                raise RangeError(f"item {item}: rating {rating!r} is not a real number") from None
    counts = profile.purchase_counts.values()
    if counts and not (_INTS.issuperset(map(type, counts)) and min(counts) >= 1):
        for item, count in profile.purchase_counts.items():
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise RangeError(f"item {item}: purchase count {count!r} is not an integer >= 1")


def cold_start(train: Dataset, top_n: int) -> list[Recommendation]:
    """The top_n most-purchased items, for a user with no profile; builds no index."""
    return [
        Recommendation(item=item, score=score, source="popularity", explain="cold-start")
        for item, score in new_user_scores(train)[:top_n]
    ]
