"""Offline evaluation protocol: top-N precision/recall over a user split.

Users are split 80/20 (configurable) into train and test. For every test
user the items they rated at or above ``exclusion_threshold``, the rating
threshold by which the engine's neighbours pick their items too, are hidden
from their profile - ratings and purchases both - and the rest is fed as the
query. Recommendations from the training population are then scored against
the hidden relevant set. Each similarity mode is reported twice, with rule
expansion off and on, and metrics are macro-averaged over the test users
that could be evaluated.

Both rows of a mode come from one engine and one query per test user. Each
answer's item list is built once, checked once against the metrics' rules,
and scored once for each row. The rules-off row is the answer's neighbour
prefix, which is the list without rule expansion: the engine ranks every
neighbour candidate ahead of every rule candidate and truncates last, so
rules cannot lower recall by construction. ``precision_at_n`` and
``recall_at_n`` are the checked public entry to the same two formulas; they
also check every id against the id rule, which the protocol does not repeat,
since its ids come from the engine's answer and the checked test split.

Test users with no relevant items (recall undefined) or an empty residual
profile in the active mode are skipped and counted, in both rows alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .corpus import _COUNT, _IDS, _RANKED_IDS, _SEED, _TRAIN_FRACTION, _check_fields, _config, _require
from .corpus import _check_id, _require_type, _Rule
from .corpus import Dataset, split_users
from .errors import ExperimentError, IntegrityError, MetricUndefinedError, NoProfileError
from .recommend import Profile, Recommender, RecommenderConfig
from .similarity import MODES


def precision_at_n(recommended: Sequence[str], relevant: Iterable[str], n: int) -> float:
    """Percentage of the top-n recommended items that are relevant.

    Each position counts, so an id listed twice is two hits here and one in
    recall_at_n, which counts distinct relevant ids. The denominator is
    min(n, len(recommended)) so short lists are not penalized for slots they
    never filled; an empty list scores 0. An ``n``
    that is no count raises RangeError, then a ``recommended`` that is no
    sequence of ids (a string, a bytes-like value or a set is not one) or a
    ``relevant`` that is no collection of ids raises IntegrityError, as in
    recall_at_n; so does an id in either that breaks the id rule.
    """
    return _precision(recommended, _checked(recommended, relevant, n), n)


def recall_at_n(recommended: Sequence[str], relevant: Iterable[str], n: int) -> float:
    """Percentage of the relevant items found in the top-n recommendations.

    Its arguments are checked as in precision_at_n; an empty ``relevant``
    then raises MetricUndefinedError.
    """
    relevant = _checked(recommended, relevant, n)
    if not relevant:
        raise MetricUndefinedError("recall is undefined for an empty relevant set")
    return _recall(recommended, relevant, n)


def _check(recommended, relevant, n) -> None:
    """The metrics' rules in their order: the count ``n``, the ranked list, the relevant ids."""
    _require("n", n, _COUNT)
    _require("recommended", recommended, _RANKED_IDS, IntegrityError)
    _require("relevant", relevant, _IDS, IntegrityError)


def _checked(recommended, relevant, n) -> set[str]:
    """The public metrics' rules: those of _check, then the id rule on every id; the relevant ids as a set."""
    _check(recommended, relevant, n)
    for item in recommended:
        _check_id("item", item)
    return {_check_id("item", item) for item in relevant}  # read once: it may be an iterator


def _precision(recommended: Sequence[str], relevant: set[str], n: int) -> float:
    """Precision's formula: the positions in the top n that hold a relevant id, over min(n, len)."""
    if not recommended:
        return 0.0
    hits = sum(1 for item in recommended[:n] if item in relevant)
    return 100.0 * hits / min(n, len(recommended))


def _recall(recommended: Sequence[str], relevant: set[str], n: int) -> float:
    """Recall's formula: the distinct relevant ids in the top n, over the (non-empty) relevant ids."""
    hits = len(relevant.intersection(recommended[:n]))
    return 100.0 * hits / len(relevant)


@dataclass(frozen=True)
class ExperimentConfig:
    """The protocol's parameters, each engine's among them; checked and frozen as RecommenderConfig."""

    train_fraction: float = 0.8
    top_n: int = RecommenderConfig.top_n
    seed: int = 0
    modes: tuple[str, ...] = MODES
    k_neighbors: int = RecommenderConfig.k_neighbors
    minsup_pct: float = RecommenderConfig.minsup_pct
    minconf_pct: float = RecommenderConfig.minconf_pct
    exclusion_threshold: float = RecommenderConfig.exclusion_threshold

    def __post_init__(self) -> None:
        _check_fields(self, "train_fraction", _TRAIN_FRACTION)
        _check_fields(self, "seed", _SEED)
        _check_fields(self, "modes", _Rule(lambda v: isinstance(v, tuple) and len(v) > 0, "a non-empty tuple"))
        for mode in self.modes:  # each mode is known, and the engine's fields are valid
            self.engine_config(mode)
        _check_fields(self, "modes", _Rule(lambda v: len(set(v)) == len(v), "free of repeats"))

    def engine_config(self, mode: str) -> RecommenderConfig:
        """The engine config that answers both report rows of a mode."""
        return _config(RecommenderConfig, self, mode=mode)


@dataclass
class EvalRow:
    mode: str
    rules_enabled: bool
    precision_pct: float
    recall_pct: float
    top_n: int
    users_evaluated: int
    users_skipped: int


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)
    train_user_count: int = 0
    test_user_count: int = 0


def _holdout_profile(dataset: Dataset, user: str, threshold: float):
    """Split a test user into (residual query profile, hidden relevant set)."""
    ratings = dataset.ratings_by_user[user]
    relevant = {i for i, v in ratings.items() if v >= threshold}
    residual_ratings = {i: v for i, v in ratings.items() if i not in relevant}
    residual_purchases = {
        i: n for i, n in dataset.purchase_counts_by_user[user].items() if i not in relevant
    }
    return Profile(ratings=residual_ratings, purchase_counts=residual_purchases), relevant


def _scores(items: Sequence[str], relevant: set[str], n: int) -> tuple[float, float]:
    """(precision, recall) of one checked list of items against the hidden relevant set."""
    return _precision(items, relevant, n), _recall(items, relevant, n)


def _row(
    mode: str, rules_enabled: bool, top_n: int, scores: list[tuple[float, float]], skipped: int
) -> EvalRow:
    """Macro-average the (precision, recall) pairs of the evaluated users into one row."""
    evaluated = len(scores)
    # added left to right: sum() compensates floats from Python 3.12 on, which
    # would make a row's last bit depend on the interpreter
    precision = recall = 0.0
    for p, r in scores:
        precision += p
        recall += r
    return EvalRow(
        mode=mode,
        rules_enabled=rules_enabled,
        precision_pct=precision / evaluated if evaluated else 0.0,
        recall_pct=recall / evaluated if evaluated else 0.0,
        top_n=top_n,
        users_evaluated=evaluated,
        users_skipped=skipped,
    )


def run_experiment(dataset: Dataset, config: ExperimentConfig | None = None) -> EvalReport:
    """Run the full mode x rules comparison on one dataset.

    One engine per mode answers each held-out profile once; the answer is
    checked once, and the rules-off row is scored from its neighbour prefix.
    Deterministic for a fixed dataset and config: the split, every index and
    every recommendation are seed-driven and tie-broken by id. A ``dataset``
    that is not a ``Dataset``, or a ``config`` that is neither None nor an
    ``ExperimentConfig``, raises TypeError.
    """
    _require_type("dataset", dataset, Dataset)
    config = ExperimentConfig() if config is None else config
    _require_type("config", config, ExperimentConfig)
    train, test = split_users(dataset, config.train_fraction, config.seed)
    if not test.users:
        raise ExperimentError("test split is empty; dataset too small for this fraction")

    holdouts = [_holdout_profile(test, user, config.exclusion_threshold) for user in test.users]
    report = EvalReport(train_user_count=len(train.users), test_user_count=len(test.users))
    n = config.top_n
    for mode in config.modes:
        engine = Recommender(train, config.engine_config(mode))
        off: list[tuple[float, float]] = []
        on: list[tuple[float, float]] = []
        skipped = 0
        for profile, relevant in holdouts:
            if not relevant:
                skipped += 1
                continue
            try:
                recs = engine.recommend_profile(profile)
            except NoProfileError:
                skipped += 1
                continue
            items = [r.item for r in recs]
            _check(items, relevant, n)  # the metrics' list rules, once per answer; the ids are checked ones
            # the neighbour entries come first, so the answer without rules is a prefix
            off.append(_scores(items[: [r.source for r in recs].count("neighbor")], relevant, n))
            on.append(_scores(items, relevant, n))
        report.rows.append(_row(mode, False, n, off, skipped))
        report.rows.append(_row(mode, True, n, on, skipped))
    return report


def format_report(report: EvalReport) -> str:
    """Aligned text table, one row per (mode, rules) combination."""
    header = f"{'mode':<10} {'rules':<5} {'precision%':>10} {'recall%':>8} {'N':>3} {'users':>5} {'skipped':>7}"
    lines = [header, "-" * len(header)]
    for r in report.rows:
        lines.append(
            f"{r.mode:<10} {'on' if r.rules_enabled else 'off':<5} "
            f"{r.precision_pct:>10.2f} {r.recall_pct:>8.2f} {r.top_n:>3} "
            f"{r.users_evaluated:>5} {r.users_skipped:>7}"
        )
    lines.append(
        f"(train users: {report.train_user_count}, test users: {report.test_user_count})"
    )
    return "\n".join(lines)
