import functools
import itertools
import operator

import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st
from pytest import approx

from shoprec.corpus import Dataset, SyntheticConfig, generate_synthetic, split_users
import shoprec.evaluate
from shoprec.errors import ConfigError, ExperimentError, MetricUndefinedError, NoProfileError, RangeError
from shoprec.evaluate import (
    EvalRow,
    ExperimentConfig,
    _holdout_profile,
    _row,
    precision_at_n,
    recall_at_n,
    run_experiment,
)
from shoprec.recommend import Recommender, RecommenderConfig

from conftest import rate, small_datasets, tx
from oracles import recommend_reference


class TestPrecision:
    def test_hand_count(self):
        assert precision_at_n(["A", "B", "C"], {"A", "C"}, 3) == approx(100 * 2 / 3)

    def test_all_relevant(self):
        assert precision_at_n(["A", "B"], {"A", "B", "C"}, 2) == 100.0

    def test_no_relevant(self):
        assert precision_at_n(["A", "B"], set(), 2) == 0.0

    def test_empty_recommendations(self):
        assert precision_at_n([], {"A"}, 5) == 0.0

    def test_short_list_not_penalized(self):
        # two recommendations, n=5: denominator is 2, not 5
        assert precision_at_n(["A", "B"], {"A", "B"}, 5) == 100.0

    def test_invalid_n(self):
        with pytest.raises(RangeError):
            precision_at_n(["A"], {"A"}, 0)

    @pytest.mark.parametrize("metric", [precision_at_n, recall_at_n])
    def test_n_is_checked_before_the_lists(self, metric):
        with pytest.raises(RangeError):
            metric(None, None, 0)

    def test_relevant_given_as_an_iterator(self):
        # the relevant items are read once, not once per recommended item
        assert precision_at_n(["a", "b"], iter(["a", "b"]), 2) == 100.0
        assert recall_at_n(["a", "b"], iter(["a", "b"]), 2) == 100.0


class TestRecall:
    def test_hand_count(self):
        assert recall_at_n(["A", "B"], {"A", "C", "D"}, 2) == approx(100 / 3)

    def test_saturation(self):
        assert recall_at_n(["A", "B", "C"], {"A", "B"}, 3) == 100.0

    def test_disjoint(self):
        assert recall_at_n(["A", "B"], {"C"}, 2) == 0.0

    def test_empty_relevant_undefined(self):
        with pytest.raises(MetricUndefinedError):
            recall_at_n(["A"], set(), 1)


def test_precision_counts_positions_and_recall_counts_ids():
    """A relevant id listed twice is two hits of precision and one of recall, so one
    hit count shared by both metrics fails here; the exhaustive oracle below draws
    no repeats."""
    assert precision_at_n(["a", "a", "b"], {"a", "c"}, 3) == 100.0 * 2 / 3
    assert recall_at_n(["a", "a", "b"], {"a", "c"}, 3) == 50.0
    # only recall is undefined without relevant items
    assert precision_at_n(["a"], set(), 1) == 0.0


def test_rating_at_the_relevance_threshold_is_hidden_as_relevant():
    """The protocol hides the items rated at or above the threshold, from ratings and purchases both."""
    ds = Dataset(
        transactions=[tx("U1", 1, "A", "B"), tx("U1", 2, "C")],
        ratings=[rate("U1", "A", 7.0), rate("U1", "B", 6.9), rate("U1", "C", 10.0)],
    )
    profile, relevant = _holdout_profile(ds, "U1", 7.0)
    assert relevant == {"A", "C"}
    assert dict(profile.ratings) == {"B": 6.9}
    assert dict(profile.purchase_counts) == {"B": 1}


def test_metrics_against_exhaustive_oracle():
    """Every (recommended, relevant, n) combination over a five-item universe."""
    universe = ["A", "B", "C", "D", "E"]
    subsets = [
        list(c) for size in range(len(universe) + 1) for c in itertools.combinations(universe, size)
    ]
    for recommended in subsets:
        for relevant in subsets:
            for n in range(1, 6):
                top = recommended[:n]
                hits = len([i for i in top if i in relevant])
                if recommended:
                    expected_p = 100.0 * hits / min(n, len(recommended))
                else:
                    expected_p = 0.0
                assert precision_at_n(recommended, set(relevant), n) == approx(expected_p)
                if relevant:
                    expected_r = 100.0 * hits / len(relevant)
                    assert recall_at_n(recommended, set(relevant), n) == approx(expected_r)


PINNED_SYNTHETIC = SyntheticConfig(
    num_classes=4,
    num_items=60,
    users_per_class=25,
    ratings_per_user=(10, 18),
    transactions_per_user=(5, 10),
    class_affinity=0.9,
    noise_rating_spread=3.0,
    rng_seed=2024,
)

PINNED_EXPERIMENT = ExperimentConfig(
    train_fraction=0.8,
    top_n=5,
    seed=42,
    minsup_pct=1.0,
    minconf_pct=10.0,
)


def test_row_adds_left_to_right():
    """The same rows on every Python: sum() gives 0.1 here from 3.12 on."""
    row = _row("simple", False, 5, [(0.1, 0.1)] * 10, 0)
    assert row.precision_pct == row.recall_pct == 0.09999999999999999


@pytest.fixture(scope="module")
def pinned_report():
    return run_experiment(generate_synthetic(PINNED_SYNTHETIC), PINNED_EXPERIMENT)


class TestRunExperiment:
    def test_report_shape(self, pinned_report):
        assert len(pinned_report.rows) == 8  # 4 modes x rules off/on
        assert pinned_report.train_user_count == 80
        assert pinned_report.test_user_count == 20
        for row in pinned_report.rows:
            assert 0.0 <= row.precision_pct <= 100.0
            assert 0.0 <= row.recall_pct <= 100.0
            assert row.users_evaluated + row.users_skipped <= 20

    def test_deterministic(self, pinned_report):
        again = run_experiment(generate_synthetic(PINNED_SYNTHETIC), PINNED_EXPERIMENT)
        assert again == pinned_report

    def test_restricted_modes(self):
        ds = generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=5))
        config = ExperimentConfig(modes=("simple",), seed=1, minsup_pct=1.0, minconf_pct=10.0)
        report = run_experiment(ds, config)
        assert [(r.mode, r.rules_enabled) for r in report.rows] == [
            ("simple", False),
            ("simple", True),
        ]

    def test_empty_test_split(self):
        ds = Dataset(
            transactions=[tx("U1", 1, "P1"), tx("U2", 1, "P1"), tx("U3", 1, "P1")],
            ratings=[rate("U1", "P1", 8), rate("U2", "P1", 8), rate("U3", "P1", 8)],
        )
        with pytest.raises(ExperimentError):
            run_experiment(ds, ExperimentConfig(train_fraction=0.8))

    def test_planted_structure_direction(self, pinned_report):
        simple = report_row(pinned_report, "simple", False).precision_pct
        implicit = report_row(pinned_report, "implicit", False).precision_pct
        assert simple > implicit

    @pytest.mark.parametrize(
        "bad",
        [
            {"modes": ("simple", "bogus")},
            {"modes": ()},
            {"exclusion_threshold": 10.5},
            {"exclusion_threshold": -1.0},
            {"exclusion_threshold": float("nan")},
            {"k_neighbors": 0},
            {"minsup_pct": 0.0},
            *({name: value} for name in ("top_n", "k_neighbors") for value in (2.5, "3", True)),
        ],
    )
    def test_config_rejected_before_any_work(self, bad, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("split or built before the config was validated")

        monkeypatch.setattr(shoprec.evaluate, "split_users", fail)
        monkeypatch.setattr(shoprec.evaluate, "Recommender", fail)
        ds = generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=5))
        with pytest.raises(ConfigError):
            run_experiment(ds, ExperimentConfig(seed=1, minconf_pct=10.0, **{"minsup_pct": 1.0, **bad}))

    def test_threshold_bounds_inclusive(self):
        ds = generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=5))
        for threshold in (0.0, 10.0):
            config = ExperimentConfig(modes=("simple",), seed=1, exclusion_threshold=threshold)
            assert len(run_experiment(ds, config).rows) == 2

    def test_rules_never_hurt_recall(self, pinned_report):
        for mode in ("simple", "method1", "method2", "implicit"):
            off = report_row(pinned_report, mode, False).recall_pct
            on = report_row(pinned_report, mode, True).recall_pct
            assert on >= off


def report_row(report, mode: str, rules_enabled: bool):
    """The report's row for one mode with rule expansion off or on."""
    (row,) = [r for r in report.rows if r.mode == mode and r.rules_enabled == rules_enabled]
    return row


def left_to_right_sum(values) -> float:
    """Plain float addition in order; sum() compensates from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


def reference_rows(dataset: Dataset, config: ExperimentConfig) -> list[EvalRow]:
    """The report rows computed with one reference answer per (mode, rules off/on)
    and held-out profile, over one engine's indexes per mode."""
    train, test = split_users(dataset, config.train_fraction, config.seed)
    rows = []
    for mode in config.modes:
        engine = Recommender(
            train,
            RecommenderConfig(
                mode=mode,
                k_neighbors=config.k_neighbors,
                top_n=config.top_n,
                minsup_pct=config.minsup_pct,
                minconf_pct=config.minconf_pct,
                exclusion_threshold=config.exclusion_threshold,
            ),
        )
        for rules in (False, True):
            precisions, recalls, skipped = [], [], 0
            for user in test.users:
                profile, relevant = _holdout_profile(test, user, config.exclusion_threshold)
                if not relevant:
                    skipped += 1
                    continue
                try:
                    items = [r.item for r in recommend_reference(engine, profile, rules=rules)]
                except NoProfileError:
                    skipped += 1
                    continue
                precisions.append(precision_at_n(items, relevant, config.top_n))
                recalls.append(recall_at_n(items, relevant, config.top_n))
            evaluated = len(precisions)
            rows.append(
                EvalRow(
                    mode=mode,
                    rules_enabled=rules,
                    precision_pct=left_to_right_sum(precisions) / evaluated if evaluated else 0.0,
                    recall_pct=left_to_right_sum(recalls) / evaluated if evaluated else 0.0,
                    top_n=config.top_n,
                    users_evaluated=evaluated,
                    users_skipped=skipped,
                )
            )
    return rows


def oracle_case(ds, seed, top_n, threshold, minsup_pct):
    """Check run_experiment against reference_rows on one case; return the rows."""
    config = ExperimentConfig(
        train_fraction=0.6,
        top_n=top_n,
        seed=seed,
        k_neighbors=3,
        minsup_pct=minsup_pct,
        minconf_pct=20.0,
        exclusion_threshold=threshold,
    )
    assume(split_users(ds, config.train_fraction, seed)[1].users)
    rows = run_experiment(ds, config).rows
    assert rows == reference_rows(ds, config)
    for off, on in zip(rows[::2], rows[1::2]):
        assert on.recall_pct >= off.recall_pct
    return rows


def rules_change_recall(rows) -> bool:
    return any(on.recall_pct != off.recall_pct for off, on in zip(rows[::2], rows[1::2]))


ORACLE_CASE = dict(
    seed=st.integers(0, 3),
    top_n=st.integers(1, 4),
    threshold=st.sampled_from([2.5, 5.0, 7.0]),
    minsup_pct=st.sampled_from([1.0, 10.0]),
)


class TestOneQueryPerUser:
    """Both rows of a mode come from one engine answer per held-out user; they
    must equal the rows of the reference answers without and with rules."""

    @settings(max_examples=150, deadline=None)
    @given(ds=small_datasets(), **ORACLE_CASE)
    @example(
        ds=generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=5)),
        seed=1, top_n=4, threshold=7.0, minsup_pct=1.0,
    )
    def test_rows_match_separate_engines(self, ds, seed, top_n, threshold, minsup_pct):
        oracle_case(ds, seed, top_n, threshold, minsup_pct)

    def test_rules_changing_recall_is_reached(self):
        """The strategy reaches cases where rules raise recall, so the rules-off row
        is checked apart from the rules-on row."""
        find(
            st.fixed_dictionaries({"ds": small_datasets(), **ORACLE_CASE}),
            lambda case: rules_change_recall(oracle_case(**case)),
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )
