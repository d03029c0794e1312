import copy
import gc
import importlib
import math
import random
import re
import sys
import threading
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st
from pytest import approx

from shoprec import cli
from shoprec.corpus import Dataset, SyntheticConfig, Transaction, generate_synthetic, split_users
from shoprec.errors import ConfigError, IntegrityError, NoProfileError, NotFoundError, RangeError
from shoprec.evaluate import ExperimentConfig, run_experiment
from shoprec.recommend import IndexSnapshot, Profile, Recommender, RecommenderConfig, cold_start, profile_of
from shoprec.rules import fp_growth, generate_rules
from shoprec.sequence import bought_after, build_precedence_index
from shoprec.similarity import MODES, profile_weights, top_k_neighbors

from conftest import TABLE1_ROWS, random_dataset, rate, small_datasets, tx


class TestWorkedScenario:
    def test_p5_recommended_p4_excluded(self, worked_example):
        recs = Recommender(worked_example, RecommenderConfig(top_n=5)).recommend_user("U3")
        items = [r.item for r in recs]
        assert "P5" in items
        assert "P4" not in items

    def test_p5_comes_from_the_closer_neighbor(self, worked_example):
        recs = Recommender(worked_example, RecommenderConfig(top_n=5)).recommend_user("U3")
        top = recs[0]
        assert top.item == "P5"
        assert top.source == "neighbor"
        assert top.explain == "U2"
        assert top.score == approx(0.9951 * 9, abs=0.01)


class TestSequenceFiltering:
    def test_earlier_volumes_filtered(self, physics):
        engine = Recommender(physics, RecommenderConfig())
        profile = Profile(ratings={"Ph3": 9.0, "Ph4": 9.0}, purchase_counts={"Ph3": 1, "Ph4": 1})
        assert engine.recommend_profile(profile) == []

    def test_without_purchase_history_nothing_is_filtered(self, physics):
        engine = Recommender(physics, RecommenderConfig())
        profile = Profile(ratings={"Ph3": 9.0, "Ph4": 9.0})
        items = [r.item for r in engine.recommend_profile(profile)]
        assert "Ph1" in items or "Ph2" in items


def rule_expansion_dataset():
    """Market-basket rows plus a sequenced user W so rule consequents pass the filter.

    W buys P9 then P2, P1, P4, which records P9->each pair; neighbor N shares
    item P9 with the query and rates P2 high.
    """
    txns = [
        Transaction(tid=tid, user=f"T{tid}", seq=1, items=items)
        for tid, items in TABLE1_ROWS
    ]
    txns += [tx("W", 1, "P9"), tx("W", 2, "P2"), tx("W", 3, "P1"), tx("W", 4, "P4")]
    ratings = [rate("N", "P9", 5.0), rate("N", "P2", 9.0)]
    return Dataset.build(transactions=txns, ratings=ratings)


class TestRuleExpansion:
    def config(self, use_rules=True, minsup=10.0, minconf=30.0):
        return RecommenderConfig(
            top_n=5, minsup_pct=minsup, minconf_pct=minconf, use_rules=use_rules
        )

    def query(self):
        return Profile(ratings={"P9": 5.0}, purchase_counts={"P9": 1})

    def test_rules_add_consequents(self):
        engine = Recommender(rule_expansion_dataset(), self.config())
        recs = engine.recommend_profile(self.query())
        by_item = {r.item: r for r in recs}
        assert by_item["P2"].source == "neighbor"
        assert by_item["P1"].source == "rule"
        assert by_item["P4"].source == "rule"
        assert "P2" in by_item["P1"].explain

    def test_rules_off_keeps_only_neighbor_pick(self):
        engine = Recommender(rule_expansion_dataset(), self.config(use_rules=False))
        assert [r.item for r in engine.recommend_profile(self.query())] == ["P2"]

    def test_rule_candidates_rank_below_neighbors(self):
        engine = Recommender(rule_expansion_dataset(), self.config())
        recs = engine.recommend_profile(self.query())
        sources = [r.source for r in recs]
        assert sources == sorted(sources, key=lambda s: s != "neighbor")

    def test_higher_minsup_drops_rare_consequent(self):
        # {P2, P4} co-occurs once in nine transactions (~11%)
        engine = Recommender(rule_expansion_dataset(), self.config(minsup=15.0, minconf=30.0))
        items = [r.item for r in engine.recommend_profile(self.query())]
        assert "P1" in items
        assert "P4" not in items

    def test_equal_scores_keep_the_rule_mined_first(self):
        """Every rule from parent P scores 8; each consequent keeps the first rule in mined order."""
        ratings = [rate("A", "Z", 5.0), rate("B", "Z", 5.0), rate("B", "P", 8.0)]
        ds = Dataset.build(transactions=[tx("C", 1, "P", "X", "Y")], ratings=ratings)
        engine = Recommender(ds, self.config())
        rules = generate_rules(fp_growth(ds.transactions, 10.0), 30.0)
        mined = [f"{';'.join(r.antecedent)} => {';'.join(r.consequent)}" for r in rules]
        assert mined[:5] == ["P => X", "P => X;Y", "P => Y", "P;X => Y", "P;Y => X"]
        # the engine lists P's rules in the same mined order
        assert engine.snapshot.mined_rules(ds, 10.0, 30.0)["P"] == [r for r in rules if "P" in r.antecedent]
        recs = engine.recommend_user("A")
        assert [(r.item, r.score, r.source) for r in recs] == [
            ("P", 8.0, "neighbor"), ("X", 8.0, "rule"), ("Y", 8.0, "rule"),
        ]
        assert [r.explain for r in recs[1:]] == ["P => X", "P => X;Y"]


class TestThresholdExclusion:
    def test_low_rated_neighbor_items_never_offered(self):
        ratings = [
            rate("N", "P1", 5.0),
            rate("N", "P2", 6.9),  # just under the threshold
            rate("Q", "P1", 5.0),
        ]
        ds = Dataset.build(ratings=ratings)
        recs = Recommender(ds, RecommenderConfig(top_n=5)).recommend_user("Q")
        assert recs == []

    def test_item_at_threshold_is_offered(self):
        ds = Dataset.build(ratings=[rate("N", "P1", 5.0), rate("N", "P2", 7.0), rate("Q", "P1", 5.0)])
        recs = Recommender(ds, RecommenderConfig(top_n=5)).recommend_user("Q")
        assert [r.item for r in recs] == ["P2"]


class TestContracts:
    def test_no_profile_error(self):
        ds = Dataset.build(ratings=[rate("N", "P1", 8.0)])
        with pytest.raises(NoProfileError):
            Recommender(ds, RecommenderConfig()).recommend_profile(Profile())

    def test_unknown_user(self):
        ds = Dataset.build(ratings=[rate("N", "P1", 8.0)])
        with pytest.raises(NotFoundError):
            Recommender(ds, RecommenderConfig()).recommend_user("nobody")

    def test_alone_in_dataset_gives_empty_result(self):
        ds = Dataset.build(ratings=[rate("N", "P1", 8.0)])
        assert Recommender(ds, RecommenderConfig()).recommend_user("N") == []

    def test_output_respects_top_n(self, worked_example):
        for n in (1, 2, 3):
            assert len(Recommender(worked_example, RecommenderConfig(top_n=n)).recommend_user("U3")) <= n

    def test_deterministic(self, worked_example):
        a = Recommender(worked_example, RecommenderConfig(top_n=5)).recommend_user("U3")
        b = Recommender(worked_example, RecommenderConfig(top_n=5)).recommend_user("U3")
        assert a == b


def check_pipeline_invariants(ds, mode) -> int:
    """Assert the engine invariants for every user of ds; return how many lists rules grew."""
    config = dict(mode=mode, top_n=4, minsup_pct=10.0, minconf_pct=20.0)
    engine_off = Recommender(ds, RecommenderConfig(use_rules=False, **config))
    engine_on = Recommender(ds, RecommenderConfig(use_rules=True, **config))
    index = build_precedence_index(ds)
    grown = 0
    for user in ds.users:
        profile = Profile(
            ratings=dict(ds.ratings_by_user[user]),
            purchase_counts=dict(ds.purchase_counts_by_user[user]),
        )
        try:
            off = engine_off.recommend_profile(profile, exclude_user=user)
            on = engine_on.recommend_profile(profile, exclude_user=user)
        except NoProfileError:
            continue
        seen = profile.seen_items
        for rec in on:
            assert rec.item not in seen
            assert bought_after(index, rec.item, profile.history)
        # enabling rules only appends: the rules-off list is a prefix
        assert [r.item for r in on[: len(off)]] == [r.item for r in off]
        # two tiers: every neighbour item precedes every rule item
        sources = [r.source for r in on]
        assert sources == sorted(sources, key=lambda source: source == "rule")
        if len(on) > len(off):
            grown += 1
    return grown


def tier_order_dataset():
    """A's neighbours B and C pick I1 (score 8) and I4 (score 7); the rule I1 => I0
    at 100% confidence scores I0 at 8, above I4, so only the two-tier order keeps
    the neighbour item I4 ahead of the rule item I0.
    """
    ratings = [rate("A", "I2", 5.0), rate("B", "I1", 8.0), rate("B", "I2", 5.0)]
    ratings += [rate("C", "I2", 5.0), rate("C", "I4", 7.0)]
    return Dataset.build(transactions=[tx("C", 1, "I0", "I1")], ratings=ratings)


class TestPipelineInvariants:
    @settings(max_examples=200, deadline=None)
    @given(ds=small_datasets(), mode=st.sampled_from(MODES))
    @example(ds=tier_order_dataset(), mode="simple")
    def test_random_datasets(self, ds, mode):
        check_pipeline_invariants(ds, mode)

    def test_rule_growth_is_reached(self):
        """The strategy reaches datasets where rules add items, so the prefix property is exercised."""
        find(
            st.tuples(small_datasets(), st.sampled_from(MODES)),
            lambda case: check_pipeline_invariants(*case) > 0,
            settings=settings(max_examples=1000, database=None, phases=[Phase.generate]),
        )


def neighbor_pick(ds, neighbor, threshold, profile, index):
    """The neighbour's best-rated item, ties by lowest id, at or above the threshold,
    unseen and bought after the history; None when it has no such item."""
    seen, history = profile.seen_items, profile.history
    eligible = [
        (-value, item)
        for item, value in ds.ratings_by_user[neighbor].items()
        if value >= threshold and item not in seen and bought_after(index, item, history)
    ]
    return min(eligible)[1] if eligible else None


class TestPhaseAPick:
    @settings(max_examples=200, deadline=None)
    @given(
        ds=small_datasets(),
        mode=st.sampled_from(MODES),
        k=st.integers(1, 7),
        threshold=st.sampled_from([0.0, 2.5, 4.0, 5.0, 7.0, 10.0]),
    )
    def test_each_neighbor_offers_its_best_eligible_item(self, ds, mode, k, threshold):
        config = RecommenderConfig(mode=mode, k_neighbors=k, top_n=100, exclusion_threshold=threshold, use_rules=False)
        engine = Recommender(ds, config)
        index = build_precedence_index(ds)
        for user in ds.users:
            profile = profile_of(ds, user)
            try:
                recs = engine.recommend_user(user)
            except NoProfileError:
                continue
            weights = profile_weights(profile.ratings, profile.purchase_counts, mode, engine.iif)
            neighbors = [n for n, _ in top_k_neighbors(weights, engine.postings, k, exclude=user)]
            for rec in recs:
                assert rec.source == "neighbor" and rec.explain in neighbors
                assert rec.item == neighbor_pick(ds, rec.explain, threshold, profile, index)
                assert ds.ratings_by_user[rec.explain][rec.item] >= threshold
            # every neighbour with an eligible item offers it
            picks = {neighbor_pick(ds, n, threshold, profile, index) for n in neighbors}
            assert {rec.item for rec in recs} == picks - {None}

    @settings(max_examples=50, deadline=None)
    @given(ds=small_datasets())
    def test_ranked_ratings_are_untracked_dicts_best_first(self, ds):
        ranked = IndexSnapshot.of(ds).ranked
        assert list(ranked) == list(ds.users)
        for user, ratings in ranked.items():
            assert ratings == ds.ratings_by_user[user]
            assert list(ratings) == sorted(ratings, key=lambda item: (-ratings[item], item))
            assert not gc.is_tracked(ratings)


def seed_2024_engine(mode):
    ds = generate_synthetic(SyntheticConfig(rng_seed=2024))
    return Recommender(ds, RecommenderConfig(mode=mode, minsup_pct=1.0, minconf_pct=10.0))


class TestProfileChecks:
    """A query profile is checked before any work: item ids valid id strings, ratings
    real numbers within [0, 10], purchase counts ints (not bools) of at least 1."""

    @pytest.mark.parametrize(
        "mode, ratings, counts",
        [
            # each used to answer, or to fail partway with ZeroDivisionError
            ("method1", {"I001": 8.0, "I002": 8.0}, {"I001": 1, "I002": -1}),
            ("simple", {"I001": 50.0}, {}),
            ("simple", {"I001": math.nan, "I002": 5.0}, {}),
            ("simple", {"I001": -0.5}, {}),
            ("method1", {"I001": 8.0}, {"I001": 0.5}),
            ("simple", {"I001": 8.0}, {"I001": 1, "I002": 0}),
            ("method1", {"I001": 8.0}, {"I001": True}),
        ],
        ids=["negative-count", "rating-50", "rating-nan", "rating-negative", "count-half", "count-zero", "count-bool"],
    )
    def test_bad_profile_is_range_error(self, mode, ratings, counts):
        with pytest.raises(RangeError):
            seed_2024_engine(mode).recommend_profile(Profile(ratings=ratings, purchase_counts=counts))

    def test_bounds_are_accepted(self):
        engine = seed_2024_engine("method1")
        profile = Profile(ratings={"I001": 0.0, "I002": 10.0}, purchase_counts={"I001": 1, "I002": 3})
        assert engine.recommend_profile(profile)

    @pytest.mark.parametrize(
        "ratings, counts, bad",
        [
            # each of the first three used to answer as if the id were an unknown item
            ({"I0,01": 8.0, "I002": 8.0}, {}, "'I0,01'"),
            ({1: 8.0, "I002": 8.0}, {}, "1"),
            ({"": 8.0, "I002": 8.0}, {}, "''"),
            ({"I001": 8.0}, {"I001": 1, "I0;02": 2}, "'I0;02'"),
            ({"I001": 8.0, "I002\n": 8.0}, {}, "'I002\\n'"),
            ({"I001": 8.0}, {b"I001": 1}, "b'I001'"),
        ],
        ids=["comma", "int-key", "empty", "count-key-semicolon", "line-feed", "bytes-key"],
    )
    def test_bad_item_id_is_integrity_error(self, ratings, counts, bad):
        engine = seed_2024_engine("method1")
        with pytest.raises(IntegrityError, match=f"^invalid item id {re.escape(bad)}$"):
            engine.recommend_profile(Profile(ratings=ratings, purchase_counts=counts))

    @pytest.mark.parametrize(
        "rating",
        # "8" used to raise a bare TypeError from the range check
        ["8", None, 8 + 0j, Decimal("8")],
        ids=["str", "none", "complex", "decimal"],
    )
    def test_rating_that_is_not_a_real_number_is_range_error(self, rating):
        engine = seed_2024_engine("simple")
        with pytest.raises(RangeError, match="is not a real number"):
            engine.recommend_profile(Profile(ratings={"I002": 8.0, "I001": rating}))

    def test_nan_after_valid_ratings_is_range_error(self):
        # min() and max() skip a NaN that is not first
        ratings = {"I001": 8.0, "I002": 5.0, "I003": math.nan, "I004": 9.0}
        with pytest.raises(RangeError, match="rating nan outside"):
            seed_2024_engine("simple").recommend_profile(Profile(ratings=ratings))

    def test_real_numbers_of_other_types_are_accepted(self):
        engine = seed_2024_engine("simple")
        exact = engine.recommend_profile(Profile(ratings={"I001": 8.0, "I002": 7.5, "I003": 3.0, "I004": 1.0}))
        other = engine.recommend_profile(
            Profile(ratings={"I001": 8, "I002": Fraction(15, 2), "I003": _Float(3.0), "I004": True})
        )
        assert other == exact


class _Float(float):
    """A float subclass, as numpy.float64 is."""


class TestColdStart:
    def test_ranking_matches_popularity(self):
        txns = [tx(f"U{i}", 1, "IA") for i in range(1, 6)]
        txns += [tx(f"U{i}", 2, "IB") for i in range(1, 3)]
        users = [f"U{i}" for i in range(1, 10)]
        ds = Dataset.build(users=users, items=["IA", "IB"], transactions=txns)
        recs = cold_start(ds, 5)
        assert [r.item for r in recs] == ["IA", "IB"]
        assert all(r.source == "popularity" and r.explain == "cold-start" for r in recs)

    def test_top_n_one(self):
        txns = [tx(f"U{i}", 1, "IA") for i in range(1, 6)] + [tx("U9", 1, "IB")]
        ds = Dataset.build(transactions=txns)
        recs = cold_start(ds, 1)
        assert [r.item for r in recs] == ["IA"]

    def test_oracle_on_random_data(self):
        rng = random.Random(16)
        for _ in range(50):
            ds = random_dataset(rng, with_ratings=False)
            got = [r.item for r in cold_start(ds, 100)]
            buyers = {}
            for t in ds.transactions:
                for i in t.items:
                    buyers.setdefault(i, set()).add(t.user)
            assert got == sorted(buyers, key=lambda i: (-len(buyers[i]), i))

    def test_no_purchases(self):
        ds = Dataset.build(ratings=[rate("U1", "P1", 5)])
        assert cold_start(ds, 5) == []


class TestConfigValidation:
    @pytest.mark.parametrize("use_rules", [True, False])
    @pytest.mark.parametrize(
        "thresholds",
        [
            {"minsup_pct": 500.0, "minconf_pct": -3.0},
            {"minsup_pct": 0.0},
            {"minsup_pct": 100.5},
            {"minsup_pct": float("nan")},
            {"minconf_pct": 0.0},
            {"minconf_pct": -3.0},
            {"minconf_pct": 101.0},
        ],
    )
    def test_rule_thresholds_rejected_at_construction(self, worked_example, thresholds, use_rules):
        with pytest.raises(ConfigError):
            Recommender(worked_example, RecommenderConfig(use_rules=use_rules, **thresholds))

    def test_threshold_bounds_inclusive_at_100(self, worked_example):
        Recommender(worked_example, RecommenderConfig(minsup_pct=100.0, minconf_pct=100.0))


def count_calls(monkeypatch, module_name, names) -> Counter:
    """Count calls of the named callables where module_name looks them up."""
    module = importlib.import_module(module_name)
    calls: Counter = Counter()
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def count_builds(monkeypatch) -> Counter:
    """Count calls of the index builders where the engine looks them up."""
    return count_calls(monkeypatch, "shoprec.recommend", ("build_precedence_index", "build_iif", "fp_growth"))


class TestSharedSnapshot:
    def test_engines_over_one_dataset_build_each_index_once(self, worked_example, monkeypatch):
        calls = count_builds(monkeypatch)
        engines = [Recommender(worked_example, RecommenderConfig(mode=mode)) for mode in MODES]
        assert calls == {"build_precedence_index": 1, "build_iif": 1, "fp_growth": 1}
        assert all(e.snapshot is engines[0].snapshot for e in engines)

    def test_rules_mined_only_when_enabled(self, worked_example, monkeypatch):
        calls = count_builds(monkeypatch)
        Recommender(worked_example, RecommenderConfig(use_rules=False))
        assert calls["fp_growth"] == 0

    def test_run_experiment_builds_once(self, monkeypatch):
        ds = generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=5))
        calls = count_builds(monkeypatch)
        run_experiment(ds, ExperimentConfig(seed=1, minsup_pct=1.0, minconf_pct=10.0))
        assert calls == {"build_precedence_index": 1, "build_iif": 1, "fp_growth": 1}

    def test_run_experiment_queries_once_per_mode_and_user(self, monkeypatch):
        """One rules-on engine per mode; each held-out user is searched at most once per mode."""
        ds = generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=5))
        engines = count_calls(monkeypatch, "shoprec.evaluate", ("Recommender",))
        searches = count_calls(monkeypatch, "shoprec.recommend", ("top_k_neighbors",))
        config = ExperimentConfig(seed=1, minsup_pct=1.0, minconf_pct=10.0)
        report = run_experiment(ds, config)
        assert engines["Recommender"] == len(config.modes)
        assert 0 < searches["top_k_neighbors"] <= len(config.modes) * report.test_user_count

    def test_recommend_new_builds_nothing(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "t.csv").write_text("tid,user,seq,items\n1,U1,1,P1;P2\n2,U2,1,P1\n3,U2,2,P3\n")
        calls = count_builds(monkeypatch)
        assert cli.main(["recommend-new", "--transactions", str(tmp_path / "t.csv"), "--top-n", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "1. P1 -0.4055 popularity cold-start",
            "2. P2 -1.0986 popularity cold-start",
        ]
        assert calls == {}

    def test_equal_datasets_do_not_share(self, monkeypatch):
        def build():
            return Dataset.build(ratings=[rate("N", "P1", 8.0), rate("Q", "P1", 5.0)])

        calls = count_builds(monkeypatch)
        a, b = Recommender(build()), Recommender(build())
        assert a.train == b.train
        assert a.snapshot is not b.snapshot
        assert calls["build_precedence_index"] == 2


def engine_state(engine):
    """Everything an engine or its snapshot holds, copied, plus the dataset's cached names."""
    own = {name: value for name, value in vars(engine).items() if name not in ("train", "snapshot")}
    return (
        copy.deepcopy(own),
        copy.deepcopy(vars(engine.snapshot)),
        sorted(vars(engine.train)),
        [id(value) for value in vars(engine).values()],
    )


class TestConcurrentQueries:
    THREADS = 8

    def test_threads_match_sequential_and_change_nothing(self):
        ds = generate_synthetic(SyntheticConfig(rng_seed=2024))
        train, test = split_users(ds, 0.8, 42)
        engines = {
            mode: Recommender(train, RecommenderConfig(mode=mode, minsup_pct=1.0, minconf_pct=10.0))
            for mode in MODES
        }
        profiles = [profile_of(test, user) for user in test.users]
        jobs = [(mode, i) for mode in MODES for i in range(len(profiles))]

        def answer(job):
            mode, i = job
            try:
                return engines[mode].recommend_profile(profiles[i])
            except NoProfileError:
                return None

        before = {mode: engine_state(engine) for mode, engine in engines.items()}
        expected = {job: answer(job) for job in jobs}
        assert any(expected.values())
        answers: list[list] = [[] for _ in range(self.THREADS)]
        errors: list[Exception] = []

        def worker(t):
            try:
                shift = t * len(jobs) // self.THREADS
                for job in jobs[shift:] + jobs[:shift]:
                    answers[t].append((job, answer(job)))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for got in answers:
            assert len(got) == len(jobs)
            assert all(out == expected[job] for job, out in got)
        assert {mode: engine_state(engine) for mode, engine in engines.items()} == before
