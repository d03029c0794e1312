import copy
import dataclasses
import gc
import importlib
import math
import pickle
import random
import re
import sys
import threading
import weakref
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st
from pytest import approx

from shoprec import cli, corpus
from shoprec.corpus import (
    Dataset,
    SyntheticConfig,
    Transaction,
    generate_synthetic,
    save_ratings,
    save_transactions,
    split_users,
)
from shoprec.errors import ConfigError, IntegrityError, NoProfileError, NotFoundError, RangeError
from shoprec.evaluate import ExperimentConfig, run_experiment
from shoprec.implicit_vsm import build_iif
from shoprec.recommend import Profile, Recommender, RecommenderConfig, cold_start, profile_of
from shoprec.rules import fp_growth, generate_rules
from shoprec.sequence import bought_after, build_precedence_index
from shoprec.similarity import MODES, build_postings, profile_weights, top_k_neighbors

from conftest import RATING_VALUES, TABLE1_ROWS, random_dataset, rate, rule_datasets, small_datasets, tx
from oracles import recommend_reference


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
    return Dataset(transactions=txns, ratings=ratings)


def equal_scores_query():
    """Every rule from parent P scores 8, so Y's rule is the first in mined order."""
    ratings = [rate("A", "Z", 5.0), rate("B", "Z", 5.0), rate("B", "P", 8.0)]
    ds = Dataset(transactions=[tx("C", 1, "P", "X", "Y")], ratings=ratings)
    return ds, profile_of(ds, "A"), "A"


def non_first_antecedent_query():
    """N picks B; over S's baskets ABC, A and B, the only rule that reaches C at 60% is
    A;B => C (100%), which lists B second, while B;C => A lists it first."""
    ratings = [rate("Q", "Z", 5.0), rate("N", "Z", 5.0), rate("N", "B", 8.0)]
    txns = [tx("S", 1, "A", "B", "C"), tx("S", 2, "A"), tx("S", 3, "B")]
    ds = Dataset(transactions=txns, ratings=ratings)
    return ds, profile_of(ds, "Q"), "Q"


def cross_parent_tie():
    """A's neighbours B and C, in that order, pick P1 (score 5) and P2 (score 10); the
    rules P1 => X at 100% and P2 => X at 50% both score X at 5, and P1 => X comes
    first in mined order."""
    ratings = [rate("A", "Z", 5.0), rate("B", "Z", 5.0), rate("B", "P1", 5.0)]
    ratings += [rate("C", "Z", 5.0), rate("C", "P2", 10.0)]
    txns = [tx("D", 1, "P1", "X"), tx("D", 2, "P2", "X"), tx("D", 3, "P2")]
    return Dataset(transactions=txns, ratings=ratings), Profile(ratings={"Z": 5.0})


def equal_picks_query():
    """A's neighbours B and C, equally similar, pick Q2 and Q1 at the same score 8;
    the lower item comes from the later neighbour, so neither the neighbour id nor a
    descending item order gives the ranking by item id."""
    ratings = [rate("A", "Z", 5.0), rate("B", "Z", 5.0), rate("B", "Q2", 8.0)]
    ratings += [rate("C", "Z", 5.0), rate("C", "Q1", 8.0)]
    ds = Dataset(ratings=ratings)
    return ds, profile_of(ds, "A"), "A"


class TestRuleExpansion:
    def config(self, minsup=10.0, minconf=30.0):
        return RecommenderConfig(top_n=5, minsup_pct=minsup, minconf_pct=minconf)

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
        engine = Recommender(rule_expansion_dataset(), self.config())
        off = recommend_reference(engine, self.query(), rules=False)
        assert [r for r in engine.recommend_profile(self.query()) if r.source == "neighbor"] == off
        assert [r.item for r in off] == ["P2"]

    def test_no_mined_rule_answers_as_rules_off(self):
        """Thresholds that no rule meets: Phase B is skipped, and every answer is the list without rules."""
        ds = rule_expansion_dataset()
        engine = Recommender(ds, self.config(minsup=100.0, minconf=100.0))
        assert not generate_rules(fp_growth(ds.transaction_rows, 100.0), 100.0)
        queries = [(self.query(), None)] + [(profile_of(ds, user), user) for user in ds.users]
        for profile, user in queries:
            try:
                expected = recommend_reference(engine, profile, user, rules=False)
            except NoProfileError:
                continue
            assert engine.recommend_profile(profile, exclude_user=user) == expected
            assert recommend_reference(engine, profile, user) == expected

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
        ds, _, user = equal_scores_query()
        engine = Recommender(ds, self.config())
        rules = generate_rules(fp_growth(ds.transactions, 10.0), 30.0)
        mined = [f"{';'.join(r.antecedent)} => {';'.join(r.consequent)}" for r in rules]
        assert mined[:5] == ["P => X", "P => X;Y", "P => Y", "P;X => Y", "P;Y => X"]
        recs = engine.recommend_user(user)
        # the engine reads P's rules in the same mined order as the reference
        assert recs == recommend_reference(engine, profile_of(ds, user), user)
        assert [(r.item, r.score, r.source) for r in recs] == [
            ("P", 8.0, "neighbor"), ("X", 8.0, "rule"), ("Y", 8.0, "rule"),
        ]
        assert [r.explain for r in recs[1:]] == ["P => X", "P => X;Y"]

    def test_rule_reached_from_a_later_antecedent_item(self):
        """The pick B is the second antecedent item of A;B => C, the one rule that reaches C."""
        ds, profile, user = non_first_antecedent_query()
        engine = Recommender(ds, self.config(minsup=10.0, minconf=60.0))
        recs = engine.recommend_profile(profile, exclude_user=user)
        assert [(r.item, r.score, r.source, r.explain) for r in recs] == [
            ("B", 8.0, "neighbor", "N"), ("A", 8.0, "rule", "B;C => A"), ("C", 8.0, "rule", "A;B => C"),
        ]

    def test_equal_scores_from_two_parents_keep_the_higher_parent(self):
        """X scores 5 from both parents; the rule met first, from the higher-ranked parent, names it."""
        ds, profile = cross_parent_tie()
        engine = Recommender(ds, RecommenderConfig(minsup_pct=10.0, minconf_pct=30.0, exclusion_threshold=5.0))
        recs = engine.recommend_profile(profile, exclude_user="A")
        assert [(r.item, r.score, r.source, r.explain) for r in recs] == [
            ("P2", 10.0, "neighbor", "C"), ("P1", 5.0, "neighbor", "B"), ("X", 5.0, "rule", "P2 => X"),
        ]

    @pytest.mark.parametrize("top_n", [5, 1])
    def test_equal_neighbour_scores_rank_by_item_id(self, top_n):
        """Q1 and Q2 both score 8; the lower item id ranks first, and a top-1 keeps it."""
        ds, profile, user = equal_picks_query()
        recs = Recommender(ds, RecommenderConfig(top_n=top_n)).recommend_profile(profile, exclude_user=user)
        expected = [("Q1", (8.0).hex(), "neighbor", "C"), ("Q2", (8.0).hex(), "neighbor", "B")]
        assert [(r.item, r.score.hex(), r.source, r.explain) for r in recs] == expected[:top_n]

    @pytest.mark.parametrize("top_n, filtered", [(1, 1), (3, 3)])
    def test_each_rule_item_is_filtered_once(self, monkeypatch, top_n, filtered):
        """X and Y are consequents of three rules each, yet each meets the purchase-order
        filter once, after P; when the neighbour pick P fills the top-N, no rule is expanded."""
        ds, profile, exclude = equal_scores_query()
        engine = Recommender(ds, RecommenderConfig(top_n=top_n, minsup_pct=10.0, minconf_pct=30.0))
        calls = count_calls(monkeypatch, "shoprec.recommend", ("bought_after",))
        assert len(engine.recommend_profile(profile, exclude_user=exclude)) == top_n
        assert calls["bought_after"] == filtered


class TestThresholdExclusion:
    def test_low_rated_neighbor_items_never_offered(self):
        ratings = [
            rate("N", "P1", 5.0),
            rate("N", "P2", 6.9),  # just under the threshold
            rate("Q", "P1", 5.0),
        ]
        ds = Dataset(ratings=ratings)
        recs = Recommender(ds, RecommenderConfig(top_n=5)).recommend_user("Q")
        assert recs == []

    def test_item_at_threshold_is_offered(self):
        ds = Dataset(ratings=[rate("N", "P1", 5.0), rate("N", "P2", 7.0), rate("Q", "P1", 5.0)])
        recs = Recommender(ds, RecommenderConfig(top_n=5)).recommend_user("Q")
        assert [r.item for r in recs] == ["P2"]


class TestContracts:
    def test_no_profile_error(self):
        ds = Dataset(ratings=[rate("N", "P1", 8.0)])
        with pytest.raises(NoProfileError):
            Recommender(ds, RecommenderConfig()).recommend_profile(Profile())

    def test_all_zero_ratings_are_no_profile_in_simple_mode(self):
        # every weight is 0, 0.0 or -0.0, so no cosine is defined
        ds = Dataset(ratings=[rate("N", "P1", 8.0)])
        with pytest.raises(NoProfileError):
            Recommender(ds, RecommenderConfig(mode="simple")).recommend_profile(
                Profile({"P1": 0, "P2": 0.0, "P3": -0.0}, {"P1": 1})
            )

    def test_unknown_user(self):
        ds = Dataset(ratings=[rate("N", "P1", 8.0)])
        with pytest.raises(NotFoundError):
            Recommender(ds, RecommenderConfig()).recommend_user("nobody")

    def test_alone_in_dataset_gives_empty_result(self):
        ds = Dataset(ratings=[rate("N", "P1", 8.0)])
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
    engine = Recommender(ds, RecommenderConfig(mode=mode, top_n=4, minsup_pct=10.0, minconf_pct=20.0))
    index = build_precedence_index(ds)
    grown = 0
    for user in ds.users:
        profile = Profile(
            ratings=dict(ds.ratings_by_user[user]),
            purchase_counts=dict(ds.purchase_counts_by_user[user]),
        )
        try:
            on = engine.recommend_profile(profile, exclude_user=user)
            off = recommend_reference(engine, profile, user, rules=False)
        except NoProfileError:
            continue
        seen = profile.ratings.keys() | profile.purchase_counts.keys()
        for rec in on:
            assert rec.item not in seen
            assert bought_after(index, rec.item, profile.purchase_counts.keys())
        # rules only append: the list without them is the neighbour part ...
        assert [r for r in on if r.source == "neighbor"] == off
        # ... and two tiers make it a prefix: every neighbour item precedes every rule item
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
    return Dataset(transactions=[tx("C", 1, "I0", "I1")], ratings=ratings)


class TestPipelineInvariants:
    @settings(max_examples=200, deadline=None)
    @given(ds=st.one_of(small_datasets(), rule_datasets()), mode=st.sampled_from(MODES))
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
    seen, history = profile.ratings.keys() | profile.purchase_counts.keys(), profile.purchase_counts.keys()
    eligible = [
        (-value, item)
        for item, value in ds.ratings_by_user[neighbor].items()
        if value >= threshold and item not in seen and bought_after(index, item, history)
    ]
    return min(eligible)[1] if eligible else None


@st.composite
def queries(draw):
    """A dataset, a query profile and the training user to exclude, if any.

    The profile keeps part of a training user's ratings and purchases, as a
    held-out query does, and may add items of its own, one outside the dataset.
    """
    ds = draw(st.one_of(small_datasets(), rule_datasets()))
    user = draw(st.sampled_from(ds.users))
    ratings, counts = ds.ratings_by_user[user], ds.purchase_counts_by_user[user]
    kept = {item for item in sorted(ratings.keys() | counts.keys()) if draw(st.booleans())}
    items = st.sampled_from(sorted(ds.items) + ["I9"])
    profile = Profile(
        ratings={item: v for item, v in ratings.items() if item in kept}
        | draw(st.dictionaries(items, RATING_VALUES, max_size=2)),
        purchase_counts={item: n for item, n in counts.items() if item in kept}
        | draw(st.dictionaries(items, st.integers(1, 3), max_size=2)),
    )
    return ds, profile, draw(st.sampled_from([None, user]))


def answers(query, mode, top_n, threshold):
    """The engine's and the reference's answers to one query, as comparable rows:
    with rules, then without them, where the engine's list is its answer's neighbour part."""
    ds, profile, exclude = query
    config = RecommenderConfig(mode=mode, top_n=top_n, minsup_pct=1.0, minconf_pct=10.0, exclusion_threshold=threshold)
    engine = Recommender(ds, config)

    def neighbor_part(profile, exclude):
        return [r for r in engine.recommend_profile(profile, exclude) if r.source == "neighbor"]

    rows = []
    for answer in (
        engine.recommend_profile,
        partial(recommend_reference, engine),
        neighbor_part,
        partial(recommend_reference, engine, rules=False),
    ):
        try:
            rows.append([(r.item, r.score.hex(), r.source, r.explain) for r in answer(profile, exclude)])
        except NoProfileError:
            rows.append(None)
    return rows


class TestReferenceEquivalence:
    """Scoring rules before filtering, filtering once per item and building only the
    returned entries gives, bit for bit, the list of the plain reference path; the
    answer's neighbour part is, bit for bit, the reference's list without rules."""

    @settings(max_examples=400, deadline=None)
    @given(
        query=queries(),
        mode=st.sampled_from(MODES),
        top_n=st.integers(1, 6),
        threshold=st.sampled_from([0.0, 5.0, 7.0]),
    )
    @example(query=equal_scores_query(), mode="simple", top_n=3, threshold=7.0)
    @example(query=equal_scores_query(), mode="simple", top_n=2, threshold=7.0)
    @example(query=(*cross_parent_tie(), "A"), mode="simple", top_n=3, threshold=5.0)
    @example(query=non_first_antecedent_query(), mode="simple", top_n=3, threshold=7.0)
    @example(query=equal_picks_query(), mode="simple", top_n=1, threshold=7.0)
    def test_matches_the_reference(self, query, mode, top_n, threshold):
        engine_rows, reference_rows, engine_off, reference_off = answers(query, mode, top_n, threshold)
        assert engine_rows == reference_rows
        assert engine_off == reference_off

    def test_rule_items_are_reached(self):
        """The strategy reaches answers with rule items, so Phase B is compared too."""
        find(
            st.tuples(queries(), st.sampled_from(MODES), st.integers(1, 6), st.sampled_from([0.0, 5.0, 7.0])),
            lambda case: any(row[2] == "rule" for row in answers(*case)[1] or ()),
            settings=settings(max_examples=1000, database=None, phases=[Phase.generate]),
        )


class TestPhaseAPick:
    @settings(max_examples=200, deadline=None)
    @given(
        ds=small_datasets(),
        mode=st.sampled_from(MODES),
        k=st.integers(1, 7),
        threshold=st.sampled_from([0.0, 2.5, 4.0, 5.0, 7.0, 10.0]),
    )
    def test_each_neighbor_offers_its_best_eligible_item(self, ds, mode, k, threshold):
        config = RecommenderConfig(mode=mode, k_neighbors=k, top_n=100, exclusion_threshold=threshold)
        engine = Recommender(ds, config)
        index = build_precedence_index(ds)
        iif = build_iif(ds)
        postings = build_postings(
            {u: profile_weights(ds.ratings_by_user[u], ds.purchase_counts_by_user[u], mode, iif) for u in ds.users}
        )
        for user in ds.users:
            profile = profile_of(ds, user)
            try:
                recs = [r for r in engine.recommend_user(user) if r.source == "neighbor"]
            except NoProfileError:
                continue
            assert recs == recommend_reference(engine, profile, user, rules=False)
            weights = profile_weights(profile.ratings, profile.purchase_counts, mode, iif)
            neighbors = [n for n, _ in top_k_neighbors(weights, postings, k, exclude=user)]
            for rec in recs:
                assert rec.explain in neighbors
                assert rec.item == neighbor_pick(ds, rec.explain, threshold, profile, index)
                assert ds.ratings_by_user[rec.explain][rec.item] >= threshold
            # every neighbour with an eligible item offers it
            picks = {neighbor_pick(ds, n, threshold, profile, index) for n in neighbors}
            assert {rec.item for rec in recs} == picks - {None}

    @settings(max_examples=50, deadline=None)
    @given(ds=small_datasets())
    def test_ranked_ratings_are_untracked_dicts_best_first(self, ds):
        ranked = Recommender(ds, RecommenderConfig())._ranked
        assert list(ranked) == list(ds.users)
        for user, ratings in ranked.items():
            assert ratings == ds.ratings_by_user[user]
            assert list(ds.ratings_by_user[user]) == sorted(ratings)  # item order, which the ranking's sort keeps
            assert list(ratings) == sorted(ratings, key=lambda item: (-ratings[item], item))
            assert not gc.is_tracked(ratings)


def seed_2024_engine(mode):
    ds = generate_synthetic(SyntheticConfig(rng_seed=2024))
    return Recommender(ds, RecommenderConfig(mode=mode, minsup_pct=1.0, minconf_pct=10.0))


# id -> (mode, ratings, counts); each used to answer, or to fail partway with ZeroDivisionError
BAD_RANGES = {
    "negative-count": ("method1", {"I001": 8.0, "I002": 8.0}, {"I001": 1, "I002": -1}),
    "rating-50": ("simple", {"I001": 50.0}, {}),
    "rating-nan": ("simple", {"I001": math.nan, "I002": 5.0}, {}),
    "rating-negative": ("simple", {"I001": -0.5}, {}),
    "count-half": ("method1", {"I001": 8.0}, {"I001": 0.5}),
    "count-zero": ("simple", {"I001": 8.0}, {"I001": 1, "I002": 0}),
    "count-bool": ("method1", {"I001": 8.0}, {"I001": True}),
    # above 2**53: the first answered [] in implicit mode, the second raised a bare OverflowError mid-query
    "count-1e160": ("implicit", {"I001": 8.0}, {"I001": 10**160}),
    "count-1e400": ("method1", {"I001": 8.0}, {"I001": 10**400}),
    # more digits than str() converts: each raised a bare ValueError from its own message
    "count-negative-huge": ("method1", {"I001": 8.0}, {"I001": -(10**5000)}),
    "rating-huge": ("simple", {"I001": 10**5000}, {}),
}
# id -> (ratings, counts, the bad id's repr); each of the first three used to
# answer as if the id were an unknown item
BAD_IDS = {
    "comma": ({"I0,01": 8.0, "I002": 8.0}, {}, "'I0,01'"),
    "int-key": ({1: 8.0, "I002": 8.0}, {}, "1"),
    "empty": ({"": 8.0, "I002": 8.0}, {}, "''"),
    "count-key-semicolon": ({"I001": 8.0}, {"I001": 1, "I0;02": 2}, "'I0;02'"),
    "line-feed": ({"I001": 8.0, "I002\n": 8.0}, {}, "'I002\\n'"),
    "bytes-key": ({"I001": 8.0}, {b"I001": 1}, "b'I001'"),
}
# id -> a rating that is not an int or a float; "8" used to raise a bare TypeError from the range
# check, and a bool and a Fraction were taken, though a Dataset stores neither
NOT_REAL = {
    "str": "8",
    "none": None,
    "complex": 8 + 0j,
    "decimal": Decimal("8"),
    "bool": True,
    "fraction": Fraction(17, 2),
}


class TestProfileChecks:
    """A query profile is checked when it is made: item ids valid id strings, ratings
    ints or floats within [0, 10], purchase counts ints (not bools) from 1 to 2**53."""

    @pytest.mark.parametrize(
        "error, ratings, counts",
        [pytest.param(RangeError, r, c, id=f"range-{k}") for k, (_, r, c) in BAD_RANGES.items()]
        + [pytest.param(IntegrityError, r, c, id=f"id-{k}") for k, (r, c, _) in BAD_IDS.items()]
        + [pytest.param(RangeError, {"I002": 8.0, "I001": v}, {}, id=f"real-{k}") for k, v in NOT_REAL.items()],
    )
    def test_bad_profile_fails_when_made(self, error, ratings, counts):
        with pytest.raises(error):
            Profile(ratings=ratings, purchase_counts=counts)

    @pytest.mark.parametrize(
        "name, value, values",
        [
            # 5 escaped from the query as a bare TypeError; a list of pairs was read as ids
            ("ratings", 5, "ratings"),
            ("ratings", [("I001", 8.0)], "ratings"),
            ("purchase_counts", None, "purchase counts"),
            ("purchase_counts", ["I001"], "purchase counts"),
        ],
        ids=["ratings-int", "ratings-pairs", "counts-none", "counts-list"],
    )
    def test_map_that_is_not_a_mapping_is_integrity_error(self, name, value, values):
        message = f"{name} must be a mapping of item ids to {values}, got {value!r}"
        with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
            Profile(**{name: value})

    def test_maps_are_read_only_copies(self):
        ratings, counts = {"I001": 8.0}, {"I001": 2}
        profile = Profile(ratings, counts)
        ratings["I001"], ratings["I002"] = 50.0, 1.0
        counts.clear()
        assert profile == Profile({"I001": 8.0}, {"I001": 2})
        with pytest.raises(TypeError):
            profile.ratings["x"] = 1.0
        with pytest.raises(TypeError):
            profile.purchase_counts["x"] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.ratings = {}

    def test_replace_checks_the_copy(self):
        profile = Profile({"I001": 8.0}, {"I001": 2})
        with pytest.raises(RangeError, match=r"rating must be an int or a float in \[0, 10\], got 50.0"):
            dataclasses.replace(profile, ratings={"I001": 50.0})
        assert dataclasses.replace(profile, ratings={"I002": 5.0}) == Profile({"I002": 5.0}, {"I001": 2})

    def test_copy_and_pickle_make_an_equal_profile(self):
        for profile in (Profile({"I001": 8.0}, {"I001": 2}), _Profile({"I001": 8.0}, {"I001": 2})):
            for made in (copy.copy(profile), copy.deepcopy(profile), pickle.loads(pickle.dumps(profile))):
                assert type(made) is type(profile) and made == profile
                with pytest.raises(TypeError):
                    made.ratings["x"] = 1.0

    def test_every_way_to_make_a_profile_gets_the_same_answer(self):
        # a query reads the dicts a Profile keeps beside its views; each of these must keep them
        engine = seed_2024_engine("method1")
        user = "U013"  # whose answer has both tiers
        profile = profile_of(engine.train, user)

        def answer(made):
            return [(r.item, r.score.hex(), r.source, r.explain) for r in engine.recommend_profile(made, user)]

        expected = answer(profile)
        assert {r[2] for r in expected} == {"neighbor", "rule"}
        made = (
            copy.copy(profile),
            copy.deepcopy(profile),
            pickle.loads(pickle.dumps(profile)),
            dataclasses.replace(profile),
            _Profile(profile.ratings, profile.purchase_counts),
        )
        for other in made:
            assert answer(other) == expected

    def test_query_takes_only_a_profile(self):
        # an unchecked stand-in once met the query's own checks; it must never answer,
        # not even one that carries the dicts a Profile keeps for the query
        engine = seed_2024_engine("simple")
        for ratings in ({"I001": 99.0}, {"I001": 8.0}):
            for private in ({}, {"_dicts": (ratings, {})}):
                stand_in = SimpleNamespace(ratings=ratings, purchase_counts={}, **private)
                with pytest.raises(TypeError, match="^profile must be a Profile, got SimpleNamespace$"):
                    engine.recommend_profile(stand_in)

    @pytest.mark.parametrize("mode, ratings, counts", BAD_RANGES.values(), ids=list(BAD_RANGES))
    def test_bad_profile_is_range_error(self, mode, ratings, counts):
        with pytest.raises(RangeError):
            seed_2024_engine(mode).recommend_profile(Profile(ratings=ratings, purchase_counts=counts))

    def test_bounds_are_accepted(self):
        engine = seed_2024_engine("method1")
        profile = Profile(ratings={"I001": 0.0, "I002": 10.0}, purchase_counts={"I001": 1, "I002": 3})
        assert engine.recommend_profile(profile)

    @pytest.mark.parametrize("mode", MODES)
    def test_largest_count_answers_as_a_count_of_one(self, mode):
        engine = seed_2024_engine(mode)
        one, most = (engine.recommend_profile(Profile({"I001": 8.0}, {"I001": n})) for n in (1, 2**53))
        assert [r.item for r in most] == [r.item for r in one] != []
        message = "item I001: purchase count must be an int from 1 to 2**53, got 9007199254740993"
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            Profile({"I001": 8.0}, {"I001": 2**53 + 1})

    @pytest.mark.parametrize("ratings, counts, bad", BAD_IDS.values(), ids=list(BAD_IDS))
    def test_bad_item_id_is_integrity_error(self, ratings, counts, bad):
        engine = seed_2024_engine("method1")
        with pytest.raises(IntegrityError, match=f"^invalid item id {re.escape(bad)}$"):
            engine.recommend_profile(Profile(ratings=ratings, purchase_counts=counts))

    @pytest.mark.parametrize("rating", NOT_REAL.values(), ids=list(NOT_REAL))
    def test_rating_that_is_not_a_real_number_is_range_error(self, rating):
        engine = seed_2024_engine("simple")
        with pytest.raises(RangeError, match=r"rating must be an int or a float in \[0, 10\], got "):
            engine.recommend_profile(Profile(ratings={"I002": 8.0, "I001": rating}))

    def test_nan_after_valid_ratings_is_range_error(self):
        # min() and max() skip a NaN that is not first
        ratings = {"I001": 8.0, "I002": 5.0, "I003": math.nan, "I004": 9.0}
        with pytest.raises(RangeError, match=r"rating must be an int or a float in \[0, 10\], got nan"):
            seed_2024_engine("simple").recommend_profile(Profile(ratings=ratings))

    def test_real_numbers_of_other_types_are_accepted(self):
        # an int and a float subclass, as a Dataset stores them; a Fraction and a bool are in NOT_REAL
        engine = seed_2024_engine("simple")
        exact = engine.recommend_profile(Profile(ratings={"I001": 8.0, "I002": 7.5, "I003": 3.0, "I004": 1.0}))
        other = engine.recommend_profile(Profile(ratings={"I001": 8, "I002": 7.5, "I003": _Float(3.0), "I004": 1}))
        assert other == exact


class _Float(float):
    """A float subclass, as numpy.float64 is."""


class _Profile(Profile):
    """A Profile subclass, which answers through the query's full type check."""


class TestColdStart:
    def test_ranking_matches_popularity(self):
        txns = [tx(f"U{i}", 1, "IA") for i in range(1, 6)]
        txns += [tx(f"U{i}", 2, "IB") for i in range(1, 3)]
        users = [f"U{i}" for i in range(1, 10)]
        ds = Dataset(users=users, items=["IA", "IB"], transactions=txns)
        recs = cold_start(ds, 5)
        assert [r.item for r in recs] == ["IA", "IB"]
        assert all(r.source == "popularity" and r.explain == "cold-start" for r in recs)

    def test_top_n_one(self):
        txns = [tx(f"U{i}", 1, "IA") for i in range(1, 6)] + [tx("U9", 1, "IB")]
        ds = Dataset(transactions=txns)
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
        ds = Dataset(ratings=[rate("U1", "P1", 5)])
        assert cold_start(ds, 5) == []

    @pytest.mark.parametrize("top_n", [0, -1, 1.0, "2", True, None])
    def test_top_n_that_is_not_an_int_of_at_least_one(self, top_n):
        # -1 sliced the ranking to all but its last item
        ds = Dataset(transactions=[tx("U1", 1, "IA"), tx("U2", 1, "IB")])
        with pytest.raises(RangeError, match=f"^top_n must be an int >= 1, got {re.escape(repr(top_n))}$"):
            cold_start(ds, top_n)


BAD_RULE_THRESHOLDS = [
    {"minsup_pct": 500.0, "minconf_pct": -3.0},
    {"minsup_pct": 0.0},
    {"minsup_pct": 100.5},
    {"minsup_pct": float("nan")},
    {"minconf_pct": 0.0},
    {"minconf_pct": -3.0},
    {"minconf_pct": 101.0},
]


class TestConfigValidation:
    @pytest.mark.parametrize("thresholds", BAD_RULE_THRESHOLDS)
    def test_rule_thresholds_rejected_at_construction(self, worked_example, thresholds):
        with pytest.raises(ConfigError):
            Recommender(worked_example, RecommenderConfig(**thresholds))

    @pytest.mark.parametrize("thresholds", BAD_RULE_THRESHOLDS)
    def test_rule_thresholds_rejected_without_rules(self, worked_example, thresholds, tmp_path, capsys):
        """The list without rules, recommend --no-rules, checks the thresholds as every engine does."""
        save_transactions(worked_example, tmp_path / "t.csv")
        save_ratings(worked_example, tmp_path / "r.csv")
        flags = {"minsup_pct": "--minsup", "minconf_pct": "--minconf"}
        argv = ["recommend", "--transactions", str(tmp_path / "t.csv"), "--ratings", str(tmp_path / "r.csv")]
        argv += ["--user", "U3", "--no-rules", *(f"{flags[name]}={value}" for name, value in thresholds.items())]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"shoprec: error: {next(iter(thresholds))} must be")

    def test_threshold_bounds_inclusive_at_100(self, worked_example):
        Recommender(worked_example, RecommenderConfig(minsup_pct=100.0, minconf_pct=100.0))

    @pytest.mark.parametrize("name", ["top_n", "k_neighbors"])
    @pytest.mark.parametrize("value", [2.5, "3", True])
    def test_count_that_is_not_an_int_rejected_at_construction(self, worked_example, name, value):
        with pytest.raises(ConfigError, match=name):
            RecommenderConfig(**{name: value})
        with pytest.raises(ConfigError, match=name):
            Recommender(worked_example, RecommenderConfig(**{name: value}))


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
        for name in ("_precedence", "_iif", "_ranked", "_rules_by_item"):
            assert all(getattr(e, name) is getattr(engines[0], name) for e in engines)

    def test_run_experiment_builds_once(self, monkeypatch):
        ds = generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=5))
        calls = count_builds(monkeypatch)
        run_experiment(ds, ExperimentConfig(seed=1, minsup_pct=1.0, minconf_pct=10.0))
        assert calls == {"build_precedence_index": 1, "build_iif": 1, "fp_growth": 1}

    def test_run_experiment_queries_once_per_mode_and_user(self, monkeypatch):
        """One engine per mode; each held-out user is searched at most once per mode."""
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
            return Dataset(ratings=[rate("N", "P1", 8.0), rate("Q", "P1", 5.0)])

        calls = count_builds(monkeypatch)
        a, b = Recommender(build()), Recommender(build())
        assert a.train == b.train
        assert a._precedence is not b._precedence and a._postings is not b._postings
        assert calls["build_precedence_index"] == 2

    def test_concurrent_engines_build_each_index_once(self, monkeypatch):
        ds = generate_synthetic(SyntheticConfig(rng_seed=5))
        calls = count_builds(monkeypatch)
        modes = [mode for mode in MODES for _ in range(2)]
        barrier = threading.Barrier(len(modes))
        engines: list = [None] * len(modes)
        errors: list[Exception] = []

        def construct(t):
            try:
                barrier.wait(timeout=60)
                engines[t] = Recommender(ds, RecommenderConfig(mode=modes[t], minsup_pct=1.0, minconf_pct=10.0))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # so that the builds interleave
        try:
            threads = [threading.Thread(target=construct, args=(t,)) for t in range(len(modes))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert calls == {"build_precedence_index": 1, "build_iif": 1, "fp_growth": 1}
        for t in range(0, len(modes), 2):
            assert engines[t].config.mode == engines[t + 1].config.mode
            assert engines[t]._postings is engines[t + 1]._postings

    def test_indexes_do_not_keep_their_dataset_alive(self):
        ds = generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=5))
        for mode in MODES:
            Recommender(ds, RecommenderConfig(mode=mode, minsup_pct=1.0, minconf_pct=10.0))
        # the three lookup tables, the precedence, iif and ranked indexes, one postings per mode, one rules
        assert len(vars(ds)["_indexes"]) == 3 + 3 + len(MODES) + 1
        dataset = weakref.ref(ds)
        gc.disable()  # so that only reference counting can free it
        try:
            del ds
            assert dataset() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("seed", range(10))  # a race shows in some runs only
    def test_concurrent_first_reads_get_one_object_per_table(self, monkeypatch, seed):
        """Half the threads read the three tables while the other half build one engine per mode."""
        ds = generate_synthetic(SyntheticConfig(rng_seed=seed))
        calls = count_builds(monkeypatch)
        tables = ("ratings_by_user", "purchase_counts_by_user", "purchaser_counts")
        barrier = threading.Barrier(2 * len(MODES))
        read: list = []
        errors: list[Exception] = []

        def reader():
            try:
                barrier.wait(timeout=60)
                read.append([getattr(ds, name) for name in tables])
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        def builder(mode):
            try:
                barrier.wait(timeout=60)
                Recommender(ds, RecommenderConfig(mode=mode, minsup_pct=1.0, minconf_pct=10.0))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in MODES]
        threads += [threading.Thread(target=builder, args=(mode,)) for mode in MODES]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # so that the first reads interleave
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(read) == len(MODES)
        for k, name in enumerate(tables):
            assert all(values[k] is getattr(ds, name) for values in read)
        assert calls == {"build_precedence_index": 1, "build_iif": 1, "fp_growth": 1}

    def test_a_query_over_built_tables_does_not_wait_on_the_build_lock(self):
        ds = generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=5))
        engine = Recommender(ds)
        user = ds.users[0]
        expected = engine.recommend_user(user)
        answers: list = []
        with corpus._DERIVED_LOCK:  # held here, so a query that took it would wait for the join to time out
            query = threading.Thread(target=lambda: answers.append(engine.recommend_user(user)))
            query.start()
            query.join(timeout=60)
            assert not query.is_alive()
        assert answers == [expected]


class _Dataset(Dataset):
    """A Dataset subclass, which a copy or a pickle keeps."""


class TestDatasetCopies:
    CONFIG = RecommenderConfig(mode="method1", minsup_pct=1.0, minconf_pct=10.0)

    def test_a_trained_dataset_pickles_as_a_fresh_one(self):
        ds = generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=5))
        fresh = pickle.dumps(ds)
        for mode in MODES:
            Recommender(ds, RecommenderConfig(mode=mode, minsup_pct=1.0, minconf_pct=10.0))
        assert pickle.dumps(ds) == fresh

    @pytest.mark.parametrize("cls", [Dataset, _Dataset])
    def test_copy_deepcopy_and_pickle_make_an_equal_dataset_without_a_store(self, cls):
        ds = cls._trusted(*dataclasses.astuple(generate_synthetic(SyntheticConfig(users_per_class=2, rng_seed=5))))
        Recommender(ds, self.CONFIG)
        assert vars(ds)["_indexes"]
        for made in (copy.copy(ds), copy.deepcopy(ds), pickle.loads(pickle.dumps(ds))):
            assert type(made) is cls and made == ds
            assert "_indexes" not in vars(made)

    def test_engines_over_a_copy_build_their_own_indexes(self, monkeypatch):
        ds = generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=5))
        original = Recommender(ds, self.CONFIG)
        store = dict(vars(ds)["_indexes"])
        calls = count_builds(monkeypatch)
        copied = Recommender(copy.copy(ds), self.CONFIG)
        assert calls == {"build_precedence_index": 1, "build_iif": 1, "fp_growth": 1}
        assert copied._precedence is not original._precedence and copied._postings is not original._postings
        assert vars(ds)["_indexes"].keys() == store.keys()
        assert all(vars(ds)["_indexes"][key] is value for key, value in store.items())

    def test_an_engine_over_an_unpickled_dataset_answers_as_the_original(self):
        original = seed_2024_engine("method1")
        engine = Recommender(pickle.loads(pickle.dumps(original.train)), original.config)

        def answers(engine):
            return {
                user: [(r.item, r.score.hex(), r.source, r.explain) for r in engine.recommend_user(user)]
                for user in engine.train.users
            }

        expected = answers(original)
        assert {r[2] for recs in expected.values() for r in recs} == {"neighbor", "rule"}
        assert answers(engine) == expected


def engine_state(engine):
    """Everything an engine or its dataset's indexes hold, copied, plus the dataset's cached names."""
    own = {name: value for name, value in vars(engine).items() if name != "train"}
    return (
        copy.deepcopy(own),
        copy.deepcopy(vars(engine.train)["_indexes"]),
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
