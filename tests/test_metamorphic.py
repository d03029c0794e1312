"""Metamorphic relations: two runs of the engine that the paper's maths says must agree.

A relation checks the package against itself under a change of input whose
effect the formulas fix, so it needs no second copy of the algorithm.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprec.corpus import Dataset, SyntheticConfig, generate_synthetic
from shoprec.errors import NoProfileError
from shoprec.evaluate import ExperimentConfig, run_experiment
from shoprec.implicit_vsm import build_iif
from shoprec.recommend import Profile, Recommender, RecommenderConfig, profile_of
from shoprec.similarity import MODES

from conftest import small_datasets

PEAK_COUNT = 2**53  # a Profile's purchase-count bound
CONFIG = {"minsup_pct": 20.0, "minconf_pct": 50.0, "exclusion_threshold": 2.5}


def answer(query, *args):
    """The answer of ``query(*args)``, each score as its bits; None for a profile with no weight."""
    try:
        recs = query(*args)
    except NoProfileError:
        return None
    return [(rec.item, rec.score.hex(), rec.source, rec.explain) for rec in recs]


@settings(max_examples=150, deadline=None)
@given(ds=small_datasets(), mode=st.sampled_from(MODES), data=st.data())
def test_a_power_of_two_scale_of_the_query_changes_no_answer(ds, mode, data):
    """The restricted cosine cancels a positive scale of the target, and a power of two scales exactly.

    In implicit mode each purchase count is multiplied by 2**k, up to the
    count bound; in the rating modes each rating is halved. Phase A and
    Phase B read only the neighbours' ratings and the query's seen items, so
    the answer is the same bit for bit. The counts go up to 2**53, the bound
    a Profile allows, and every sum stays finite there.
    """
    engine = Recommender(ds, RecommenderConfig(mode=mode, **CONFIG))
    for user in ds.users:
        profile = profile_of(ds, user)
        if mode == "implicit":
            room = (PEAK_COUNT // max(profile.purchase_counts.values(), default=1)).bit_length() - 1
            k = data.draw(st.integers(1, room))  # the largest count times 2**k stays within the bound
            scaled = Profile(profile.ratings, {item: n << k for item, n in profile.purchase_counts.items()})
        else:
            scaled = Profile({item: r / 2 for item, r in profile.ratings.items()}, profile.purchase_counts)
        assert answer(engine.recommend_profile, scaled, user) == answer(engine.recommend_profile, profile, user)


@settings(max_examples=150, deadline=None)
@given(ds=small_datasets(), mode=st.sampled_from(MODES))
def test_a_training_user_with_no_records_changes_no_rating_mode_answer(ds, mode):
    """A training user with no ratings and no purchases is no one's neighbour.

    Its id sorts first, so every other user's slot in the posting lists moves
    up by one. In the three rating modes a weight reads only its own user's
    ratings and counts, so each answer stays the same bit for bit: through
    ``recommend_user``, which must find the user to leave out by id after the
    shift, and through ``recommend_profile`` with no one left out. In
    implicit mode iif(i) = ln((1 + U) / U_i) counts every user, the empty one
    too, so U grows by one while each U_i stays, and the answers may move.
    """
    grown = Dataset(
        users=("0", *ds.users), items=ds.items, transactions=ds.transaction_rows, ratings=ds.rating_rows
    )
    assert grown.users[1:] == ds.users  # "0" sorts before every id small_datasets draws
    if mode == "implicit":
        total = len(ds.users)
        for dataset, users in ((ds, total), (grown, total + 1)):
            assert build_iif(dataset) == {item: math.log((1 + users) / n) for item, n in ds.purchaser_counts.items()}
        return
    config = RecommenderConfig(mode=mode, **CONFIG)
    engine, grown_engine = Recommender(ds, config), Recommender(grown, config)
    for user in ds.users:
        assert answer(grown_engine.recommend_user, user) == answer(engine.recommend_user, user)
        profile = profile_of(ds, user)
        assert answer(grown_engine.recommend_profile, profile) == answer(engine.recommend_profile, profile)


PREFIX = "x"  # p + a < p + b exactly when a < b, so the relabel keeps every id's place in every order


def relabel(ds: Dataset) -> Dataset:
    """``ds`` with every user, item and transaction id prefixed by PREFIX."""
    return Dataset(
        users=[PREFIX + user for user in ds.users],
        items=[PREFIX + item for item in ds.items],
        transactions=[
            (PREFIX + tid, PREFIX + user, seq, tuple(PREFIX + item for item in items))
            for tid, user, seq, items in ds.transaction_rows
        ],
        ratings=[(PREFIX + user, PREFIX + item, value) for user, item, value in ds.rating_rows],
    )


def relabelled(answer_):
    """An ``answer`` mapped through the relabel: its items, and the neighbour or the rule's items that explain them."""
    if answer_ is None:
        return None
    return [
        (
            PREFIX + item,
            score,
            source,
            PREFIX + explain if source == "neighbor"
            else " => ".join(";".join(PREFIX + i for i in side.split(";")) for side in explain.split(" => ")),
        )
        for item, score, source, explain in answer_
    ]


@settings(max_examples=150, deadline=None)
@given(ds=small_datasets(), mode=st.sampled_from(MODES))
def test_an_order_preserving_relabel_of_the_ids_maps_every_answer(ds, mode):
    """Prefixing every id with one string keeps their order, so every tie-break and every answer, bit for bit.

    The relabelled engine's answer, through ``recommend_user`` and through
    ``recommend_profile``, is the original's with each item, neighbour and
    rule side relabelled, and the same score bits and sources.
    """
    config = RecommenderConfig(mode=mode, **CONFIG)
    engine, relabelled_engine = Recommender(ds, config), Recommender(relabel(ds), config)
    for user in ds.users:
        assert answer(relabelled_engine.recommend_user, PREFIX + user) == relabelled(
            answer(engine.recommend_user, user)
        )
        profile = profile_of(ds, user)
        relabelled_profile = Profile(
            {PREFIX + item: r for item, r in profile.ratings.items()},
            {PREFIX + item: n for item, n in profile.purchase_counts.items()},
        )
        assert answer(relabelled_engine.recommend_profile, relabelled_profile) == relabelled(
            answer(engine.recommend_profile, profile)
        )


@pytest.mark.parametrize("seed", range(5))
def test_an_order_preserving_relabel_of_the_ids_keeps_every_report_row(seed):
    """The split shuffles the users in id order, and every answer maps through the relabel, so the rows are equal."""
    ds = generate_synthetic(SyntheticConfig(users_per_class=8, rng_seed=seed))
    config = ExperimentConfig(seed=seed, minsup_pct=1.0, minconf_pct=10.0)
    assert run_experiment(relabel(ds), config) == run_experiment(ds, config)
