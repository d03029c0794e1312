"""Metamorphic relations: two runs of the engine that the paper's maths says must agree.

A relation checks the package against itself under a change of input whose
effect the formulas fix, so it needs no second copy of the algorithm.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from shoprec.corpus import Dataset
from shoprec.errors import NoProfileError
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
