"""Metamorphic relations: two runs of the engine that the paper's maths says must agree.

A relation checks the package against itself under a change of input whose
effect the formulas fix, so it needs no second copy of the algorithm.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from shoprec.errors import NoProfileError
from shoprec.recommend import Profile, Recommender, RecommenderConfig, profile_of
from shoprec.similarity import MODES

from conftest import small_datasets

PEAK_COUNT = 2**53  # a Profile's purchase-count bound


def answer(engine, profile, user):
    """The answer to a query, each score as its bits; None for a profile with no weight."""
    try:
        recs = engine.recommend_profile(profile, exclude_user=user)
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
    engine = Recommender(ds, RecommenderConfig(mode=mode, minsup_pct=20.0, minconf_pct=50.0, exclusion_threshold=2.5))
    for user in ds.users:
        profile = profile_of(ds, user)
        if mode == "implicit":
            room = (PEAK_COUNT // max(profile.purchase_counts.values(), default=1)).bit_length() - 1
            k = data.draw(st.integers(1, room))  # the largest count times 2**k stays within the bound
            scaled = Profile(profile.ratings, {item: n << k for item, n in profile.purchase_counts.items()})
        else:
            scaled = Profile({item: r / 2 for item, r in profile.ratings.items()}, profile.purchase_counts)
        assert answer(engine, scaled, user) == answer(engine, profile, user)
