import gc
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import shoprec
from shoprec import similarity
from shoprec.errors import NoProfileError, NotFoundError
from shoprec.implicit_vsm import build_iif
from shoprec.recommend import Recommender, RecommenderConfig, profile_of
from shoprec.similarity import MODES, build_postings, profile_weights, top_k_neighbors

from conftest import random_dataset, small_datasets
from oracles import cosine_restricted


def vec(**weights):
    return {k: float(v) for k, v in weights.items()}


def dataset_weights(ds, user, mode):
    """The weight map of a dataset user in a mode."""
    return profile_weights(ds.ratings_by_user[user], ds.purchase_counts_by_user[user], mode, build_iif(ds))


def neighbors(ds, target, k, mode):
    """The neighbour search for a dataset user, over the postings of every user's weights."""
    vectors = {u: dataset_weights(ds, u, mode) for u in ds.users}
    return top_k_neighbors(vectors[target], build_postings(vectors), k, exclude=target)


_ITEMS = ("P1", "P2", "P3", "P4")
_USERS = tuple(f"U{n}" for n in range(8))
_TIE_WEIGHTS = (0.0, 1.0, 2.0, 2.5)
# both zeros, exact ties, and floats down to the subnormals, whose squares can
# round to 0.0 while their products with a larger weight do not
_ANY_WEIGHT = st.one_of(st.sampled_from((0.0, -0.0, 1.0, 2.0, 2.5)), st.floats(0.0, 1e3))


def brute_force_scan(target, vectors, k, exclude):
    """The k best users by cosine_restricted over every vector, sorted by (-similarity, id)."""
    if not target:
        return []
    scan = sorted(
        ((u, cosine_restricted(target, v)) for u, v in vectors.items() if u != exclude),
        key=lambda e: (-e[1], e[0]),
    )
    return [(u, sim) for u, sim in scan if sim > 0.0][:k]


class TestCosineRestricted:
    def test_worked_values(self):
        target = vec(P1=4, P2=5, P3=6)
        full = vec(P1=5, P2=6, P4=7, P5=8)  # restricts to (5, 6, 0)
        overlapping = vec(P1=5, P2=6, P3=6, P4=2, P5=9)  # restricts to (5, 6, 6)
        assert cosine_restricted(target, full) == approx(0.7296, abs=5e-4)
        assert cosine_restricted(target, overlapping) == approx(0.9951, abs=5e-4)

    def test_self_similarity(self):
        v = vec(P1=3, P2=9, P3=1)
        assert cosine_restricted(v, v) == approx(1.0, abs=1e-12)

    def test_zero_norm_returns_zero(self):
        target = vec(P1=4, P2=5)
        assert cosine_restricted(target, vec(P9=7)) == 0.0

    def test_empty_target(self):
        with pytest.raises(NoProfileError):
            cosine_restricted({}, vec(P1=1))

    def test_range_and_scale_invariance(self):
        rng = random.Random(2)
        for _ in range(100):
            items = [f"I{i}" for i in range(6)]
            a = {i: rng.uniform(0, 10) for i in rng.sample(items, rng.randint(1, 6))}
            b = {i: rng.uniform(0, 10) for i in rng.sample(items, rng.randint(0, 6))}
            sim = cosine_restricted(a, b)
            assert 0.0 <= sim <= 1.0 + 1e-12
            c = rng.uniform(0.1, 20)
            scaled_a = {i: w * c for i, w in a.items()}
            scaled_b = {i: w * c for i, w in b.items()}
            assert cosine_restricted(scaled_a, b) == approx(sim, abs=1e-9)
            assert cosine_restricted(a, scaled_b) == approx(sim, abs=1e-9)

    def test_symmetric_on_shared_coordinates(self):
        rng = random.Random(3)
        for _ in range(50):
            items = [f"I{i}" for i in range(4)]
            a = {i: rng.uniform(0.1, 10) for i in items}
            b = {i: rng.uniform(0.1, 10) for i in items}
            assert cosine_restricted(a, b) == approx(cosine_restricted(b, a), abs=1e-12)


class TestProfileWeights:
    def dataset(self):
        from conftest import rate, tx
        from shoprec.corpus import Dataset

        # U1 bought P1 five times and P2 five times (ten purchases total)
        txns = [tx("U1", s, "P1") for s in range(1, 6)]
        txns += [tx("U1", s, "P2") for s in range(6, 11)]
        ratings = [rate("U1", "P1", 5.0), rate("U1", "P2", 8.0), rate("U1", "P3", 9.0)]
        return Dataset(transactions=txns, ratings=ratings)

    def test_simple_mode_is_identity(self):
        ds = self.dataset()
        assert dataset_weights(ds, "U1", "simple") == {"P1": 5.0, "P2": 8.0, "P3": 9.0}

    def test_method1_worked_component(self):
        # rating 5 (0.5 on the unit scale), n=5 of 10 purchases -> 5 * 5/10 = 2.5
        ds = self.dataset()
        w = dataset_weights(ds, "U1", "method1")
        assert w["P1"] == approx(2.5, abs=1e-12)
        assert w["P2"] == approx(8.0 * 5 / 10)

    def test_method2_direct_substitution(self):
        from conftest import rate, tx
        from shoprec.corpus import Dataset

        txns = [tx("U1", s, "P1") for s in range(1, 6)]  # n(P1) = 5
        txns += [tx("U1", s, "P2") for s in range(6, 14)]  # n(P2) = 8 = max
        ds = Dataset(transactions=txns, ratings=[rate("U1", "P1", 5.0)])
        assert dataset_weights(ds, "U1", "method2")["P1"] == approx(5 * 5 / 8)

    def test_rated_but_never_purchased_has_zero_weight(self):
        ds = self.dataset()
        for mode in ("method1", "method2"):
            assert dataset_weights(ds, "U1", mode).get("P3", 0.0) == 0.0

    def test_no_purchases_gives_zero_vector(self):
        from conftest import rate
        from shoprec.corpus import Dataset

        ds = Dataset(ratings=[rate("U1", "P1", 5.0)])
        assert not any(dataset_weights(ds, "U1", "method1").values())

    def test_unknown_user(self):
        with pytest.raises(NotFoundError):
            profile_of(self.dataset(), "nobody")

    def test_method1_weights_sum_identity(self):
        rng = random.Random(4)
        for _ in range(30):
            ds = random_dataset(rng)
            for user in ds.users:
                counts = ds.purchase_counts_by_user[user]
                ratings = ds.ratings_by_user[user]
                total = sum(counts.values())
                if total == 0:
                    continue
                expected = sum(r * counts.get(i, 0) for i, r in ratings.items()) / total
                got = sum(dataset_weights(ds, user, "method1").values())
                assert got == approx(expected, abs=1e-9)


class TestNeighborSearch:
    def test_worked_scenario(self, worked_example):
        found = neighbors(worked_example, "U3", k=1, mode="simple")
        assert found[0][0] == "U2"
        assert found[0][1] == approx(0.9951, abs=5e-4)

    def test_k_saturation(self, worked_example):
        found = neighbors(worked_example, "U3", k=50, mode="simple")
        assert [u for u, _ in found] == ["U2", "U1"]

    def test_tie_break_by_user_id(self):
        from conftest import rate
        from shoprec.corpus import Dataset

        ratings = [rate(u, "P1", 5.0) for u in ("U1", "UB", "UA")]
        ds = Dataset(ratings=ratings)
        found = neighbors(ds, "U1", k=2, mode="simple")
        assert [u for u, _ in found] == ["UA", "UB"]

    def test_no_profile(self):
        from conftest import rate
        from shoprec.corpus import Dataset

        ds = Dataset(
            users=["U1", "U2"], items=["P1"], ratings=[rate("U2", "P1", 5.0)]
        )
        with pytest.raises(NoProfileError):
            Recommender(ds, RecommenderConfig(k_neighbors=1, mode="simple")).recommend_user("U1")

    def test_matches_brute_force_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            ds = random_dataset(rng, n_users=5, n_items=6)
            for target in ds.users:
                ratings = ds.ratings_by_user[target]
                if not any(v != 0 for v in ratings.values()):
                    continue
                got = neighbors(ds, target, k=4, mode="simple")
                scan = sorted(
                    ((u, _oracle_cosine(ratings, ds.ratings_by_user[u])) for u in ds.users if u != target),
                    key=lambda e: (-e[1], e[0]),
                )
                expected = [(u, sim) for u, sim in scan if sim > 0.0][:4]
                assert [u for u, _ in got] == [u for u, _ in expected]
                for (_, s1), (_, s2) in zip(got, expected):
                    assert s1 == approx(s2, abs=1e-12)


class TestTopKNeighbors:
    @settings(max_examples=300, deadline=None)
    @given(ds=small_datasets(), mode=st.sampled_from(MODES), k=st.integers(1, 10), data=st.data())
    def test_equals_brute_force_scan(self, ds, mode, k, data):
        """Exact equality with scoring every user by cosine_restricted and sorting.

        k ranges past the user count, so it often exceeds the overlapping users.
        """
        iif = build_iif(ds)
        vectors = {
            u: profile_weights(ds.ratings_by_user[u], ds.purchase_counts_by_user[u], mode, iif)
            for u in ds.users
        }
        target = data.draw(st.sampled_from(ds.users))
        exclude = data.draw(st.sampled_from([target, None]))
        got = top_k_neighbors(vectors[target], build_postings(vectors), k, exclude=exclude)
        assert got == brute_force_scan(vectors[target], vectors, k, exclude)

    @settings(max_examples=300, deadline=None)
    @given(
        target=st.dictionaries(st.sampled_from(_ITEMS), st.sampled_from(_TIE_WEIGHTS), min_size=1),
        vectors=st.dictionaries(
            st.sampled_from(_USERS), st.dictionaries(st.sampled_from(_ITEMS), st.sampled_from(_TIE_WEIGHTS))
        ),
        k=st.integers(1, 10),
        exclude=st.sampled_from(_USERS + (None,)),
    )
    def test_equals_brute_force_scan_with_exact_ties(self, target, vectors, k, exclude):
        """Few distinct weights make equal similarities, and ties at the k-th value, common."""
        got = top_k_neighbors(target, build_postings(vectors), k, exclude=exclude)
        expected = brute_force_scan(target, vectors, k, exclude)
        assert got == expected
        assert [(u, sim.hex()) for u, sim in got] == [(u, sim.hex()) for u, sim in expected]

    @settings(max_examples=300, deadline=None)
    @given(
        target=st.dictionaries(st.sampled_from(_ITEMS), _ANY_WEIGHT, min_size=1),
        vectors=st.dictionaries(
            st.sampled_from(_USERS), st.dictionaries(st.sampled_from(_ITEMS), _ANY_WEIGHT)
        ),
        k=st.integers(1, 10),
        exclude=st.sampled_from(_USERS + ("U9", None)),
    )
    def test_both_accumulators_give_the_same_bits(self, target, vectors, k, exclude):
        """The slot lists and the slot dict, each forced on the query, give the answer that
        the shape rule picks and the brute-force scan, bit for bit."""
        postings = build_postings(vectors)
        answers = [top_k_neighbors(target, postings, k, exclude=exclude), brute_force_scan(target, vectors, k, exclude)]
        in_dict, in_lists, n = similarity._in_dict, similarity._in_lists, len(postings.users)
        for name, forced in (
            ("_in_lists", lambda hits, _n: in_dict(hits)),
            ("_in_dict", lambda hits: in_lists(hits, n)),
        ):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(similarity, name, forced)
                answers.append(top_k_neighbors(target, postings, k, exclude=exclude))
        picked, *others = [[(u, sim.hex()) for u, sim in answer] for answer in answers]
        assert all(other == picked for other in others)

    def test_exact_tie_keeps_the_smallest_ids(self):
        postings = build_postings({u: {"P1": 2.0} for u in ("U7", "U3", "U6", "U1", "U5", "U2", "U4")})
        got = top_k_neighbors({"P1": 1.0}, postings, 5)
        assert got == [(u, 1.0) for u in ("U1", "U2", "U3", "U4", "U5")]

    def test_zero_weight_overlap_is_absent(self):
        """A candidate with a zero dot, from its own 0.0 weight or the target's, never ranks."""
        postings = build_postings({"Z": {"P1": 0.0}, "A": {"P1": 1.0}, "Y": {"P2": 3.0}})
        got = top_k_neighbors({"P1": 1.0, "P2": 0.0}, postings, 5)
        assert got == [("A", 1.0)]

    def test_overflowing_target_norm_gives_nothing(self):
        # the target's norm is inf: A scores 0.0, and B, whose dot and norm are inf, scores NaN
        postings = build_postings({"A": {"P1": 1.0}, "B": {"P1": 1e200}})
        assert top_k_neighbors({"P1": 1e200}, postings, 5) == []

    def test_k_beyond_the_candidates_returns_them_all(self):
        postings = build_postings({"A": {"P1": 1.0}, "B": {"P1": 2.0, "P2": 1.0}, "C": {"P2": 4.0}})
        got = top_k_neighbors({"P1": 1.0, "P2": 1.0}, postings, 10)
        # A and C tie exactly: 4 / (root_t * 4) is 1 / root_t
        assert got == [("B", 3 / (math.sqrt(2) * math.sqrt(5))), ("A", 1 / math.sqrt(2)), ("C", 1 / math.sqrt(2))]

    def test_excluding_the_best_neighbour(self):
        postings = build_postings({"A": {"P1": 1.0}, "B": {"P1": 2.0, "P2": 1.0}, "C": {"P2": 4.0}})
        got = top_k_neighbors({"P1": 1.0, "P2": 1.0}, postings, 2, exclude="B")
        assert [u for u, _ in got] == ["A", "C"]

    @settings(max_examples=50, deadline=None)
    @given(ds=small_datasets())
    def test_posting_lists_are_untracked_dicts(self, ds):
        """A posting list holds no object the garbage collector must walk."""
        for mode in MODES:
            for posting in Recommender(ds, RecommenderConfig(mode=mode))._postings.lists.values():
                assert type(posting) is dict
                assert not gc.is_tracked(posting)


# Run in a fresh interpreter: the other tests' modules hold records of their own.
_ROWS_UNTRACKED = """
import gc, tempfile
from pathlib import Path
from shoprec.corpus import (
    RatingRecord, SyntheticConfig, Transaction, generate_synthetic, load_dataset,
    save_ratings, save_transactions, split_users,
)
from shoprec.recommend import Recommender, RecommenderConfig, profile_of
from shoprec.similarity import MODES

with tempfile.TemporaryDirectory() as tmp:
    tp, rp = Path(tmp) / "t.csv", Path(tmp) / "r.csv"
    made = generate_synthetic(SyntheticConfig(users_per_class=10, rng_seed=5))
    save_transactions(made, tp)
    save_ratings(made, rp)
    del made
    loaded = load_dataset(tp, rp)
train, test = split_users(loaded, 0.8, 42)
for mode in MODES:
    engine = Recommender(train, RecommenderConfig(mode=mode, minsup_pct=1.0, minconf_pct=10.0))
    assert engine.recommend_profile(profile_of(test, test.users[0]))
# a row is untracked only once its items tuple is, and one collection may
# examine the row first (Python 3.13.0 left 644 of these rows tracked)
gc.collect()
gc.collect()
records = sum(type(o) in (Transaction, RatingRecord) for o in gc.get_objects())
rows = [row for ds in (loaded, train, test) for row in (*ds.transaction_rows, *ds.rating_rows)]
print(records, sum(map(gc.is_tracked, rows)), len(rows))
"""


def test_dataset_rows_are_left_to_the_collector():
    """Load, split, four engines and a query each leave no record alive and every row untracked."""
    src = str(Path(shoprec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _ROWS_UNTRACKED], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    records, tracked, rows = map(int, out.stdout.split())
    assert (records, tracked) == (0, 0) and rows > 1000


def _oracle_cosine(target_ratings, other_ratings):
    """Independent restricted-cosine computation from raw rating dicts."""
    dot = sum(tv * other_ratings.get(i, 0.0) for i, tv in target_ratings.items())
    nt = math.sqrt(sum(v * v for v in target_ratings.values()))
    no = math.sqrt(sum(other_ratings.get(i, 0.0) ** 2 for i in target_ratings))
    if nt == 0 or no == 0:
        return 0.0
    return dot / (nt * no)
