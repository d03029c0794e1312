import math
import random

import pytest
from pytest import approx

from shoprec.corpus import Dataset
from shoprec.errors import NotFoundError
from shoprec.implicit_vsm import build_iif, new_user_scores
from shoprec.recommend import profile_of
from shoprec.similarity import build_postings, profile_weights

from conftest import random_dataset, rate, tx


def nine_user_dataset():
    """Nine users; IA bought by five of them, IB by two, IC by all nine."""
    txns = []
    for i in range(1, 6):
        txns.append(tx(f"U{i}", 1, "IA"))
    for i in range(1, 3):
        txns.append(tx(f"U{i}", 2, "IB"))
    for i in range(1, 10):
        txns.append(tx(f"U{i}", 3, "IC"))
    users = [f"U{i}" for i in range(1, 10)]
    return Dataset(users=users, items=["IA", "IB", "IC", "IZ"], transactions=txns)


def implicit_weights(ds, iif, user):
    """A dataset user's implicit-mode weight map."""
    return profile_weights(ds.ratings_by_user[user], ds.purchase_counts_by_user[user], "implicit", iif)


class TestBuildIif:
    def test_direct_substitution(self):
        ds = nine_user_dataset()
        table = build_iif(ds)
        assert len(ds.users) == 9
        assert table["IA"] == approx(math.log(10 / 5))
        assert table["IC"] == approx(math.log(10 / 9))

    def test_rarer_items_weigh_more(self):
        table = build_iif(nine_user_dataset())
        assert table["IB"] > table["IA"] > table["IC"] > 0.0

    def test_never_purchased_absent(self):
        table = build_iif(nine_user_dataset())
        assert "IZ" not in table

    def test_empty_dataset(self):
        assert build_iif(Dataset()) == {}

    def test_positivity_and_monotonicity(self):
        rng = random.Random(6)
        for _ in range(30):
            ds = random_dataset(rng, n_users=6, n_items=5, with_ratings=False)
            if not ds.users:
                continue
            table = build_iif(ds)
            assert all(v > 0 for v in table.values())
            pairs = sorted(ds.purchaser_counts.items(), key=lambda e: e[1])
            for (i1, c1), (i2, c2) in zip(pairs, pairs[1:]):
                if c1 < c2:
                    assert table[i1] > table[i2]


class TestImplicitWeights:
    def test_count_times_iif(self):
        # target buys IA in three separate transactions; five of nine buy IA
        txns = [tx("U1", s, "IA") for s in (1, 2, 3)]
        txns += [tx(f"U{i}", 1, "IA") for i in range(2, 6)]
        users = [f"U{i}" for i in range(1, 10)]
        ds = Dataset(users=users, items=["IA"], transactions=txns)
        table = build_iif(ds)
        assert implicit_weights(ds, table, "U1")["IA"] == approx(3 * math.log(2))

    def test_no_purchases(self):
        ds = nine_user_dataset()
        # U9 purchased only IC
        assert set(implicit_weights(ds, build_iif(ds), "U9")) == {"IC"}
        ds2 = Dataset(users=["U1", "U2"], items=["IA"], transactions=[tx("U1", 1, "IA")])
        assert implicit_weights(ds2, build_iif(ds2), "U2") == {}

    def test_unknown_user(self):
        ds = nine_user_dataset()
        with pytest.raises(NotFoundError):
            profile_of(ds, "nobody")

    def test_matches_recount_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            ds = random_dataset(rng, n_users=4, n_items=5, with_ratings=False)
            if not ds.users:
                continue
            table = build_iif(ds)
            for user in ds.users:
                got = implicit_weights(ds, table, user)
                # independent two-pass recount straight from the transactions
                counts = {}
                for t in ds.transactions:
                    if t.user == user:
                        for i in t.items:
                            counts[i] = counts.get(i, 0) + 1
                buyers = {}
                for t in ds.transactions:
                    for i in t.items:
                        buyers.setdefault(i, set()).add(t.user)
                expected = {
                    i: n * math.log((1 + len(ds.users)) / len(buyers[i]))
                    for i, n in counts.items()
                }
                assert set(got) == set(expected)
                for i in expected:
                    assert got[i] == approx(expected[i], abs=1e-12)


def test_neighbor_search_uses_same_kernel_in_implicit_mode():
    """Implicit vectors flow through the identical restricted-cosine ranking."""
    from shoprec.similarity import top_k_neighbors

    from oracles import cosine_restricted

    rng = random.Random(20)
    for _ in range(20):
        ds = random_dataset(rng, n_users=5, n_items=5, with_ratings=False)
        if not ds.users:
            continue
        table = build_iif(ds)
        postings = build_postings({u: implicit_weights(ds, table, u) for u in ds.users})
        for target in ds.users:
            tv = implicit_weights(ds, table, target)
            if not any(tv.values()):
                continue
            got = top_k_neighbors(tv, postings, 4, exclude=target)
            scan = sorted(
                (
                    (u, cosine_restricted(tv, implicit_weights(ds, table, u)))
                    for u in ds.users
                    if u != target
                ),
                key=lambda e: (-e[1], e[0]),
            )
            expected = [(u, sim) for u, sim in scan if sim > 0.0][:4]
            assert got == expected


class TestNewUserScores:
    def test_direct_values_and_order(self):
        scores = dict(new_user_scores(nine_user_dataset()))
        assert scores["IA"] == approx(math.log(5 / 10))
        assert scores["IB"] == approx(math.log(2 / 10))
        order = [i for i, _ in new_user_scores(nine_user_dataset())]
        assert order == ["IC", "IA", "IB"]  # most purchased first

    def test_tie_break_is_item_id(self):
        txns = [tx("U1", 1, "IB"), tx("U1", 2, "IA"), tx("U2", 1, "IB"), tx("U2", 2, "IA")]
        ds = Dataset(transactions=txns)
        assert [i for i, _ in new_user_scores(ds)] == ["IA", "IB"]

    def test_no_purchases_empty(self):
        ds = Dataset(ratings=[rate("U1", "P1", 5)])
        assert new_user_scores(ds) == []

    def test_equals_popularity_oracle(self):
        rng = random.Random(8)
        for _ in range(100):
            ds = random_dataset(rng, n_users=6, n_items=7, with_ratings=False)
            got = [i for i, _ in new_user_scores(ds)]
            buyers = {}
            for t in ds.transactions:
                for i in t.items:
                    buyers.setdefault(i, set()).add(t.user)
            expected = sorted(buyers, key=lambda i: (-len(buyers[i]), i))
            assert got == expected
