import pathlib
import random
import sys

import pytest
from hypothesis import strategies as st

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from shoprec.corpus import Dataset, RatingRecord, Transaction  # noqa: E402


def tx(user, seq, *items, tid=None):
    return Transaction(tid=tid or f"{user}-{seq}", user=user, seq=seq, items=tuple(items))


def rate(user, item, value):
    return RatingRecord(user=user, item=item, value=float(value))


# The classic five-row market-basket table, one user per transaction id.
TABLE1_ROWS = [
    ("100", ("P1", "P2")),
    ("200", ("P1", "P2", "P4")),
    ("300", ("P1", "P4")),
    ("400", ("P5", "P4")),
    ("500", ("P1", "P5")),
]

TABLE1_CSV = (
    "tid,user,seq,items\n"
    "100,UA,1,P1;P2\n"
    "200,UB,1,P1;P2;P4\n"
    "300,UC,1,P1;P4\n"
    "400,UD,1,P5;P4\n"
    "500,UE,1,P1;P5\n"
)


@pytest.fixture
def table1():
    users = ["UA", "UB", "UC", "UD", "UE"]
    txns = [
        Transaction(tid=tid, user=u, seq=1, items=items)
        for (tid, items), u in zip(TABLE1_ROWS, users)
    ]
    return Dataset(transactions=txns)


@pytest.fixture
def worked_example():
    """Three users on five products; the target U3 rated only the first three.

    Purchases are sequenced so P5 follows P3 in the training stream, which
    lets the sequence filter pass P5 for U3.
    """
    ratings = []
    for user, vals in [
        ("U1", {"P1": 5, "P2": 6, "P4": 7, "P5": 8}),
        ("U2", {"P1": 5, "P2": 6, "P3": 6, "P4": 2, "P5": 9}),
        ("U3", {"P1": 4, "P2": 5, "P3": 6}),
    ]:
        ratings.extend(rate(user, item, value) for item, value in vals.items())
    txns = []
    for user, sequence in [
        ("U1", ["P1", "P2", "P4", "P5"]),
        ("U2", ["P1", "P2", "P3", "P4", "P5"]),
        ("U3", ["P1", "P2", "P3"]),
    ]:
        txns.extend(tx(user, seq, item) for seq, item in enumerate(sequence, start=1))
    return Dataset(transactions=txns, ratings=ratings)


@pytest.fixture
def physics():
    """One training user bought the four-volume series strictly in order."""
    txns = [tx("A", i, f"Ph{i}") for i in (1, 2, 3, 4)]
    ratings = [rate("A", f"Ph{i}", 9.0) for i in (1, 2, 3, 4)]
    return Dataset(transactions=txns, ratings=ratings)


def random_dataset(rng: random.Random, n_users=5, n_items=6, max_txns=4, max_basket=3, with_ratings=True):
    """Small random dataset for property tests; structurally valid by construction."""
    users = [f"U{i}" for i in range(1, n_users + 1)]
    items = [f"I{i}" for i in range(1, n_items + 1)]
    txns = []
    ratings = []
    for user in users:
        for seq in range(1, rng.randint(0, max_txns) + 1):
            basket = rng.sample(items, rng.randint(1, max_basket))
            txns.append(tx(user, seq, *basket))
        if with_ratings:
            for item in rng.sample(items, rng.randint(0, n_items)):
                ratings.append(rate(user, item, round(rng.uniform(0, 10), 1)))
    return Dataset(users=users, items=items, transactions=txns, ratings=ratings)


# Few distinct values, 0 included, so that zero coordinates and tied
# similarities (identical or proportional profiles) are common.
RATING_VALUES = st.sampled_from([0.0, 2.5, 5.0, 10.0])


@st.composite
def small_datasets(draw):
    # ids whose sort order differs from their creation order, so that a tie
    # broken by first appearance in the postings shows
    users = draw(st.lists(st.sampled_from("ZAQMBXC"), min_size=1, max_size=7, unique=True))
    items = [f"I{i}" for i in range(draw(st.integers(1, 5)))]
    ratings, txns = [], []
    for user in users:
        for item in draw(st.lists(st.sampled_from(items), unique=True)):
            ratings.append(rate(user, item, draw(RATING_VALUES)))
        baskets = draw(st.lists(st.lists(st.sampled_from(items), min_size=1, max_size=3, unique=True), max_size=4))
        txns.extend(tx(user, seq, *basket) for seq, basket in enumerate(baskets, start=1))
    return Dataset(users=users, items=items, transactions=txns, ratings=ratings)


@st.composite
def rule_datasets(draw):
    """Denser than small_datasets: every user rates an item and buys, so neighbours
    pick items and rules expand them far more often."""
    users = draw(st.lists(st.sampled_from("ZAQMBXC"), min_size=2, max_size=7, unique=True))
    items = [f"I{i}" for i in range(draw(st.integers(3, 6)))]
    ratings, txns = [], []
    for user in users:
        for item in draw(st.lists(st.sampled_from(items), min_size=1, unique=True)):
            ratings.append(rate(user, item, draw(st.sampled_from([2.5, 5.0, 7.5, 10.0]))))
        baskets = draw(st.lists(st.lists(st.sampled_from(items), min_size=1, max_size=3, unique=True), min_size=1, max_size=4))
        txns.extend(tx(user, seq, *basket) for seq, basket in enumerate(baskets, start=1))
    return Dataset(users=users, items=items, transactions=txns, ratings=ratings)
