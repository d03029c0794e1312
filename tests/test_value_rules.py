"""Each value rule stated once: every entry point checks its values against one rule table.

A count, a percentage, a train fraction, a seed, a rating threshold, a stored
rating and a profile purchase count each have one predicate and one wording
in ``shoprec.corpus``, and a similarity mode has one in ``shoprec.similarity``.
Every config, record, profile and public function that takes such a value
checks it there, so a value that breaks the rule raises
the entry point's documented error class with the message ``"{name} must be
{rule}, got {value}"``, and never a bare TypeError, ValueError or
OverflowError. An int too long for ``str()`` is named by its size. A user id
given to be left out of the neighbours obeys the id rule, whose message is
``invalid user id {value}``. The ``users`` and ``items`` given to a
``Dataset`` obey the collection rule of its records: a bytes-like value
(``bytes``, ``bytearray``, ``memoryview``) or a mapping is not a collection of
ids. So do the relevant items given to ``precision_at_n`` and
``recall_at_n``, and their recommended items are a sequence of ids: a
string, a bytes-like value or a set is not one. Every id in either obeys the
id rule, whose message is ``invalid item id {value}``.
"""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprec.corpus import Dataset, SyntheticConfig, split_users
from shoprec.errors import (
    ConfigError,
    IntegrityError,
    MetricUndefinedError,
    NoProfileError,
    NotFoundError,
    RangeError,
    ShoprecError,
)
from shoprec.evaluate import ExperimentConfig, precision_at_n, recall_at_n
from shoprec.recommend import Profile, Recommender, RecommenderConfig, cold_start

HUGE = 10**5000  # more digits than str() converts by default
MEMORY = memoryview(b"P1")  # its repr names its address, so one object serves the test and its message

DS = Dataset(
    transactions=[("T1", "U1", 1, ("P1", "P2")), ("T2", "U2", 1, ("P1",))],
    ratings=[("U1", "P1", 8.0), ("U2", "P2", 5.0)],
)
ENGINE = Recommender(DS, RecommenderConfig())
QUERY = Profile({"P1": 8.0}, {"P1": 1})


def config_field(config, name):
    return lambda value: config(**{name: value})


# entry point -> (a call that passes it the value, the error class it documents)
ENTRY_POINTS = {
    **{
        f"{config.__name__}.{name}": (config_field(config, name), ConfigError)
        for config, names in (
            (RecommenderConfig, "mode k_neighbors top_n minsup_pct minconf_pct exclusion_threshold"),
            (ExperimentConfig, "train_fraction top_n seed k_neighbors minsup_pct minconf_pct exclusion_threshold"),
            (SyntheticConfig, "num_classes num_items rng_seed"),
        )
        for name in names.split()
    },
    "ExperimentConfig.modes": (lambda v: ExperimentConfig(modes=(v,)), ConfigError),  # one mode of the protocol
    "split_users.train_fraction": (lambda v: split_users(DS, v, 0), RangeError),
    "split_users.seed": (lambda v: split_users(DS, 0.5, v), RangeError),
    "cold_start.top_n": (lambda v: cold_start(DS, v), RangeError),
    "precision_at_n.n": (lambda v: precision_at_n(["P1", "P2"], ["P1"], v), RangeError),
    "recall_at_n.n": (lambda v: recall_at_n(["P1", "P2"], ["P1"], v), RangeError),
    "precision_at_n.recommended": (lambda v: precision_at_n(v, ["P1"], 1), IntegrityError),
    "precision_at_n.relevant": (lambda v: precision_at_n(["P1"], v, 1), IntegrityError),
    "recall_at_n.recommended": (lambda v: recall_at_n(v, ["P1"], 1), IntegrityError),
    # an empty collection obeys the rule, and has no recall
    "recall_at_n.relevant": (lambda v: recall_at_n(["P1"], v, 1), (IntegrityError, MetricUndefinedError)),
    "Profile.rating": (lambda v: Profile({"P1": v}), RangeError),
    "Profile.purchase_count": (lambda v: Profile({}, {"P1": v}), RangeError),
    "Profile.ratings": (lambda v: Profile(v), IntegrityError),
    "Dataset.rating": (lambda v: Dataset(ratings=[("U1", "P1", v)]), RangeError),
    "Dataset.seq": (
        lambda v: Dataset(transactions=[("T1", "U1", v, ("P1",)), ("T2", "U1", v, ("P2",))]),
        IntegrityError,
    ),
    "Dataset.user": (lambda v: Dataset(ratings=[(v, "P1", 5.0)]), IntegrityError),
    "Dataset.transactions": (lambda v: Dataset(transactions=v), IntegrityError),
    "Dataset.users": (lambda v: Dataset(users=v, ratings=[("U1", "P1", 5.0)]), IntegrityError),
    "Dataset.items": (lambda v: Dataset(items=v, ratings=[("U1", "P1", 5.0)]), IntegrityError),
    "Recommender.recommend_user": (lambda v: ENGINE.recommend_user(v), NotFoundError),
    "Recommender.recommend_profile.exclude_user": (lambda v: ENGINE.recommend_profile(QUERY, v), IntegrityError),
}

VALUES = {
    "true": True,
    "2.5": 2.5,
    "str": "5",
    "half": Fraction(1, 2),
    "nan": math.nan,
    "huge": HUGE,
    "-huge": -HUGE,
    "list": ["U1"],  # unhashable
    "mapping": {"U1": 3, "P1": 3},
    "bytearray": bytearray(b"P1"),
    "memoryview": MEMORY,
}

# entry point -> the VALUES it once took, or failed on partway with a bare
# TypeError, or failed on with a bare ValueError while building its message
DIVERGED = {
    **{f"RecommenderConfig.{name}": ["-huge"] for name in ("k_neighbors", "top_n")},
    **{f"RecommenderConfig.{name}": ["huge", "-huge"] for name in ("minsup_pct", "minconf_pct", "exclusion_threshold")},
    **{f"ExperimentConfig.{name}": ["-huge"] for name in ("top_n", "k_neighbors")},
    **{
        f"ExperimentConfig.{name}": ["huge", "-huge"]
        for name in ("train_fraction", "minsup_pct", "minconf_pct", "exclusion_threshold")
    },
    **{f"SyntheticConfig.{name}": ["-huge"] for name in ("num_classes", "num_items")},
    "split_users.train_fraction": ["huge", "-huge"],
    "cold_start.top_n": ["-huge"],
    "precision_at_n.n": ["true", "2.5", "str", "nan", "-huge"],
    "recall_at_n.n": ["true", "2.5", "str", "nan", "-huge"],
    # a string or a mapping was read as its characters or keys, a bytes-like value as its bytes (each an
    # int, so no hit), any other value failed with a bare TypeError
    **{
        f"{metric}.{name}": ["true", "2.5", "str", "half", "nan", "huge", "-huge", "mapping", "bytearray", "memoryview"]
        for metric in ("precision_at_n", "recall_at_n")
        for name in ("recommended", "relevant")
    },
    "Profile.rating": ["true", "half", "huge", "-huge"],
    "Profile.purchase_count": ["-huge"],
    "Profile.ratings": ["huge", "-huge"],
    "Dataset.rating": ["huge", "-huge"],
    "Dataset.seq": ["huge", "-huge"],
    "Dataset.user": ["huge", "-huge"],
    "Dataset.transactions": ["huge", "-huge"],
    **{entry: ["mapping"] for entry in ("Dataset.users", "Dataset.items")},  # its keys were taken as the ids
    "Recommender.recommend_user": ["huge", "-huge"],
    "Recommender.recommend_profile.exclude_user": ["true", "2.5", "half", "nan", "huge", "-huge", "list"],
}

# entry point -> the VALUES that a layer function (the neighbour search, the
# vector builder, the miner) once refused as well, and that only the boundary
# refuses now: each engine and protocol config checks its mode, neighbour
# count and rule thresholds before any layer sees them
CHECKED_ONLY_HERE = {
    **{
        f"{config}.{name}": labels
        for config in ("RecommenderConfig", "ExperimentConfig")
        for name, labels in (
            ("k_neighbors", ["true", "2.5", "str", "nan"]),
            ("minsup_pct", ["true", "str"]),
            ("minconf_pct", ["true", "str"]),
        )
    },
    **{
        entry: ["true", "2.5", "str", "half", "nan", "huge", "-huge", "list"]
        for entry in ("RecommenderConfig.mode", "ExperimentConfig.modes")
    },
}


@pytest.mark.parametrize(
    "entry, value",
    [
        pytest.param(entry, VALUES[label], id=f"{entry}-{label}")
        for table in (DIVERGED, CHECKED_ONLY_HERE)
        for entry in table
        for label in table[entry]
    ],
)
def test_a_value_that_breaks_the_rule_raises_the_documented_class(entry, value):
    call, error = ENTRY_POINTS[entry]
    with pytest.raises(error):
        call(value)


RATING = "an int or a float in [0, 10]"
HUGE_SIZE = "int of 16610 bits"  # HUGE's bit_length()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RecommenderConfig(k_neighbors=-HUGE), f"k_neighbors must be an int >= 1, got a negative {HUGE_SIZE}"),
        (lambda: cold_start(DS, -HUGE), f"top_n must be an int >= 1, got a negative {HUGE_SIZE}"),
        (lambda: RecommenderConfig(k_neighbors=2.5), "k_neighbors must be an int >= 1, got 2.5"),
        (lambda: RecommenderConfig(k_neighbors=math.nan), "k_neighbors must be an int >= 1, got nan"),
        (lambda: RecommenderConfig(minsup_pct=True), "minsup_pct must be a real in (0, 100], got True"),
        (
            lambda: RecommenderConfig(mode="bogus"),
            "mode must be one of ('simple', 'method1', 'method2', 'implicit'), got 'bogus'",
        ),
        (
            lambda: ExperimentConfig(modes=(2.5,)),
            "mode must be one of ('simple', 'method1', 'method2', 'implicit'), got 2.5",
        ),
        (lambda: ENGINE.recommend_profile(QUERY, ["U1"]), "invalid user id ['U1']"),
        (lambda: Profile({"I1": HUGE}), f"item I1: rating must be {RATING}, got an {HUGE_SIZE}"),
        (
            lambda: Profile({"I1": Fraction(HUGE, 3)}),
            f"item I1: rating must be {RATING}, got a Fraction too long to show",
        ),
        (lambda: Profile({"I1": Fraction(17, 2)}), f"item I1: rating must be {RATING}, got Fraction(17, 2)"),
        (
            lambda: Dataset(transactions=[("T1", "U1", HUGE, ("P1",)), ("T2", "U1", HUGE, ("P2",))]),
            f"duplicate seq an {HUGE_SIZE} for user U1",
        ),
        # each byte was once checked as an id: "invalid user id 85"
        (lambda: Dataset(users=b"U1", ratings=[("U1", "P1", 5.0)]), "users must be a collection of ids, got b'U1'"),
        (lambda: Dataset(items=b"P1", ratings=[("U1", "P1", 5.0)]), "items must be a collection of ids, got b'P1'"),
        (
            lambda: Dataset(users=bytearray(b"U1"), ratings=[("U1", "P1", 5.0)]),
            "users must be a collection of ids, got bytearray(b'U1')",
        ),
        (
            lambda: Dataset(items=MEMORY, ratings=[("U1", "P1", 5.0)]),
            f"items must be a collection of ids, got {MEMORY!r}",
        ),
        # each byte was read as an int, which no list holds: 0.0
        (
            lambda: precision_at_n(bytearray(b"a"), ["a"], 1),
            "recommended must be a sequence of ids, got bytearray(b'a')",
        ),
        (lambda: recall_at_n(["a"], bytearray(b"a"), 1), "relevant must be a collection of ids, got bytearray(b'a')"),
        (lambda: precision_at_n(MEMORY, ["P1"], 1), f"recommended must be a sequence of ids, got {MEMORY!r}"),
        # read as the items a, b and c: recall 33.3
        (lambda: recall_at_n(["a"], "abc", 1), "relevant must be a collection of ids, got 'abc'"),
        (lambda: precision_at_n(None, ["a"], 1), "recommended must be a sequence of ids, got None"),  # once 0.0
        # once a bare TypeError: 'NoneType' object is not iterable
        (lambda: precision_at_n(["a"], None, 1), "relevant must be a collection of ids, got None"),
        # once a bare TypeError at the slice
        (lambda: precision_at_n({"a"}, ["a"], 1), "recommended must be a sequence of ids, got {'a'}"),
        # once a bare TypeError: unhashable type: 'list'
        (lambda: precision_at_n(["a"], [["x"]], 1), "invalid item id ['x']"),
        (lambda: recall_at_n([["x"]], ["a"], 1), "invalid item id ['x']"),
        (lambda: precision_at_n([5], ["a"], 1), "invalid item id 5"),  # once 0.0
        (lambda: recall_at_n([""], [""], 1), "invalid item id ''"),  # once 100.0
    ],
    ids=[
        "config",
        "cold-start",
        "k",
        "k-nan",
        "minsup",
        "mode",
        "one-mode",
        "exclude",
        "rating-huge",
        "rating-huge-fraction",
        "rating-fraction",
        "seq",
        "users-bytes",
        "items-bytes",
        "users-bytearray",
        "items-memoryview",
        "recommended-bytearray",
        "relevant-bytearray",
        "recommended-memoryview",
        "relevant-str",
        "recommended-none",
        "relevant-none",
        "recommended-set",
        "relevant-list-id",
        "recommended-list-id",
        "recommended-int-id",
        "empty-ids",
    ],
)
def test_one_message_form_names_every_value(call, message):
    with pytest.raises(ShoprecError, match=f"^{re.escape(message)}$"):
        call()


def test_an_empty_profile_is_reported_before_a_bad_user_to_leave_out():
    with pytest.raises(NoProfileError):
        ENGINE.recommend_profile(Profile(), ["U1"])


VALUES_OF_EVERY_KIND = st.one_of(
    st.integers(),
    st.sampled_from([HUGE, -HUGE, 2**53, 2**53 + 1, Fraction(HUGE, 3)]),
    st.floats(),  # nan and both infinities among them
    st.booleans(),
    st.fractions(),
    st.decimals(),  # NaN, sNaN and infinities among them
    st.text(max_size=4),
    st.none(),
    st.lists(st.text(max_size=2), max_size=2),  # unhashable
)


@settings(max_examples=400, deadline=None)
@given(entry=st.sampled_from(sorted(ENTRY_POINTS)), value=VALUES_OF_EVERY_KIND)
def test_every_value_succeeds_or_raises_a_package_error(entry, value):
    call, error = ENTRY_POINTS[entry]
    try:
        call(value)
    except ShoprecError as exc:  # a TypeError, ValueError or OverflowError fails the test
        assert isinstance(exc, error), f"{entry} raised {type(exc).__name__}: {exc}"
