"""Valid by construction: configs and datasets check themselves once, when made.

Each config checks its fields in ``__post_init__`` and is frozen, so a config
that exists is valid and stays so; ``dataclasses.replace`` checks the copy.
The ``Dataset`` constructor checks each record's shape, and its field types
in the walks the loaders share. A bad value fails at construction with
ConfigError, IntegrityError or RangeError, never with a bare TypeError or
ValueError, and never later.
"""

import dataclasses
import math
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprec import cli
from shoprec.corpus import Dataset, RatingRecord, SyntheticConfig, Transaction, generate_synthetic
from shoprec.corpus import save_ratings, save_transactions, split_users
from shoprec.errors import ConfigError, IntegrityError, NoProfileError, RangeError
import shoprec.evaluate
from shoprec.evaluate import ExperimentConfig, run_experiment
from shoprec.recommend import Recommender, RecommenderConfig, cold_start, profile_of
from shoprec.similarity import MODES

from conftest import rate, small_datasets, tx

# Values of no field's type: none is an int, a float or a bool.
JUNK = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.binary(max_size=2),
    st.lists(st.integers(), max_size=2),
    st.decimals(allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=10),
    st.builds(object),
)


def not_an_int_at_least(lo: int):
    """Values an ``int >= lo`` field may not hold."""
    return st.one_of(
        JUNK,
        st.booleans(),
        st.integers(max_value=lo - 1),
        st.floats(),
        st.integers(lo, 9).map(float),
        st.integers(lo, 9).map(str),
    )


def not_a_real_within(lo: float, hi: float, lo_open: bool = False, hi_open: bool = False):
    """Values a real field within [lo, hi], or (lo, ...) / (..., hi) when open, may not hold."""
    return st.one_of(
        JUNK,
        st.booleans(),
        st.floats(max_value=lo, exclude_max=not lo_open),
        st.floats(min_value=hi, exclude_min=not hi_open),
        st.just(math.nan),
        st.floats(lo, hi).map(str),
    )


NOT_AN_INT = st.one_of(JUNK, st.booleans(), st.floats(), st.integers().map(str))
NOT_A_MODE = st.one_of(JUNK, st.text()).filter(lambda v: v not in MODES)

ENGINE_FIELDS = {
    "k_neighbors": not_an_int_at_least(1),
    "top_n": not_an_int_at_least(1),
    "minsup_pct": not_a_real_within(0, 100, lo_open=True),
    "minconf_pct": not_a_real_within(0, 100, lo_open=True),
    "exclusion_threshold": not_a_real_within(0, 10),
}

SPANS = st.one_of(
    JUNK,
    st.lists(st.integers(0, 9), min_size=2, max_size=2),  # a list, not a tuple
    st.tuples(st.integers(0, 9)),
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.integers(0, 9), st.one_of(JUNK, st.booleans(), st.floats())),
    st.tuples(st.integers(max_value=-1), st.integers(0, 9)),
    st.tuples(st.integers(1, 9), st.integers(0, 8)).filter(lambda span: span[1] < span[0]),
)

BAD_FIELDS = {
    RecommenderConfig: {
        "mode": NOT_A_MODE,
        **ENGINE_FIELDS,
    },
    ExperimentConfig: {
        "train_fraction": not_a_real_within(0, 1, lo_open=True, hi_open=True),
        "seed": NOT_AN_INT,
        "modes": st.one_of(
            JUNK,
            st.sampled_from(MODES),  # one mode, not a tuple of them
            st.lists(st.sampled_from(MODES), min_size=1, unique=True),
            st.just(()),
            st.tuples(st.sampled_from(MODES), NOT_A_MODE),
            st.sampled_from(MODES).map(lambda mode: (mode, mode)),
            st.permutations(MODES + MODES[:1]).map(tuple),
        ),
        **ENGINE_FIELDS,
    },
    SyntheticConfig: {
        "num_classes": not_an_int_at_least(1),
        "num_items": st.one_of(not_an_int_at_least(1), st.integers(1, 99).filter(lambda n: n % 4)),
        "users_per_class": not_an_int_at_least(0),
        "ratings_per_user": SPANS,
        "transactions_per_user": SPANS,
        "class_affinity": not_a_real_within(0, 1, lo_open=True),
        "noise_rating_spread": st.one_of(
            JUNK, st.booleans(), st.floats(max_value=0, exclude_max=True), st.just(math.nan), st.just("3")
        ),
        "rng_seed": NOT_AN_INT,
    },
}


@st.composite
def bad_config_fields(draw):
    """A config class, one of its fields and a value that field may not hold."""
    cls = draw(st.sampled_from(list(BAD_FIELDS)))
    name = draw(st.sampled_from(sorted(BAD_FIELDS[cls])))
    return cls, name, draw(BAD_FIELDS[cls][name])


class TestConfigs:
    @settings(max_examples=600, deadline=None)
    @given(case=bad_config_fields())
    def test_a_bad_field_fails_at_construction(self, case):
        cls, name, value = case
        with pytest.raises(ConfigError) as raised:
            cls(**{name: value})
        # an unknown mode among the modes is named by the engine config's check
        assert str(raised.value).startswith(f"{name} must be") or (
            name == "modes" and str(raised.value).startswith("mode must be")
        )

    @pytest.mark.parametrize("cls", list(BAD_FIELDS))
    def test_frozen(self, cls):
        config = cls()
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, field.name, getattr(config, field.name))

    def test_replace_checks_the_copy(self):
        config = RecommenderConfig()
        assert dataclasses.replace(config, mode="implicit").mode == "implicit"
        assert config.mode == "simple"
        with pytest.raises(ConfigError, match="^top_n must be"):
            dataclasses.replace(config, top_n=0)
        with pytest.raises(ConfigError, match="^modes must be"):
            dataclasses.replace(ExperimentConfig(), modes=("simple", "simple"))


# Probes of the mutable configs: each went wrong silently or with a bare TypeError.
class TestConfigProbes:
    def test_an_engine_config_cannot_change_under_the_engine(self, worked_example):
        engine = Recommender(worked_example, RecommenderConfig())
        with pytest.raises(dataclasses.FrozenInstanceError):
            engine.config.mode = "implicit"  # implicit weights against simple postings
        with pytest.raises(dataclasses.FrozenInstanceError):
            engine.config.minsup_pct = 90  # the engine would still hold the 1% rules
        with pytest.raises(dataclasses.FrozenInstanceError):
            engine.config.top_n = 0  # every query would return []

    @pytest.mark.parametrize(
        "fields",
        [{"exclusion_threshold": "7"}, {"minsup_pct": "40"}],
    )
    def test_an_ill_typed_engine_field_is_a_config_error(self, fields):
        with pytest.raises(ConfigError, match=f"^{next(iter(fields))} must be"):
            RecommenderConfig(**fields)

    @pytest.mark.parametrize("fraction", [1.5, 1.0, 0.0, -0.2, math.nan, "0.8", True])
    def test_train_fraction_is_checked_by_the_config(self, fraction):
        with pytest.raises(ConfigError, match="^train_fraction must be"):
            ExperimentConfig(train_fraction=fraction)

    def test_a_repeated_mode_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^modes must be free of repeats"):
            ExperimentConfig(modes=("simple", "method1", "simple"))

    def test_cli_rejects_a_repeated_mode(self, tmp_path, capsys):
        assert cli.main(["gen-data", "--users-per-class", "3", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = ["evaluate", "--transactions", str(tmp_path / "transactions.csv")]
        argv += ["--ratings", str(tmp_path / "ratings.csv"), "--modes", "simple,simple"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("shoprec: error: modes must be free of repeats")


SEED_2024 = generate_synthetic(SyntheticConfig(rng_seed=2024))  # the files of gen-data --seed 2024
# an engine config's fields, top_n among them broken, on an object that is not a RecommenderConfig
STAND_IN_FIELDS = dict(mode="simple", k_neighbors=5, top_n=-1, minsup_pct=1.0, minconf_pct=10.0, exclusion_threshold=7.0)


# Probes of an object of the wrong class: each went round every field check.
class TestWrongClass:
    @pytest.mark.parametrize(
        "config",
        [
            STAND_IN_FIELDS,  # once a bare AttributeError: 'dict' object has no attribute 'mode'
            {},  # once read as the default config
            SimpleNamespace(**STAND_IN_FIELDS),  # once answered 3 items for U013, though top_n=-1 is no count
            # once answered 15 of the 100 users otherwise than at 7.0
            SimpleNamespace(**{**STAND_IN_FIELDS, "exclusion_threshold": math.nan}),
        ],
        ids=["dict", "empty-dict", "namespace", "namespace-nan"],
    )
    def test_engine_config_must_be_a_recommender_config(self, config):
        with pytest.raises(TypeError, match=f"^config must be a RecommenderConfig, got {type(config).__name__}$"):
            Recommender(SEED_2024, config)

    @pytest.mark.parametrize(
        "config",
        [vars(ExperimentConfig()), {}, SimpleNamespace(**vars(ExperimentConfig()))],
        ids=["dict", "empty-dict", "namespace"],
    )
    def test_protocol_config_must_be_an_experiment_config(self, config, monkeypatch):
        monkeypatch.setattr(shoprec.evaluate, "split_users", None)  # nothing is split before the check
        with pytest.raises(TypeError, match=f"^config must be an ExperimentConfig, got {type(config).__name__}$"):
            run_experiment(SEED_2024, config)

    def test_data_must_be_a_dataset(self):
        with pytest.raises(TypeError, match="^train must be a Dataset, got str$"):
            Recommender("transactions.csv", RecommenderConfig())
        with pytest.raises(TypeError, match="^dataset must be a Dataset, got str$"):
            run_experiment("transactions.csv", ExperimentConfig())

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda data: split_users(data, 0.8, 1), "dataset"),
            (lambda data: cold_start(data, 5), "train"),
            (lambda data: profile_of(data, "U001"), "dataset"),
            (lambda data: save_transactions(data, "unwritten.csv"), "dataset"),
            (lambda data: save_ratings(data, "unwritten.csv"), "dataset"),
        ],
        ids=["split_users", "cold_start", "profile_of", "save_transactions", "save_ratings"],
    )
    def test_functions_of_a_dataset_must_be_given_one(self, call, name):
        # each raised a bare AttributeError, such as 'str' object has no attribute 'users'
        with pytest.raises(TypeError, match=f"^{name} must be a Dataset, got str$"):
            call("transactions.csv")

    def test_the_generator_must_be_given_a_synthetic_config(self):
        # raised a bare AttributeError: 'dict' object has no attribute 'rng_seed'
        with pytest.raises(TypeError, match="^config must be a SyntheticConfig, got dict$"):
            generate_synthetic({"rng_seed": 1})

    def test_none_is_the_default_config(self):
        assert Recommender(SEED_2024).config == RecommenderConfig()


SMALL = generate_synthetic(SyntheticConfig(users_per_class=4, rng_seed=11))


def reals_within(lo, hi, lo_open=False):
    """Every kind of real a field within [lo, hi] (or (lo, hi] when open) may hold."""
    return st.one_of(
        st.floats(lo, hi, exclude_min=lo_open),
        st.integers(lo + lo_open, hi),
        st.fractions(lo, hi).filter(lambda f: f > lo or not lo_open),
    )


class TestValidConfigsWork:
    """A config that constructs runs: no TypeError later, in an engine or the protocol."""

    @settings(max_examples=60, deadline=None)
    @given(
        config=st.builds(
            RecommenderConfig,
            mode=st.sampled_from(MODES),
            k_neighbors=st.integers(1, 12),
            top_n=st.integers(1, 12),
            minsup_pct=reals_within(0, 100, lo_open=True),
            minconf_pct=reals_within(0, 100, lo_open=True),
            exclusion_threshold=reals_within(0, 10),
        )
    )
    def test_engine(self, config):
        engine = Recommender(SMALL, config)
        for user in SMALL.users:
            try:
                recs = engine.recommend_user(user)
            except NoProfileError:
                continue
            assert len(recs) <= config.top_n

    @settings(max_examples=15, deadline=None)
    @given(
        config=st.builds(
            ExperimentConfig,
            train_fraction=st.floats(0.5, 0.9),
            seed=st.integers(),
            modes=st.lists(st.sampled_from(MODES), min_size=1, unique=True).map(tuple),
            minsup_pct=reals_within(10, 100),
            exclusion_threshold=reals_within(0, 10),
        )
    )
    def test_experiment(self, config):
        assert len(run_experiment(SMALL, config).rows) == 2 * len(config.modes)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

NOT_AN_ID = st.one_of(
    JUNK.filter(lambda v: not isinstance(v, str)),
    st.integers(),
    st.booleans(),
    st.tuples(st.just("U1")),
    st.lists(st.just("U1"), max_size=1),  # unhashable, so no lookup may meet it before its check
    st.just(""),
    st.sampled_from(",;\n\r").map(lambda char: f"X{char}"),
)

FRESH = {"transactions": Transaction("NEWT", "NEW", 1, ("I0",)), "ratings": RatingRecord("NEW", "I0", 5.0)}


def wrong_shapes(record):
    """Values that are not a record of ``record``'s kind: too few or too many fields, or not iterable."""
    fields = tuple(record)
    return st.one_of(
        st.integers(0, 2 * len(fields)).filter(lambda n: n != len(fields)).map(lambda n: (fields * 2)[:n]),
        st.one_of(st.none(), st.integers(), st.floats(), st.booleans(), st.complex_numbers(), st.builds(object)),
    )


# (records, field) -> what the field may not hold, and the error it raises; the
# field "record" stands for the whole record
BAD_RECORD_FIELDS = {
    ("transactions", "record"): (wrong_shapes(FRESH["transactions"]), IntegrityError),
    ("ratings", "record"): (wrong_shapes(FRESH["ratings"]), IntegrityError),
    ("transactions", "tid"): (NOT_AN_ID, IntegrityError),
    ("transactions", "user"): (NOT_AN_ID, IntegrityError),
    ("transactions", "seq"): (NOT_AN_INT, IntegrityError),
    ("transactions", "items"): (
        st.one_of(
            JUNK,  # "ABC" among them, which is not the items A, B and C
            st.just(()),
            st.lists(st.just("I0"), min_size=1, max_size=1),
            st.tuples(NOT_AN_ID),
            st.tuples(st.just("I0"), NOT_AN_ID),
        ),
        IntegrityError,
    ),
    ("ratings", "user"): (NOT_AN_ID, IntegrityError),
    ("ratings", "item"): (NOT_AN_ID, IntegrityError),
    ("ratings", "value"): (
        st.one_of(
            JUNK,
            st.booleans(),
            st.floats(max_value=0, exclude_max=True),
            st.floats(min_value=10, exclude_min=True),
            st.just(math.nan),
            st.floats(0, 10).map(str),
            st.fractions(0, 10),
        ),
        RangeError,
    ),
}


class TestRecords:
    @settings(max_examples=600, deadline=None)
    @given(ds=small_datasets(), field=st.sampled_from(sorted(BAD_RECORD_FIELDS)), data=st.data())
    def test_a_bad_field_fails_at_build(self, ds, field, data):
        """A fresh record of the wrong shape or with one bad field, anywhere among valid ones, fails."""
        kind, name = field
        values, error = BAD_RECORD_FIELDS[field]
        records = {"transactions": list(ds.transactions), "ratings": list(ds.ratings)}
        value = data.draw(values, label="value")
        bad = value if name == "record" else FRESH[kind]._replace(**{name: value})
        records[kind].insert(data.draw(st.integers(0, len(records[kind])), label="at"), bad)
        with pytest.raises(error):
            Dataset(**records)

    def test_fresh_records_build(self):
        assert Dataset(**{kind: [record] for kind, record in FRESH.items()}).users == ("NEW",)

    @pytest.mark.parametrize(
        "records, error, message",
        [
            ({"transactions": [Transaction("T1", "U1", 1, "ABC")]}, IntegrityError, "transaction T1: items 'ABC' are not"),
            ({"transactions": [tx("U1", 1.5, "P1", tid="T1")]}, IntegrityError, "transaction T1: seq 1.5 is not an int"),
            ({"transactions": [tx("U1", True, "P1", tid="T1")]}, IntegrityError, "transaction T1: seq True is not an int"),
            ({"transactions": [tx("U1", "1", "P1", tid="T1")]}, IntegrityError, "transaction T1: seq '1' is not an int"),
            ({"transactions": [tx(1, 1, "P1", tid="T1")]}, IntegrityError, "invalid user id 1"),
            ({"transactions": [tx(["U1"], 1, "P1", tid="T1")]}, IntegrityError, re.escape("invalid user id ['U1']")),
            ({"transactions": [tx("U1", 1, ["P1"], tid="T1")]}, IntegrityError, re.escape("invalid item id ['P1']")),
            (
                {"ratings": [RatingRecord("U1", "P1", True)]},
                RangeError,
                re.escape("rating U1,P1: value must be an int or a float in [0, 10], got True"),
            ),
            (
                {"ratings": [RatingRecord("U1", "P1", "7")]},
                RangeError,
                re.escape("rating U1,P1: value must be an int or a float in [0, 10], got '7'"),
            ),
            ({"ratings": [RatingRecord(1, "P1", 7.0)]}, IntegrityError, "invalid user id 1"),
            ({"ratings": [RatingRecord("U1", ["P1"], 7.0)]}, IntegrityError, re.escape("invalid item id ['P1']")),
            (
                {"ratings": [("U1", "P1", 5.0, "x")]},
                IntegrityError,
                re.escape("rating ('U1', 'P1', 5.0, 'x') is not a (user, item, value) record"),
            ),
            (
                {"transactions": [("T1", "U1", 1)]},
                IntegrityError,
                re.escape("transaction ('T1', 'U1', 1) is not a (tid, user, seq, items) record"),
            ),
            ({"ratings": [5]}, IntegrityError, re.escape("rating 5 is not a (user, item, value) record")),
            ({"transactions": 5}, IntegrityError, "transactions must be a collection of records, got 5$"),
            ({"ratings": None}, IntegrityError, "ratings must be a collection of records, got None$"),
            ({"users": 5, "ratings": [("U1", "P1", 5.0)]}, IntegrityError, "users must be a collection of ids, got 5$"),
            ({"transactions": ""}, IntegrityError, "transactions must be a collection of records, got ''$"),
            ({"ratings": b""}, IntegrityError, "ratings must be a collection of records, got b''$"),
            (
                {"transactions": {("T1", "U1", 1, ("P1",)): 0}},
                IntegrityError,
                re.escape("transactions must be a collection of records, got {('T1', 'U1', 1, ('P1',)): 0}") + "$",
            ),
        ],
    )
    def test_probe(self, records, error, message):
        with pytest.raises(error, match=f"^{message}"):
            Dataset(**records)

    def test_an_int_value_is_kept(self):
        assert Dataset(ratings=[RatingRecord("U1", "P1", 7)]).ratings_by_user == {"U1": {"P1": 7}}

    @pytest.mark.parametrize("declared", [{}, {"users": ("U1",), "items": ("P1",)}])
    def test_the_constructor_checks_what_it_is_given(self, declared):
        # the plain constructor once took these unchecked, and the engines met a rating of 99
        with pytest.raises(RangeError, match=r"^rating U1,P1: value must be an int or a float in \[0, 10\], got 99.0$"):
            Dataset(transactions=[("T1", "U1", 1, ("P1",))], ratings=[("U1", "P1", 99.0)], **declared)

    @pytest.mark.parametrize("kind", ["users", "items"])
    def test_ids_declared_as_a_string(self, kind):
        # iterating "U1U" declared the users '1' and 'U'
        with pytest.raises(IntegrityError, match=f"^{kind} must be a collection of ids, got 'U1U'$"):
            Dataset(ratings=[RatingRecord("U", "U", 5.0)], **{kind: "U1U"})


class TestFrozenDataset:
    def test_fields_cannot_be_assigned(self, worked_example):
        for field in dataclasses.fields(Dataset):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(worked_example, field.name, ())

    def test_four_fields_equality_hash_and_repr(self):
        a = Dataset(transactions=[tx("U1", 2, "P2"), tx("U1", 1, "P1")], ratings=[("U1", "P1", 8.0)])
        b = Dataset(transactions=[tuple(tx("U1", 1, "P1")), tx("U1", 2, "P2")], ratings=[rate("U1", "P1", 8)])
        names = [field.name for field in dataclasses.fields(Dataset)]
        assert names == ["users", "items", "transaction_rows", "rating_rows"]
        assert a == b and hash(a) == hash(b) and a != Dataset()
        assert repr(a) == (
            "Dataset(users=('U1',), items=('P1', 'P2'), "
            "transaction_rows=(('U1-1', 'U1', 1, ('P1',)), ('U1-2', 'U1', 2, ('P2',))), "
            "rating_rows=(('U1', 'P1', 8.0),))"
        )

    def test_cached_tables_and_snapshot_still_memoise(self):
        ds = Dataset(transactions=[tx("U1", 1, "P1")], ratings=[rate("U1", "P1", 8)])
        assert ds.ratings_by_user is ds.ratings_by_user
        a, b = Recommender(ds), Recommender(ds)
        assert a._precedence is b._precedence and a._postings is b._postings and a._rules_by_item is b._rules_by_item
