import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprec.corpus import (
    Dataset,
    RatingRecord,
    SyntheticConfig,
    Transaction,
    generate_synthetic,
    load_dataset,
    load_ratings,
    load_transactions,
    split_users,
    to_rating_csv,
    to_transaction_csv,
)
from shoprec.errors import ConfigError, IntegrityError, ParseError, RangeError

from conftest import TABLE1_CSV, rate, small_datasets, tx


class TestLoadTransactions:
    def test_table1_shape(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TABLE1_CSV)
        ds = load_transactions(path)
        assert len(ds.transactions) == 5
        assert set(ds.items) == {"P1", "P2", "P4", "P5"}
        by_tid = {t.tid: t for t in ds.transactions}
        assert by_tid["200"].items == ("P1", "P2", "P4")  # row order preserved

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        assert load_transactions(path).transactions == ()
        path.write_text("tid,user,seq,items\n")
        assert load_transactions(path).transactions == ()

    def test_duplicate_seq_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("tid,user,seq,items\nT1,U1,1,P1\nT2,U1,1,P2\n")
        with pytest.raises(IntegrityError):
            load_transactions(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("tid,user,seq,items\nT1,U1,1,P1\nT2,U1,not-a-number,P2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_transactions(path)

    def test_duplicate_item_in_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("tid,user,seq,items\nT1,U1,1,P1;P1\n")
        with pytest.raises(IntegrityError):
            load_transactions(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ParseError, match="line 1"):
            load_transactions(path)

    @pytest.mark.parametrize(
        "row, kind",
        [("T;2,U1,2,P2", "transaction"), (",U1,2,P2", "transaction"), ("T2,U;1,2,P2", "user"), ("T2,,2,P2", "user")],
    )
    def test_invalid_id_names_line(self, tmp_path, row, kind):
        path = tmp_path / "t.csv"
        path.write_text(f"tid,user,seq,items\nT1,U1,1,P1\n{row}\n")
        with pytest.raises(IntegrityError, match=f"{re.escape(str(path))}: line 3: invalid {kind} id"):
            load_transactions(path)

    def test_first_faulty_line_is_reported(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("tid,user,seq,items\nT1,,1,P1\nT2,U1,x,P2\n")
        with pytest.raises(IntegrityError, match="line 2: invalid user id ''"):
            load_transactions(path)

    @pytest.mark.parametrize("items_text", ["", "P1;", ";P1", "P1;;P2", ";"])
    def test_empty_item_id_names_line(self, tmp_path, items_text):
        path = tmp_path / "t.csv"
        path.write_text(f"tid,user,seq,items\nT1,U1,1,P1\nT2,U1,2,{items_text}\n")
        with pytest.raises(ParseError, match="line 3: empty item id"):
            load_transactions(path)

    @pytest.mark.parametrize(
        "seq_text, seq", [("1", 1), ("-3", -3), ("0", 0), ("-0", 0), ("007", 7), ("9" * 20, int("9" * 20))]
    )
    def test_seq_is_an_optional_minus_and_ascii_digits(self, tmp_path, seq_text, seq):
        path = tmp_path / "t.csv"
        path.write_text(f"tid,user,seq,items\nT1,U1,{seq_text},P1\n")
        assert load_transactions(path).transactions[0].seq == seq

    @pytest.mark.parametrize(
        "seq_text",
        # int() reads the first seven as 10, 1, 1, 1, 1, 1 and 1
        ["1_0", " 1", "1 ", "+1", "١", "１", "\x0b1", "", "-", "--1", "1.0", "1e3", "0x1", "nan", "9" * 5000],
        ids=["underscore", "leading-space", "trailing-space", "plus", "arabic-indic-digit", "fullwidth-digit", "vertical-tab",
             "empty", "minus-only", "double-minus", "decimal-point", "exponent", "hex", "nan", "too-many-digits"],
    )
    def test_any_other_seq_is_a_parse_error(self, tmp_path, seq_text):
        path = tmp_path / "t.csv"
        path.write_text(f"tid,user,seq,items\nT1,U1,1,P1\nT2,U1,{seq_text},P2\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line 3: bad seq {re.escape(repr(seq_text))}"):
            load_transactions(path)


class TestLoadRatings:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,value\nU1,P1,5\n")
        ds = load_ratings(path)
        assert ds.ratings[0].value == 5.0

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,value\nU1,P1,11\n")
        with pytest.raises(RangeError):
            load_ratings(path)

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,value\nU1,P1,5\nU1,P1,6\n")
        with pytest.raises(IntegrityError):
            load_ratings(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,value\nU1,P1,abc\n")
        with pytest.raises(ParseError, match="line 2"):
            load_ratings(path)

    @pytest.mark.parametrize(
        "row, kind", [("U;1,P1,5", "user"), (",P1,5", "user"), ("U1,P;1,5", "item"), ("U1,,5", "item")]
    )
    def test_invalid_id_names_line(self, tmp_path, row, kind):
        path = tmp_path / "r.csv"
        path.write_text(f"user,item,value\nU1,P1,5\n{row}\n")
        with pytest.raises(IntegrityError, match=f"{re.escape(str(path))}: line 3: invalid {kind} id"):
            load_ratings(path)


class TestLineBreaks:
    """Only a line feed ends a line; one carriage return before it is dropped."""

    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_separator_is_part_of_its_row(self, tmp_path, char):
        path = tmp_path / "r.csv"
        path.write_bytes(f"user,item,value\nU1,P1{char},5\n".encode("utf-8"))
        assert load_ratings(path).ratings == (RatingRecord("U1", f"P1{char}", 5.0),)
        path.write_bytes(f"user,item,value\nU1,P1{char},5\nU2,P2,x".encode("utf-8"))
        with pytest.raises(ParseError, match="line 3: bad value 'x'"):
            load_ratings(path)

    def test_form_feed_ending_a_row_keeps_later_line_numbers(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"user,item,value\nU1,P1,5\f\nU2,P2,x")
        with pytest.raises(ParseError, match="line 3: bad value 'x'"):
            load_ratings(path)

    def test_lone_carriage_return_is_not_a_line_break(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"user,item,value\nU1,P1,5\rU2,P2,6\n")
        with pytest.raises(ParseError, match="line 2: expected 3 fields, got 5"):
            load_ratings(path)

    def test_carriage_return_ending_the_file_is_dropped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"tid,user,seq,items\r\nT1,U1,1,P1\r")
        assert load_transactions(path).transactions == (Transaction("T1", "U1", 1, ("P1",)),)
        path.write_bytes(b"tid,user,seq,items\r")
        assert load_transactions(path).transactions == ()

    @pytest.mark.parametrize(
        "loader, header, row, kind",
        [
            (load_ratings, "user,item,value", "U\r1,P1,5", "user"),
            (load_ratings, "user,item,value", "U1,P\r1,5", "item"),
            (load_transactions, "tid,user,seq,items", "T\r1,U1,1,P1", "transaction"),
            (load_transactions, "tid,user,seq,items", "T1,U\r1,1,P1", "user"),
            (load_transactions, "tid,user,seq,items", "T1,U1,1,P1;P\r2", "item"),
        ],
    )
    def test_carriage_return_in_an_id_names_line(self, tmp_path, loader, header, row, kind):
        path = tmp_path / "f.csv"
        path.write_bytes(f"{header}\r\n{row}\r\n".encode("utf-8"))
        with pytest.raises(IntegrityError, match=f"line 2: invalid {kind} id"):
            loader(path)


class TestRecords:
    def test_construction_and_field_order(self):
        t = Transaction("T1", "U1", 1, ("a",))
        assert t == Transaction(tid="T1", user="U1", seq=1, items=("a",))
        assert (t.tid, t.user, t.seq, t.items) == ("T1", "U1", 1, ("a",))
        r = RatingRecord("U1", "P1", 5.0)
        assert r == RatingRecord(user="U1", item="P1", value=5.0)
        assert (r.user, r.item, r.value) == ("U1", "P1", 5.0)

    def test_repr(self):
        assert repr(Transaction("T1", "U1", 1, ("a",))) == "Transaction(tid='T1', user='U1', seq=1, items=('a',))"
        assert repr(RatingRecord("U1", "P1", 5.0)) == "RatingRecord(user='U1', item='P1', value=5.0)"

    @pytest.mark.parametrize(
        "record, field", [(Transaction("T1", "U1", 1, ("a",)), "seq"), (RatingRecord("U1", "P1", 5.0), "value")]
    )
    def test_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 2)

    def test_equal_records_hash_equal(self):
        a, b = Transaction("T1", "U1", 1, ("a", "b")), Transaction("T1", "U1", 1, ("a", "b"))
        assert a is not b and hash(a) == hash(b) and len({a, b}) == 1
        r, s = RatingRecord("U1", "P1", 5.0), RatingRecord("U1", "P1", 5.0)
        assert r is not s and hash(r) == hash(s) and len({r, s}) == 1

    def test_records_unpack_like_tuples(self):
        tid, user, seq, items = Transaction("T1", "U1", 1, ("a",))
        assert (tid, user, seq, items) == ("T1", "U1", 1, ("a",))
        assert RatingRecord("U1", "P1", 5.0) == ("U1", "P1", 5.0)


def test_round_trip(tmp_path):
    ds = generate_synthetic(SyntheticConfig(users_per_class=6, rng_seed=9))
    # every user and item is referenced in this config, so files carry everything
    assert set(ds.users) == {t.user for t in ds.transactions} | {r.user for r in ds.ratings}
    assert set(ds.items) == {i for t in ds.transactions for i in t.items} | {
        r.item for r in ds.ratings
    }
    tp, rp = tmp_path / "t.csv", tmp_path / "r.csv"
    tp.write_text(to_transaction_csv(ds))
    rp.write_text(to_rating_csv(ds))
    reloaded = load_dataset(tp, rp)
    assert reloaded == ds


def test_crlf_files_load_like_lf(tmp_path):
    ds = generate_synthetic(SyntheticConfig(users_per_class=6, rng_seed=9))
    paths = {}
    for ending in ("\n", "\r\n"):
        tp, rp = tmp_path / f"t{len(ending)}.csv", tmp_path / f"r{len(ending)}.csv"
        tp.write_bytes(to_transaction_csv(ds).replace("\n", ending).encode("utf-8"))
        rp.write_bytes(to_rating_csv(ds).replace("\n", ending).encode("utf-8"))
        paths[ending] = (tp, rp)
    assert b"\r\n" in paths["\r\n"][0].read_bytes() and b"\r\n" in paths["\r\n"][1].read_bytes()
    lf = load_dataset(*paths["\n"])
    crlf = load_dataset(*paths["\r\n"])
    assert lf == ds
    assert crlf == lf


@settings(max_examples=200, deadline=None)
@given(ds=small_datasets(), data=st.data())
def test_load_matches_build_of_the_records_written(ds, data):
    """The loaders' own checks and sort give what Dataset.build gives, in any row order."""
    paths = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("t.csv", to_transaction_csv(ds)), ("r.csv", to_rating_csv(ds))):
            header, *rows = text.splitlines()
            path = Path(tmp) / name
            path.write_text("\n".join([header, *data.draw(st.permutations(rows))]) + "\n")
            paths.append(path)
        loaded = load_dataset(*paths)
    assert loaded == Dataset.build(transactions=ds.transactions, ratings=ds.ratings)


def test_load_and_split_validate_each_record_once(tmp_path, monkeypatch):
    ds = generate_synthetic(SyntheticConfig(users_per_class=6, rng_seed=9))
    tp, rp = tmp_path / "t.csv", tmp_path / "r.csv"
    tp.write_text(to_transaction_csv(ds))
    rp.write_text(to_rating_csv(ds))
    build = Dataset.build.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(cls)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(Dataset, "build", classmethod(counted))
    split_users(load_dataset(tp, rp), 0.8, seed=1)
    assert len(calls) <= 1


class TestDatasetBuild:
    def test_unknown_references_rejected(self):
        with pytest.raises(IntegrityError):
            Dataset.build(users=["U1"], items=["P1"], transactions=[tx("U2", 1, "P1")])
        with pytest.raises(IntegrityError):
            Dataset.build(users=["U1"], items=["P1"], ratings=[rate("U1", "P9", 5)])

    def test_rating_range_checked(self):
        with pytest.raises(RangeError):
            Dataset.build(ratings=[rate("U1", "P1", 10.5)])

    def test_empty_transaction_rejected(self):
        with pytest.raises(IntegrityError):
            Dataset.build(transactions=[tx("U1", 1)])


class TestSynthetic:
    def test_shape_and_invariants(self):
        ds = generate_synthetic(SyntheticConfig(rng_seed=42))
        assert len(ds.users) == 100
        assert len(ds.items) == 60
        for user in ds.users:
            seqs = [t.seq for t in ds.transactions_by_user[user]]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
        assert all(0.0 <= r.value <= 10.0 for r in ds.ratings)

    def test_determinism(self):
        a = generate_synthetic(SyntheticConfig(rng_seed=7))
        b = generate_synthetic(SyntheticConfig(rng_seed=7))
        assert a == b
        assert to_transaction_csv(a) == to_transaction_csv(b)
        assert to_rating_csv(a) == to_rating_csv(b)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticConfig(rng_seed=1))
        b = generate_synthetic(SyntheticConfig(rng_seed=2))
        assert a != b

    def test_zero_users(self):
        ds = generate_synthetic(SyntheticConfig(users_per_class=0, rng_seed=1))
        assert ds.users == ()
        assert ds.transactions == ()

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticConfig(num_classes=7, num_items=60))
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticConfig(class_affinity=0.0))
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticConfig(ratings_per_user=(5, 2)))

    def test_class_affinity_plants_structure(self):
        ds = generate_synthetic(SyntheticConfig(rng_seed=3))
        # users of class 0 hold items I001-I015; most of their events stay in-block
        block = {f"I{i:03d}" for i in range(1, 16)}
        first_class_users = {f"U{i:03d}" for i in range(1, 26)}
        events = [
            i
            for t in ds.transactions
            if t.user in first_class_users
            for i in t.items
        ]
        in_block = sum(1 for i in events if i in block)
        assert in_block / len(events) > 0.7


class TestSplitUsers:
    def test_eighty_twenty(self):
        ds = random_ten_users()
        train, test = split_users(ds, 0.8, seed=1)
        assert len(train.users) == 8
        assert len(test.users) == 2

    def test_single_user_goes_to_train(self):
        ds = Dataset.build(ratings=[rate("U1", "P1", 5)])
        train, test = split_users(ds, 0.8, seed=1)
        assert train.users == ("U1",)
        assert test.users == ()

    def test_deterministic(self):
        ds = random_ten_users()
        assert split_users(ds, 0.8, seed=5) == split_users(ds, 0.8, seed=5)

    def test_partition_property(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(1, 15)
            ds = Dataset.build(ratings=[rate(f"U{i}", "P1", 5) for i in range(n)])
            frac = rng.choice([0.5, 0.7, 0.8, 0.9])
            train, test = split_users(ds, frac, seed=rng.randint(0, 99))
            assert set(train.users) | set(test.users) == set(ds.users)
            assert not set(train.users) & set(test.users)
            assert all(t.user in set(train.users) for t in train.transactions)
            assert all(r.user in set(test.users) for r in test.ratings)

    def test_fraction_out_of_range(self):
        ds = random_ten_users()
        for frac in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(RangeError):
                split_users(ds, frac, seed=1)

    @settings(max_examples=200, deadline=None)
    @given(ds=small_datasets(), frac=st.floats(0.01, 0.99), seed=st.integers(0, 2**32))
    def test_sides_match_build_of_the_same_records(self, ds, frac, seed):
        for side in split_users(ds, frac, seed):
            users = set(side.users)
            assert side == Dataset.build(
                users=users,
                items=ds.items,
                transactions=[t for t in ds.transactions if t.user in users],
                ratings=[r for r in ds.ratings if r.user in users],
            )


def random_ten_users():
    return Dataset.build(
        transactions=[tx(f"U{i}", 1, "P1") for i in range(10)],
        ratings=[rate(f"U{i}", "P1", 5) for i in range(10)],
    )
