import hashlib
import os
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shoprec import corpus
from shoprec.corpus import (
    Dataset,
    RatingRecord,
    SyntheticConfig,
    Transaction,
    generate_synthetic,
    load_dataset,
    save_ratings,
    save_transactions,
    split_users,
    to_rating_csv,
    to_transaction_csv,
)
from shoprec.errors import ConfigError, IntegrityError, ParseError, RangeError, ShoprecError
from shoprec.rules import fp_growth

from conftest import TABLE1_CSV, rate, small_datasets, tx


class TestLoadTransactions:
    def test_table1_shape(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TABLE1_CSV)
        ds = load_dataset(path)
        assert len(ds.transactions) == 5
        assert set(ds.items) == {"P1", "P2", "P4", "P5"}
        by_tid = {t.tid: t for t in ds.transactions}
        assert by_tid["200"].items == ("P1", "P2", "P4")  # row order preserved

    def test_duplicate_seq_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("tid,user,seq,items\nT1,U1,1,P1\nT2,U1,1,P2\n")
        with pytest.raises(IntegrityError):
            load_dataset(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("tid,user,seq,items\nT1,U1,1,P1\nT2,U1,not-a-number,P2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path)

    def test_duplicate_item_in_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("tid,user,seq,items\nT1,U1,1,P1;P1\n")
        with pytest.raises(IntegrityError):
            load_dataset(path)

    @pytest.mark.parametrize(
        "row, kind",
        [("T;2,U1,2,P2", "transaction"), (",U1,2,P2", "transaction"), ("T2,U;1,2,P2", "user"), ("T2,,2,P2", "user")],
    )
    def test_invalid_id_names_line(self, tmp_path, row, kind):
        path = tmp_path / "t.csv"
        path.write_text(f"tid,user,seq,items\nT1,U1,1,P1\n{row}\n")
        with pytest.raises(IntegrityError, match=f"{re.escape(str(path))}: line 3: invalid {kind} id"):
            load_dataset(path)

    @pytest.mark.parametrize("items_text", ["", "P1;", ";P1", "P1;;P2", ";"])
    def test_empty_item_id_names_line(self, tmp_path, items_text):
        path = tmp_path / "t.csv"
        path.write_text(f"tid,user,seq,items\nT1,U1,1,P1\nT2,U1,2,{items_text}\n")
        with pytest.raises(ParseError, match="line 3: empty item id"):
            load_dataset(path)

    @pytest.mark.parametrize("row", ["T1,U2,1,P2", "T1,U1,2,P2"], ids=["other-user", "same-user"])
    def test_repeated_tid_names_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"tid,user,seq,items\nT1,U1,1,P1\nT2,U1,3,P1\n{row}\n")
        with pytest.raises(IntegrityError, match="line 4: duplicate transaction id T1$"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "seq_text, seq", [("1", 1), ("-3", -3), ("0", 0), ("-0", 0), ("007", 7), ("9" * 20, int("9" * 20))]
    )
    def test_seq_is_an_optional_minus_and_ascii_digits(self, tmp_path, seq_text, seq):
        path = tmp_path / "t.csv"
        path.write_text(f"tid,user,seq,items\nT1,U1,{seq_text},P1\n")
        assert load_dataset(path).transactions[0].seq == seq

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
            load_dataset(path)


class TestLoadRatings:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,value\nU1,P1,5\n")
        ds = load_dataset(ratings_path=path)
        assert ds.ratings[0].value == 5.0

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,value\nU1,P1,11\n")
        with pytest.raises(RangeError):
            load_dataset(ratings_path=path)

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,value\nU1,P1,5\nU1,P1,6\n")
        with pytest.raises(IntegrityError):
            load_dataset(ratings_path=path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,value\nU1,P1,abc\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(ratings_path=path)

    @pytest.mark.parametrize(
        "value_text, value",
        [("5", 5.0), ("0", 0.0), ("10.0", 10.0), ("8.25", 8.25), ("1e-05", 1e-05), ("-0.0", -0.0), ("0.1", 0.1)],
    )
    def test_value_is_ascii_with_no_underscore_or_surrounding_space(self, tmp_path, value_text, value):
        path = tmp_path / "r.csv"
        path.write_text(f"user,item,value\nU1,P1,{value_text}\nU2,P1,{value_text}\n")
        loaded = [r.value for r in load_dataset(ratings_path=path).ratings]
        assert [repr(v) for v in loaded] == [repr(value)] * 2  # -0.0 keeps its sign
        assert loaded[0] is loaded[1]  # one float per distinct text

    @pytest.mark.parametrize(
        "value_text",
        # float() reads the first nine as 10, 8, 8, 8, 8, 5, 8, 8 and 8
        ["1_0", " 8", "8 ", "\t8", "8\x0b", "5\f", "٨", "８", "8\x85", "", "abc", "0x1", "8;"],
        ids=["underscore", "leading-space", "trailing-space", "leading-tab", "vertical-tab", "form-feed",
             "arabic-indic-digit", "fullwidth-digit", "next-line", "empty", "word", "hex", "semicolon"],
    )
    def test_any_other_value_is_a_parse_error(self, tmp_path, value_text):
        path = tmp_path / "r.csv"
        path.write_text(f"user,item,value\nU1,P1,5\nU2,P2,{value_text}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line 3: bad value {re.escape(repr(value_text))}"):
            load_dataset(ratings_path=path)

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(0.0, 10.0))
    def test_every_value_written_loads_back(self, value):
        ds = Dataset(ratings=[rate("U1", "P1", value)])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            save_ratings(ds, path)
            assert repr(load_dataset(ratings_path=path).ratings[0].value) == repr(value)

    @pytest.mark.parametrize(
        "row, kind", [("U;1,P1,5", "user"), (",P1,5", "user"), ("U1,P;1,5", "item"), ("U1,,5", "item")]
    )
    def test_invalid_id_names_line(self, tmp_path, row, kind):
        path = tmp_path / "r.csv"
        path.write_text(f"user,item,value\nU1,P1,5\n{row}\n")
        with pytest.raises(IntegrityError, match=f"{re.escape(str(path))}: line 3: invalid {kind} id"):
            load_dataset(ratings_path=path)


def _either_file(transactions_case, ratings_case):
    """Parameters of one check, run on each file kind: its load_dataset keyword and its header first."""
    return pytest.mark.parametrize(
        "file, header, case",
        [
            pytest.param("transactions_path", "tid,user,seq,items", transactions_case, id="transactions"),
            pytest.param("ratings_path", "user,item,value", ratings_case, id="ratings"),
        ],
    )


class TestEitherFile:
    """Both files are read by one row loop: the header, the field count and the first faulty line."""

    @_either_file(None, None)
    def test_empty_file(self, tmp_path, file, header, case):
        path = tmp_path / "f.csv"
        for text in ("", f"{header}\n"):
            path.write_text(text)
            loaded = load_dataset(**{file: path})
            assert loaded.transactions == () and loaded.ratings == ()

    @_either_file("a,b,c\n", "a,b\n")
    def test_wrong_header(self, tmp_path, file, header, case):
        path = tmp_path / "f.csv"
        path.write_text(case)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: line 1: expected header {header!r}')}$"):
            load_dataset(**{file: path})

    @_either_file(
        ("T1,U1,1,P1\nT2,U1,2\n", "line 3: expected 4 fields, got 3"),
        ("U1,P1,5\nU2,P1\n", "line 3: expected 3 fields, got 2"),
    )
    def test_field_count_names_line(self, tmp_path, file, header, case):
        rows, message = case
        path = tmp_path / "f.csv"
        path.write_text(f"{header}\n{rows}")
        with pytest.raises(ParseError, match=f"{re.escape(message)}$"):
            load_dataset(**{file: path})

    @_either_file(
        ("T1,,1,P1\nT2,U1,x,P2\n", "line 2: invalid user id ''"),
        ("U1,,5\nU2,P1,x\n", "line 2: invalid item id ''"),
    )
    def test_first_faulty_line_is_reported(self, tmp_path, file, header, case):
        rows, message = case
        path = tmp_path / "f.csv"
        path.write_text(f"{header}\n{rows}")
        with pytest.raises(IntegrityError, match=f"{re.escape(message)}$"):
            load_dataset(**{file: path})


# One fault that a CSV file can hold, made from a drawn record of the list it
# joins: (list name, new record, whether the drawn record shares its key).
FAULTS = {
    "repeated tid": ("transactions", lambda t: Transaction(t.tid, "NEW", 1, ("I0",)), True),
    "repeated seq": ("transactions", lambda t: Transaction("NEWT", t.user, t.seq, ("I0",)), True),
    "repeated item": ("transactions", lambda t: Transaction("NEWT", "NEW", 1, ("I0", "I0")), False),
    "empty tid": ("transactions", lambda t: Transaction("", "NEW", 1, ("I0",)), False),
    "empty transaction user": ("transactions", lambda t: Transaction("NEWT", "", 1, ("I0",)), False),
    "repeated rating": ("ratings", lambda r: RatingRecord(r.user, r.item, 5.0), True),
    "value above range": ("ratings", lambda r: RatingRecord("NEW", "I0", 10.5), False),
    "value below range": ("ratings", lambda r: RatingRecord("NEW", "I0", -0.5), False),
    "value nan": ("ratings", lambda r: RatingRecord("NEW", "I0", float("nan")), False),
    "empty rating user": ("ratings", lambda r: RatingRecord("", "I0", 5.0), False),
    "empty rating item": ("ratings", lambda r: RatingRecord("NEW", "", 5.0), False),
}


class TestOneCheckingPath:
    """A loaded file and the Dataset constructor, given the same records, go through the same checks."""

    @settings(max_examples=300, deadline=None)
    @given(ds=small_datasets(), fault=st.sampled_from(sorted(FAULTS)), data=st.data())
    def test_load_and_build_raise_the_same_error(self, ds, fault, data):
        kind, make, shares_key = FAULTS[fault]
        records = {"transactions": list(ds.transactions), "ratings": list(ds.ratings)}
        faulty = records[kind]
        involved = [len(faulty)]  # the new record's index
        if shares_key:
            assume(faulty)  # a record to repeat
            involved.append(data.draw(st.integers(0, len(faulty) - 1)))
        faulty.append(make(faulty[involved[-1]] if shares_key else None))
        order = data.draw(st.permutations(range(len(faulty))))
        records[kind] = [faulty[i] for i in order]
        # the fault sits on the later of the rows that share a key, after the header
        line = max(order.index(i) for i in involved) + 2
        for name in records:
            if name != kind:
                records[name] = data.draw(st.permutations(records[name]))

        with pytest.raises(ShoprecError) as built:
            Dataset(**records)
        with tempfile.TemporaryDirectory() as tmp:
            tp, rp = Path(tmp) / "t.csv", Path(tmp) / "r.csv"
            save_transactions(Dataset._trusted((), (), records["transactions"], ()), tp)  # unchecked on purpose
            save_ratings(Dataset._trusted((), (), (), records["ratings"]), rp)
            with pytest.raises(ShoprecError) as loaded:
                load_dataset(tp, rp)
        path = tp if kind == "transactions" else rp
        assert type(loaded.value) is type(built.value)
        assert str(loaded.value) == f"{path}: line {line}: {built.value}"

    @pytest.mark.parametrize(
        "file, text, message",
        [
            ("transactions_path", "tid,user,seq,items\nT;1,U1,x,P1\n", "line 2: bad seq 'x'"),
            ("ratings_path", "user,item,value\nU;1,P1,x\n", "line 2: bad value 'x'"),
        ],
    )
    def test_within_a_row_a_syntax_fault_comes_first(self, tmp_path, file, text, message):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"{re.escape(message)}$"):
            load_dataset(**{file: path})


class TestLineBreaks:
    """Only a line feed ends a line; one carriage return before it is dropped."""

    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_separator_is_part_of_its_row(self, tmp_path, char):
        path = tmp_path / "r.csv"
        path.write_bytes(f"user,item,value\nU1,P1{char},5\n".encode("utf-8"))
        assert load_dataset(ratings_path=path).ratings == (RatingRecord("U1", f"P1{char}", 5.0),)
        path.write_bytes(f"user,item,value\nU1,P1{char},5\nU2,P2,x".encode("utf-8"))
        with pytest.raises(ParseError, match="line 3: bad value 'x'"):
            load_dataset(ratings_path=path)

    def test_form_feed_ending_a_row_keeps_later_line_numbers(self, tmp_path):
        # a rating value may not end in a form feed, so the row ends in an item id
        path = tmp_path / "t.csv"
        path.write_bytes(b"tid,user,seq,items\nT1,U1,1,P1\f\nT2,U1,x,P2")
        with pytest.raises(ParseError, match="line 3: bad seq 'x'"):
            load_dataset(path)

    def test_lone_carriage_return_is_not_a_line_break(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"user,item,value\nU1,P1,5\rU2,P2,6\n")
        with pytest.raises(ParseError, match="line 2: expected 3 fields, got 5"):
            load_dataset(ratings_path=path)

    def test_carriage_return_ending_the_file_is_dropped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"tid,user,seq,items\r\nT1,U1,1,P1\r")
        assert load_dataset(path).transactions == (Transaction("T1", "U1", 1, ("P1",)),)
        path.write_bytes(b"tid,user,seq,items\r")
        assert load_dataset(path).transactions == ()

    @pytest.mark.parametrize(
        "file, header, row, kind",
        [
            ("ratings_path", "user,item,value", "U\r1,P1,5", "user"),
            ("ratings_path", "user,item,value", "U1,P\r1,5", "item"),
            ("transactions_path", "tid,user,seq,items", "T\r1,U1,1,P1", "transaction"),
            ("transactions_path", "tid,user,seq,items", "T1,U\r1,1,P1", "user"),
            ("transactions_path", "tid,user,seq,items", "T1,U1,1,P1;P\r2", "item"),
        ],
    )
    def test_carriage_return_in_an_id_names_line(self, tmp_path, file, header, row, kind):
        path = tmp_path / "f.csv"
        path.write_bytes(f"{header}\r\n{row}\r\n".encode("utf-8"))
        with pytest.raises(IntegrityError, match=f"line 2: invalid {kind} id"):
            load_dataset(**{file: path})


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

    def test_dataset_keeps_rows_and_reads_them_as_records(self, tmp_path):
        made = generate_synthetic(SyntheticConfig(users_per_class=3, rng_seed=4))
        tp, rp = tmp_path / "t.csv", tmp_path / "r.csv"
        save_transactions(made, tp)
        save_ratings(made, rp)
        ds = load_dataset(tp, rp)
        for view, rows, record in (
            (ds.transactions, ds.transaction_rows, Transaction),
            (ds.ratings, ds.rating_rows, RatingRecord),
        ):
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            assert type(view) is tuple and len(view) == len(rows) > 3
            assert all(type(r) is record for r in view)
            assert list(view) == list(rows)  # iteration order
            assert view[1] == rows[1] and view[-1] == rows[-1]
            assert view[1:4] == rows[1:4] and view[::2] == rows[::2]
            assert view == tuple(view) and view == rows and hash(view) == hash(rows)
            assert view != list(rows)  # a view equals tuples, as the tuple it replaces did
        first = ds.transactions[0]
        assert (first.tid, first.user, first.seq, first.items) == ds.transaction_rows[0]
        rating = ds.ratings[0]
        assert (rating.user, rating.item, rating.value) == ds.rating_rows[0]
        assert type(ds.transactions[0].items) is tuple
        built = Dataset(transactions=ds.transactions, ratings=ds.ratings)
        assert built == ds and all(type(row) is tuple for row in built.transaction_rows + built.rating_rows)
        assert ds == Dataset(transactions=ds.transaction_rows, ratings=ds.rating_rows)
        assert (ds.transaction_rows, ds.rating_rows) == (made.transaction_rows, made.rating_rows)
        # the library reads the rows; the record views live on for the benchmark, whose
        # bench/checks.py (TrainFacts) and bench/workloads.py (dataset_sizes, index_sizes)
        # read them, so both must mine alike
        for minsup in (1.0, 20.0):
            assert fp_growth(ds.transactions, minsup) == fp_growth(ds.transaction_rows, minsup)


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
    assert_loaded_objects_shared(reloaded)


def assert_loaded_objects_shared(ds):
    """Each id occurrence in the records is the element of users or items with that
    value, and equal rating values are one float."""
    users = {u: u for u in ds.users}
    items = {i: i for i in ds.items}
    for t in ds.transactions:
        assert t.user is users[t.user]
        assert all(i is items[i] for i in t.items)
    values = {}
    for r in ds.ratings:
        assert r.user is users[r.user]
        assert r.item is items[r.item]
        assert values.setdefault(repr(r.value), r.value) is r.value


@settings(max_examples=200, deadline=None)
@given(ds=small_datasets(), frac=st.floats(0.01, 0.99), seed=st.integers(0, 2**32))
def test_load_shares_one_object_per_id_and_value_text(ds, frac, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tp, rp = Path(tmp) / "t.csv", Path(tmp) / "r.csv"
        save_transactions(ds, tp)
        save_ratings(ds, rp)
        loaded = load_dataset(tp, rp)
    # the files carry the users and items that some record names
    assert loaded == Dataset(transactions=ds.transactions, ratings=ds.ratings)
    for side in (loaded, *split_users(loaded, frac, seed)):
        assert_loaded_objects_shared(side)


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
    """The loaders' own checks and sort give what the Dataset constructor gives, in any row order."""
    paths = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("t.csv", to_transaction_csv(ds)), ("r.csv", to_rating_csv(ds))):
            header, *rows = text.splitlines()
            path = Path(tmp) / name
            path.write_text("\n".join([header, *data.draw(st.permutations(rows))]) + "\n")
            paths.append(path)
        loaded = load_dataset(*paths)
    assert loaded == Dataset(transactions=ds.transactions, ratings=ds.ratings)


def test_load_and_split_validate_each_record_once(tmp_path, monkeypatch):
    """load_dataset walks each file's records once, and the split walks none."""
    ds = generate_synthetic(SyntheticConfig(users_per_class=6, rng_seed=9))
    tp, rp = tmp_path / "t.csv", tmp_path / "r.csv"
    tp.write_text(to_transaction_csv(ds))
    rp.write_text(to_rating_csv(ds))
    walked = []

    def counted(walk):
        def count(records, at):
            walked.append((walk.__name__, len(records)))
            return walk(records, at)

        return count

    for name in ("_check_transactions", "_check_ratings"):
        monkeypatch.setattr(corpus, name, counted(getattr(corpus, name)))
    loaded = load_dataset(tp, rp)
    train, test = split_users(loaded, 0.8, seed=1)
    assert train.users and test.users
    assert walked == [("_check_transactions", len(ds.transactions)), ("_check_ratings", len(ds.ratings))]
    # the constructor walks what it is given, so the counters see every walk
    assert Dataset(transactions=loaded.transactions, ratings=loaded.ratings) == loaded
    assert walked[2:] == walked[:2]


@pytest.mark.parametrize("save", [save_transactions, save_ratings])
def test_empty_save_path_is_no_file(tmp_path, monkeypatch, save):
    # Path("") is the current directory, so the error once named '.'
    monkeypatch.chdir(tmp_path)
    ds = generate_synthetic(SyntheticConfig(users_per_class=1, rng_seed=1))
    with pytest.raises(FileNotFoundError, match=r"^\[Errno 2\] No such file or directory: ''$"):
        save(ds, "")
    assert list(tmp_path.iterdir()) == []


def _is_open(fd: int) -> bool:
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


@pytest.mark.parametrize(
    "reads, call",
    [
        (True, lambda fd: load_dataset(fd)),
        (True, lambda fd: load_dataset(None, fd)),
        (False, lambda fd: save_transactions(Dataset(transactions=[tx("U1", 1, "P1")]), fd)),
        (False, lambda fd: save_ratings(Dataset(ratings=[rate("U1", "P1", 5.0)]), fd)),
    ],
    ids=["load-transactions", "load-ratings", "save-transactions", "save-ratings"],
)
def test_an_int_is_no_path(reads, call):
    # open() takes an int as a file descriptor, which these calls then closed
    # after reading or writing it; the descriptor here is a pipe of the test's
    # own, never the runner's
    read_fd, write_fd = os.pipe()
    try:
        if reads:
            os.close(write_fd)  # so that a read of the pipe ends at once
        fd = read_fd if reads else write_fd
        with pytest.raises(TypeError, match="not int$"):
            call(fd)
        assert _is_open(fd)
    finally:
        for fd in (read_fd, write_fd):
            if _is_open(fd):
                os.close(fd)


class TestDatasetBuild:
    def test_unknown_references_rejected(self):
        with pytest.raises(IntegrityError):
            Dataset(users=["U1"], items=["P1"], transactions=[tx("U2", 1, "P1")])
        with pytest.raises(IntegrityError):
            Dataset(users=["U1"], items=["P1"], ratings=[rate("U1", "P9", 5)])

    def test_rating_range_checked(self):
        with pytest.raises(RangeError):
            Dataset(ratings=[rate("U1", "P1", 10.5)])

    def test_empty_transaction_rejected(self):
        with pytest.raises(IntegrityError):
            Dataset(transactions=[tx("U1", 1)])

    @pytest.mark.parametrize("char", [",", ";", "\n", "\r"])
    @pytest.mark.parametrize(
        "kind, records",
        [
            ("transaction", lambda bad: {"transactions": [tx("U1", 1, "P1", tid=bad)]}),
            ("user", lambda bad: {"transactions": [tx(bad, 1, "P1", tid="T1")]}),
            ("item", lambda bad: {"transactions": [tx("U1", 1, "P1", bad)]}),
            ("user", lambda bad: {"ratings": [rate(bad, "P1", 5)]}),
            ("item", lambda bad: {"ratings": [rate("U1", bad, 5)]}),
        ],
    )
    def test_id_with_a_forbidden_character_rejected(self, char, kind, records):
        bad = f"X{char}1"
        with pytest.raises(IntegrityError, match=f"^invalid {kind} id {re.escape(repr(bad))}$"):
            Dataset(**records(bad))

    def test_repeated_tid_rejected(self):
        with pytest.raises(IntegrityError, match="duplicate transaction id T1"):
            Dataset(transactions=[tx("U1", 1, "P1", tid="T1"), tx("U2", 1, "P2", tid="T1")])


class TestSynthetic:
    def test_shape_and_invariants(self):
        ds = generate_synthetic(SyntheticConfig(rng_seed=42))
        assert len(ds.users) == 100
        assert len(ds.items) == 60
        for user in ds.users:
            seqs = [t.seq for t in ds.transactions if t.user == user]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
        assert all(0.0 <= r.value <= 10.0 for r in ds.ratings)

    @pytest.mark.parametrize(
        "config, digest",
        [
            (SyntheticConfig(rng_seed=2024), "ce8d7dfa0f4eee5973b342501fb0b87e592b67dda202dd26a9313290132c4a9c"),
            (
                SyntheticConfig(num_classes=8, num_items=400, users_per_class=10, class_affinity=0.6, rng_seed=7),
                "bb2babeb6c7897e140f3691c820ede5a85e4a8f8a144dbe303e9b73d7cd9963c",
            ),
        ],
        ids=["default-2024", "eight-classes-400-items"],
    )
    def test_output_is_pinned(self, config, digest):
        # a change to the generator that keeps its draws keeps these bytes
        ds = generate_synthetic(config)
        assert hashlib.sha256((to_transaction_csv(ds) + to_rating_csv(ds)).encode()).hexdigest() == digest

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
        ds = Dataset(ratings=[rate("U1", "P1", 5)])
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
            ds = Dataset(ratings=[rate(f"U{i}", "P1", 5) for i in range(n)])
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

    @pytest.mark.parametrize(
        "frac, seed, message",
        [
            ("0.5", 0, "train_fraction must be a real in (0, 1), got '0.5'"),
            (None, 0, "train_fraction must be a real in (0, 1), got None"),
            (True, 0, "train_fraction must be a real in (0, 1), got True"),
            (0.5, "0", "seed must be an int, got '0'"),
            (0.5, 1.0, "seed must be an int, got 1.0"),
            (0.5, None, "seed must be an int, got None"),
        ],
    )
    def test_parameter_of_the_wrong_type(self, frac, seed, message):
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            split_users(random_ten_users(), frac, seed)

    @settings(max_examples=200, deadline=None)
    @given(ds=small_datasets(), frac=st.floats(0.01, 0.99), seed=st.integers(0, 2**32))
    def test_sides_match_build_of_the_same_records(self, ds, frac, seed):
        for side in split_users(ds, frac, seed):
            users = set(side.users)
            assert side == Dataset(
                users=users,
                items=ds.items,
                transactions=[t for t in ds.transactions if t.user in users],
                ratings=[r for r in ds.ratings if r.user in users],
            )


def random_ten_users():
    return Dataset(
        transactions=[tx(f"U{i}", 1, "P1") for i in range(10)],
        ratings=[rate(f"U{i}", "P1", 5) for i in range(10)],
    )
