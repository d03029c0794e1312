r"""Dataset model, CSV ingestion, synthetic data generation, and user splitting.

The Dataset is the single source of truth for every index in the package:
user vectors, the inverse-frequency table, the purchase-precedence index and
the transaction list used for rule mining are all derived from it.

Two CSV formats are supported (UTF-8; LF and CRLF line endings both load,
and a leading UTF-8 byte-order mark is skipped). Only a line feed ends a
line: a lone carriage return, a form feed or a Unicode line separator is
part of its row.

    transactions.csv    header ``tid,user,seq,items``; items are ``;``-separated
    ratings.csv         header ``user,item,value``; value is a real in [0, 10]

Identifiers are opaque strings. An id is non-empty and may hold any character
except ``,``, ``;``, ``\n`` and ``\r`` (the formats are unquoted), so ``\v``,
``\f``, ``\x1c``-``\x1e``, ``\x85``, U+2028 and U+2029 are allowed and
round-trip. A tid is unique within its file. Ratings use a
single canonical 0-10 scale. A seq is an optional ``-`` followed by ASCII
digits, as :func:`to_transaction_csv` writes it; ``int()`` would also take
``1_0``, `` 1``, ``+1`` and non-ASCII digits, which a seq is not. A rating
value is ASCII text that ``float()`` reads, with no ``_`` and no leading or
trailing whitespace, which covers every form :func:`to_rating_csv` writes.

A dataset stores its transactions and ratings as plain tuples, rows
``(tid, user, seq, items)`` and ``(user, item, value)``, in
``Dataset.transaction_rows`` and ``Dataset.rating_rows``. The cyclic garbage
collector stops tracking an exact tuple of strings and numbers at its first
collection, but tracks a tuple subclass such as a named tuple for good, so
stored rows add nothing to the full collections that run during a load and
the engine builds. Every path in this package reads the rows.
``Dataset.transactions`` and ``Dataset.ratings`` build a new tuple of
:class:`Transaction` or :class:`RatingRecord` records from them on each
read, for callers that read fields by name.

One load keeps one object per id: within a :func:`load_dataset` call every
mention of a user or item id, in both files, is the same ``str`` as the
matching element of ``Dataset.users`` or ``Dataset.items``, and rows with the
same value text share one ``float``. The rows then hold one string per id
rather than one per row; :func:`split_users` reuses the rows, so its
subsets share them and their strings too.

Every record is checked once, on one path: the walks ``_check_transactions``
and ``_check_ratings`` state each record invariant and its message. The
``Dataset`` constructor runs them on records made in code. ``_parse`` is the
one home of the file protocol, for both files: it reads the text (UTF-8, line
ends, the header and the field count it gives), makes each row with the file
kind's row function (seq and value syntax, empty item ids, one object per
id), runs the kind's walk, and prefixes every error with the file and line.
A file with several faults reports the first faulty line; within one row, a
syntax fault comes first. Only :func:`load_dataset` and
:func:`split_users` then skip the walks, through ``Dataset._trusted``: the
loaded rows have passed them, a subset of a valid dataset is valid, and
filtering a sorted tuple keeps it sorted.
"""

from __future__ import annotations

import os
import random
from codecs import BOM_UTF8
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, islice
from numbers import Real
from operator import itemgetter
from typing import NamedTuple

from .errors import ConfigError, IntegrityError, ParseError, RangeError, ShoprecError

TRANSACTION_HEADER = "tid,user,seq,items"
RATING_HEADER = "user,item,value"


def _nowhere(k: int) -> str:  # where a record made in code came from
    return ""


def _check_id(kind: str, value, at=_nowhere, k: int = 0) -> str:
    if not isinstance(value, str) or not value or "," in value or ";" in value or "\n" in value or "\r" in value:
        raise IntegrityError(f"{at(k)}invalid {kind} id {_shown(value)}")
    return value


_TEXT = (str, bytes, bytearray, memoryview)  # text and bytes-like values, whose elements are no ids


def _is_collection(value) -> bool:  # of records or of ids: a string, a bytes-like value or a mapping is not one
    return isinstance(value, Iterable) and not isinstance(value, (*_TEXT, Mapping))


def _is_int(value) -> bool:  # a count, a seq or a seed
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:  # a threshold or a percentage
    return isinstance(value, Real) and not isinstance(value, bool)


def _shown(value) -> str:
    """``repr(value)``; an int too long for ``str()`` (by default over 4,300 digits) is named by its size."""
    try:
        return repr(value)
    except ValueError:  # the int, or an int inside the value, has more digits than str() converts
        if not isinstance(value, int):
            return f"a {type(value).__name__} too long to show"
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


# The value rules, each a predicate that a valid value passes and the words that state it. Every config,
# record, profile and public function checks its values against them through _require, so each rule has
# one predicate and one wording. A bool is never a number here.
_Rule = NamedTuple("_Rule", [("ok", Callable[[object], bool]), ("words", str)])
_COUNT = _Rule(lambda v: _is_int(v) and v >= 1, "an int >= 1")  # top_n, k and n
_PERCENTAGE = _Rule(lambda v: _is_real(v) and 0.0 < v <= 100.0, "a real in (0, 100]")  # minsup, minconf
_TRAIN_FRACTION = _Rule(lambda v: _is_real(v) and 0.0 < v < 1.0, "a real in (0, 1)")
_SEED = _Rule(_is_int, "an int")
_THRESHOLD = _Rule(lambda v: _is_real(v) and 0.0 <= v <= 10.0, "a real in [0, 10]")  # NaN is not
# a stored rating is written as str(value), so it is an int or a float: a Fraction would be written 17/2
_RATING = _Rule(lambda v: (isinstance(v, float) or _is_int(v)) and 0.0 <= v <= 10.0, "an int or a float in [0, 10]")
# far above a file's counts; a larger one can overflow a query's floats
_PURCHASE_COUNT = _Rule(lambda v: _is_int(v) and 1 <= v <= 2**53, "an int from 1 to 2**53")
_IDS = _Rule(_is_collection, "a collection of ids")  # users, items, and the items relevant to a query
# a ranked list of ids, such as a query's recommended items: a string, a bytes-like value or a set is not one
_RANKED_IDS = _Rule(lambda v: isinstance(v, Sequence) and not isinstance(v, _TEXT), "a sequence of ids")
_RECORDS = _Rule(_is_collection, "a collection of records")  # transactions, ratings


def _require(name: str, value, rule: _Rule, error: type[ShoprecError] = RangeError) -> None:
    """Raise ``error("{name} must be {rule's words}, got {value}")`` if ``value`` breaks ``rule``."""
    if not rule.ok(value):
        raise error(f"{name} must be {rule.words}, got {_shown(value)}")


def _require_type(name: str, value, cls: type) -> None:
    """Raise ``TypeError("{name} must be a {cls}, got {value's type}")`` if ``value`` is not a ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")


def _check_fields(config, names: str, rule: _Rule) -> None:
    """ConfigError for the first field in ``names`` whose value breaks ``rule``."""
    for name in names.split():
        _require(name, getattr(config, name), rule, ConfigError)


def _config(cls, source, **given):
    """A ``cls`` config whose fields are ``given``, the rest taken from ``source``'s attributes of the same names."""
    return cls(**{f.name: getattr(source, f.name) for f in fields(cls) if f.name not in given}, **given)


class Transaction(NamedTuple):
    """One purchase event: a user buying one or more items at sequence position seq.

    Items within a single transaction are simultaneous; only the per-user seq
    ordering carries time information.
    """

    tid: str
    user: str
    seq: int
    items: tuple[str, ...]


class RatingRecord(NamedTuple):
    """An explicit rating of one item by one user, on the 0-10 scale."""

    user: str
    item: str
    value: float


@dataclass(frozen=True, init=False)
class Dataset:
    """Frozen container of users, items, transaction rows and rating rows.

    :attr:`transactions` and :attr:`ratings` copy the rows into records on
    each read. The constructor is the one checked way in, as a config's is;
    assigning a field raises ``FrozenInstanceError``. Derived lookup tables
    are cached on first access.
    """

    users: tuple[str, ...]
    items: tuple[str, ...]
    transaction_rows: tuple[tuple[str, str, int, tuple[str, ...]], ...]
    rating_rows: tuple[tuple[str, str, float], ...]

    def __init__(self, users=None, items=None, transactions=(), ratings=()) -> None:
        """Validate and canonicalize records into a Dataset.

        Users and items are inferred from the records when None. A record may
        be a Transaction or RatingRecord or a plain tuple. A faulty record
        raises what :func:`load_dataset` raises for it, without the line; an
        argument that is not a collection (a string, a bytes-like value or a
        mapping is not one), an unknown reference, a record without its
        fields or a field of the wrong type raises IntegrityError (RangeError
        for a value): ids are str, a seq an int, items a tuple, a value an int
        or a float, a bool none of these.
        """
        transactions = _rows("transaction", transactions, Transaction._fields)
        ratings = _rows("rating", ratings, RatingRecord._fields)
        tx_users, tx_items = _check_transactions(transactions, _nowhere)
        rt_users, rt_items = _check_ratings(ratings, _nowhere)
        self._fill(*_canonical(users, items, tx_users | rt_users, tx_items | rt_items, transactions, ratings))

    @classmethod
    def _trusted(cls, users, items, transactions, ratings) -> "Dataset":
        """Construct past the walks, from exact-tuple rows in canonical order that would pass them."""
        dataset = object.__new__(cls)
        dataset._fill(users, items, transactions, ratings)
        return dataset

    def _fill(self, users, items, transactions, ratings) -> None:  # past the frozen __setattr__
        vars(self).update(
            users=tuple(users), items=tuple(items), transaction_rows=tuple(transactions), rating_rows=tuple(ratings)
        )

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        """The transactions as :class:`Transaction` records, in (user, seq) order; each read builds
        a new tuple in O(rows), so counts and library code read :attr:`transaction_rows`."""
        return tuple(map(Transaction._make, self.transaction_rows))

    @property
    def ratings(self) -> tuple[RatingRecord, ...]:
        """The ratings as :class:`RatingRecord` records, in (user, item) order; each read builds
        a new tuple in O(rows), so counts and library code read :attr:`rating_rows`."""
        return tuple(map(RatingRecord._make, self.rating_rows))

    # Derived lookup tables, cached in the instance's __dict__, which freezing leaves writable.

    @cached_property
    def ratings_by_user(self) -> dict[str, dict[str, float]]:
        table: dict[str, dict[str, float]] = {u: {} for u in self.users}
        for user, item, value in self.rating_rows:
            table[user][item] = value
        return table

    @cached_property
    def purchase_counts_by_user(self) -> dict[str, dict[str, int]]:
        """Per-user purchase occurrence counts n(user, item) across transactions."""
        table: dict[str, dict[str, int]] = {u: {} for u in self.users}
        for _, user, _, items in self.transaction_rows:
            counts = table[user]
            for i in items:
                counts[i] = counts.get(i, 0) + 1
        return table

    @cached_property
    def purchaser_counts(self) -> dict[str, int]:
        """Number of distinct users who purchased each item (purchased items only)."""
        # each user's count map holds each item it bought once, so its keys count buyers
        return Counter(chain.from_iterable(self.purchase_counts_by_user.values()))


def _rows(kind: str, records, fields: tuple[str, ...]) -> list[tuple]:
    """The records as plain tuples; IntegrityError names the argument if it is not a
    collection of records (a string, a bytes-like value or a mapping is not), or else the first
    record that does not hold the ``fields``."""
    _require(f"{kind}s", records, _RECORDS, IntegrityError)
    rows = []
    for record in records:
        if not isinstance(record, Iterable) or len(row := tuple(record)) != len(fields):
            raise IntegrityError(f"{kind} {_shown(record)} is not a ({', '.join(fields)}) record")
        rows.append(row)
    return rows


def _check_transactions(transactions, at):
    """The user ids and item ids the transactions name; raise for the first faulty one.

    ``at(k)``, called only to raise, prefixes the message with where the k-th
    record came from. Each user and item id is checked when first met.
    """
    tids: set[str] = set()
    # per user a set of its seqs, not a (user, seq) tuple per record: fewer objects to collect
    seqs_by_user: dict[str, set[int]] = {}
    items: set[str] = set()
    for k, (tid, user, seq, basket) in enumerate(transactions):
        _check_id("transaction", tid, at, k)  # before the lookup below, which an unhashable tid would fail
        if user.__class__ is not str or (seqs := seqs_by_user.get(user)) is None:
            seqs = seqs_by_user.setdefault(_check_id("user", user, at, k), set())
        if seq.__class__ is not int and not _is_int(seq):
            raise IntegrityError(f"{at(k)}transaction {tid}: seq {_shown(seq)} is not an int")
        if basket.__class__ is not tuple or not basket:
            raise IntegrityError(f"{at(k)}transaction {tid}: items {_shown(basket)} are not a non-empty tuple")
        try:
            known = items.issuperset(basket)
        except TypeError:  # an unhashable item, which _check_id names
            known = False
        if not known:  # a basket with an item not met before
            items.update(_check_id("item", item, at, k) for item in basket)
        if len(basket) > 1 and len(set(basket)) != len(basket):
            raise IntegrityError(f"{at(k)}transaction {tid}: duplicate item in one transaction")
        if seq in seqs:
            raise IntegrityError(f"{at(k)}duplicate seq {_shown(seq)} for user {user}")
        seqs.add(seq)
        if tid in tids:
            raise IntegrityError(f"{at(k)}duplicate transaction id {tid}")
        tids.add(tid)
    return seqs_by_user.keys(), items


def _check_ratings(ratings, at):
    """:func:`_check_transactions` for ratings: a value is an int or a float in [0, 10], NaN not."""
    rated_by_user: dict[str, set[str]] = {}  # as in _check_transactions
    items: set[str] = set()
    for k, (user, item, value) in enumerate(ratings):
        if user.__class__ is not str or (rated := rated_by_user.get(user)) is None:
            rated = rated_by_user.setdefault(_check_id("user", user, at, k), set())
        if item.__class__ is not str or item not in items:
            items.add(_check_id("item", item, at, k))
        if not _RATING.ok(value):  # the name is built, and its line counted, only for a bad value
            _require(f"{at(k)}rating {user},{item}: value", value, _RATING)
        if item in rated:
            raise IntegrityError(f"{at(k)}duplicate rating for ({user}, {item})")
        rated.add(item)
    return rated_by_user.keys(), items


def _canonical(users, items, met_users, met_items, transactions, ratings):
    """A dataset's fields in canonical order: the declared ids, or the ids met when None,
    sorted; the transaction rows by (user, seq); the rating rows by (user, item)."""
    return (
        _declared_ids("user", users, met_users),
        _declared_ids("item", items, met_items),
        sorted(transactions, key=itemgetter(1, 2)),
        sorted(ratings),  # a rating's tuple order is its (user, item) order: the pair is unique
    )


def _declared_ids(kind: str, declared, met) -> list[str]:
    """The sorted ``declared`` ids, which must cover the ids ``met``; those when None."""
    if declared is None:
        return sorted(met)
    _require(f"{kind}s", declared, _IDS, IntegrityError)  # not a string, whose characters it would declare
    declared = {_check_id(kind, value) for value in declared}
    if unknown := met - declared:
        raise IntegrityError(f"unknown {kind} {min(unknown)!r}")
    return sorted(declared)


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------


def _parse(path, header: str, row_of, check, ids: dict[str, str]):
    """The rows of a CSV file, and the user and item ids they name, in file order.

    ``row_of(fields, canonical, memo)`` makes one row from the fields of a
    line, raising ParseError (without the line) for a malformed field; it
    takes each id from ``canonical``, which maps an id to the one object that
    stands for it in ``ids`` and adds the ids not yet there, and keeps what it
    parsed of each field text in ``memo``. ``check(rows, at)`` is the file
    kind's record walk. Each error names the file and the first faulty line.

    Lines end at a line feed only, and one carriage return before it is
    dropped, so every error counts lines as the UTF-8 check does. A leading
    UTF-8 byte-order mark is skipped; bytes that are not UTF-8 raise
    ParseError naming the line they sit on. The header is checked and gives
    the field count. An empty file has no rows, and neither has a path of
    None, which is not read.
    """
    data = b""
    if path is not None:
        # not Path(path), which reads "" as ".", and not open(path), which takes an
        # int (a bool too) as a file descriptor and closes it: os.fspath raises TypeError
        with open(os.fspath(path), "rb") as file:
            data = file.read().removeprefix(BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {lineno}: not valid UTF-8") from None
    lines = text.replace("\r\n", "\n").split("\n") if text else [header]
    lines[-1] = lines[-1].removesuffix("\r")
    if lines[0] != header:
        raise ParseError(f"{path}: line 1: expected header {header!r}")

    def at(k: int) -> str:  # the k-th row's "{path}: line {n}: "; counts lines only to raise
        numbers = (n for n, line in enumerate(lines, 1) if line)
        return f"{path}: line {next(islice(numbers, k + 1, None))}: "

    width, canonical, memo, rows = header.count(",") + 1, ids.setdefault, {}, []
    try:
        for line in filter(None, lines[1:]):
            fields = line.split(",")
            if len(fields) != width:
                raise ParseError(f"expected {width} fields, got {len(fields)}")
            rows.append(row_of(fields, canonical, memo))
    except ParseError as exc:
        check(rows, at)  # a record fault on an earlier line comes first
        raise ParseError(f"{at(len(rows))}{exc}") from None
    users, items = check(rows, at)
    return rows, users, items


def _transaction_row(fields, canonical, seqs: dict[str, int]):
    """A transaction row for :func:`_parse`; a malformed seq or an empty item id raises ParseError."""
    tid, user, seq_text, items_text = fields
    if (seq := seqs.get(seq_text)) is None:  # each distinct seq text is checked and parsed once
        try:
            if not (seq_text.isascii() and seq_text.removeprefix("-").isdigit()):
                raise ValueError
            seq = seqs[seq_text] = int(seq_text)  # ValueError too for more digits than int() converts
        except ValueError:
            raise ParseError(f"bad seq {seq_text!r}") from None
    item_texts = items_text.split(";")
    items = tuple(map(canonical, item_texts, item_texts))
    if "" in items:
        raise ParseError("empty item id")
    return tid, canonical(user, user), seq, items


def _rating_row(fields, canonical, values: dict[str, float]):
    """A rating row for :func:`_parse`; a malformed value raises ParseError."""
    user, item, value_text = fields
    if (value := values.get(value_text)) is None:  # one float per distinct value text, checked once
        try:
            # float() also takes "1_0", surrounding whitespace and non-ASCII digits
            if not value_text.isascii() or "_" in value_text or value_text != value_text.strip():
                raise ValueError
            value = values[value_text] = float(value_text)
        except ValueError:
            raise ParseError(f"bad value {value_text!r}") from None
    return canonical(user, user), canonical(item, item), value


def load_dataset(transactions_path=None, ratings_path=None) -> Dataset:
    """Load a transaction CSV, a rating CSV or both into one Dataset; a path of None is not read.

    Any other path is read, so an empty one raises OSError. A path is a str
    or an ``os.PathLike``: an int or a bool raises TypeError rather than being
    read as a file descriptor and closed. Users and items are inferred from
    the records, so the two files cannot disagree: the dataset takes the
    union of their ids. A malformed row raises ParseError, and an invalid
    id, a duplicate item within a row, a duplicate (user, seq), a repeated
    tid, a value outside [0, 10] or a duplicate (user, item) raises
    IntegrityError, each naming the file and its first faulty line.
    """
    ids: dict[str, str] = {}  # one object per id, shared by both files' records
    transactions, tx_users, tx_items = _parse(
        transactions_path, TRANSACTION_HEADER, _transaction_row, _check_transactions, ids
    )
    ratings, rt_users, rt_items = _parse(ratings_path, RATING_HEADER, _rating_row, _check_ratings, ids)
    return Dataset._trusted(*_canonical(None, None, tx_users | rt_users, tx_items | rt_items, transactions, ratings))


def _csv(header: str, lines: Iterable[str]) -> str:
    return "\n".join([header, *lines]) + "\n"


def to_transaction_csv(dataset: Dataset) -> str:
    rows = dataset.transaction_rows
    return _csv(TRANSACTION_HEADER, (f"{tid},{user},{seq},{';'.join(items)}" for tid, user, seq, items in rows))


def to_rating_csv(dataset: Dataset) -> str:
    return _csv(RATING_HEADER, (f"{user},{item},{value}" for user, item, value in dataset.rating_rows))


def _write(path, text: str) -> None:
    # not Path(path), which reads "" as ".", nor open(path) of an int: as in _parse
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as file:
        file.write(text)


def save_transactions(dataset: Dataset, path) -> None:
    """Write the dataset's transaction CSV to ``path``, a str or an ``os.PathLike`` as in :func:`load_dataset`.

    A ``dataset`` that is not a ``Dataset`` raises TypeError, and no file is opened.
    """
    _require_type("dataset", dataset, Dataset)
    _write(path, to_transaction_csv(dataset))


def save_ratings(dataset: Dataset, path) -> None:
    """:func:`save_transactions` for the rating CSV."""
    _require_type("dataset", dataset, Dataset)
    _write(path, to_rating_csv(dataset))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters for the planted-class synthetic dataset.

    Items are partitioned into ``num_classes`` equal blocks. A user of class c
    purchases and rates block-c items with probability ``class_affinity`` and
    items from the other blocks otherwise. In-block ratings are drawn around
    8.5 and off-block ratings around 2.5, each +/- ``noise_rating_spread``
    (clamped to [0, 10]); with a spread above 1.5 some in-block ratings fall
    below the usual relevance threshold of 7, which keeps leave-relevant-out
    querying meaningful. Checked and frozen as RecommenderConfig is.
    """

    num_classes: int = 4
    num_items: int = 60
    users_per_class: int = 25
    ratings_per_user: tuple[int, int] = (10, 18)
    transactions_per_user: tuple[int, int] = (5, 10)
    class_affinity: float = 0.9
    noise_rating_spread: float = 3.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self, "num_classes num_items", _COUNT)
        _check_fields(self, "num_items", _Rule(lambda v: v % self.num_classes == 0, "a multiple of num_classes"))
        _check_fields(self, "users_per_class", _Rule(lambda v: _is_int(v) and v >= 0, "an int >= 0"))
        spans = "ratings_per_user transactions_per_user"
        _check_fields(self, spans, _Rule(lambda v: isinstance(v, tuple) and len(v) == 2, "a (lo, hi) tuple"))
        ordered = _Rule(lambda v: all(map(_is_int, v)) and 0 <= v[0] <= v[1], "ints with 0 <= lo <= hi")
        _check_fields(self, spans, ordered)
        _check_fields(self, "class_affinity", _Rule(lambda v: _is_real(v) and 0.0 < v <= 1.0, "a real in (0, 1]"))
        _check_fields(self, "noise_rating_spread", _Rule(lambda v: _is_real(v) and v >= 0.0, "a real >= 0"))
        _check_fields(self, "rng_seed", _SEED)


_IN_CLASS_BASE = 8.5
_OUT_CLASS_BASE = 2.5
_MAX_ITEMS_PER_TRANSACTION = 4
_REPEAT_PURCHASE_PROB = 0.35


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Generate a deterministic planted-class dataset for the given seed.

    Each user gets a hidden taste value per touched item (class base plus
    noise) and ratings report the taste directly. Later baskets re-buy one
    of the user's in-class purchases with a fixed probability, so purchase
    counts concentrate on liked items the way frequency weighting assumes.
    Users rate what they bought first: the rated pool starts with the
    distinct purchases and is topped up with class-biased draws. A ``config``
    that is not a ``SyntheticConfig`` raises TypeError.
    """
    _require_type("config", config, SyntheticConfig)
    rng = random.Random(config.rng_seed)

    items = [f"I{i + 1:03d}" for i in range(config.num_items)]
    block_size = config.num_items // config.num_classes
    blocks = [items[b * block_size : (b + 1) * block_size] for b in range(config.num_classes)]

    num_users = config.num_classes * config.users_per_class
    users = [f"U{u + 1:03d}" for u in range(num_users)]
    item_class = {item: b for b, block in enumerate(blocks) for item in block}
    off_class = [[i for i in items if item_class[i] != cls] for cls in range(config.num_classes)]

    def draw_item(cls: int) -> str:
        if config.num_classes == 1 or rng.random() < config.class_affinity:
            return rng.choice(blocks[cls])
        return rng.choice(off_class[cls])

    transactions = []
    ratings = []
    tid_counter = 0
    for idx, user in enumerate(users):
        cls = idx // config.users_per_class
        purchased: dict[str, int] = {}
        taste: dict[str, float] = {}

        def taste_of(item: str) -> float:
            if item not in taste:
                base = _IN_CLASS_BASE if item_class[item] == cls else _OUT_CLASS_BASE
                noise = rng.uniform(-config.noise_rating_spread, config.noise_rating_spread)
                taste[item] = max(0.0, min(10.0, base + noise))
            return taste[item]

        txn_count = rng.randint(*config.transactions_per_user)
        for seq in range(1, txn_count + 1):
            size = rng.randint(1, min(_MAX_ITEMS_PER_TRANSACTION, config.num_items))
            basket: list[str] = []
            attempts = 0
            liked = sorted(i for i in purchased if item_class[i] == cls)
            while len(basket) < size and attempts < 50:
                if liked and rng.random() < _REPEAT_PURCHASE_PROB:
                    candidate = rng.choice(liked)
                else:
                    candidate = draw_item(cls)
                attempts += 1
                if candidate not in basket:
                    basket.append(candidate)
            tid_counter += 1
            transactions.append((f"T{tid_counter:05d}", user, seq, tuple(basket)))
            for i in basket:
                taste_of(i)
                purchased[i] = purchased.get(i, 0) + 1

        rating_count = min(rng.randint(*config.ratings_per_user), config.num_items)
        pool = list(purchased)  # rate purchased items first, in first-purchase order
        rated = pool[:rating_count]
        guard = 0
        while len(rated) < rating_count and guard < 500:
            candidate = draw_item(cls)
            guard += 1
            if candidate not in rated:
                rated.append(candidate)
        for item in rated:
            ratings.append((user, item, round(taste_of(item), 2)))

    return Dataset(users=users, items=items, transactions=transactions, ratings=ratings)


def split_users(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Randomly partition users into train/test datasets.

    The splits are disjoint, cover all users, and each carries only its own
    users' transactions and ratings (the item catalog is shared). The test
    share is floored, so tiny datasets keep every user in train. Neither side
    is checked again, and both share the dataset's rows. A ``train_fraction``
    that is not a real number in (0, 1), or a ``seed`` that is not an int,
    raises RangeError, and a ``dataset`` that is not a ``Dataset`` TypeError.
    """
    _require_type("dataset", dataset, Dataset)
    _require("train_fraction", train_fraction, _TRAIN_FRACTION)
    _require("seed", seed, _SEED)

    user_ids = list(dataset.users)
    rng = random.Random(seed)
    rng.shuffle(user_ids)
    # +1e-9 guards float noise in n*(1-f) so exact fractions floor correctly
    test_count = int(len(user_ids) * (1.0 - train_fraction) + 1e-9)
    test_users = set(user_ids[:test_count])
    train_users = set(user_ids[test_count:])

    def restrict(users: set[str]) -> Dataset:
        return Dataset._trusted(
            (u for u in dataset.users if u in users),
            dataset.items,
            (row for row in dataset.transaction_rows if row[1] in users),  # row[1] is the user
            (row for row in dataset.rating_rows if row[0] in users),
        )

    return restrict(train_users), restrict(test_users)
