"""Dataset model, CSV ingestion, synthetic data generation, and user splitting.

The Dataset is the single source of truth for every index in the package:
user vectors, the inverse-frequency table, the purchase-precedence index and
the transaction list used for rule mining are all derived from it.

Two CSV formats are supported (UTF-8; LF and CRLF line endings both load,
and a leading UTF-8 byte-order mark is skipped). Only a line feed ends a
line: a lone carriage return, a form feed or a Unicode line separator is
part of its row.

    transactions.csv    header ``tid,user,seq,items``; items are ``;``-separated
    ratings.csv         header ``user,item,value``; value is a real in [0, 10]

Identifiers are opaque strings; they may not contain ``,``, ``;`` or newlines
(the formats are unquoted). Ratings use a single canonical 0-10 scale. A seq
is an optional ``-`` followed by ASCII digits, as :func:`to_transaction_csv`
writes it; ``int()`` would also take ``1_0``, `` 1``, ``+1`` and non-ASCII
digits, which a seq is not.

Every record is validated once, where it enters. ``Dataset.build`` validates
records made in code (the synthetic generator, tests). The loaders check each
row as they read it, so their errors name the file and line, and then hand
their sorted records to the private trusted constructor, as do the merge in
``load_dataset`` and the subsets made by ``split_users``: a subset of a valid
dataset is valid, and filtering a sorted tuple keeps it sorted.
"""

from __future__ import annotations

import random
import re
from codecs import BOM_UTF8
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, IntegrityError, ParseError, RangeError

TRANSACTION_HEADER = "tid,user,seq,items"
RATING_HEADER = "user,item,value"

_forbidden_id_char = re.compile("[,;\n\r]").search
# A record from a list of its field values, without the keyword-argument
# constructor's Python-level call: the loaders build one per row.
_new_record = tuple.__new__


def _check_id(kind: str, value: str, where: str = "") -> str:
    if not value or _forbidden_id_char(value):
        raise IntegrityError(f"{where}invalid {kind} id {value!r}")
    return value


def _check_ids(kind: str, values) -> None:
    """IntegrityError for the first of the values that is not a valid id string.

    A few C-level passes check all of them; only a failed pass walks the
    values one by one, to name the offender.
    """
    try:
        joined = "".join(values)
    except TypeError:  # a value that is not a string
        joined = None
    # the characters of _forbidden_id_char: four scans beat one regex search here
    if joined is None or "" in values or "," in joined or ";" in joined or "\n" in joined or "\r" in joined:
        for value in values:
            if not isinstance(value, str):
                raise IntegrityError(f"invalid {kind} id {value!r}")
            _check_id(kind, value)


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


@dataclass
class Dataset:
    """Immutable-by-convention container of users, items, transactions and ratings.

    Records built in code go through :meth:`build`, which validates invariants
    and canonicalizes ordering so that equal datasets compare equal. The
    loaders, the merge in :func:`load_dataset` and :func:`split_users` check
    their records where they read them, or take them from a valid dataset,
    and construct through the private :meth:`_trusted`. Derived lookup tables
    are cached on first access; do not mutate a Dataset after construction.
    """

    users: tuple[str, ...] = ()
    items: tuple[str, ...] = ()
    transactions: tuple[Transaction, ...] = ()
    ratings: tuple[RatingRecord, ...] = ()

    @classmethod
    def build(cls, users=None, items=None, transactions=(), ratings=()) -> "Dataset":
        """Validate and canonicalize into a Dataset.

        When ``users``/``items`` are None they are inferred from the records.
        Raises IntegrityError on duplicate keys or unknown references and
        RangeError on out-of-range rating values.
        """
        transactions = tuple(transactions)
        ratings = tuple(ratings)

        if users is None:
            users = {t.user for t in transactions} | {r.user for r in ratings}
        if items is None:
            items = {i for t in transactions for i in t.items} | {r.item for r in ratings}
        users = tuple(sorted({_check_id("user", u) for u in users}))
        items = tuple(sorted({_check_id("item", i) for i in items}))
        user_set, item_set = set(users), set(items)

        seen_seq: set[tuple[str, int]] = set()
        for t in transactions:
            _check_id("transaction", t.tid)
            if t.user not in user_set:
                raise IntegrityError(f"transaction {t.tid}: unknown user {t.user!r}")
            if not t.items:
                raise IntegrityError(f"transaction {t.tid}: empty item list")
            if len(set(t.items)) != len(t.items):
                raise IntegrityError(f"transaction {t.tid}: duplicate item in one transaction")
            for i in t.items:
                if i not in item_set:
                    raise IntegrityError(f"transaction {t.tid}: unknown item {i!r}")
            key = (t.user, t.seq)
            if key in seen_seq:
                raise IntegrityError(f"duplicate seq {t.seq} for user {t.user}")
            seen_seq.add(key)

        seen_rating: set[tuple[str, str]] = set()
        for r in ratings:
            if r.user not in user_set:
                raise IntegrityError(f"rating: unknown user {r.user!r}")
            if r.item not in item_set:
                raise IntegrityError(f"rating: unknown item {r.item!r}")
            if not 0.0 <= r.value <= 10.0:
                raise RangeError(f"rating {r.user},{r.item}: value {r.value} outside [0, 10]")
            key = (r.user, r.item)
            if key in seen_rating:
                raise IntegrityError(f"duplicate rating for ({r.user}, {r.item})")
            seen_rating.add(key)

        # a rating's tuple order is its (user, item) order: the pair is unique
        return cls._trusted(users, items, _sorted_transactions(transactions), sorted(ratings))

    @classmethod
    def _trusted(cls, users, items, transactions, ratings) -> "Dataset":
        """Construct without checks from records that are already valid.

        The caller guarantees what :meth:`build` would check: unique sorted
        ids that are all valid, records that reference only those ids, no
        duplicate keys, values in range, and records in canonical order.
        """
        return cls(tuple(users), tuple(items), tuple(transactions), tuple(ratings))

    # Derived lookup tables. Cached: the dataset must not be mutated after use.

    @cached_property
    def ratings_by_user(self) -> dict[str, dict[str, float]]:
        table: dict[str, dict[str, float]] = {u: {} for u in self.users}
        for r in self.ratings:
            table[r.user][r.item] = r.value
        return table

    @cached_property
    def transactions_by_user(self) -> dict[str, list[Transaction]]:
        table: dict[str, list[Transaction]] = {u: [] for u in self.users}
        for t in self.transactions:
            table[t.user].append(t)
        return table  # already seq-sorted by canonical ordering

    @cached_property
    def purchase_counts_by_user(self) -> dict[str, dict[str, int]]:
        """Per-user purchase occurrence counts n(user, item) across transactions."""
        table: dict[str, dict[str, int]] = {u: {} for u in self.users}
        for t in self.transactions:
            counts = table[t.user]
            for i in t.items:
                counts[i] = counts.get(i, 0) + 1
        return table

    @cached_property
    def purchaser_counts(self) -> dict[str, int]:
        """Number of distinct users who purchased each item (purchased items only)."""
        # each user's count map holds each item it bought once, so its keys count buyers
        return Counter(chain.from_iterable(self.purchase_counts_by_user.values()))

    def has_user(self, user: str) -> bool:
        return user in self.ratings_by_user


def _sorted_transactions(transactions):
    return sorted(transactions, key=attrgetter("user", "seq"))


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------


def _read_lines(path, expected_header: str) -> list[str]:
    """The lines of a CSV file after its header, which is checked; [] for an empty file.

    Lines end at a line feed only, and one carriage return before it is
    dropped, so every error counts lines as the UTF-8 check does: the line at
    index i is line i + 2 of the file. A leading UTF-8 byte-order mark is
    skipped; bytes that are not UTF-8 raise ParseError naming the line they
    sit on.
    """
    data = Path(path).read_bytes().removeprefix(BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {lineno}: not valid UTF-8") from None
    if not text:
        return []
    lines = text.replace("\r\n", "\n").split("\n")
    lines[-1] = lines[-1].removesuffix("\r")
    if lines[0] != expected_header:
        raise ParseError(f"{path}: line 1: expected header {expected_header!r}")
    return lines[1:]


def load_transactions(path) -> Dataset:
    """Load a transaction CSV into a Dataset fragment (users/items inferred).

    Parsing is atomic: any malformed row raises ParseError naming the line,
    an invalid id, a duplicate item within a row or a duplicate (user, seq)
    raises IntegrityError naming the line, and nothing is returned.
    """
    transactions = []
    # a set per user, not a (user, seq) tuple per row: fewer objects for the collector to walk
    seqs_by_user: dict[str, set[int]] = {}
    for lineno, line in enumerate(_read_lines(path, TRANSACTION_HEADER), 2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 fields, got {len(fields)}")
        tid, user, seq_text, items_text = fields
        # after the line and field splits, ";" and a lone "\r" are the forbidden characters left
        if not (tid and user) or ";" in tid or ";" in user or "\r" in line:
            _check_id("transaction", tid, f"{path}: line {lineno}: ")
            _check_id("user", user, f"{path}: line {lineno}: ")
        try:
            if not (seq_text.isascii() and seq_text.removeprefix("-").isdigit()):
                raise ValueError
            seq = int(seq_text)  # ValueError too for more digits than int() converts
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad seq {seq_text!r}") from None
        items = tuple(items_text.split(";"))
        if "" in items:
            raise ParseError(f"{path}: line {lineno}: empty item id")
        if "\r" in items_text:
            for i in items:
                _check_id("item", i, f"{path}: line {lineno}: ")
        if len(items) > 1 and len(set(items)) != len(items):
            raise IntegrityError(f"{path}: line {lineno}: duplicate item within transaction")
        seqs = seqs_by_user.get(user)
        if seqs is None:
            seqs_by_user[user] = {seq}
        elif seq in seqs:
            raise IntegrityError(f"{path}: line {lineno}: duplicate seq {seq} for user {user}")
        else:
            seqs.add(seq)
        fields[2] = seq
        fields[3] = items
        transactions.append(_new_record(Transaction, fields))
    return Dataset._trusted(
        sorted(seqs_by_user),
        sorted(set(chain.from_iterable(t.items for t in transactions))),
        _sorted_transactions(transactions),
        (),
    )


def load_ratings(path) -> Dataset:
    """Load a rating CSV into a Dataset fragment (users/items inferred).

    Parsing is atomic, as in :func:`load_transactions`: a malformed row, an
    invalid id, a value outside [0, 10] or a duplicate (user, item) raises an
    error naming the line.
    """
    ratings = []
    rated_by_user: dict[str, set[str]] = {}  # as in load_transactions
    for lineno, line in enumerate(_read_lines(path, RATING_HEADER), 2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(f"{path}: line {lineno}: expected 3 fields, got {len(fields)}")
        user, item, value_text = fields
        # after the line and field splits, ";" and a lone "\r" are the forbidden characters left
        if not (user and item) or ";" in line or "\r" in line:
            _check_id("user", user, f"{path}: line {lineno}: ")
            _check_id("item", item, f"{path}: line {lineno}: ")
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad value {value_text!r}") from None
        if not 0.0 <= value <= 10.0:
            raise RangeError(f"{path}: line {lineno}: value {value} outside [0, 10]")
        rated = rated_by_user.get(user)
        if rated is None:
            rated_by_user[user] = {item}
        elif item in rated:
            raise IntegrityError(f"{path}: line {lineno}: duplicate rating for ({user}, {item})")
        else:
            rated.add(item)
        fields[2] = value
        ratings.append(_new_record(RatingRecord, fields))
    ratings.sort()  # as in Dataset.build
    return Dataset._trusted(sorted(rated_by_user), sorted(set().union(*rated_by_user.values())), (), ratings)


def load_dataset(transactions_path=None, ratings_path=None) -> Dataset:
    """Load and merge both CSV files; either may be omitted.

    Users and items are inferred from the records, so the two files cannot
    disagree: the merge takes the union of their ids and each file's records
    as loaded.
    """
    tx = load_transactions(transactions_path) if transactions_path else Dataset()
    rt = load_ratings(ratings_path) if ratings_path else Dataset()
    return Dataset._trusted(
        sorted(set(tx.users).union(rt.users)),
        sorted(set(tx.items).union(rt.items)),
        tx.transactions,
        rt.ratings,
    )


def to_transaction_csv(dataset: Dataset) -> str:
    lines = [TRANSACTION_HEADER]
    for t in dataset.transactions:
        lines.append(f"{t.tid},{t.user},{t.seq},{';'.join(t.items)}")
    return "\n".join(lines) + "\n"


def to_rating_csv(dataset: Dataset) -> str:
    lines = [RATING_HEADER]
    for r in dataset.ratings:
        lines.append(f"{r.user},{r.item},{r.value}")
    return "\n".join(lines) + "\n"


def save_transactions(dataset: Dataset, path) -> None:
    Path(path).write_text(to_transaction_csv(dataset), encoding="utf-8", newline="")


def save_ratings(dataset: Dataset, path) -> None:
    Path(path).write_text(to_rating_csv(dataset), encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


@dataclass
class SyntheticConfig:
    """Parameters for the planted-class synthetic dataset.

    Items are partitioned into ``num_classes`` equal blocks. A user of class c
    purchases and rates block-c items with probability ``class_affinity`` and
    items from the other blocks otherwise. In-block ratings are drawn around
    8.5 and off-block ratings around 2.5, each +/- ``noise_rating_spread``
    (clamped to [0, 10]); with a spread above 1.5 some in-block ratings fall
    below the usual relevance threshold of 7, which keeps leave-relevant-out
    querying meaningful.
    """

    num_classes: int = 4
    num_items: int = 60
    users_per_class: int = 25
    ratings_per_user: tuple[int, int] = (10, 18)
    transactions_per_user: tuple[int, int] = (5, 10)
    class_affinity: float = 0.9
    noise_rating_spread: float = 3.0
    rng_seed: int = 0

    def validate(self) -> None:
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.num_items < 1 or self.num_items % self.num_classes != 0:
            raise ConfigError("num_items must divide evenly into num_classes blocks")
        if self.users_per_class < 0:
            raise ConfigError("users_per_class must be >= 0")
        for name in ("ratings_per_user", "transactions_per_user"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ConfigError(f"{name} must be a (lo, hi) range with 0 <= lo <= hi")
        if not 0.0 < self.class_affinity <= 1.0:
            raise ConfigError("class_affinity must be in (0, 1]")
        if self.noise_rating_spread < 0.0:
            raise ConfigError("noise_rating_spread must be >= 0")


_IN_CLASS_BASE = 8.5
_OUT_CLASS_BASE = 2.5
_MAX_ITEMS_PER_TRANSACTION = 4
_REPEAT_PURCHASE_PROB = 0.35


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Generate a deterministic planted-class dataset for the given seed.

    Each user gets a hidden taste value per touched item (class base plus
    noise) and ratings report the taste directly. Later baskets re-buy one
    of the user's in-class purchases with a fixed probability, so purchase
    counts concentrate on liked items the way frequency weighting assumes.
    Users rate what they bought first: the rated pool starts with the
    distinct purchases and is topped up with class-biased draws.
    """
    config.validate()
    rng = random.Random(config.rng_seed)

    items = [f"I{i + 1:03d}" for i in range(config.num_items)]
    block_size = config.num_items // config.num_classes
    blocks = [items[b * block_size : (b + 1) * block_size] for b in range(config.num_classes)]

    num_users = config.num_classes * config.users_per_class
    users = [f"U{u + 1:03d}" for u in range(num_users)]
    item_class = {item: b for b, block in enumerate(blocks) for item in block}

    def draw_item(cls: int) -> str:
        if config.num_classes == 1 or rng.random() < config.class_affinity:
            return rng.choice(blocks[cls])
        others = [i for i in items if item_class[i] != cls]
        return rng.choice(others)

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
                taste[item] = _clamp(base + noise, 0.0, 10.0)
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
            transactions.append(
                Transaction(tid=f"T{tid_counter:05d}", user=user, seq=seq, items=tuple(basket))
            )
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
            ratings.append(RatingRecord(user=user, item=item, value=round(taste_of(item), 2)))

    return Dataset.build(users=users, items=items, transactions=transactions, ratings=ratings)


def split_users(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Randomly partition users into train/test datasets.

    The splits are disjoint, cover all users, and each carries only its own
    users' transactions and ratings (the item catalog is shared). The test
    share is floored, so tiny datasets keep every user in train. Neither side
    is validated again: a subset of a valid dataset is valid, and filtering
    its sorted tuples keeps them sorted.
    """
    if not 0.0 < train_fraction < 1.0:
        raise RangeError(f"train_fraction {train_fraction} outside (0, 1)")

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
            (t for t in dataset.transactions if t.user in users),
            (r for r in dataset.ratings if r.user in users),
        )

    return restrict(train_users), restrict(test_users)
