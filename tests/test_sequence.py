import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprec.corpus import Dataset
from shoprec.sequence import bought_after, build_precedence_index, dump_lines

from conftest import random_dataset, small_datasets, tx
from oracles import precedence_counts


class TestPrecedenceCounts:
    def test_four_purchase_chain(self):
        ds = Dataset(transactions=[tx("U1", s, f"P{s}") for s in (1, 2, 3, 4)])
        counts = precedence_counts(ds)
        expected = {
            ("P1", "P2"): 1, ("P1", "P3"): 1, ("P1", "P4"): 1,
            ("P2", "P3"): 1, ("P2", "P4"): 1, ("P3", "P4"): 1,
        }
        assert counts == expected

    def test_items_in_one_transaction_are_simultaneous(self):
        ds = Dataset(transactions=[tx("U1", 1, "P1", "P2")])
        assert precedence_counts(ds) == {}

    def test_empty_dataset(self):
        assert precedence_counts(Dataset()) == {}

    def test_pairs_aggregate_across_users(self):
        ds = Dataset(
            transactions=[tx("U1", 1, "A"), tx("U1", 2, "B"), tx("U2", 1, "B"), tx("U2", 2, "A")]
        )
        counts = precedence_counts(ds)
        # both directions exist because the two users shopped in opposite order
        assert counts.get(("A", "B"), 0) == 1
        assert counts.get(("B", "A"), 0) == 1

    def test_records_given_with_users_interleaved(self):
        # the constructor sorts the rows by (user, seq); each user's history then runs on its own
        ds = Dataset(
            transactions=[tx("U2", 2, "A"), tx("U1", 2, "B"), tx("U2", 1, "C"), tx("U1", 1, "A"), tx("U2", 3, "B")],
            ratings=[("U0", "A", 5.0)],  # a user with no transactions
        )
        # U1 bought A, then B; U2 bought C, then A, then B
        assert precedence_counts(ds) == {("A", "B"): 2, ("C", "A"): 1, ("C", "B"): 1}
        assert build_precedence_index(ds).before == {"A": {"C"}, "B": {"A", "C"}}

    def test_matches_brute_force_oracle(self):
        rng = random.Random(9)
        for _ in range(40):
            ds = random_dataset(rng, n_users=4, n_items=5, with_ratings=False)
            got = precedence_counts(ds)
            expected = {}
            for user in ds.users:
                events = [
                    (t.seq, i)
                    for t in ds.transactions
                    if t.user == user
                    for i in t.items
                ]
                for s1, i1 in events:
                    for s2, i2 in events:
                        if s1 < s2:
                            expected[(i1, i2)] = expected.get((i1, i2), 0) + 1
            assert got == expected

    def test_rebuild_is_identical(self):
        ds = random_dataset(random.Random(10), with_ratings=False)
        assert precedence_counts(ds) == precedence_counts(ds)


class TestBuildIndex:
    """The index holds exactly the pairs that precedence_counts counts at least once."""

    @settings(max_examples=300, deadline=None)
    @given(ds=small_datasets())
    def test_pairs_are_the_counted_pairs(self, ds):
        index = build_precedence_index(ds)
        pairs = {(h, c) for c, earlier in index.before.items() for h in earlier}
        assert pairs == set(precedence_counts(ds))
        assert len(index) == len(pairs)

    @pytest.mark.parametrize("as_set", [set, frozenset, lambda items: dict.fromkeys(items, 1).keys()])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), ds=small_datasets())
    def test_bought_after_matches_counts(self, as_set, data, ds):
        """Any Set serves as the history, a dict's keys view included; an empty one passes everything."""
        index, counts = build_precedence_index(ds), precedence_counts(ds)
        items = sorted(ds.items) + ["unknown"]
        drawn = data.draw(st.sets(st.sampled_from(items)), label="history")
        for history in (as_set(drawn), as_set(())):
            for candidate in items:
                expected = not history or any(counts.get((h, candidate), 0) >= 1 for h in history)
                assert bought_after(index, candidate, history) == expected

    def test_repurchase_precedes_itself(self):
        ds = Dataset(transactions=[tx("U1", 1, "P1"), tx("U1", 2, "P2"), tx("U1", 3, "P1")])
        assert build_precedence_index(ds).before == {"P1": {"P1", "P2"}, "P2": {"P1"}}


class TestBoughtAfter:
    def test_series_bought_in_order(self, physics):
        idx = build_precedence_index(physics)
        history = {"Ph3", "Ph4"}
        # the first two volumes never follow the later ones in training
        assert not bought_after(idx, "Ph1", history)
        assert not bought_after(idx, "Ph2", history)
        assert bought_after(idx, "Ph4", {"Ph1"})

    def test_candidate_follows_history(self, worked_example):
        idx = build_precedence_index(worked_example)
        assert bought_after(idx, "P5", {"P1", "P2", "P3"})

    def test_empty_history_passes(self):
        idx = build_precedence_index(Dataset())
        assert bought_after(idx, "anything", set())

    def test_monotone_in_history(self):
        rng = random.Random(11)
        for _ in range(30):
            ds = random_dataset(rng, n_users=4, n_items=5, with_ratings=False)
            idx = build_precedence_index(ds)
            items = list(ds.items)
            small = set(rng.sample(items, rng.randint(0, 2)))
            big = small | set(rng.sample(items, rng.randint(0, 3)))
            for candidate in items:
                if bought_after(idx, candidate, small):
                    assert bought_after(idx, candidate, big) or not small
                    # empty small always passes; a nonempty pass must survive growth
                    if small:
                        assert bought_after(idx, candidate, big)


def test_dump_lines_sorted(physics):
    lines = dump_lines(build_precedence_index(physics))
    assert lines == [
        "Ph1,Ph2",
        "Ph1,Ph3",
        "Ph1,Ph4",
        "Ph2,Ph3",
        "Ph2,Ph4",
        "Ph3,Ph4",
    ]
    assert lines == sorted(lines)


def test_dump_lines_sorted_by_pair_not_by_line():
    # "A" < "A!" as ids, but "A!,B" < "A,B" as lines, since "!" sorts below ","
    ds = Dataset(transactions=[tx("U1", 1, "A", "A!"), tx("U1", 2, "B")])
    assert dump_lines(build_precedence_index(ds)) == ["A,B", "A!,B"]


@settings(max_examples=200, deadline=None)
@given(ds=small_datasets())
def test_dump_lines_are_the_counted_pairs_in_order(ds):
    """One line per counted pair, without its count, in the order of the sorted pairs."""
    assert dump_lines(build_precedence_index(ds)) == [f"{a},{b}" for a, b in sorted(precedence_counts(ds))]
