"""Acceptance suite: each test covers one release criterion at its stated
tolerance and prints a PASS line (visible with ``pytest -s``)."""

import json
import random
import time

import pytest
from pytest import approx

from shoprec.corpus import Dataset, SyntheticConfig, generate_synthetic
from shoprec.evaluate import ExperimentConfig, precision_at_n, recall_at_n, run_experiment
from shoprec.implicit_vsm import new_user_scores
from shoprec.recommend import Profile, Recommender, RecommenderConfig
from shoprec.rules import fp_growth, generate_rules
from shoprec.similarity import build_postings, profile_weights, top_k_neighbors

from conftest import random_dataset, rate, tx
from oracles import cosine_restricted
from test_cli import run_cli
from test_eval import report_row
from test_rules import brute_force_frequent_itemsets

PINNED_SYNTHETIC = SyntheticConfig(
    num_classes=4,
    num_items=60,
    users_per_class=25,
    ratings_per_user=(10, 18),
    transactions_per_user=(5, 10),
    class_affinity=0.9,
    noise_rating_spread=3.0,
    rng_seed=2024,
)

PINNED_EXPERIMENT = ExperimentConfig(
    train_fraction=0.8,
    top_n=5,
    seed=42,
    k_neighbors=5,
    minsup_pct=1.0,
    minconf_pct=10.0,
    exclusion_threshold=7.0,
)

ALL_MODES = ("simple", "method1", "method2", "implicit")


def report_pass(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def pinned_run():
    started = time.perf_counter()
    dataset = generate_synthetic(PINNED_SYNTHETIC)
    report = run_experiment(dataset, PINNED_EXPERIMENT)
    elapsed = time.perf_counter() - started
    return report, elapsed


def test_criterion_01_worked_cosine_example(worked_example):
    started = time.perf_counter()
    target = {"P1": 4.0, "P2": 5.0, "P3": 6.0}  # U3
    full = {"P1": 5.0, "P2": 6.0, "P4": 7.0, "P5": 8.0}  # U1
    overlapping = {"P1": 5.0, "P2": 6.0, "P3": 6.0, "P4": 2.0, "P5": 9.0}  # U2
    first = cosine_restricted(target, full)
    second = cosine_restricted(target, overlapping)
    # .73 and .99 are these values to two digits; the gate is the exact pair
    assert first == approx(0.7296, abs=0.005)
    assert second == approx(0.9951, abs=0.005)
    ds = worked_example
    vectors = {u: profile_weights(ds.ratings_by_user[u], ds.purchase_counts_by_user[u], "simple") for u in ds.users}
    query = vectors["U3"]
    postings = build_postings(vectors)
    neighbors = top_k_neighbors(query, postings, 1, exclude="U3")
    assert neighbors[0][0] == "U2"
    elapsed = time.perf_counter() - started
    assert elapsed < 0.5
    report_pass(1, f"(cosine {first:.4f} / {second:.4f}, top neighbor U2, {elapsed * 1000:.1f} ms)")


def test_criterion_02_frequency_weighted_component():
    # rating 0.5 on the unit scale is 5 canonical; n=5 of 10 purchases
    txns = [tx("U1", s, "P1") for s in range(1, 6)] + [tx("U1", s, "P2") for s in range(6, 11)]
    ds = Dataset(transactions=txns, ratings=[rate("U1", "P1", 5.0)])
    weight = profile_weights(ds.ratings_by_user["U1"], ds.purchase_counts_by_user["U1"], "method1")["P1"]
    assert weight == approx(2.5, abs=1e-12)
    assert weight / 10 == approx(0.25, abs=1e-13)  # the unit-scale reading
    report_pass(2, f"(component {weight})")


def test_criterion_03_market_basket_mining(table1):
    started = time.perf_counter()
    frequents = fp_growth(table1.transactions, 40.0)
    got = {(f.items, f.support_count) for f in frequents}
    expected = {
        (("P1",), 4),
        (("P2",), 2),
        (("P4",), 3),
        (("P5",), 2),
        (("P1", "P2"), 2),
        (("P1", "P4"), 2),
    }
    assert got == expected
    oracle = brute_force_frequent_itemsets(table1.transactions, 40.0)
    assert dict(got) == oracle

    rules = generate_rules(frequents, 100.0)
    rule = next(r for r in rules if r.antecedent == ("P2",) and r.consequent == ("P1",))
    assert rule.confidence_pct == approx(100.0)
    assert rule.support_pct == approx(40.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.5
    report_pass(3, f"(6 itemsets, rule at 100%/40%, {elapsed * 1000:.1f} ms)")


def test_criterion_04_mining_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(77)
    for _ in range(200):
        items = [f"I{i}" for i in range(1, rng.randint(2, 8) + 1)]
        txns = [
            tx(f"U{t}", 1, *rng.sample(items, rng.randint(1, len(items))))
            for t in range(rng.randint(1, 12))
        ]
        minsup = float(rng.randint(2, 95))
        got = {(f.items, f.support_count) for f in fp_growth(txns, minsup)}
        expected = set(brute_force_frequent_itemsets(txns, minsup).items())
        assert got == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report_pass(4, f"(200 instances, {elapsed:.2f} s)")


def test_criterion_05_sequence_filter(physics, worked_example):
    engine = Recommender(physics, RecommenderConfig(top_n=5))
    profile = Profile(ratings={"Ph3": 9.0, "Ph4": 9.0}, purchase_counts={"Ph3": 1, "Ph4": 1})
    filtered = engine.recommend_profile(profile)
    assert [r.item for r in filtered] == []  # earlier volumes suppressed

    recs = Recommender(worked_example, RecommenderConfig(top_n=5)).recommend_user("U3")
    assert "P5" in [r.item for r in recs]
    report_pass(5, "(series volumes filtered, sequenced item passes)")


def test_criterion_06_cold_start_ranking():
    rng = random.Random(99)
    for _ in range(100):
        ds = random_dataset(rng, n_users=6, n_items=7, with_ratings=False)
        got = [i for i, _ in new_user_scores(ds)]
        buyers = {}
        for t in ds.transactions:
            for i in t.items:
                buyers.setdefault(i, set()).add(t.user)
        expected = sorted(buyers, key=lambda i: (-len(buyers[i]), i))
        assert got == expected
    report_pass(6, "(100 random datasets match purchaser-count order)")


def test_criterion_07_mode_comparison_direction(pinned_run):
    report, elapsed = pinned_run
    simple = report_row(report, "simple", False).precision_pct
    implicit = report_row(report, "implicit", False).precision_pct
    method1 = report_row(report, "method1", False).precision_pct
    method2 = report_row(report, "method2", False).precision_pct
    assert simple > implicit
    assert method1 >= simple - 2.0
    assert method2 >= simple - 2.0
    assert elapsed < 30.0
    report_pass(
        7,
        f"(precision simple {simple:.2f} > implicit {implicit:.2f}; "
        f"weighted {method1:.2f}/{method2:.2f}; {elapsed:.2f} s)",
    )


def test_criterion_08_rule_expansion_improves_recall(pinned_run):
    report, _ = pinned_run
    strictly_better = 0
    for mode in ALL_MODES:
        off = report_row(report, mode, False).recall_pct
        on = report_row(report, mode, True).recall_pct
        assert on >= off
        if on > off:
            strictly_better += 1
    assert strictly_better >= 1
    report_pass(8, f"(recall non-decreasing in all modes, strict in {strictly_better})")


def test_criterion_09_metric_oracles():
    import itertools

    universe = ["A", "B", "C", "D", "E"]
    subsets = [
        list(c) for size in range(6) for c in itertools.combinations(universe, size)
    ]
    cases = 0
    for recommended in subsets:
        for relevant in subsets:
            for n in range(1, 6):
                top = recommended[:n]
                hits = len([i for i in top if i in relevant])
                expected_p = 100.0 * hits / min(n, len(recommended)) if recommended else 0.0
                assert precision_at_n(recommended, set(relevant), n) == approx(expected_p)
                if relevant:
                    assert recall_at_n(recommended, set(relevant), n) == approx(
                        100.0 * hits / len(relevant)
                    )
                cases += 1
    report_pass(9, f"({cases} exhaustive cases)")


def test_criterion_10_cli_determinism(tmp_path):
    from conftest import TABLE1_CSV
    from test_cli import WORKED_RATINGS, WORKED_TRANSACTIONS

    table1_csv = tmp_path / "table1.csv"
    table1_csv.write_text(TABLE1_CSV)
    worked_t = tmp_path / "worked_t.csv"
    worked_t.write_text(WORKED_TRANSACTIONS)
    worked_r = tmp_path / "worked_r.csv"
    worked_r.write_text(WORKED_RATINGS)

    gen_args = ["--users-per-class", "6", "--seed", "11"]
    commands = [
        ("ingest-check", "--transactions", str(worked_t), "--ratings", str(worked_r)),
        (
            "recommend",
            "--transactions", str(worked_t),
            "--ratings", str(worked_r),
            "--user", "U3", "--json",
        ),
        ("recommend-new", "--transactions", str(table1_csv)),
        ("mine-rules", "--transactions", str(table1_csv), "--minsup", "20", "--minconf", "20"),
        ("dump-index", "--transactions", str(worked_t)),
    ]
    for args in commands:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout

    out_a, out_b = tmp_path / "gen_a", tmp_path / "gen_b"
    for out in (out_a, out_b):
        result = run_cli("gen-data", "--out", str(out), *gen_args)
        assert result.returncode == 0
    for name in ("transactions.csv", "ratings.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    eval_args = (
        "evaluate",
        "--transactions", str(out_a / "transactions.csv"),
        "--ratings", str(out_a / "ratings.csv"),
        "--minsup", "1", "--minconf", "10", "--seed", "42",
    )
    first = run_cli(*eval_args)
    second = run_cli(*eval_args)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout

    json_run = run_cli(*eval_args, "--json")
    rows = [json.loads(line) for line in json_run.stdout.splitlines()]
    assert len(rows) == 8
    report_pass(10, "(all commands byte-identical across re-runs)")
