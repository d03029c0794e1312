import codecs
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shoprec import cli
from shoprec.corpus import load_dataset, to_rating_csv, to_transaction_csv
from shoprec.errors import ShoprecError
from shoprec.recommend import Recommender
from shoprec.similarity import MODES

from conftest import SRC, TABLE1_CSV

WORKED_TRANSACTIONS = (
    "tid,user,seq,items\n"
    + "\n".join(
        f"{u}-{s},{u},{s},{i}"
        for u, seq in [
            ("U1", ["P1", "P2", "P4", "P5"]),
            ("U2", ["P1", "P2", "P3", "P4", "P5"]),
            ("U3", ["P1", "P2", "P3"]),
        ]
        for s, i in enumerate(seq, start=1)
    )
    + "\n"
)

WORKED_RATINGS = (
    "user,item,value\n"
    + "\n".join(
        f"{u},{i},{v}"
        for u, vals in [
            ("U1", {"P1": 5, "P2": 6, "P4": 7, "P5": 8}),
            ("U2", {"P1": 5, "P2": 6, "P3": 6, "P4": 2, "P5": 9}),
            ("U3", {"P1": 4, "P2": 5, "P3": 6}),
        ]
        for i, v in vals.items()
    )
    + "\n"
)


# evaluate --json at the reference config (ROADMAP's reference-quality table)
REFERENCE_EVALUATE_JSON = [
    '{"mode": "simple", "precision_pct": 54.5, "recall_pct": 23.9982, "rules_enabled": false, "top_n": 5, "users_evaluated": 20, "users_skipped": 0}',
    '{"mode": "simple", "precision_pct": 51.9167, "recall_pct": 25.768, "rules_enabled": true, "top_n": 5, "users_evaluated": 20, "users_skipped": 0}',
    '{"mode": "method1", "precision_pct": 61.2037, "recall_pct": 27.8375, "rules_enabled": false, "top_n": 5, "users_evaluated": 18, "users_skipped": 2}',
    '{"mode": "method1", "precision_pct": 58.4259, "recall_pct": 31.1532, "rules_enabled": true, "top_n": 5, "users_evaluated": 18, "users_skipped": 2}',
    '{"mode": "method2", "precision_pct": 57.7778, "recall_pct": 27.0042, "rules_enabled": false, "top_n": 5, "users_evaluated": 18, "users_skipped": 2}',
    '{"mode": "method2", "precision_pct": 56.1111, "recall_pct": 30.3199, "rules_enabled": true, "top_n": 5, "users_evaluated": 18, "users_skipped": 2}',
    '{"mode": "implicit", "precision_pct": 46.8519, "recall_pct": 21.8498, "rules_enabled": false, "top_n": 5, "users_evaluated": 18, "users_skipped": 2}',
    '{"mode": "implicit", "precision_pct": 46.4815, "recall_pct": 23.8163, "rules_enabled": true, "top_n": 5, "users_evaluated": 18, "users_skipped": 2}',
]

# sha256 of test_reference_recommend_json_is_pinned's rendering
REFERENCE_RECOMMEND_JSON_SHA256 = "7e9609e379d9de41e403c419091d4efa086bd90a20da0295a9c6533ab536d108"


def run_cli(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "shoprec.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture
def data_dir(tmp_path):
    (tmp_path / "table1.csv").write_text(TABLE1_CSV)
    (tmp_path / "worked_t.csv").write_text(WORKED_TRANSACTIONS)
    (tmp_path / "worked_r.csv").write_text(WORKED_RATINGS)
    return tmp_path


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        result = run_cli()
        assert result.returncode == 1
        assert "usage" in result.stderr.lower()

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 1

    def test_unknown_flag(self, data_dir):
        result = run_cli("mine-rules", "--transactions", str(data_dir / "table1.csv"), "--wat")
        assert result.returncode == 1

    def test_missing_file_is_data_error(self):
        result = run_cli("mine-rules", "--transactions", "no-such-file.csv")
        assert result.returncode == 2

    def test_bad_flag_value_is_config_error(self, data_dir):
        # parses as an int, but no engine takes zero neighbours
        result = run_cli(
            "recommend",
            "--transactions", str(data_dir / "worked_t.csv"),
            "--ratings", str(data_dir / "worked_r.csv"),
            "--user", "U3", "--k", "0",
        )
        assert result.returncode == 2
        assert "k_neighbors" in result.stderr
        assert result.stdout == ""

    def test_corrupt_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("tid,user,seq,items\nT1,U1,one,P1\n")
        result = run_cli("mine-rules", "--transactions", str(bad))
        assert result.returncode == 2
        assert "line 2" in result.stderr

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "r.csv"
        bad.write_bytes(b"user,item,value\nU1,P1,5\nU1,P\xff,5\n")
        assert cli.main(["ingest-check", "--ratings", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"shoprec: error: {bad}: line 3: not valid UTF-8"]

    def test_byte_order_mark_is_skipped(self, data_dir, capsys):
        for name in ("table1.csv", "worked_r.csv"):
            path = data_dir / name
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        args = ["ingest-check", "--transactions", str(data_dir / "table1.csv"), "--ratings", str(data_dir / "worked_r.csv")]
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == "ok: users=8 items=5 transactions=5 ratings=12\n"
        assert captured.err == ""


class TestMineRules:
    def test_full_confidence_rule(self, data_dir):
        result = run_cli(
            "mine-rules",
            "--transactions", str(data_dir / "table1.csv"),
            "--minsup", "40", "--minconf", "100",
        )
        assert result.returncode == 0
        assert result.stdout == "P2 => P1, support=40%, confidence=100%\n"

    def test_json_matches_text(self, data_dir):
        args = ["mine-rules", "--transactions", str(data_dir / "table1.csv"), "--minsup", "40", "--minconf", "60"]
        text = run_cli(*args).stdout.splitlines()
        rows = [json.loads(line) for line in run_cli(*args, "--json").stdout.splitlines()]
        assert len(text) == len(rows)
        for line, row in zip(text, rows):
            assert line.startswith(";".join(row["antecedent"]) + " => " + ";".join(row["consequent"]))

    @pytest.mark.parametrize("as_json", [False, True])
    def test_antecedent_filter(self, data_dir, capsys, as_json):
        """--antecedent keeps exactly the unfiltered rules whose antecedent holds the item."""
        args = ["mine-rules", "--transactions", str(data_dir / "table1.csv"), "--minsup", "40", "--minconf", "50"]
        args += ["--json"] if as_json else []

        def antecedent(line):
            return json.loads(line)["antecedent"] if as_json else line.split(" => ")[0].split(";")

        assert cli.main(args) == 0
        unfiltered = capsys.readouterr().out.splitlines()
        assert cli.main([*args, "--antecedent", "P2"]) == 0
        filtered = capsys.readouterr().out.splitlines()
        assert filtered == [line for line in unfiltered if "P2" in antecedent(line)]
        assert 0 < len(filtered) < len(unfiltered)
        assert cli.main([*args, "--antecedent", "P9"]) == 0
        assert capsys.readouterr().out == ""


class TestRecommend:
    def test_worked_fixture(self, data_dir):
        result = run_cli(
            "recommend",
            "--transactions", str(data_dir / "worked_t.csv"),
            "--ratings", str(data_dir / "worked_r.csv"),
            "--user", "U3",
        )
        assert result.returncode == 0
        assert "P5" in result.stdout
        assert "P4" not in result.stdout

    def test_json_matches_text(self, data_dir):
        args = [
            "recommend",
            "--transactions", str(data_dir / "worked_t.csv"),
            "--ratings", str(data_dir / "worked_r.csv"),
            "--user", "U3",
        ]
        text_lines = run_cli(*args).stdout.splitlines()
        json_rows = [json.loads(l) for l in run_cli(*args, "--json").stdout.splitlines()]
        assert len(text_lines) == len(json_rows)
        for line, row in zip(text_lines, json_rows):
            fields = line.split()
            assert fields[0] == f"{row['rank']}."
            assert fields[1] == row["item"]
            assert float(fields[2]) == row["score"]
            assert fields[3] == row["source"]
            assert fields[4] == row["explain"]

    def test_unknown_user_is_data_error(self, data_dir):
        result = run_cli(
            "recommend",
            "--transactions", str(data_dir / "worked_t.csv"),
            "--ratings", str(data_dir / "worked_r.csv"),
            "--user", "nobody",
        )
        assert result.returncode == 2


class TestRecommendNew:
    def test_popularity_order(self, data_dir):
        result = run_cli(
            "recommend-new", "--transactions", str(data_dir / "table1.csv"), "--top-n", "2"
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0].split()[1] == "P1"  # bought by four of five users
        assert lines[1].split()[1] == "P4"

    def test_top_n_zero_is_config_error(self, data_dir):
        result = run_cli("recommend-new", "--transactions", str(data_dir / "table1.csv"), "--top-n", "0")
        assert result.returncode == 2
        assert "top_n" in result.stderr


class TestDumpIndex:
    def test_golden_lines(self, data_dir):
        result = run_cli("dump-index", "--transactions", str(data_dir / "worked_t.csv"))
        lines = result.stdout.splitlines()
        assert "P3,P5,1" in lines
        assert lines == sorted(lines)


class TestGenDataAndEvaluate:
    def test_pipeline(self, tmp_path):
        gen = run_cli(
            "gen-data", "--out", str(tmp_path / "d"),
            "--users-per-class", "10", "--seed", "3",
        )
        assert gen.returncode == 0
        assert (tmp_path / "d" / "transactions.csv").exists()
        assert (tmp_path / "d" / "ratings.csv").exists()

        check = run_cli(
            "ingest-check",
            "--transactions", str(tmp_path / "d" / "transactions.csv"),
            "--ratings", str(tmp_path / "d" / "ratings.csv"),
        )
        assert check.returncode == 0
        assert check.stdout.startswith("ok:")

        ev = run_cli(
            "evaluate",
            "--transactions", str(tmp_path / "d" / "transactions.csv"),
            "--ratings", str(tmp_path / "d" / "ratings.csv"),
            "--minsup", "1", "--minconf", "10", "--seed", "42", "--json",
        )
        assert ev.returncode == 0
        rows = [json.loads(l) for l in ev.stdout.splitlines()]
        assert len(rows) == 8
        assert {r["mode"] for r in rows} == {"simple", "method1", "method2", "implicit"}

    def test_evaluate_text_and_json_agree(self, tmp_path):
        gen = run_cli("gen-data", "--out", str(tmp_path / "d"), "--users-per-class", "8", "--seed", "2")
        assert gen.returncode == 0
        base = (
            "evaluate",
            "--transactions", str(tmp_path / "d" / "transactions.csv"),
            "--ratings", str(tmp_path / "d" / "ratings.csv"),
            "--minsup", "1", "--minconf", "10", "--seed", "42",
        )
        text = run_cli(*base).stdout
        rows = [json.loads(l) for l in run_cli(*base, "--json").stdout.splitlines()]
        body = [l for l in text.splitlines() if l and not l.startswith(("mode", "-", "("))]
        assert len(body) == len(rows)
        for line, row in zip(body, rows):
            fields = line.split()
            assert fields[0] == row["mode"]
            assert (fields[1] == "on") == row["rules_enabled"]
            assert float(fields[2]) == pytest.approx(row["precision_pct"], abs=5e-3)
            assert float(fields[3]) == pytest.approx(row["recall_pct"], abs=5e-3)
            assert int(fields[4]) == row["top_n"]
            assert int(fields[5]) == row["users_evaluated"]
            assert int(fields[6]) == row["users_skipped"]

    def test_reference_evaluate_json_is_pinned(self, tmp_path, capsys):
        """The reference-quality table: gen-data --seed 2024, evaluate --seed 42 --minsup 1 --minconf 10."""
        assert cli.main(["gen-data", "--seed", "2024", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.main([
            "evaluate",
            "--transactions", str(tmp_path / "transactions.csv"),
            "--ratings", str(tmp_path / "ratings.csv"),
            "--json", "--seed", "42", "--minsup", "1", "--minconf", "10",
        ]) == 0
        assert capsys.readouterr().out.splitlines() == REFERENCE_EVALUATE_JSON

    def test_reference_recommend_json_is_pinned(self, tmp_path, capsys):
        """recommend --json --minsup 1 --minconf 10 for every user of gen-data --seed 2024,
        in every mode with rules on and off, rendered as the CLI renders it; one engine
        per config stands in for 800 cli.main calls."""
        assert cli.main(["gen-data", "--seed", "2024", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        ds = load_dataset(tmp_path / "transactions.csv", tmp_path / "ratings.csv")
        parser = cli.build_parser()
        for mode in MODES:
            for rules_flag in ([], ["--no-rules"]):
                args = parser.parse_args([
                    "recommend", "--transactions", "t", "--ratings", "r", "--user", "-",
                    "--json", "--mode", mode, "--minsup", "1", "--minconf", "10", *rules_flag,
                ])
                engine = Recommender(ds, cli._recommender_config(args))
                for user in ds.users:
                    print(mode, *rules_flag, user)
                    try:
                        cli._print_recommendations(engine.recommend_user(user), True)
                    except ShoprecError as exc:
                        print(f"shoprec: error: {exc}")
        out = capsys.readouterr().out
        assert out.count("\n") > 800
        assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE_RECOMMEND_JSON_SHA256

    def test_evaluate_bad_mode(self, tmp_path):
        gen = run_cli("gen-data", "--out", str(tmp_path / "d"), "--users-per-class", "5", "--seed", "1")
        assert gen.returncode == 0
        ev = run_cli(
            "evaluate",
            "--transactions", str(tmp_path / "d" / "transactions.csv"),
            "--ratings", str(tmp_path / "d" / "ratings.csv"),
            "--modes", "bogus",
        )
        assert ev.returncode == 2


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, data_dir, tmp_path):
        commands = [
            ("mine-rules", "--transactions", str(data_dir / "table1.csv"), "--minsup", "20", "--minconf", "20"),
            ("dump-index", "--transactions", str(data_dir / "worked_t.csv")),
            (
                "recommend",
                "--transactions", str(data_dir / "worked_t.csv"),
                "--ratings", str(data_dir / "worked_r.csv"),
                "--user", "U3", "--json",
            ),
            ("recommend-new", "--transactions", str(data_dir / "table1.csv")),
        ]
        for args in commands:
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout


# Near-valid input for the input-boundary property: well-formed rows with
# unique keys, some of whose fields are swapped for a form that int(), float()
# or a loose id check would take. Each oddity shrinks away, so a failing
# example shrinks to the fewest of them.
_USERS = [f"U{n}" for n in range(1, 9)]
_ITEMS = ["P1", "P2", "P3", "P4", "P5"]
_ODD_FIELDS = [
    "", "1_0", " 1", "+1", "-1", "nan", "1e400", "inf", "١", "x\x0b", "P1\u2028", "U1\r", "\ufeffU1", "P1;P1", "P1;", "a,b",
]


def _rarely(draw, one_in: int) -> bool:
    return draw(st.integers(1, one_in)) == one_in


@st.composite
def _transaction_rows(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from(_USERS), st.integers(1, 20)), unique=True, max_size=16))
    items = st.lists(st.sampled_from(_ITEMS), min_size=1, max_size=3, unique=True)
    return [[f"T{n}", user, str(seq), ";".join(draw(items))] for n, (user, seq) in enumerate(keys)]


@st.composite
def _rating_rows(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from(_USERS), st.sampled_from(_ITEMS)), unique=True, max_size=16))
    return [[user, item, draw(st.sampled_from(["10", "8.25", "7", "2.5", "0"]))] for user, item in keys]


@st.composite
def _near_valid_csv(draw, header, rows):
    lines = [header.upper() if _rarely(draw, 20) else header]
    for fields in draw(rows):
        if _rarely(draw, 10):
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_ODD_FIELDS))
        if _rarely(draw, 30):
            fields.append("")  # an extra comma
        lines.append(",".join(fields))
        if _rarely(draw, 20):
            lines.append("")
    endings = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    text = "".join(
        line + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if endings == "mixed" else endings) for line in lines
    )
    data = text.encode("utf-8")
    if _rarely(draw, 5):
        data = codecs.BOM_UTF8 + data
    if _rarely(draw, 10):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestInputBoundary:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        transactions=_near_valid_csv("tid,user,seq,items", _transaction_rows()),
        ratings=_near_valid_csv("user,item,value", _rating_rows()),
    )
    def test_bad_input_exits_2_with_one_error_line(self, transactions, ratings):
        """Any input file gives exit 0, or exit 2 with exactly one error line; never a
        traceback. What loads writes back to files that load to an equal dataset."""
        with tempfile.TemporaryDirectory() as tmp:
            t, r = Path(tmp) / "t.csv", Path(tmp) / "r.csv"
            t.write_bytes(transactions)
            r.write_bytes(ratings)
            data = ["--transactions", str(t), "--ratings", str(r)]
            rules = ["--minsup", "10", "--minconf", "10"]
            commands = [
                ["ingest-check", *data],
                ["recommend", *data, "--user", "U1", *rules],
                ["evaluate", *data, *rules, "--json"],
                ["dump-index", "--transactions", str(t)],
                ["mine-rules", "--transactions", str(t), *rules],
            ]
            codes = []
            for argv in commands:
                code, _, err = _main(argv)
                assert code in (0, 2), argv
                errors = err.splitlines()
                if code == 2:
                    assert len(errors) == 1 and errors[0].startswith("shoprec: error: "), errors
                else:
                    assert errors == []
                codes.append(code)
            if codes[0] == 0:
                ds = load_dataset(t, r)
                t.write_text(to_transaction_csv(ds), encoding="utf-8", newline="")
                r.write_text(to_rating_csv(ds), encoding="utf-8", newline="")
                assert load_dataset(t, r) == ds
