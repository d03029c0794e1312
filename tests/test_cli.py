import argparse
import codecs
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shoprec import cli
from shoprec.corpus import Dataset, SyntheticConfig, load_dataset, to_rating_csv, to_transaction_csv
from shoprec.errors import ShoprecError
from shoprec.evaluate import ExperimentConfig
from shoprec.recommend import RecommenderConfig
from shoprec.sequence import build_precedence_index, dump_lines
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

# evaluate's text table at the reference config
REFERENCE_EVALUATE_TEXT = """\
mode       rules precision%  recall%   N users skipped
------------------------------------------------------
simple     off        54.50    24.00   5    20       0
simple     on         51.92    25.77   5    20       0
method1    off        61.20    27.84   5    18       2
method1    on         58.43    31.15   5    18       2
method2    off        57.78    27.00   5    18       2
method2    on         56.11    30.32   5    18       2
implicit   off        46.85    21.85   5    18       2
implicit   on         46.48    23.82   5    18       2
(train users: 80, test users: 20)
"""

# recommend-new --json over Table 1's transactions: P3 is bought by no one
TABLE1_RECOMMEND_NEW_JSON = """\
{"explain": "cold-start", "item": "P1", "rank": 1, "score": -0.4055, "source": "popularity"}
{"explain": "cold-start", "item": "P4", "rank": 2, "score": -0.6931, "source": "popularity"}
{"explain": "cold-start", "item": "P2", "rank": 3, "score": -1.0986, "source": "popularity"}
{"explain": "cold-start", "item": "P5", "rank": 4, "score": -1.0986, "source": "popularity"}
"""

RECOMMEND_USAGE = """\
usage: shoprec recommend [-h] --transactions TRANSACTIONS --ratings RATINGS
                         --user USER
                         [--mode {simple,method1,method2,implicit}] [--k K]
                         [--top-n TOP_N] [--minsup MINSUP] [--minconf MINCONF]
                         [--threshold THRESHOLD] [--no-rules] [--json]
"""

RECOMMEND_HELP = RECOMMEND_USAGE + """
options:
  -h, --help            show this help message and exit
  --transactions TRANSACTIONS
                        transaction CSV path
  --ratings RATINGS     rating CSV path
  --user USER
  --mode {simple,method1,method2,implicit}
  --k K                 neighbor count
  --top-n TOP_N
  --minsup MINSUP       min support % for rules
  --minconf MINCONF     min confidence % for rules
  --threshold THRESHOLD
                        rating exclusion threshold
  --no-rules            disable rule expansion
  --json
"""


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


@pytest.fixture(scope="module")
def reference_data(tmp_path_factory):
    """The files of gen-data --seed 2024."""
    out = tmp_path_factory.mktemp("reference")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-data", "--seed", "2024", "--out", str(out)]) == 0
    return out


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

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (
                ["--user", "U1", "--k", "x"],
                1,
                "",
                RECOMMEND_USAGE + "shoprec recommend: error: argument --k: invalid int value: 'x'\n",
            ),
            ([], 1, "", RECOMMEND_USAGE + "shoprec recommend: error: the following arguments are required: --user\n"),
            (["--help"], 0, RECOMMEND_HELP, ""),
        ],
        ids=["non-int", "missing-user", "help"],
    )
    def test_usage_bytes(self, monkeypatch, capsys, argv, code, out, err):
        # argparse wraps to the terminal's width, and from Python 3.14 on colours a terminal's text
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("PYTHON_COLORS", "0")
        assert cli.main(["recommend", "--transactions", "t.csv", "--ratings", "r.csv", *argv]) == code
        assert capsys.readouterr() == (out, err)

    def test_missing_file_is_data_error(self):
        result = run_cli("mine-rules", "--transactions", "no-such-file.csv")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--minsup", "0"], "minsup_pct must be a real in (0, 100], got 0.0"),
            (["--minconf", "101"], "minconf_pct must be a real in (0, 100], got 101.0"),
            (["--minsup", "0", "--minconf", "101"], "minsup_pct must be a real in (0, 100], got 0.0"),
            # values the miner once refused as well, which only the config refuses now
            (["--minsup", "-5"], "minsup_pct must be a real in (0, 100], got -5.0"),
            (["--minsup", "nan"], "minsup_pct must be a real in (0, 100], got nan"),
            (["--minsup", "inf"], "minsup_pct must be a real in (0, 100], got inf"),
            (["--minconf", "0"], "minconf_pct must be a real in (0, 100], got 0.0"),
        ],
        ids=["minsup", "minconf", "both", "minsup-negative", "minsup-nan", "minsup-inf", "minconf-zero"],
    )
    def test_bad_rule_threshold_is_config_error(self, data_dir, capsys, flags, message):
        assert cli.main(["mine-rules", "--transactions", str(data_dir / "table1.csv"), *flags]) == 2
        assert capsys.readouterr() == ("", f"shoprec: error: {message}\n")

    def test_missing_file_is_reported_before_a_bad_threshold(self, capsys):
        assert cli.main(["mine-rules", "--transactions", "no-such-file.csv", "--minsup", "0"]) == 2
        assert capsys.readouterr() == ("", "shoprec: error: [Errno 2] No such file or directory: 'no-such-file.csv'\n")

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

    @pytest.mark.parametrize("flag", ["--transactions", "--ratings"])
    def test_empty_path_is_data_error(self, capsys, flag):
        # an empty path once read as no file, and ingest-check printed ok: users=0;
        # then as the current directory, and the error named '.'
        assert cli.main(["ingest-check", flag, ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "shoprec: error: [Errno 2] No such file or directory: ''\n"

    def test_empty_out_is_data_error(self, tmp_path, monkeypatch, capsys):
        # gen-data --out "" once wrote both files into the working directory
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen-data", "--out", "", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "shoprec: error: [Errno 2] No such file or directory: ''\n"
        assert list(tmp_path.iterdir()) == []

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

    def test_json_line_is_the_rule_record(self, data_dir):
        """Every field of the rule, the two percentages rounded to 4 places."""
        args = ["mine-rules", "--transactions", str(data_dir / "table1.csv"), "--minsup", "40", "--minconf", "60"]
        lines = run_cli(*args, "--json").stdout.splitlines()
        assert lines == [
            '{"antecedent": ["P2"], "antecedent_count": 2, "confidence_pct": 100.0, '
            '"consequent": ["P1"], "support_pct": 40.0, "union_count": 2}',
            '{"antecedent": ["P4"], "antecedent_count": 3, "confidence_pct": 66.6667, '
            '"consequent": ["P1"], "support_pct": 40.0, "union_count": 2}',
        ]

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

    @pytest.mark.parametrize("mode", MODES)
    def test_no_rules_prints_the_neighbor_part(self, reference_data, capsys, mode):
        """recommend --no-rules prints exactly the neighbour lines of the answer with rules;
        U013 of gen-data --seed 2024 gets a rule item in every mode, so the check is not vacuous."""
        argv = [
            "recommend", "--transactions", str(reference_data / "transactions.csv"),
            "--ratings", str(reference_data / "ratings.csv"), "--user", "U013",
            "--mode", mode, "--minsup", "1", "--minconf", "10", "--json",
        ]
        outputs = []
        for rules_flag in ([], ["--no-rules"]):
            assert cli.main([*argv, *rules_flag]) == 0
            outputs.append(capsys.readouterr().out.splitlines())
        on, off = outputs
        assert any(json.loads(line)["source"] == "rule" for line in on)
        assert off == [line for line in on if json.loads(line)["source"] == "neighbor"]


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


    def test_json_is_pinned(self, data_dir, capsys):
        assert cli.main(["recommend-new", "--transactions", str(data_dir / "table1.csv"), "--json"]) == 0
        assert capsys.readouterr() == (TABLE1_RECOMMEND_NEW_JSON, "")


class TestDumpIndex:
    def test_golden_lines(self, data_dir):
        result = run_cli("dump-index", "--transactions", str(data_dir / "worked_t.csv"))
        assert result.returncode == 0
        # every pair (earlier, later) of the index the filter reads, and no count
        assert result.stdout.splitlines() == [
            "P1,P2", "P1,P3", "P1,P4", "P1,P5",
            "P2,P3", "P2,P4", "P2,P5",
            "P3,P4", "P3,P5",
            "P4,P5",
        ]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
class TestSigpipe:
    """Only the program sets the SIGPIPE handler: an in-process call keeps its caller's, from any thread."""

    def test_main_runs_in_a_thread(self, capsys):
        # setting a handler from a thread raises ValueError
        codes = []
        before = signal.getsignal(signal.SIGPIPE)
        thread = threading.Thread(target=lambda: codes.append(cli.main(["recommend-new", "--help"])))
        thread.start()
        thread.join()
        assert codes == [0]
        assert capsys.readouterr().out.startswith("usage: shoprec recommend-new")
        assert signal.getsignal(signal.SIGPIPE) == before

    def test_closed_pipe_ends_the_program_quietly(self, tmp_path):
        gen = ["--items", "240", "--users-per-class", "50", "--transactions-per-user", "20", "30", "--seed", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gen-data", "--out", str(tmp_path), *gen]) == 0
        transactions = tmp_path / "transactions.csv"
        # more than a pipe holds, so the program is still writing when its reader goes
        assert sum(len(line) + 1 for line in dump_lines(build_precedence_index(load_dataset(transactions)))) > 2**18
        proc = subprocess.Popen(
            [sys.executable, "-m", "shoprec", "dump-index", "--transactions", str(transactions)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        with proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait() == -signal.SIGPIPE
            assert proc.stderr.read() == b""


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

    def test_reference_evaluate_text_is_pinned(self, reference_data, capsys):
        """The same table as text: gen-data --seed 2024, evaluate --seed 42 --minsup 1 --minconf 10."""
        assert cli.main([
            "evaluate",
            "--transactions", str(reference_data / "transactions.csv"),
            "--ratings", str(reference_data / "ratings.csv"),
            "--seed", "42", "--minsup", "1", "--minconf", "10",
        ]) == 0
        assert capsys.readouterr() == (REFERENCE_EVALUATE_TEXT, "")

    def test_reference_recommend_json_is_pinned(self, tmp_path, capsys, monkeypatch):
        """recommend --json --minsup 1 --minconf 10 for every user of gen-data --seed 2024,
        in every mode with rules on and off, through the command's own code; the files
        are loaded once, so the 800 runs share one dataset and its indexes."""
        assert cli.main(["gen-data", "--seed", "2024", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        ds = load_dataset(tmp_path / "transactions.csv", tmp_path / "ratings.csv")
        monkeypatch.setattr(cli, "load_dataset", lambda *paths: ds)
        parser = cli.build_parser()
        for mode in MODES:
            for rules_flag in ([], ["--no-rules"]):
                args = parser.parse_args([
                    "recommend", "--transactions", "t", "--ratings", "r", "--user", "-",
                    "--json", "--mode", mode, "--minsup", "1", "--minconf", "10", *rules_flag,
                ])
                for user in ds.users:
                    print(mode, *rules_flag, user)
                    args.user = user
                    try:
                        cli._cmd_recommend(args)
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


# command -> its required flags, the config that owns its defaults, and the dest
# of each config-backed flag, which is the name of the one field it sets
ENGINE_FLAGS = "k_neighbors minsup_pct minconf_pct"
CONFIG_BACKED_FLAGS = {
    "recommend": (
        ["--transactions", "t.csv", "--ratings", "r.csv", "--user", "U1"],
        RecommenderConfig,
        f"mode top_n exclusion_threshold {ENGINE_FLAGS}",
    ),
    "recommend-new": (["--transactions", "t.csv"], RecommenderConfig, "top_n"),
    "mine-rules": (["--transactions", "t.csv"], RecommenderConfig, "minsup_pct minconf_pct"),
    "gen-data": (
        ["--out", "out"],
        SyntheticConfig,
        "num_classes num_items users_per_class ratings_per_user transactions_per_user"
        " class_affinity noise_rating_spread rng_seed",
    ),
    "evaluate": (
        ["--transactions", "t.csv", "--ratings", "r.csv"],
        ExperimentConfig,
        f"train_fraction seed top_n modes exclusion_threshold {ENGINE_FLAGS}",
    ),
}
BUILDS_ITS_CONFIG = ("recommend", "gen-data", "evaluate")  # the others read a few engine fields


def _options(command: str) -> list:
    """The optional arguments of ``command``'s subparser, in the order it adds them."""
    parser = cli.build_parser()
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return [action for action in commands.choices[command]._actions if action.option_strings]


@pytest.mark.parametrize("command", CONFIG_BACKED_FLAGS)
def test_flag_defaults_are_the_config_defaults(command):
    required, config, dests = CONFIG_BACKED_FLAGS[command]
    dests = dests.split()
    args = vars(cli.build_parser().parse_args([command, *required]))
    given = {flag.lstrip("-").replace("-", "_") for flag in required[::2]}
    # every flag with a default, switches and optional paths aside, is listed
    defaulted = {d for d, v in args.items() if d not in given and v is not None and v is not False}
    assert defaulted - {"command", "func"} == set(dests)
    # one flag per field: no two of the command's flags share a dest
    flags_of = {dest: [action.option_strings for action in _options(command) if action.dest == dest] for dest in dests}
    assert all(len(flags) == 1 for flags in flags_of.values()), flags_of
    defaults = {f.name: f.default for f in dataclasses.fields(config)}
    if command in BUILDS_ITS_CONFIG:  # every field of the config it builds has a flag
        assert set(dests) == set(defaults)
    for name in dests:
        value = args[name]
        # the commands pass --modes split at commas and each LO HI pair as a tuple
        value = tuple(value.split(",")) if name == "modes" else tuple(value) if name.endswith("_user") else value
        assert value == defaults[name] and type(value) is type(defaults[name]), name


class _Built(Exception):
    """The arguments of a call that a command makes, raised by a stand-in so that the command goes no further."""


def _build(*args):
    raise _Built(*args)


def _typed(config) -> dict:
    return {name: (value, type(value)) for name, value in dataclasses.asdict(config).items()}


class TestEachFlagSetsItsField:
    """Every config-backed flag, given a value that no other flag of its command shares, reaches its own field."""

    @pytest.fixture(autouse=True)
    def no_files(self, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", lambda *paths: Dataset())

    def built_by(self, monkeypatch, name, *argv):
        """The arguments that ``cli.<name>`` receives when the command ``argv`` runs."""
        monkeypatch.setattr(cli, name, _build)
        with pytest.raises(_Built) as built:
            cli.main(list(argv))
        return built.value.args

    def test_recommend(self, monkeypatch):
        _, config = self.built_by(
            monkeypatch, "Recommender",
            "recommend", "--transactions", "t.csv", "--ratings", "r.csv", "--user", "U1", "--mode", "method2",
            "--k", "3", "--top-n", "4", "--minsup", "12.5", "--minconf", "33", "--threshold", "6.5",
        )
        expected = RecommenderConfig(
            mode="method2", k_neighbors=3, top_n=4, minsup_pct=12.5, minconf_pct=33.0, exclusion_threshold=6.5
        )
        assert _typed(config) == _typed(expected)

    def test_recommend_new(self, monkeypatch):
        _, top_n = self.built_by(monkeypatch, "cold_start", "recommend-new", "--transactions", "t.csv", "--top-n", "4")
        assert (top_n, type(top_n)) == (4, int)

    def test_mine_rules(self, monkeypatch):
        monkeypatch.setattr(cli, "fp_growth", lambda rows, minsup: ("itemsets at", minsup, type(minsup)))
        itemsets, minconf = self.built_by(
            monkeypatch, "generate_rules",
            "mine-rules", "--transactions", "t.csv", "--minsup", "12.5", "--minconf", "33",
        )
        assert (itemsets, minconf, type(minconf)) == (("itemsets at", 12.5, float), 33.0, float)

    def test_gen_data(self, monkeypatch):
        (config,) = self.built_by(
            monkeypatch, "generate_synthetic",
            "gen-data", "--out", "out", "--classes", "3", "--items", "30", "--users-per-class", "12",
            "--ratings-per-user", "6", "10", "--transactions-per-user", "4", "8",
            "--affinity", "0.8", "--spread", "2.5", "--seed", "7",
        )
        expected = SyntheticConfig(
            num_classes=3,
            num_items=30,
            users_per_class=12,
            ratings_per_user=(6, 10),
            transactions_per_user=(4, 8),
            class_affinity=0.8,
            noise_rating_spread=2.5,
            rng_seed=7,
        )
        assert _typed(config) == _typed(expected)

    def test_evaluate(self, monkeypatch):
        _, config = self.built_by(
            monkeypatch, "run_experiment",
            "evaluate", "--transactions", "t.csv", "--ratings", "r.csv", "--split", "0.75", "--seed", "11",
            "--n", "4", "--k", "3", "--minsup", "2", "--minconf", "20", "--threshold", "6.5",
            "--modes", "implicit,simple",
        )
        expected = ExperimentConfig(
            train_fraction=0.75,
            top_n=4,
            seed=11,
            modes=("implicit", "simple"),
            k_neighbors=3,
            minsup_pct=2.0,
            minconf_pct=20.0,
            exclusion_threshold=6.5,
        )
        assert _typed(config) == _typed(expected)

    # command -> the stand-in that receives the built config last, and an argument for each
    # config-backed flag that is away from its default and valid with every other default
    ONE_AT_A_TIME = {
        "recommend": (
            "Recommender",
            {"--mode": ["method2"], "--k": ["3"], "--top-n": ["4"], "--minsup": ["12.5"], "--minconf": ["33"],
             "--threshold": ["6.5"]},
        ),
        "gen-data": (
            "generate_synthetic",
            {"--classes": ["3"], "--items": ["32"], "--users-per-class": ["12"], "--ratings-per-user": ["6", "10"],
             "--transactions-per-user": ["4", "8"], "--affinity": ["0.8"], "--spread": ["2.5"], "--seed": ["7"]},
        ),
        "evaluate": (
            "run_experiment",
            {"--split": ["0.75"], "--seed": ["11"], "--n": ["4"], "--k": ["3"], "--minsup": ["2"], "--minconf": ["20"],
             "--threshold": ["6.5"], "--modes": ["implicit,simple"]},
        ),
    }

    @pytest.mark.parametrize("command", BUILDS_ITS_CONFIG)
    def test_each_flag_alone_sets_one_field_and_each_field_has_one_flag(self, monkeypatch, command):
        stand_in, arguments = self.ONE_AT_A_TIME[command]
        required, _, dests = CONFIG_BACKED_FLAGS[command]
        # the table holds every config-backed flag of the command
        options = [action for action in _options(command) if action.dest in dests.split()]
        assert set(arguments) == {flag for action in options for flag in action.option_strings}
        default = self.built_by(monkeypatch, stand_in, command, *required)[-1]
        flags_of = {field.name: [] for field in dataclasses.fields(default)}
        for flag, argument in arguments.items():
            config = self.built_by(monkeypatch, stand_in, command, *required, flag, *argument)[-1]
            changed = [name for name in flags_of if getattr(config, name) != getattr(default, name)]
            assert len(changed) == 1, f"{command} {flag} sets {changed}"
            flags_of[changed[0]].append(flag)
        assert all(len(flags) == 1 for flags in flags_of.values()), flags_of


@pytest.mark.parametrize(
    "config, name, value",
    [
        (RecommenderConfig, "k_neighbors", 5),
        (RecommenderConfig, "top_n", 5),
        (RecommenderConfig, "minsup_pct", 40.0),
        (RecommenderConfig, "minconf_pct", 60.0),
        (RecommenderConfig, "exclusion_threshold", 7.0),
        (ExperimentConfig, "seed", 0),
        (ExperimentConfig, "train_fraction", 0.8),
        (ExperimentConfig, "exclusion_threshold", 7.0),
    ],
)
def test_readme_key_defaults(config, name, value):
    """The defaults README's "Key defaults" documents."""
    default = getattr(config(), name)
    assert default == value and type(default) is type(value)


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
