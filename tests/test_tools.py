"""Smoke tests of the scripts under tools/."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# appended to a copy of recommend.py: every score one higher, so every non-empty answer differs
_SHIFT_SCORES = """
_answer = Recommender.recommend_profile


def _shifted(self, profile, exclude_user=None):
    return [Recommendation(r.item, r.score + 1.0, r.source, r.explain) for r in _answer(self, profile, exclude_user)]


Recommender.recommend_profile = _shifted
"""


@pytest.fixture(scope="module")
def tiny_history(tmp_path_factory):
    out = tmp_path_factory.mktemp("history-long")
    subprocess.run([sys.executable, "bench/gen.py", "history-long", "1", "1", str(out)], cwd=ROOT, check=True, timeout=120)
    return out


def ab_query(parent, change, data):
    files = ["--transactions", str(data / "transactions.csv"), "--ratings", str(data / "ratings.csv")]
    args = ["tools/ab_query.py", str(parent), str(change), "--workload", "history-long", *files, "--rounds", "2"]
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_ab_query_of_one_checkout_against_itself_exits_0(tiny_history):
    out = ab_query(ROOT, ROOT, tiny_history)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "change won" in out.stdout


def test_ab_query_exits_1_when_an_answer_differs(tiny_history, tmp_path):
    shutil.copytree(ROOT / "src" / "shoprec", tmp_path / "src" / "shoprec", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "shoprec" / "recommend.py", "a", encoding="utf-8") as file:
        file.write(_SHIFT_SCORES)
    out = ab_query(ROOT, tmp_path, tiny_history)
    assert out.returncode == 1, out.stdout + out.stderr
    assert out.stdout.startswith("answers differ in mode ")


def test_code_lines_prints_each_file_then_the_total():
    paths = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "src" / "shoprec").glob("*.py"))
    args = [sys.executable, "tools/code_lines.py", *paths]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    *per_file, total = out.stdout.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in per_file] == paths
    assert int(total) == sum(int(line.rsplit(" ", 1)[1]) for line in per_file) > 0
