"""Self-check of the benchmark: every workload shape at a tiny size.

    python3 -m pytest -q bench/test_bench.py

Each test runs bench/run.py the way the benchmark is driven and checks the
printed metrics against BENCHMARK.json.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The end-to-end metrics under the names each workload's users know them by.
USER_NAMES = {
    "query-wide": ["setup_s", "query_p50_ms", "query_p99_ms", "queries_per_s", "ops_failed_pct", "peak_rss_mb"],
    "history-long": ["setup_s", "query_p50_ms", "query_p99_ms", "queries_per_s", "ops_failed_pct", "peak_rss_mb"],
    "evaluate-protocol": [
        "setup_s", "evaluate_s", "precision_pct", "recall_pct", "ops_failed_pct", "peak_rss_mb",
    ],
}
METRIC_LINE = re.compile(r"^metric (\S+): (\S+) (\S+)$")


def bench(workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {m[1]: m[3] for m in map(METRIC_LINE.match, lines) if m}
    return json.loads(lines[-1]), printed


def test_every_workload_is_covered():
    assert sorted(WORKLOADS) == sorted(USER_NAMES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, printed = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in USER_NAMES[workload]:
        assert printed.get(name), f"{name} not printed with a unit"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result, printed = result_of(bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert printed["ops_failed_pct"] == "%"
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["corpus.load_dataset_s"] > 0 and values["sequence.build_precedence_index_s"] > 0
    if workload == "evaluate-protocol":
        assert values["sequence.build_precedence_index_calls"] == 8
        assert values["rules.fp_growth_calls"] == 4
        assert values["recommend.recommender_init_calls"] == 8


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
