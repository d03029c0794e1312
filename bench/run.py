"""shoprec benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload query-wide --seed 1 --seconds 10 --trace 0

Run from the repository root; shoprec is imported from ./src. The inputs are
made by shoprec's synthetic generator in a child process and written to CSV
before any timing, so the measured process receives only files. With
--trace 0 the run measures the end-to-end metrics untraced, each time scaled
by the host speed that bench/hostspeed.py measures alongside; with --trace 1
it wraps each layer's functions and reports per-layer self time and counts.
Every answer is checked, and the default-seed digests are pinned in
bench/expected.json. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Runs leave their record and spans under bench/out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's self-check")
    return parser.parse_args(argv)


def import_checkout() -> None:
    """Make shoprec importable from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("shoprec")
    if spec is None or not Path(spec.origin).resolve().is_relative_to(src):
        raise SystemExit(f"shoprec not found under {src}")


def pinned_digest(workload: str, seed: int):
    return json.loads(EXPECTED.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def aliases(kind: str, metrics: dict) -> dict:
    """The end-to-end metrics under the names the workload's users know them by."""
    if "op_p50_ms" not in metrics:
        return {}
    if kind == "query":
        return {
            "query_p50_ms": metrics["op_p50_ms"],
            "query_p99_ms": metrics["op_p99_ms"],
            "queries_per_s": metrics["ops_per_s"],
        }
    return {"evaluate_s": (metrics["op_p50_ms"][0] / 1000.0, "s")}


def main(argv=None) -> int:
    args = parse_args(argv)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    import_checkout()
    workload = workloads.WORKLOADS[args.workload]
    lib = workloads.Library()
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), workload.name, str(args.seed), str(int(args.tiny)), tmp],
            check=True,
        )
        inputs = (Path(tmp) / "transactions.csv", Path(tmp) / "ratings.csv")
        if tracer is None:
            run = workloads.measure(lib, workload, inputs, args.seconds)
        else:
            run = workloads.measure_traced(lib, workload, inputs, args.seconds, tracer)

    pinned = None if args.tiny else pinned_digest(workload.name, args.seed)
    if pinned is not None:
        run.attempted += 1
        if run.digest != pinned:
            run.failed += 1
            run.problems.append(f"digest {run.digest} != pinned {pinned}")
    failed_pct = 100.0 * run.failed / run.attempted
    shown = dict(run.metrics, **aliases(workload.kind, run.metrics), **run.printed, ops_failed_pct=(failed_pct, "%"))
    record.update(
        sizes=run.sizes,
        digest=run.digest,
        digest_pinned=pinned,
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    )
    if tracer is not None:
        record["absent"] = tracer.absent
        record["unobserved"] = sorted(tracer.unobserved)
        tracer.write_spans(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    stem = f"run-{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for key in ("workload", "seed", "trace", "python", "nproc", "loadavg_start"):
        print(f"{key}: {record[key]}")
    for key, value in run.sizes.items():
        print(f"size {key}: {value}")
    for name, (value, unit) in shown.items():
        print(f"metric {name}: {value:.6g} {unit}")
    for label in record.get("absent", []):
        print(f"absent: {label}")
    print(f"digest: {run.digest} (pinned: {pinned})")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in run.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
