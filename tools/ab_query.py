"""Time the query path of two checkouts side by side, in one process.

    python3 bench/gen.py history-long 1 0 DIR
    python tools/ab_query.py PARENT_ROOT CHANGE_ROOT --workload history-long \\
        --transactions DIR/transactions.csv --ratings DIR/ratings.csv

Each ROOT is a checkout whose package is ROOT/src/shoprec. Both are imported
into this process under the one name ``shoprec``, one after the other, and
each side then builds the workload's query set-up as ``bench/workloads.py``
makes it: the split at the workload's train fraction and the bench's split
seed, ``holdout_profiles``' leave-relevant-out profiles and one engine per
mode at the workload's minsup and minconf and the bench's k and top-N. The
workload, its constants and ``holdout_profiles`` are this checkout's, so
give ``--transactions`` and ``--ratings`` from ``bench/gen.py`` of the same
workload.

Every answer of the two sides must be identical: items, ``score.hex()``,
source and explain, and the same profiles empty. If any differs, the tool
names the first and exits 1. Otherwise it times interleaved passes over the
whole query cycle, every profile in every mode, the side that goes first
alternating by round. It prints each side's median µs per query over the
rounds, the change's ratio to the parent and the rounds the change won.
Standard library only; it writes no file.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.dont_write_bytecode = True  # no caches under bench/ or either checkout
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def import_checkout(root: str) -> SimpleNamespace:
    """The modules of ROOT/src/shoprec, imported apart from any other shoprec."""
    src = str(Path(root, "src").resolve())

    def forget():
        for name in [n for n in sys.modules if n == "shoprec" or n.startswith("shoprec.")]:
            del sys.modules[name]

    forget()
    sys.path.insert(0, src)
    try:
        lib = SimpleNamespace(**{n: importlib.import_module(f"shoprec.{n}") for n in ("corpus", "recommend", "errors")})
    finally:
        sys.path.remove(src)
        forget()  # the modules keep one another through their own globals
    if not Path(lib.corpus.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ab_query: {root} has no src/shoprec (imported {lib.corpus.__file__})")
    return lib


def build_side(lib, args) -> SimpleNamespace:
    """One side's query cycle: (mode, engine, profile) for every test user in every mode."""
    w = workloads.WORKLOADS[args.workload]
    dataset = lib.corpus.load_dataset(args.transactions, args.ratings)
    train, test = lib.corpus.split_users(dataset, w.train_fraction, workloads.SPLIT_SEED)
    profiles = workloads.holdout_profiles(lib, test)
    engines = {
        mode: lib.recommend.Recommender(
            train,
            lib.recommend.RecommenderConfig(
                mode=mode,
                k_neighbors=workloads.K_NEIGHBORS,
                top_n=workloads.TOP_N,
                minsup_pct=w.minsup_pct,
                minconf_pct=w.minconf_pct,
            ),
        )
        for mode in args.modes
    }
    cycle = [(mode, engines[mode], profile) for profile in profiles for mode in args.modes]
    return SimpleNamespace(cycle=cycle, no_profile=lib.errors.NoProfileError)


def answers(side) -> list:
    """Each answer of the cycle as comparable data; None where the profile is empty in the mode."""
    out = []
    for _, engine, profile in side.cycle:
        try:
            recs = engine.recommend_profile(profile)
        except side.no_profile:
            out.append(None)
        else:
            out.append([(r.item, r.score.hex(), r.source, r.explain) for r in recs])
    return out


def one_pass(side) -> float:
    """Seconds for one pass over the whole query cycle."""
    no_profile = side.no_profile
    t0 = perf_counter()
    for _, engine, profile in side.cycle:
        try:
            engine.recommend_profile(profile)
        except no_profile:
            pass
    return perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--transactions", required=True)
    parser.add_argument("--ratings", required=True)
    parser.add_argument("--modes", nargs="+", choices=workloads.MODES, default=list(workloads.MODES))
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sides = {"parent": build_side(import_checkout(args.parent_root), args)}
    sides["change"] = build_side(import_checkout(args.change_root), args)
    parent, change = sides["parent"].cycle, sides["change"].cycle
    n = len(parent)
    if not n or len(change) != n:
        print(f"query cycles of {n} and {len(change)} queries: nothing to compare")
        return 1
    for (mode, _, _), a, b in zip(parent, answers(sides["parent"]), answers(sides["change"])):
        if a != b:
            print(f"answers differ in mode {mode}:\n  parent {a}\n  change {b}")
            return 1

    times = {"parent": [], "change": []}
    for r in range(args.rounds):
        for name in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            times[name].append(one_pass(sides[name]))
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    median = {name: 1e6 * statistics.median(t) / n for name, t in times.items()}
    print(f"{args.workload}: {n} queries a pass ({len(args.modes)} modes), {args.rounds} rounds")
    for name in ("parent", "change"):
        print(f"{name}: {median[name]:.2f} µs per query (median)")
    print(f"change / parent: {median['change'] / median['parent']:.3f}, change won {won} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
