"""Command-line interface.

Subcommands: ingest-check, recommend, recommend-new, mine-rules, dump-index,
gen-data, evaluate. Exit codes: 0 success; 1 usage error, when the arguments
do not parse (an unknown command or flag, a missing value, a non-number, a
--mode outside its choices); 2 data or config error, for an unreadable or
invalid input file and for a flag that parses but has a bad value (--k 0,
--minsup 0, --modes bogus).
Every command is deterministic given the same files, flags and seeds; --json
switches list outputs to one JSON object per line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import asdict
from pathlib import Path

from .corpus import (
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    save_ratings,
    save_transactions,
)
from .errors import ShoprecError
from .evaluate import ExperimentConfig, format_report, report_rows_as_dicts, run_experiment
from .recommend import Recommender, RecommenderConfig, cold_start
from .rules import format_rule, fp_growth, generate_rules
from .sequence import build_precedence_index, dump_lines
from .similarity import MODES


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _recommender_config(args) -> RecommenderConfig:
    return RecommenderConfig(
        mode=args.mode,
        k_neighbors=args.k,
        top_n=args.top_n,
        minsup_pct=args.minsup,
        minconf_pct=args.minconf,
        exclusion_threshold=args.threshold,
    )


def _print_recommendations(recs, as_json: bool) -> None:
    for rank, rec in enumerate(recs, start=1):
        if as_json:
            _emit_json({"rank": rank, **asdict(rec), "score": round(rec.score, 4)})
        else:
            print(f"{rank}. {rec.item} {rec.score:.4f} {rec.source} {rec.explain}")


def _cmd_ingest_check(args) -> int:
    ds = load_dataset(args.transactions, args.ratings)
    print(
        f"ok: users={len(ds.users)} items={len(ds.items)} "
        f"transactions={len(ds.transaction_rows)} ratings={len(ds.rating_rows)}"
    )
    return 0


def _cmd_recommend(args) -> int:
    ds = load_dataset(args.transactions, args.ratings)
    recs = Recommender(ds, _recommender_config(args)).recommend_user(args.user)
    if args.no_rules:  # the list without rule expansion is the answer's neighbour part
        recs = [rec for rec in recs if rec.source == "neighbor"]
    _print_recommendations(recs, args.json)
    return 0


def _cmd_recommend_new(args) -> int:
    ds = load_dataset(args.transactions, args.ratings)
    _print_recommendations(cold_start(ds, args.top_n), args.json)
    return 0


def _cmd_mine_rules(args) -> int:
    ds = load_dataset(args.transactions)
    for rule in generate_rules(fp_growth(ds.transaction_rows, args.minsup), args.minconf):
        if args.antecedent is not None and args.antecedent not in rule.antecedent:
            continue
        if args.json:
            _emit_json(
                {
                    **asdict(rule),
                    "support_pct": round(rule.support_pct, 4),
                    "confidence_pct": round(rule.confidence_pct, 4),
                }
            )
        else:
            print(format_rule(rule))
    return 0


def _cmd_dump_index(args) -> int:
    ds = load_dataset(args.transactions)
    # one write: a print per line took most of the run on an index of 150k pairs
    sys.stdout.write("".join(f"{line}\n" for line in dump_lines(build_precedence_index(ds))))
    return 0


def _cmd_gen_data(args) -> int:
    config = SyntheticConfig(
        num_classes=args.classes,
        num_items=args.items,
        users_per_class=args.users_per_class,
        ratings_per_user=tuple(args.ratings_per_user),
        transactions_per_user=tuple(args.transactions_per_user),
        class_affinity=args.affinity,
        noise_rating_spread=args.spread,
        rng_seed=args.seed,
    )
    ds = generate_synthetic(config)
    os.makedirs(args.out, exist_ok=True)  # not Path(args.out).mkdir, which reads "" as "."
    tx_path, rt_path = Path(args.out, "transactions.csv"), Path(args.out, "ratings.csv")
    save_transactions(ds, tx_path)
    save_ratings(ds, rt_path)
    print(f"wrote {tx_path} ({len(ds.transaction_rows)} transactions)")
    print(f"wrote {rt_path} ({len(ds.rating_rows)} ratings)")
    return 0


def _cmd_evaluate(args) -> int:
    ds = load_dataset(args.transactions, args.ratings)
    config = ExperimentConfig(
        train_fraction=args.split,
        top_n=args.n,
        seed=args.seed,
        modes=tuple(args.modes.split(",")),
        k_neighbors=args.k,
        minsup_pct=args.minsup,
        minconf_pct=args.minconf,
        exclusion_threshold=args.threshold,
        relevance_threshold=args.threshold,
    )
    report = run_experiment(ds, config)
    if args.json:
        for row in report_rows_as_dicts(report):
            _emit_json(row)
    else:
        print(format_report(report))
    return 0


def _add_data_args(p, ratings_required: bool = True, transactions_required: bool = True):
    p.add_argument("--transactions", required=transactions_required, help="transaction CSV path")
    p.add_argument(
        "--ratings",
        required=ratings_required,
        default=None,
        help="rating CSV path",
    )


def _add_recommender_args(p):
    p.add_argument("--mode", choices=MODES, default=RecommenderConfig.mode)
    p.add_argument("--k", type=int, default=RecommenderConfig.k_neighbors, help="neighbor count")
    p.add_argument("--top-n", type=int, default=RecommenderConfig.top_n)
    p.add_argument("--minsup", type=float, default=RecommenderConfig.minsup_pct, help="min support %% for rules")
    p.add_argument("--minconf", type=float, default=RecommenderConfig.minconf_pct, help="min confidence %% for rules")
    p.add_argument(
        "--threshold", type=float, default=RecommenderConfig.exclusion_threshold, help="rating exclusion threshold"
    )
    p.add_argument("--no-rules", action="store_true", help="disable rule expansion")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shoprec", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="load and validate CSV inputs")
    _add_data_args(p, ratings_required=False, transactions_required=False)
    p.set_defaults(func=_cmd_ingest_check)

    p = sub.add_parser("recommend", help="recommend items for an existing user")
    _add_data_args(p)
    p.add_argument("--user", required=True)
    _add_recommender_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("recommend-new", help="cold-start recommendations by popularity")
    _add_data_args(p, ratings_required=False)
    p.add_argument("--top-n", type=int, default=RecommenderConfig.top_n)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_recommend_new)

    p = sub.add_parser("mine-rules", help="mine association rules from transactions")
    p.add_argument("--transactions", required=True)
    p.add_argument("--minsup", type=float, default=RecommenderConfig.minsup_pct)
    p.add_argument("--minconf", type=float, default=RecommenderConfig.minconf_pct)
    p.add_argument("--antecedent", default=None, help="only rules with this item in the antecedent")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mine_rules)

    p = sub.add_parser("dump-index", help="dump the purchase-precedence index")
    p.add_argument("--transactions", required=True)
    p.set_defaults(func=_cmd_dump_index)

    p = sub.add_parser("gen-data", help="generate a synthetic planted-class dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int, default=SyntheticConfig.num_classes)
    p.add_argument("--items", type=int, default=SyntheticConfig.num_items)
    p.add_argument("--users-per-class", type=int, default=SyntheticConfig.users_per_class)
    span = dict(type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--ratings-per-user", default=SyntheticConfig.ratings_per_user, **span)
    p.add_argument("--transactions-per-user", default=SyntheticConfig.transactions_per_user, **span)
    p.add_argument("--affinity", type=float, default=SyntheticConfig.class_affinity)
    p.add_argument("--spread", type=float, default=SyntheticConfig.noise_rating_spread)
    p.add_argument("--seed", type=int, default=SyntheticConfig.rng_seed)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("evaluate", help="run the precision/recall comparison")
    _add_data_args(p)
    p.add_argument("--split", type=float, default=ExperimentConfig.train_fraction, help="train fraction")
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--n", type=int, default=ExperimentConfig.top_n, help="top-N cutoff")
    p.add_argument("--modes", default=",".join(ExperimentConfig.modes), help="comma-separated mode list")
    p.add_argument("--k", type=int, default=ExperimentConfig.k_neighbors)
    p.add_argument("--minsup", type=float, default=ExperimentConfig.minsup_pct)
    p.add_argument("--minconf", type=float, default=ExperimentConfig.minconf_pct)
    p.add_argument("--threshold", type=float, default=ExperimentConfig.exclusion_threshold)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    if hasattr(signal, "SIGPIPE"):
        # die quietly when a downstream pager/head closes the pipe
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    if not argv:
        parser.print_help(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ShoprecError, OSError) as exc:
        print(f"shoprec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
