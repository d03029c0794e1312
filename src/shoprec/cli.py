"""Command-line interface.

Subcommands: ingest-check, recommend, recommend-new, mine-rules, dump-index,
gen-data, evaluate. Exit codes: 0 success; 1 usage error, when the arguments
do not parse (an unknown command or flag, a missing value, a non-number, a
--mode outside its choices), where argparse prints the usage and an error
line and would exit 2; 2 data or config error, for an unreadable or invalid
input file and for a flag that parses but has a bad value (--k 0, --minsup 0,
--modes bogus).
A flag that sets a config field has that field's name as its dest and takes
its default from the config, so each command builds its config from the parsed
flags by field name, and no flag sets two fields: --k sets k_neighbors,
evaluate --n sets top_n, and evaluate --threshold sets exclusion_threshold,
the one rating threshold by which the neighbours pick and the protocol hides.
Each command builds its output lines and writes them to stdout in one write;
an error is one "shoprec: error:" line on stderr. --json switches list
outputs to one JSON object per line, the record's fields (a Recommendation,
with its rank, an AssociationRule or an EvalRow), keys sorted and each float
rounded to 4 places. Every command is deterministic given the same files,
flags and seeds.
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
    _config,
    generate_synthetic,
    load_dataset,
    save_ratings,
    save_transactions,
)
from .errors import ShoprecError
from .evaluate import ExperimentConfig, format_report, run_experiment
from .recommend import Recommender, RecommenderConfig, cold_start
from .rules import format_rule, fp_growth, generate_rules
from .sequence import build_precedence_index, dump_lines
from .similarity import MODES


def _json(record, **extra) -> str:
    """A --json line: the record's fields, each float rounded to 4 places, and ``extra``; keys sorted."""
    fields = {name: round(v, 4) if isinstance(v, float) else v for name, v in asdict(record).items()}
    return json.dumps({**fields, **extra}, sort_keys=True)


def _write(lines) -> None:
    """Write the lines to stdout, each with its newline, in one write: a print per line
    took most of the run of dump-index on an index of 150k pairs."""
    sys.stdout.write("".join(f"{line}\n" for line in lines))


def _recommendation_lines(recs, as_json: bool) -> list[str]:
    return [
        _json(rec, rank=rank) if as_json else f"{rank}. {rec.item} {rec.score:.4f} {rec.source} {rec.explain}"
        for rank, rec in enumerate(recs, start=1)
    ]


def _cmd_ingest_check(args) -> int:
    ds = load_dataset(args.transactions, args.ratings)
    _write([
        f"ok: users={len(ds.users)} items={len(ds.items)} "
        f"transactions={len(ds.transaction_rows)} ratings={len(ds.rating_rows)}"
    ])
    return 0


def _cmd_recommend(args) -> int:
    ds = load_dataset(args.transactions, args.ratings)
    recs = Recommender(ds, _config(RecommenderConfig, args)).recommend_user(args.user)
    if args.no_rules:  # the list without rule expansion is the answer's neighbour part
        recs = [rec for rec in recs if rec.source == "neighbor"]
    _write(_recommendation_lines(recs, args.json))
    return 0


def _cmd_recommend_new(args) -> int:
    ds = load_dataset(args.transactions, args.ratings)
    _write(_recommendation_lines(cold_start(ds, args.top_n), args.json))
    return 0


def _cmd_mine_rules(args) -> int:
    ds = load_dataset(args.transactions)
    cfg = RecommenderConfig(minsup_pct=args.minsup_pct, minconf_pct=args.minconf_pct)
    rules = generate_rules(fp_growth(ds.transaction_rows, cfg.minsup_pct), cfg.minconf_pct)
    if args.antecedent is not None:
        rules = [rule for rule in rules if args.antecedent in rule.antecedent]
    _write(_json(rule) if args.json else format_rule(rule) for rule in rules)
    return 0


def _cmd_dump_index(args) -> int:
    ds = load_dataset(args.transactions)
    _write(dump_lines(build_precedence_index(ds)))
    return 0


def _cmd_gen_data(args) -> int:
    spans = dict(ratings_per_user=tuple(args.ratings_per_user), transactions_per_user=tuple(args.transactions_per_user))
    ds = generate_synthetic(_config(SyntheticConfig, args, **spans))
    os.makedirs(args.out, exist_ok=True)  # not Path(args.out).mkdir, which reads "" as "."
    tx_path, rt_path = Path(args.out, "transactions.csv"), Path(args.out, "ratings.csv")
    save_transactions(ds, tx_path)
    save_ratings(ds, rt_path)
    _write([
        f"wrote {tx_path} ({len(ds.transaction_rows)} transactions)",
        f"wrote {rt_path} ({len(ds.rating_rows)} ratings)",
    ])
    return 0


def _cmd_evaluate(args) -> int:
    ds = load_dataset(args.transactions, args.ratings)
    config = _config(ExperimentConfig, args, modes=tuple(args.modes.split(",")))
    report = run_experiment(ds, config)
    _write([_json(row) for row in report.rows] if args.json else [format_report(report)])
    return 0


def _add_data_args(p, ratings_required: bool = True, transactions_required: bool = True):
    p.add_argument("--transactions", required=transactions_required, help="transaction CSV path")
    p.add_argument(
        "--ratings",
        required=ratings_required,
        default=None,
        help="rating CSV path",
    )


def _field(p, flag: str, cls, name: str, **kwargs) -> None:
    """Add ``flag``, which sets field ``name`` of config ``cls`` and takes that field's default and its type."""
    default = getattr(cls, name)
    metavar = flag.lstrip("-").replace("-", "_").upper()  # the one argparse derives from the flag
    p.add_argument(flag, dest=name, default=default, type=type(default), metavar=metavar, **kwargs)


def _add_recommender_args(p):
    p.add_argument("--mode", choices=MODES, default=RecommenderConfig.mode)
    _field(p, "--k", RecommenderConfig, "k_neighbors", help="neighbor count")
    _field(p, "--top-n", RecommenderConfig, "top_n")
    _field(p, "--minsup", RecommenderConfig, "minsup_pct", help="min support %% for rules")
    _field(p, "--minconf", RecommenderConfig, "minconf_pct", help="min confidence %% for rules")
    _field(p, "--threshold", RecommenderConfig, "exclusion_threshold", help="rating exclusion threshold")
    p.add_argument("--no-rules", action="store_true", help="disable rule expansion")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shoprec", description=__doc__.splitlines()[0] if __doc__ else None)
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
    _field(p, "--top-n", RecommenderConfig, "top_n")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_recommend_new)

    p = sub.add_parser("mine-rules", help="mine association rules from transactions")
    p.add_argument("--transactions", required=True)
    _field(p, "--minsup", RecommenderConfig, "minsup_pct")
    _field(p, "--minconf", RecommenderConfig, "minconf_pct")
    p.add_argument("--antecedent", default=None, help="only rules with this item in the antecedent")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mine_rules)

    p = sub.add_parser("dump-index", help="dump the purchase-precedence index")
    p.add_argument("--transactions", required=True)
    p.set_defaults(func=_cmd_dump_index)

    p = sub.add_parser("gen-data", help="generate a synthetic planted-class dataset")
    p.add_argument("--out", required=True, help="output directory")
    _field(p, "--classes", SyntheticConfig, "num_classes")
    _field(p, "--items", SyntheticConfig, "num_items")
    _field(p, "--users-per-class", SyntheticConfig, "users_per_class")
    span = dict(type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--ratings-per-user", default=SyntheticConfig.ratings_per_user, **span)
    p.add_argument("--transactions-per-user", default=SyntheticConfig.transactions_per_user, **span)
    _field(p, "--affinity", SyntheticConfig, "class_affinity")
    _field(p, "--spread", SyntheticConfig, "noise_rating_spread")
    _field(p, "--seed", SyntheticConfig, "rng_seed")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("evaluate", help="run the precision/recall comparison")
    _add_data_args(p)
    _field(p, "--split", ExperimentConfig, "train_fraction", help="train fraction")
    _field(p, "--seed", ExperimentConfig, "seed")
    _field(p, "--n", ExperimentConfig, "top_n", help="top-N cutoff")
    p.add_argument("--modes", default=",".join(ExperimentConfig.modes), help="comma-separated mode list")
    _field(p, "--k", ExperimentConfig, "k_neighbors")
    _field(p, "--minsup", ExperimentConfig, "minsup_pct")
    _field(p, "--minconf", ExperimentConfig, "minconf_pct")
    _field(p, "--threshold", ExperimentConfig, "exclusion_threshold", help="rating threshold of liked and hidden items")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    """Run the command in ``argv``, or as the program when it is None; return the exit code."""
    if argv is None:
        argv = sys.argv[1:]
        if hasattr(signal, "SIGPIPE"):
            # die quietly when a downstream pager/head closes the pipe; an in-process caller keeps
            # its own disposition, and may be on a thread, where setting a handler raises
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parser = build_parser()
    if not argv:
        parser.print_help(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 after a usage error and 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ShoprecError, OSError) as exc:
        print(f"shoprec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
