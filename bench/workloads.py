"""Workload definitions for the shoprec benchmark.

Every workload is a planted-class dataset from ``shoprec.corpus.generate_synthetic``
at a fixed shape; only the generator seed varies between runs. Why each shape
exists, which layer it stresses and which it bypasses is written down in
``bench/README.md``.
"""

from __future__ import annotations

import importlib
import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import checks
from hostspeed import HostSpeed

MODES = ("simple", "method1", "method2", "implicit")
SPLIT_SEED = 42
K_NEIGHBORS = 5
TOP_N = 5
RELEVANCE_THRESHOLD = 7.0
# Query outputs hashed into the digest: the first DIGEST_QUERIES entries of
# the query cycle, answered again after the timed loop if it did not reach them.
DIGEST_QUERIES = 400


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "query": engines plus a closed query loop; "evaluate": run_experiment
    data: dict  # SyntheticConfig fields
    tiny: dict  # SyntheticConfig fields for the benchmark's self-check
    minsup_pct: float
    minconf_pct: float
    train_fraction: float = 0.8


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "query-wide",
            "query",
            data=dict(num_items=4000, users_per_class=1000),
            tiny=dict(num_items=80, users_per_class=10),
            minsup_pct=1.0,
            minconf_pct=10.0,
        ),
        Workload(
            "history-long",
            "query",
            data=dict(num_items=400, users_per_class=60, transactions_per_user=(80, 120)),
            tiny=dict(num_items=40, users_per_class=3, transactions_per_user=(20, 30)),
            minsup_pct=1.0,
            minconf_pct=10.0,
            train_fraction=0.25,
        ),
        Workload(
            "evaluate-protocol",
            "evaluate",
            data=dict(num_items=60, users_per_class=125),
            tiny=dict(num_items=20, users_per_class=10),
            minsup_pct=0.2,
            minconf_pct=10.0,
        ),
    )
}


def synthetic_fields(workload: Workload, seed: int, tiny: bool) -> dict:
    """SyntheticConfig keyword arguments for one run."""
    return dict(workload.tiny if tiny else workload.data, rng_seed=seed)


# ---------------------------------------------------------------------------
# Measurement. Library names are looked up on their modules at each call, so
# a traced run sees the wrappers that bench/tracing.py installs there.
# ---------------------------------------------------------------------------

SETUP_REPEATS = 3
# Untraced runs time a unit of reference work (bench/hostspeed.py) after each
# query once this long has passed, and for this long before and after each
# set-up and each run_experiment.
CALIBRATE_EVERY_S = 0.025
BRACKET_S = 0.12


class Library:
    """The shoprec modules the benchmark calls."""

    def __init__(self):
        self.corpus = importlib.import_module("shoprec.corpus")
        self.recommend = importlib.import_module("shoprec.recommend")
        self.evaluate = importlib.import_module("shoprec.evaluate")
        self.errors = importlib.import_module("shoprec.errors")


@dataclass
class Run:
    """What one workload run measured and checked."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit), as in BENCHMARK.json
    printed: dict = field(default_factory=dict)  # name -> (value, unit), shown but not gated
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    sizes: dict = field(default_factory=dict)


def tail_ms(latencies: list[float]) -> float:
    """p99, or the highest percentile with at least ten samples beyond it.

    It never reads below the median: a run with fewer than 20 samples, such
    as evaluate-protocol's, has no percentile above the median with ten
    samples beyond it, and the slowest of so few swings from run to run.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(min(math.ceil(0.99 * n), n - 10), n // 2 + 1)
    return 1000.0 * ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def holdout_profiles(lib: Library, test) -> list:
    """Leave-relevant-out query profiles: each test user without their relevant items."""
    out = []
    for user in test.users:
        ratings = test.ratings_by_user[user]
        relevant = {i for i, v in ratings.items() if v >= RELEVANCE_THRESHOLD}
        out.append(
            lib.recommend.Profile(
                ratings={i: v for i, v in ratings.items() if i not in relevant},
                purchase_counts={
                    i: n for i, n in test.purchase_counts_by_user[user].items() if i not in relevant
                },
            )
        )
    return out


def ask(lib: Library, engine, profile):
    """One query, as checkable data: a list, None for NoProfileError, or the error."""
    try:
        return checks.canonical(engine.recommend_profile(profile))
    except lib.errors.NoProfileError:
        return None
    except Exception as exc:  # any other exception is a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


class QueryBench:
    """query-wide and history-long: one engine per mode and a closed loop of queries."""

    def __init__(self, lib: Library, workload: Workload, inputs):
        self.lib, self.w, self.inputs = lib, workload, inputs
        self.outputs: dict = {}  # (profile index, mode) -> first answer
        self.asks: dict = {}  # (profile index, mode) -> times asked
        self.mismatches = 0

    def record(self, key, out) -> None:
        self.asks[key] = self.asks.get(key, 0) + 1
        if self.outputs.setdefault(key, out) != out:
            self.mismatches += 1

    def setup(self) -> float:
        """Build the engines; returns seconds spent in library calls."""
        lib, w = self.lib, self.w
        # drop the previous set-up first, so that peak RSS holds one set-up
        self.engines = self.dataset = self.train = self.profiles = None
        t0 = perf_counter()
        dataset = lib.corpus.load_dataset(*self.inputs)
        train, test = lib.corpus.split_users(dataset, w.train_fraction, SPLIT_SEED)
        t1 = perf_counter()
        self.dataset, self.train = dataset, train
        self.profiles = holdout_profiles(lib, test)
        self.cycle = [(p, mode) for p in range(len(self.profiles)) for mode in MODES]
        t2 = perf_counter()
        engines = {
            mode: lib.recommend.Recommender(
                train,
                lib.recommend.RecommenderConfig(
                    mode=mode,
                    k_neighbors=K_NEIGHBORS,
                    top_n=TOP_N,
                    minsup_pct=w.minsup_pct,
                    minconf_pct=w.minconf_pct,
                ),
            )
            for mode in MODES
        }
        # Each engine answers queries until one returns a non-empty list: by then
        # every phase, and so every lazily built index, has run once.
        answers = []
        for i, mode in enumerate(MODES):
            for key in self.cycle[i :: len(MODES)]:
                answers.append((key, ask(lib, engines[mode], self.profiles[key[0]])))
                if answers[-1][1]:
                    break
        t3 = perf_counter()
        self.engines = engines
        for key, out in answers:
            self.record(key, out)
        return (t1 - t0) + (t3 - t2)

    def loop(self, keys, seconds: float, min_passes: int = 0, speed: HostSpeed | None = None) -> list:
        """Closed loop, one client: cycle through keys for the given time.

        Returns the (start, end) of each query. With a HostSpeed, a unit of
        reference work runs between queries every CALIBRATE_EVERY_S.
        """
        lib, engines, profiles = self.lib, self.engines, self.profiles
        no_profile = lib.errors.NoProfileError
        intervals = []
        n = len(keys)
        deadline = perf_counter() + seconds
        calibrate_at = perf_counter()
        i = 0
        while perf_counter() < deadline or i < min_passes * n:
            p, mode = key = keys[i % n]
            t0 = perf_counter()
            try:
                out = engines[mode].recommend_profile(profiles[p])
            except no_profile:
                out = None
            except Exception as exc:  # any other exception is a failed operation
                out = exc
            t1 = perf_counter()
            intervals.append((t0, t1))
            if speed is not None and t1 >= calibrate_at:
                speed.unit()
                calibrate_at = perf_counter() + CALIBRATE_EVERY_S
            if isinstance(out, Exception):
                out = {"error": f"{type(out).__name__}: {out}"}
            elif out is not None:
                out = checks.canonical(out)
            self.record(key, out)
            i += 1
        return intervals

    def finish(self, run: Run) -> None:
        """Answer the digest queries the loop missed, then check every answer."""
        digest_keys = self.cycle[:DIGEST_QUERIES]
        for key in digest_keys:
            if key not in self.outputs:
                self.record(key, ask(self.lib, self.engines[key[1]], self.profiles[key[0]]))
        facts = checks.TrainFacts(self.train)
        for key, out in self.outputs.items():
            found = checks.list_problems(out, self.profiles[key[0]], key[1], facts, TOP_N)
            if found:
                run.failed += self.asks[key]
                run.problems.extend(f"profile {key[0]} {key[1]}: {msg}" for msg in found[:3])
        if self.mismatches:
            run.failed += self.mismatches
            run.problems.append(f"{self.mismatches} answers differ from the first answer to the same query")
        run.attempted += sum(self.asks.values())
        run.digest = checks.digest([[p, mode, self.outputs[(p, mode)]] for p, mode in digest_keys])
        run.sizes.update(dataset_sizes(self.dataset, self.train))
        run.sizes.update(index_sizes(self.train, self.w))


def dataset_sizes(dataset, train) -> dict:
    return {
        "users": len(dataset.users),
        "items": len(dataset.items),
        "transactions": len(dataset.transactions),
        "ratings": len(dataset.ratings),
        "train_users": len(train.users),
    }


def index_sizes(train, w: Workload) -> dict:
    """Index sizes from the layers' public functions, outside any timed region."""
    sequence = importlib.import_module("shoprec.sequence")
    implicit_vsm = importlib.import_module("shoprec.implicit_vsm")
    rules = importlib.import_module("shoprec.rules")
    sizes = {}
    try:
        index = sequence.build_precedence_index(train)
        sizes["precedence_pairs"] = len(getattr(index, "counts", index))
        table = implicit_vsm.build_iif(train)
        sizes["iif_entries"] = len(getattr(table, "iif", table))
        frequents = rules.fp_growth(train.transactions, w.minsup_pct)
        sizes["frequent_itemsets"] = len(frequents)
        sizes["rules"] = len(rules.generate_rules(frequents, w.minconf_pct))
    except (AttributeError, TypeError) as exc:  # a layer's interface changed
        sizes["unavailable"] = f"{type(exc).__name__}: {exc}"
    return sizes


class EvaluateBench:
    """evaluate-protocol: the paper's 80/20 mode comparison through run_experiment."""

    def __init__(self, lib: Library, workload: Workload, inputs):
        self.lib, self.w, self.inputs = lib, workload, inputs
        self.outputs: list = []

    def setup(self) -> float:
        t0 = perf_counter()
        self.dataset = self.lib.corpus.load_dataset(*self.inputs)
        return perf_counter() - t0

    def experiment(self) -> tuple[float, float]:
        evaluate = self.lib.evaluate
        config = evaluate.ExperimentConfig(
            train_fraction=self.w.train_fraction,
            seed=SPLIT_SEED,
            top_n=TOP_N,
            k_neighbors=K_NEIGHBORS,
            minsup_pct=self.w.minsup_pct,
            minconf_pct=self.w.minconf_pct,
        )
        t0 = perf_counter()
        try:
            report = evaluate.run_experiment(self.dataset, config)
        except Exception as exc:  # any exception is a failed operation
            report = exc
        t1 = perf_counter()
        if isinstance(report, Exception):
            self.outputs.append({"error": f"{type(report).__name__}: {report}"})
        else:
            self.outputs.append(
                {
                    "rows": checks.evaluation_rows(report),
                    "train_users": report.train_user_count,
                    "test_users": report.test_user_count,
                }
            )
        return t0, t1

    def finish(self, run: Run) -> None:
        first = self.outputs[0]
        run.attempted += len(self.outputs)
        if "error" in first:
            run.problems.append(f"run_experiment raised {first['error']}")
        else:
            found = checks.evaluation_problems(first["rows"], MODES, first["test_users"])
            if first["train_users"] + first["test_users"] != len(self.dataset.users):
                found.append("train and test users do not cover the dataset")
            run.problems.extend(found)
            rows = first["rows"]
            run.printed["precision_pct"] = (statistics.fmean(r[2] for r in rows), "%")
            run.printed["recall_pct"] = (statistics.fmean(r[3] for r in rows), "%")
        if run.problems:
            run.failed += sum(1 for out in self.outputs if out == first)
        differing = sum(1 for out in self.outputs if out != first)
        if differing:
            run.failed += differing
            run.problems.append(f"{differing} run_experiment reports differ from the first")
        run.digest = checks.digest(first)
        train, _ = self.lib.corpus.split_users(self.dataset, self.w.train_fraction, SPLIT_SEED)
        run.sizes.update(dataset_sizes(self.dataset, train))
        run.sizes.update(index_sizes(train, self.w))


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_pct", "%"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def calibrated_setup(bench, speed: HostSpeed) -> tuple[float, float]:
    """One set-up between two stretches of reference work: (wall, scaled) seconds."""
    speed.units_for(BRACKET_S)
    t0 = perf_counter()
    spent = bench.setup()
    t1 = perf_counter()
    speed.units_for(BRACKET_S)
    return spent, spent * speed.factor(t0, t1)


def measure(lib: Library, w: Workload, inputs, seconds: float) -> Run:
    """Untraced run: the end-to-end metrics, each time scaled by the host's speed."""
    run = Run()
    speed = HostSpeed()
    if w.kind == "query":
        bench = QueryBench(lib, w, inputs)
        setups = [calibrated_setup(bench, speed) for _ in range(SETUP_REPEATS)]
        speed.units_for(BRACKET_S)
        intervals = bench.loop(bench.cycle, seconds, speed=speed)
        speed.units_for(BRACKET_S)
    else:
        bench = EvaluateBench(lib, w, inputs)
        setups = [calibrated_setup(bench, speed) for _ in range(SETUP_REPEATS)]
        intervals = []
        speed.units_for(BRACKET_S)
        t0 = perf_counter()
        while not intervals or perf_counter() - t0 < seconds:
            intervals.append(bench.experiment())
            speed.units_for(BRACKET_S)
    wall = [end - start for start, end in intervals]
    latencies = [(end - start) * speed.factor(start, end) for start, end in intervals]
    run.metrics["setup_s"] = (statistics.median(scaled for _, scaled in setups), "s")
    run.metrics["op_p50_ms"] = (1000.0 * statistics.median(latencies), "ms")
    run.metrics["op_p99_ms"] = (tail_ms(latencies), "ms")
    run.metrics["ops_per_s"] = (len(latencies) / sum(latencies), "1/s")
    run.printed["timed_ops"] = (len(latencies), "count")
    run.printed["wall_setup_s"] = (statistics.median(spent for spent, _ in setups), "s")
    run.printed["wall_op_p50_ms"] = (1000.0 * statistics.median(wall), "ms")
    run.printed["wall_op_p99_ms"] = (tail_ms(wall), "ms")
    run.printed["wall_ops_per_s"] = (len(wall) / sum(wall), "1/s")
    run.printed["reference_unit_ms"] = (speed.median_ms(), "ms")
    run.printed["reference_units"] = (len(speed.units), "count")
    bench.finish(run)
    run.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return run


def measure_traced(lib: Library, w: Workload, inputs, seconds: float, tracer) -> Run:
    """Traced run: per-layer metrics, with an untraced pass first to price the tracing.

    Query workloads cycle the digest queries for the given time; evaluate-protocol
    runs run_experiment once, so call counts read per protocol run.
    """
    run = Run()
    if w.kind == "query":
        bench = QueryBench(lib, w, inputs)
        bench.setup()  # warm-up, so that the untraced set-up is not the process's first
        untraced_setup = bench.setup()
        keys = bench.cycle[:DIGEST_QUERIES]
        untraced_work = sum(end - start for start, end in bench.loop(keys, 0.0, min_passes=1))
        tracer.install()
        try:
            traced_setup = bench.setup()
            intervals = bench.loop(keys, seconds, min_passes=1)
        finally:
            tracer.uninstall()
        traced_work = sum(end - start for start, end in intervals[: len(keys)])
    else:
        bench = EvaluateBench(lib, w, inputs)
        bench.setup()  # warm-up, so that the untraced set-up is not the process's first
        untraced_setup = bench.setup()
        start, end = bench.experiment()
        untraced_work = end - start
        tracer.install()
        try:
            traced_setup = bench.setup()
            start, end = bench.experiment()
        finally:
            tracer.uninstall()
        traced_work = end - start
    bench.finish(run)
    run.metrics = {name: (value, per_layer_unit(name)) for name, value in tracer.per_layer().items()}
    run.metrics["trace.setup_overhead_pct"] = (100.0 * (traced_setup / untraced_setup - 1.0), "%")
    run.metrics["trace.work_overhead_pct"] = (100.0 * (traced_work / untraced_work - 1.0), "%")
    for name, value in (
        ("untraced_setup_s", untraced_setup),
        ("traced_setup_s", traced_setup),
        ("untraced_work_s", untraced_work),
        ("traced_work_s", traced_work),
    ):
        run.printed[name] = (value, "s")
    return run
