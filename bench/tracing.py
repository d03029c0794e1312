"""Spans around the calls into each shoprec layer, installed from the benchmark.

Each wrapper replaces a name where its caller looks it up, records a span
(name, start, end, parent) and restores the original on ``uninstall``. A
name that the package no longer defines is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (module, attribute, span name). Names are looked up where their callers
# find them: the engine calls the layer functions through shoprec.recommend,
# run_experiment calls split_users and Recommender through shoprec.evaluate.
FUNCTIONS = (
    ("shoprec.corpus", "load_dataset", "corpus.load_dataset"),
    ("shoprec.corpus", "split_users", "corpus.split_users"),
    ("shoprec.evaluate", "split_users", "corpus.split_users"),
    ("shoprec.evaluate", "run_experiment", "evaluate.run_experiment"),
    ("shoprec.evaluate", "Recommender", "evaluate.Recommender"),
    ("shoprec.recommend", "build_precedence_index", "sequence.build_precedence_index"),
    ("shoprec.recommend", "bought_after", "sequence.bought_after"),
    ("shoprec.recommend", "build_iif", "implicit_vsm.build_iif"),
    ("shoprec.recommend", "profile_weights", "similarity.profile_weights"),
    ("shoprec.recommend", "rank_by_cosine", "similarity.rank_by_cosine"),
    ("shoprec.recommend", "fp_growth", "rules.fp_growth"),
    ("shoprec.recommend", "generate_rules", "rules.generate_rules"),
)
METHODS = (
    ("shoprec.recommend", "Recommender", "__init__", "recommend.recommender_init"),
    ("shoprec.recommend", "Recommender", "rules", "recommend.rules"),
    ("shoprec.recommend", "Recommender", "recommend_profile", "recommend.recommend_profile"),
)
# Spans kept for the spans file; self time and counts cover every span.
MAX_KEPT_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.span_count = 0
        self.absent: list[str] = []
        self.unobserved: set[str] = set()
        self._stack: list[list] = []  # [span id, name, start, time covered by children]
        self._restore: list = []

    def _open(self, name: str) -> None:
        self._stack.append([self.span_count, name, perf_counter(), 0.0])
        self.span_count += 1

    def _close(self) -> None:
        end = perf_counter()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if span_id < MAX_KEPT_SPANS:
            self.spans.append((name, start, end, parent[0] if parent else None))

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(args, result) runs inside a bookkeeping span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if observe is not None:
                self._open("trace.bookkeeping")
                try:
                    observe(args, result)
                except (AttributeError, TypeError, IndexError):
                    self.unobserved.add(name)  # the layer's interface changed
                finally:
                    self._close()
            return result

        return traced

    def _observers(self) -> dict:
        def size(key: str, attribute: str | None = None):
            def observe(args, result):
                self.counts[key] = len(getattr(result, attribute) if attribute else result)

            return observe

        def passed(args, ok):
            self.count("sequence.bought_after_pass", bool(ok))

        def cosine(args, ranked):
            target, candidates = args[0], args[1]
            coords = target.weights.keys()
            self.count("similarity.candidates_scored", len(candidates))
            self.count(
                "similarity.candidates_overlapping",
                sum(1 for vec in candidates.values() if not coords.isdisjoint(vec.weights)),
            )

        return {
            "sequence.build_precedence_index": size("sequence.precedence_pairs", "counts"),
            "sequence.bought_after": passed,
            "similarity.rank_by_cosine": cosine,
            "rules.generate_rules": size("rules.rule_count"),
            "recommend.rules": lambda args, rules: self.count("recommend.rule_scans", len(rules)),
        }

    def install(self) -> None:
        observers = self._observers()
        for module_name, attribute, name in FUNCTIONS:
            owner = importlib.import_module(module_name)
            self._patch(owner, attribute, name, observers.get(name), f"{module_name}.{attribute}")
        for module_name, class_name, attribute, name in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name, None)
            self._patch(owner, attribute, name, observers.get(name), f"{module_name}.{class_name}.{attribute}")

    def _patch(self, owner, attribute: str, name: str, observe, label: str) -> None:
        original = owner.__dict__.get(attribute) if owner is not None else None
        if original is None:
            self.absent.append(label)
            return
        setattr(owner, attribute, self.span(name, original, observe))
        self._restore.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, from the spans and counts."""
        s, n, c = self.self_s, self.calls, self.counts
        scored = c.get("similarity.candidates_scored", 0)
        after_calls = n.get("sequence.bought_after", 0)
        return {
            "corpus.load_dataset_s": s.get("corpus.load_dataset", 0.0),
            "corpus.split_users_s": s.get("corpus.split_users", 0.0),
            "sequence.build_precedence_index_s": s.get("sequence.build_precedence_index", 0.0),
            "sequence.build_precedence_index_calls": n.get("sequence.build_precedence_index", 0),
            "sequence.precedence_pairs": c.get("sequence.precedence_pairs", 0),
            "sequence.bought_after_s": s.get("sequence.bought_after", 0.0),
            "sequence.bought_after_calls": after_calls,
            "sequence.bought_after_pass_ratio": (
                c.get("sequence.bought_after_pass", 0) / after_calls if after_calls else 0.0
            ),
            "implicit_vsm.build_iif_s": s.get("implicit_vsm.build_iif", 0.0),
            "implicit_vsm.build_iif_calls": n.get("implicit_vsm.build_iif", 0),
            "similarity.profile_weights_s": s.get("similarity.profile_weights", 0.0),
            "similarity.profile_weights_calls": n.get("similarity.profile_weights", 0),
            "similarity.rank_by_cosine_s": s.get("similarity.rank_by_cosine", 0.0),
            "similarity.rank_by_cosine_calls": n.get("similarity.rank_by_cosine", 0),
            "similarity.candidates_scored": scored,
            "similarity.overlap_ratio": (
                c.get("similarity.candidates_overlapping", 0) / scored if scored else 0.0
            ),
            "rules.fp_growth_s": s.get("rules.fp_growth", 0.0),
            "rules.fp_growth_calls": n.get("rules.fp_growth", 0),
            "rules.generate_rules_s": s.get("rules.generate_rules", 0.0),
            "rules.rule_count": c.get("rules.rule_count", 0),
            "recommend.recommender_init_s": s.get("recommend.recommender_init", 0.0),
            "recommend.recommender_init_calls": n.get("recommend.recommender_init", 0),
            "recommend.recommend_profile_self_s": s.get("recommend.recommend_profile", 0.0),
            "recommend.rule_scans": c.get("recommend.rule_scans", 0),
            "evaluate.run_experiment_self_s": s.get("evaluate.run_experiment", 0.0),
            "trace.spans": self.span_count,
            "trace.bookkeeping_s": s.get("trace.bookkeeping", 0.0),
        }
