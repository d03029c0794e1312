"""Output checks for the shoprec benchmark.

The checks recompute what they need from the raw training records instead
of reading the engine's own indices, so a later change to those indices
cannot make a wrong answer look right.
"""

from __future__ import annotations

import hashlib
import json
import math


class TrainFacts:
    """Purchase facts of a training split, for checking recommendation lists."""

    def __init__(self, train):
        # Reads only train.transactions: the Dataset's cached lookup tables are
        # left cold, so building the facts moves no work out of a timed set-up.
        first: dict[str, dict[str, int]] = {}
        last: dict[str, dict[str, int]] = {}
        for t in sorted(train.transactions, key=lambda t: (t.user, t.seq)):
            for item in t.items:
                first.setdefault(t.user, {}).setdefault(item, t.seq)
                last.setdefault(t.user, {})[item] = t.seq
        self.purchased = {item for items in last.values() for item in items}
        # item -> [(first seq of each item the user bought, last seq of this item)]
        self._bought_by: dict[str, list[tuple[dict[str, int], int]]] = {}
        for user, items in last.items():
            for item, seq in items.items():
                self._bought_by.setdefault(item, []).append((first[user], seq))

    def bought_after(self, candidate: str, history) -> bool:
        """Some user bought the candidate in a later transaction than a history item."""
        if not history:
            return True
        return any(
            first.get(h, math.inf) < last
            for first, last in self._bought_by.get(candidate, ())
            for h in history
        )

    def has_coordinate(self, profile, mode: str) -> bool:
        """The profile has a non-zero weight in this similarity mode."""
        if mode == "simple":
            return any(v != 0 for v in profile.ratings.values())
        if mode in ("method1", "method2"):
            return any(v != 0 and profile.purchase_counts.get(i) for i, v in profile.ratings.items())
        return any(n and i in self.purchased for i, n in profile.purchase_counts.items())


def canonical(recs) -> list:
    """A recommendation list as plain JSON-able data, scores at full precision."""
    return [[r.item, r.score, r.source, r.explain] for r in recs]


def list_problems(out, profile, mode: str, facts: TrainFacts, top_n: int) -> list[str]:
    """Broken engine invariants in one answer (a list, None for NoProfileError, or an error)."""
    if isinstance(out, dict):
        return [f"raised {out['error']}"]
    if out is None:
        if facts.has_coordinate(profile, mode):
            return ["NoProfileError on a profile that has a coordinate"]
        return []
    problems = []
    if not facts.has_coordinate(profile, mode):
        problems.append("answered a profile with no coordinate")
    if len(out) > top_n:
        problems.append(f"{len(out)} items for top_n {top_n}")
    items = [row[0] for row in out]
    if len(set(items)) != len(items):
        problems.append("duplicate item")
    seen = set(profile.ratings) | set(profile.purchase_counts)
    history = set(profile.purchase_counts)
    sources = [row[2] for row in out]
    if sources != sorted(sources, key=lambda s: s != "neighbor") or not set(sources) <= {"neighbor", "rule"}:
        problems.append(f"sources out of order: {sources}")
    for tier in ("neighbor", "rule"):
        scores = [row[1] for row in out if row[2] == tier]
        if any(not s > 0 for s in scores) or scores != sorted(scores, reverse=True):
            problems.append(f"{tier} scores not positive and descending: {scores}")
    for item in items:
        if item in seen:
            problems.append(f"seen item {item}")
        elif not facts.bought_after(item, history):
            problems.append(f"{item} never bought after the history")
    return problems


def evaluation_rows(report) -> list:
    return [
        [r.mode, r.rules_enabled, r.precision_pct, r.recall_pct, r.top_n, r.users_evaluated, r.users_skipped]
        for r in report.rows
    ]


def evaluation_problems(rows, modes, test_users: int) -> list[str]:
    """Broken invariants of a run_experiment report (rows from evaluation_rows)."""
    expected = [(m, rules) for m in modes for rules in (False, True)]
    if [(r[0], r[1]) for r in rows] != expected:
        return [f"rows {[(r[0], r[1]) for r in rows]}, expected {expected}"]
    problems = []
    for mode, rules, precision, recall, _, evaluated, skipped in rows:
        if not (0 <= precision <= 100 and 0 <= recall <= 100):
            problems.append(f"{mode}/{rules}: precision {precision} recall {recall}")
        if evaluated + skipped != test_users:
            problems.append(f"{mode}/{rules}: {evaluated} + {skipped} users != {test_users}")
    for off, on in zip(rows[::2], rows[1::2]):
        if on[3] < off[3] - 1e-9:
            problems.append(f"{off[0]}: rules lowered recall {off[3]} -> {on[3]}")
    return problems


def digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
