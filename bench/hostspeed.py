"""Host-speed calibration for the shoprec benchmark.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, for pure-Python code and for a
thread's CPU time alike. To keep that drift out of the gated timings, a run
interleaves a fixed piece of reference work with the program's operations
and scales each operation's time by how fast the reference ran next to it:

    scaled = wall * REFERENCE_MS / (median of the nearest reference timings)

A scaled time is the operation's time on a host where one reference unit
takes REFERENCE_MS. It moves one for one with the program's own speed, since
the reference is the benchmark's code and never calls the program.

The reference is a restricted sparse cosine over string-keyed dicts, the
kind of work that dominates shoprec's queries. It allocates no container,
so it never triggers a garbage collection of the program's heap.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from time import perf_counter

# About one unit's median time on a 2-vCPU x86-64 host with Python 3.11.
REFERENCE_MS = 0.75
# Reference timings that scale one operation: the nearest in time.
NEAREST = 40
# Fixed, so that the reference work is the same in every run and for every seed.
REFERENCE_SEED = 20_111_109


def _reference_data():
    rng = random.Random(REFERENCE_SEED)
    pool = [f"item{n:04d}" for n in range(400)]
    candidates = tuple(
        {item: float(rng.randint(1, 10)) for item in rng.sample(pool, 14)} for _ in range(400)
    )
    target = tuple((item, float(rng.randint(1, 10))) for item in rng.sample(pool, 10))
    return candidates, target


def _reference_work(candidates, target) -> float:
    total = 0.0
    for vec in candidates:
        dot = norm_t = norm_o = 0.0
        for item, w in target:
            v = vec.get(item, 0.0)
            dot += w * v
            norm_t += w * w
            norm_o += v * v
        if norm_o:
            total += dot / math.sqrt(norm_t * norm_o)
    return total


class HostSpeed:
    """Reference timings taken during one run, and the scaling they give."""

    def __init__(self):
        self._data = _reference_data()
        self._expected = _reference_work(*self._data)
        self.times: list[float] = []  # midpoint of each unit, perf_counter seconds
        self.units: list[float] = []  # seconds per unit
        self._factors: dict[int, float] = {}  # first nearest unit -> factor

    def unit(self) -> None:
        """Time one unit of reference work, run with its data already in cache.

        The program's operations evict the reference's data from the cache, so
        an untimed unit goes first. Otherwise a change in how much memory the
        program touches would change the reference's speed and its scaling.
        """
        _reference_work(*self._data)
        t0 = perf_counter()
        total = _reference_work(*self._data)
        t1 = perf_counter()
        if total != self._expected:
            raise RuntimeError("reference work gave a different result")
        self.times.append((t0 + t1) / 2)
        self.units.append(t1 - t0)

    def units_for(self, seconds: float) -> None:
        """Time reference units for about the given time."""
        deadline = perf_counter() + seconds
        self.unit()
        while perf_counter() < deadline:
            self.unit()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_MS over the median unit time nearest to the interval [start, end]."""
        mid = (start + end) / 2
        i = bisect.bisect_left(self.times, mid)
        lo = max(0, min(i - NEAREST // 2, len(self.units) - NEAREST))
        if lo not in self._factors:
            nearest = self.units[lo : lo + NEAREST]
            self._factors[lo] = REFERENCE_MS / (1000.0 * statistics.median(nearest))
        return self._factors[lo]

    def median_ms(self) -> float:
        return 1000.0 * statistics.median(self.units)
