"""Arithmetic of the benchmark: medians, the tail-percentile rule, span self time.

Kept free of any geomgate import so that ``test_stats.py`` can check it on
hand-made inputs.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

# A tail percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES_BEYOND = 10


@dataclass(frozen=True)
class Span:
    """One timed call at a layer boundary.

    ``parent`` is the id of the span that caused it (0 for none), ``op`` the
    operation it belongs to, ``n`` a count attached by the caller (the
    integrator steps of an ``evolve_*`` call, else 0).
    """

    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    n: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def median(values: Iterable[float]) -> float:
    """Median of the values; 0.0 when there are none (a layer the workload never reaches)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ``TAIL_SAMPLES_BEYOND`` samples beyond it.

    Returns ``(percentile, value)`` where ``value`` is the order statistic
    with exactly ``TAIL_SAMPLES_BEYOND`` samples above it, and ``percentile``
    is its rank as a share of the sample count, rounded down to a whole
    percent.  Returns None when the samples are too few for any such rank.
    """
    n = len(samples)
    if n <= TAIL_SAMPLES_BEYOND:
        return None
    ordered = sorted(samples)
    rank = n - TAIL_SAMPLES_BEYOND  # samples at or below the reported value
    return float(math.floor(100.0 * rank / n)), float(ordered[rank - 1])


def failed_fraction(failed: int, attempted: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must lie in [0, {attempted}], got {failed}")
    return failed / attempted


def covered(interval: tuple[float, float], parts: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``.

    Parts may overlap each other (calls made from pool threads) and may reach
    outside the interval; both are clipped so no time is counted twice.
    """
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered((s.start, s.end), children.get(s.id, ()))
        for s in spans
    }


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
