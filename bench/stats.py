"""Order statistics shared by the benchmark, its tracer and its steadiness check."""

from __future__ import annotations

import statistics

#: a reported tail percentile must leave at least this many samples above it
TAIL_SAMPLES_BEYOND = 10
#: a phase is cut into up to MAX_WINDOWS windows of at least WINDOW_ROUNDS rounds
WINDOW_ROUNDS = 40
MAX_WINDOWS = 5


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With n samples sorted ascending that is the (n - 10)-th one: exactly ten
    samples lie above it, and it sits at percentile 100 * (n - 10) / n.
    Needs at least 11 samples.
    """
    n = len(values)
    if n <= TAIL_SAMPLES_BEYOND:
        raise ValueError(f"a tail percentile needs more than {TAIL_SAMPLES_BEYOND} samples, got {n}")
    ordered = sorted(values)
    return float(ordered[n - 1 - TAIL_SAMPLES_BEYOND]), 100.0 * (n - TAIL_SAMPLES_BEYOND) / n


def quartile_spread(values) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def windows(values: list) -> list[list]:
    """Consecutive slices of near-equal length, as many as hold WINDOW_ROUNDS each (1 to MAX_WINDOWS).

    Per-window figures and their median keep a burst of machine noise in one
    window from moving the whole run's figure.
    """
    count = max(1, min(MAX_WINDOWS, len(values) // WINDOW_ROUNDS))
    bounds = [round(i * len(values) / count) for i in range(count + 1)]
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
