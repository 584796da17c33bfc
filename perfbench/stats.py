"""Order statistics the benchmark reports, with the sample rules it keeps."""

from __future__ import annotations

import statistics

#: A tail needs at least this many samples beyond it...
TAIL_BEYOND = 10
#: ...and is reported only from samples at least this large.
TAIL_MIN_SAMPLES = 40


def tail(values: list[float]) -> tuple[float, float] | None:
    """``(value, percentile)`` of the highest percentile that has at
    least :data:`TAIL_BEYOND` samples beyond it, or ``None`` below
    :data:`TAIL_MIN_SAMPLES` samples, where that percentile is no tail.
    """
    count = len(values)
    if count < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(values)
    index = count - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")
