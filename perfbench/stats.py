"""Latency summaries: median and the tail percentile a sample count supports."""

import statistics

MIN_BEYOND = 10
# candidate tail percentiles in permille, highest first: 99.9, 99.8, ..., 99.0,
# then 98, 97, ..., 50; fine steps keep the chosen tail close to the sample
# with exactly MIN_BEYOND samples above it as the sample count changes
_CANDIDATES = tuple(range(999, 989, -1)) + tuple(range(980, 499, -10))


def nearest_rank(sorted_values, permille: int):
    """Nearest-rank percentile of an ascending sequence, and the number of
    samples strictly beyond that rank."""
    n = len(sorted_values)
    rank = max(1, -(-permille * n // 1000))
    return sorted_values[rank - 1], n - rank


def tail(values):
    """(percentile, value, samples beyond) for the highest candidate
    percentile with at least MIN_BEYOND samples beyond it.

    With fewer than 2 * MIN_BEYOND samples no candidate qualifies and the
    median is returned, with its own (smaller) beyond count.
    """
    ordered = sorted(values)
    for permille in _CANDIDATES:
        value, beyond = nearest_rank(ordered, permille)
        if beyond >= MIN_BEYOND:
            return permille / 10, value, beyond
    value, beyond = nearest_rank(ordered, 500)
    return 50.0, value, beyond


def median(values) -> float:
    return float(statistics.median(values))
