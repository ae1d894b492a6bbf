"""Percentiles that carry their sample count.

A percentile is only reported when the sample supports it: at least
`MIN_BEYOND` samples must lie beyond it, so p99 needs 1000 samples and the
median needs 20. Below that, `percentile` refuses instead of returning a
number that is really just the maximum.
"""

import math

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample has too few values beyond the requested percentile."""


class Percentile:
    """A percentile value together with the number of samples behind it."""

    __slots__ = ("q", "value", "samples")

    def __init__(self, q, value, samples):
        self.q = q
        self.value = value
        self.samples = samples

    def __repr__(self):
        return f"p{self.q:g}={self.value!r} (n={self.samples})"


def samples_needed(q):
    """Smallest sample count with `MIN_BEYOND` values beyond percentile q."""
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - q) - 1e-9)


def percentile(values, q):
    """The q-th percentile (nearest rank) of `values`, with its sample count.

    Raises TooFewSamples when fewer than MIN_BEYOND values lie beyond it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = len(values)
    if n < samples_needed(q):
        raise TooFewSamples(
            f"p{q:g} needs {samples_needed(q)} samples, have {n}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return Percentile(q, ordered[rank - 1], n)


def median(values):
    """Plain median of a non-empty sample (averages the middle pair)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise TooFewSamples("median of an empty sample")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
