"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def percentile(samples, p: float) -> float:
    """The p-th percentile (0..100), interpolating linearly between order statistics."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def hd_percentile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile (0 < p < 100).

    A mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    distribution, q = p/100, so it moves smoothly when neighbouring samples
    swap places.  The plain sample median of a fixed suite whose trial
    times are lumpy (on ilp_r14, six trials near 0.65 s, the rest 1.2-2.5 s
    with 10-20 % between neighbours) jumped between neighbours from run to
    run.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile {p} outside (0, 100)")
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    q = p / 100.0
    weights = np.diff(betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ xs)


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile with at least `beyond` of `n` samples above it.

    With linear interpolation the p-th percentile sits at position
    (n - 1) * p / 100, so at least `beyond` samples lie above it while that
    position is at most n - beyond.  Never below the median: with fewer than
    about 2 * beyond samples the tail is reported at the 50th percentile.
    """
    if n < 1:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return 50
    return max(50, math.floor(100.0 * (n - beyond) / (n - 1)))


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, int, int]:
    """(Harrell-Davis value, percentile, sample count) of the reported tail."""
    p = tail_percentile(len(samples), beyond)
    return hd_percentile(samples, p), p, len(samples)


def merge_intervals(intervals) -> list:
    """Union of (start, end) intervals as sorted, disjoint intervals."""
    out = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return [tuple(iv) for iv in out]


def self_time(start: float, end: float, children, folded: float = 0.0) -> float:
    """Span duration minus the part of [start, end] its children cover.

    `children` are (start, end) intervals, clipped to the parent and merged so
    that overlapping children are not subtracted twice.  `folded` is time of
    calls recorded as counts, not spans, directly under this span.
    """
    covered = 0.0
    for c0, c1 in merge_intervals((max(c0, start), min(c1, end)) for c0, c1 in children):
        covered += c1 - c0
    return max(0.0, (end - start) - covered - folded)
