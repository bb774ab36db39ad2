"""Latency percentiles and the span arithmetic behind per-layer self time."""

import math


def percentile(values, p):
    """Linear-interpolated p-th percentile (0 <= p <= 100) of a non-empty list.

    +inf entries sort last and an interpolation that touches one is +inf, so a
    failed op counted as +inf can only raise the percentiles it reaches.
    """
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    if frac == 0.0 or xs[lo] == xs[hi]:
        return xs[lo]
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def tail_percentile(n, beyond=10):
    """Highest whole percentile with at least `beyond` of `n` samples above it.

    The p-th percentile sits at position pos = (n - 1) p / 100 of the sorted
    samples, and n - 1 - floor(pos) samples lie above it, so p must satisfy
    (n - 1) p < 100 (n - beyond).  When n <= beyond no percentile has that
    many samples above it and the minimum (p = 0) is returned.
    """
    if n <= beyond:
        return 0
    return min(100, (100 * (n - beyond) - 1) // (n - 1))


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile's position."""
    return n - 1 - math.floor((n - 1) * p / 100.0) if n else 0


def latency_summary(latencies, beyond=10):
    """(p50, tail percentile, tail value, sample count) of a latency list."""
    n = len(latencies)
    if n == 0:
        return math.inf, 0, math.inf, 0
    p = tail_percentile(n, beyond)
    return percentile(latencies, 50), p, percentile(latencies, p), n


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover.

    `spans` is a list of (name, start, end, parent_index) with parent_index
    -1 for a root.  Child intervals are clipped to the parent and merged, so
    overlapping or out-of-bounds children are not subtracted twice.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        ivs = sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i])
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
