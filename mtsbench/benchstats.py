"""Arithmetic of the mtsbench benchmark, kept apart from run.py so the
tests in mtsbench/tests can pin it: medians and quartiles, the "at least
ten samples beyond the percentile" rule, span self time, the host-speed
rescaling of wall time, and the failed fraction over attempted
operations."""

import math
import statistics
from fractions import Fraction


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the first and third quartile, as a share of the
    median: the run-to-run spread a bound is compared against."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    if mid == 0:
        raise ValueError("spread of values whose median is 0")
    return (q3 - q1) / mid


def samples_beyond(n, q):
    """Samples strictly above the q-quantile of n samples: n - ceil(q*n).
    q is taken from its decimal text so 0.95 * 200 is exactly 190."""
    if n < 0 or not 0 <= q <= 1:
        raise ValueError("need n >= 0 and 0 <= q <= 1")
    return n - math.ceil(Fraction(str(q)) * n)


def percentile_supported(n, q, min_beyond=10):
    """True when a q-quantile of n samples has at least `min_beyond`
    samples beyond it, so it is not just the largest few values."""
    return samples_beyond(n, q) >= min_beyond


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (children clipped to the parent, overlaps
    counted once).  `spans` are dicts with id, start_ns, end_ns, parent."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        clipped = [(max(lo, c["start_ns"]), min(hi, c["end_ns"]))
                   for c in children.get(s["id"], [])]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[s["id"]] = (hi - lo) - _covered(clipped)
    return out


def self_time_by_name(spans):
    """Self time summed per span name, in seconds."""
    own = self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0) + own[s["id"]] * 1e-9
    return out


def host_rescaled(samples, reference_samples, nominal_s):
    """Median of host-time samples, each rescaled to a host on which the
    reference loop takes `nominal_s`: median(s_i * nominal_s / r_i), where
    r_i is the reference loop timed just before sample i."""
    if len(samples) != len(reference_samples):
        raise ValueError("one reference loop per sample")
    if any(r <= 0 for r in reference_samples):
        raise ValueError("reference loop time must be positive")
    return median([s * nominal_s / r
                   for s, r in zip(samples, reference_samples)])


def failed_frac(attempted, failed):
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def all_equal(items):
    """True when every item equals the first (an empty list is equal)."""
    return all(x == items[0] for x in items)
