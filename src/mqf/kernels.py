"""Lattice scan kernel: a numpy region scan.

The exact modules reduce their hot loops to one primitive: enumerate integer
coordinate vectors n in a box [lo, hi], keep those whose float64 embedding
values fall in per-embedding intervals (widened by a conservative margin) and
whose exact integer ellipsoid form stays under a bound.  Survivors are handed
back for exact rational confirmation, so the float filter only ever has to be
a sound over-approximation: the margin absorbs all rounding error, and
borderline candidates are resolved exactly by the caller.

The scan enumerates the region instead of the box, in the style of
Fincke–Pohst: for each prefix (n_0, ..., n_{m-2}) it bounds the last
coordinate by the interval that can hold a survivor — from each embedding
window (the value is linear in n_{m-1}), from the exact ellipsoid and from the
box — and runs the per-point test on that interval only.  The per-point test
accumulates c_0 e_0 + c_1 e_1 + ... in that order.  The float-derived ends are
widened by ``SLACK`` so that the interval is a superset of the points the test
accepts (the argument is in ``scan_box``); the survivors are therefore exactly
those of a test of every box point, in odometer order.

``scan_box`` yields (survivor rows, box points covered), floor(chunk / w)
whole prefixes (at least one) per yield, where w is the extent of the last
axis, so a caller that stops early stops after about one chunk of the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScanOverflowError

CHUNK = 1 << 16
SLACK = 2  # integer widening of the float-derived ends of a last-axis interval

# perfbench/worker.py reads these two names and records them with each run.
numba = None


def backend_name() -> str:
    return "numpy"


@dataclass(frozen=True)
class BoxScan:
    """One scan job over the integer box prod_I [lo[I], hi[I]].

    embed[s, I] holds the signed float64 value of sqrt(p_I)/denominator, so a
    coordinate row n has embedding values embed @ n.  emb_lo/emb_hi bound the
    acceptable embedding values; margin widens the comparison.  ell_coeffs and
    ell_bound give the exact integer test sum_I n_I^2 * ell_coeffs[I] <=
    ell_bound (disabled when ell_bound < 0).  skip_zero drops the origin.
    """

    lo: np.ndarray
    hi: np.ndarray
    embed: np.ndarray
    emb_lo: np.ndarray
    emb_hi: np.ndarray
    margin: np.ndarray
    ell_coeffs: np.ndarray
    ell_bound: int
    skip_zero: bool

    @property
    def shape(self) -> np.ndarray:
        return self.hi - self.lo + 1

    def total_points(self) -> int:
        return int(np.prod(self.shape.astype(object)))


def scan_box(job: BoxScan, *, budget: int | None = None, chunk: int = CHUNK):
    """Yield (survivor_coords, points_covered) in global odometer order.

    Survivors are the box points with flat index below min(total, budget)
    that pass the per-point test; the covered counts sum to that limit.  The caller decides what a truncated scan
    means.

    Soundness of the last-axis intervals.  For a prefix whose float partial sum
    is A (the value the per-point test holds before adding its last term)
    and a last-axis coefficient e != 0, the test accepts n_{m-1} = n iff
    L <= fl(A + fl(n e)) <= U, with L = emb_lo - margin and U = emb_hi +
    margin as it computes them.  Each rounding has relative error at most
    u = 2^-53, so an accepted n lies within u(|A|/|e| + 2|n|)(1 + u) of the
    real interval [(L - A)/e, (U - A)/e] (ends swapped when e < 0), and the
    computed ends fl(fl(L - A)/e), fl(fl(U - A)/e) are within 2u(|A| +
    bound)/|e| (1 + 3u) of the real ones, where bound = max(|L|, |U|).  With
    |A| <= reach (the sum of |e_i| max|n_i| over the prefix axes) and |n| <= R
    (the box's largest |coordinate|), both errors together stay below
    3u((reach + bound)/|e| + R)(1 + 3u) < 1/8 whenever (reach + bound)/|e| +
    R <= 2^48, so every
    accepted n lies in [ceil(lower) - SLACK, floor(upper) + SLACK].  An
    embedding that fails that condition gives no cut; the per-point test
    still decides.  With e = 0 the value is A for every n, so the prefix is
    kept or dropped whole by the test's own comparison.  The ellipsoid end
    floor(sqrt(rem // ell_last)) is a float square root of an integer below
    2^62 (the guard below), whose error is far below 1, so + SLACK encloses
    the exact isqrt.
    """
    total = job.total_points()
    limit = total if budget is None else min(total, budget)
    if limit <= 0 or np.any(job.shape <= 0):
        return
    lo = job.lo.astype(np.int64)
    shape = job.shape.astype(np.int64)
    embed = np.ascontiguousarray(job.embed, dtype=np.float64)
    emb_lo = job.emb_lo.astype(np.float64)
    emb_hi = job.emb_hi.astype(np.float64)
    margin = job.margin.astype(np.float64)
    ell = job.ell_coeffs.astype(np.int64)
    # int64 safety for the exact ellipsoid accumulator.  No point's form
    # exceeds ``worst`` = sum_I max|n_I|^2 ell_I, so a larger bound is lowered
    # to it: same test, and it fits in int64 too.
    ell_bound = job.ell_bound
    if ell_bound >= 0:
        worst = sum(max(abs(int(a)), abs(int(b))) ** 2 * int(e)
                    for a, b, e in zip(job.lo, job.hi, ell))
        if worst > (1 << 62):
            raise ScanOverflowError("ellipsoid accumulator would overflow int64")
        ell_bound = min(ell_bound, worst)
    yield from _scan_region(lo, shape, embed, emb_lo - margin, emb_hi + margin,
                            ell, ell_bound, job.skip_zero, limit, chunk)


def _scan_region(lo, shape, embed, low, high, ell, ell_bound, skip_zero, limit, chunk):
    # The body of scan_box: per-prefix last-axis intervals, then the
    # per-point test on the candidates they hold.
    m = lo.shape[0]
    last = m - 1
    w = int(shape[last])
    lo_last = int(lo[last])
    hi_last = lo_last + w - 1
    n_prefix = -(-limit // w)  # the last one may be clipped by the budget
    per = max(1, chunk // w)
    e_last = embed[:, last]
    radius = np.maximum(np.abs(lo), np.abs(lo + shape - 1)).astype(np.float64)
    reach = np.abs(embed[:, :last]) @ radius[:last]
    bound = np.maximum(np.abs(low), np.abs(high))
    with np.errstate(divide="ignore"):
        cuts = (reach + bound) / np.abs(e_last) + radius.max() <= 2.0 ** 48
    origin = -1  # flat index of the origin's prefix when skip_zero drops it
    if skip_zero and np.all(lo <= 0) and np.all(lo + shape > 0):
        origin = 0
        for axis in range(last):
            origin = origin * int(shape[axis]) - int(lo[axis])
    p0 = 0
    while p0 < n_prefix:
        p1 = min(p0 + per, n_prefix)
        count = p1 - p0
        prefix = np.empty((last, count), dtype=np.int64)
        idx = np.arange(p0, p1, dtype=np.int64)
        for axis in range(last - 1, -1, -1):
            idx, prefix[axis] = np.divmod(idx, shape[axis])
            prefix[axis] += lo[axis]
        n_lo = np.full(count, lo_last, dtype=np.int64)
        n_hi = np.full(count, hi_last, dtype=np.int64)
        if p1 == n_prefix:
            n_hi[-1] = lo_last + (limit - (n_prefix - 1) * w) - 1
        alive = np.ones(count, dtype=np.bool_)
        partial = np.zeros((embed.shape[0], count), dtype=np.float64)
        for s in range(embed.shape[0]):
            if last:
                # acc = ((c_0 e_0) + c_1 e_1) + ...: the per-point order.
                acc = prefix[0] * embed[s, 0]
                for axis in range(1, last):
                    acc += prefix[axis] * embed[s, axis]
                partial[s] = acc
            e = e_last[s]
            if e == 0.0:
                alive &= (partial[s] >= low[s]) & (partial[s] <= high[s])
            elif cuts[s]:
                a = (low[s] - partial[s]) / e
                b = (high[s] - partial[s]) / e
                if e < 0.0:
                    a, b = b, a
                a = np.clip(np.ceil(a), lo_last - 1, hi_last + 1).astype(np.int64)
                b = np.clip(np.floor(b), lo_last - 1, hi_last + 1).astype(np.int64)
                np.maximum(n_lo, a - SLACK, out=n_lo)
                np.minimum(n_hi, b + SLACK, out=n_hi)
        if ell_bound >= 0:
            q_prefix = np.zeros(count, dtype=np.int64)
            for axis in range(last):
                q_prefix += prefix[axis] * prefix[axis] * ell[axis]
            rem = ell_bound - q_prefix
            alive &= rem >= 0
            if ell[last] > 0:
                root = np.floor(np.sqrt(np.maximum(rem, 0) // ell[last]))
                root = root.astype(np.int64) + SLACK
                np.maximum(n_lo, -root, out=n_lo)
                np.minimum(n_hi, root, out=n_hi)
        counts = np.where(alive, np.maximum(n_hi - n_lo + 1, 0), 0)
        covered = min(p1 * w, limit) - p0 * w
        n_cand = int(counts.sum())
        rep = np.repeat(np.arange(count), counts)
        starts = np.cumsum(counts) - counts
        last_coord = np.arange(n_cand, dtype=np.int64) + np.repeat(n_lo - starts, counts)
        keep = np.ones(n_cand, dtype=np.bool_)
        for s in range(embed.shape[0]):
            acc = partial[s][rep] + last_coord * e_last[s]
            keep &= (acc >= low[s]) & (acc <= high[s])
        if ell_bound >= 0:
            q = q_prefix[rep] + last_coord * last_coord * ell[last]
            keep &= q <= ell_bound
        j = origin - p0
        if 0 <= j < count and counts[j] and n_lo[j] <= 0 <= n_hi[j]:
            keep[starts[j] - n_lo[j]] = False
        rows = np.empty((int(keep.sum()), m), dtype=np.int64)
        rows[:, :last] = prefix[:, rep[keep]].T
        rows[:, last] = last_coord[keep]
        yield rows, covered
        p0 = p1


def collect_survivors(job: BoxScan, *, budget: int | None = None,
                      chunk: int = CHUNK) -> tuple[np.ndarray, int]:
    """Run the whole scan and return (all survivors stacked, points scanned)."""
    parts = []
    scanned = 0
    for coords, n in scan_box(job, budget=budget, chunk=chunk):
        scanned += n
        if len(coords):
            parts.append(coords)
    if parts:
        return np.concatenate(parts, axis=0), scanned
    m = job.lo.shape[0]
    return np.empty((0, m), dtype=np.int64), scanned


def embedding_margin(emb_lo: np.ndarray, emb_hi: np.ndarray,
                     embed: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Conservative per-embedding slack covering every float64 rounding effect.

    The exact stage re-decides every survivor, so the only requirement is that
    no true candidate is rejected; 1e-9 relative headroom is ~1e6 times the
    worst accumulated rounding error for <= 16 terms.
    """
    reach = np.abs(embed) @ np.maximum(np.abs(lo), np.abs(hi)).astype(np.float64)
    scale = 1.0 + np.maximum(np.abs(emb_lo), np.abs(emb_hi)) + reach
    return 1e-9 * scale
