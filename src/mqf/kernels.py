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

A job may carry a ``Lattice``: residue classes that every coordinate must
lie in, given the earlier coordinates.  The scan then materializes only
lattice prefixes and steps the last axis through its class, so it builds the
lattice points of the box and no others; the survivors are those of the box
scan that lie in the lattice.  The budget and the covered counts still count
box points, so a caller's budget means the same with or without a lattice.

``scan_box`` yields (survivor rows, box points covered), at most floor(chunk
/ ceil(w / d)) whole prefixes (at least one) per yield, where w is the extent
of the last axis and d its lattice step (1 without a lattice), so a caller
that stops early stops after about one chunk of candidates.  On unit steps
every yield holds exactly that many, the last excepted; a lattice scan whose
last prefixes lie outside the lattice ends with an empty yield that closes
the count.
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
class Lattice:
    """A union of residue classes mod ``modulus``, stepped axis by axis.

    A vector n is in the lattice exactly when, for every axis j in odometer
    order, n_j = residues[j][key_j] (mod steps[j]), where key_j = sum_{i<j}
    (n_i mod modulus) * modulus^i encodes the earlier coordinates; each step
    divides the modulus, and residues[j] has modulus^j entries.
    """

    modulus: int
    steps: tuple[int, ...]
    residues: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class BoxScan:
    """One scan job over the integer box prod_I [lo[I], hi[I]].

    embed[s, I] holds the signed float64 value of sqrt(p_I)/denominator, so a
    coordinate row n has embedding values embed @ n.  emb_lo/emb_hi bound the
    acceptable embedding values; margin widens the comparison.  ell_coeffs and
    ell_bound give the exact integer test sum_I n_I^2 * ell_coeffs[I] <=
    ell_bound (disabled when ell_bound < 0).  skip_zero drops the origin.
    lattice, when given, restricts the scan to the box points it holds.
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
    lattice: Lattice | None = None

    @property
    def shape(self) -> np.ndarray:
        return self.hi - self.lo + 1

    def total_points(self) -> int:
        return int(np.prod(self.shape.astype(object)))


def scan_box(job: BoxScan, *, budget: int | None = None, chunk: int = CHUNK):
    """Yield (survivor_coords, points_covered) in global odometer order.

    Survivors are the box points with flat index below min(total, budget)
    that lie in the job's lattice (if any) and pass the per-point test; the
    covered counts are box points and sum to that limit.  The caller decides
    what a truncated scan means.

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
                            ell, ell_bound, job.skip_zero, limit, chunk, job.lattice)


def _scan_region(lo, shape, embed, low, high, ell, ell_bound, skip_zero, limit, chunk,
                 lattice):
    # The body of scan_box: per-prefix last-axis intervals, then the
    # per-point test on the candidates they hold.  Prefixes are materialized
    # from a running index p over mixed-radix digits: the box coordinates
    # themselves on unit steps, lattice digits t_j otherwise.
    m = lo.shape[0]
    last = m - 1
    w = int(shape[last])
    lo_last = int(lo[last])
    hi_last = lo_last + w - 1
    n_prefix = -(-limit // w)  # box prefixes; the last one may be clipped by the budget
    if lattice is None:
        step = 1
        radix = shape[:last]
        n_index = n_prefix
    else:
        steps = np.array(lattice.steps, dtype=np.int64)
        step = int(steps[last])
        radix = -(-shape[:last] // steps[:last])
        n_index = int(np.prod(radix.astype(object)))
    per = max(1, chunk // -(-w // step))
    e_last = embed[:, last]
    radius = np.maximum(np.abs(lo), np.abs(lo + shape - 1)).astype(np.float64)
    reach = np.abs(embed[:, :last]) @ radius[:last]
    bound = np.maximum(np.abs(low), np.abs(high))
    with np.errstate(divide="ignore"):
        cuts = (reach + bound) / np.abs(e_last) + radius.max() <= 2.0 ** 48
    origin = -1  # box prefix index of the origin's prefix when skip_zero drops it
    if skip_zero and np.all(lo <= 0) and np.all(lo + shape > 0):
        origin = 0
        for axis in range(last):
            origin = origin * int(shape[axis]) - int(lo[axis])
    done = 0  # box points covered by the earlier yields
    p0 = 0
    while p0 < n_index:
        p1 = min(p0 + per, n_index)
        idx = np.arange(p0, p1, dtype=np.int64)
        prefix = np.empty((last, p1 - p0), dtype=np.int64)
        for axis in range(last - 1, -1, -1):
            idx, prefix[axis] = np.divmod(idx, radix[axis])
        final = p1 == n_index
        if lattice is None:
            prefix += lo[:last, None]
            last_flat = p1 - 1  # box prefix index of the last row
            j = origin - p0  # the origin's row
            residue = None
        else:
            prefix, flat, residue, cut = _lattice_prefixes(prefix, lo, shape, lattice, n_prefix)
            final = final or cut
            if not len(flat):
                if final:
                    if done < limit:
                        yield np.empty((0, m), dtype=np.int64), limit - done
                    return
                p0 = p1
                continue
            last_flat = int(flat[-1])
            j = int(np.searchsorted(flat, origin))
            if j == len(flat) or flat[j] != origin:
                j = -1
        count = prefix.shape[1]
        n_lo = np.full(count, lo_last, dtype=np.int64)
        n_hi = np.full(count, hi_last, dtype=np.int64)
        if last_flat == n_prefix - 1:
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
        # the last axis runs from its first admissible value by ``step``
        first = n_lo if residue is None else n_lo + (residue - n_lo) % step
        counts = np.where(alive, np.maximum((n_hi - first) // step + 1, 0), 0)
        covered = (limit if final else min((last_flat + 1) * w, limit)) - done
        done += covered
        n_cand = int(counts.sum())
        rep = np.repeat(np.arange(count), counts)
        starts = np.cumsum(counts) - counts
        last_coord = (np.arange(0, n_cand * step, step, dtype=np.int64)
                      + np.repeat(first - starts * step, counts))
        keep = np.ones(n_cand, dtype=np.bool_)
        for s in range(embed.shape[0]):
            acc = partial[s][rep] + last_coord * e_last[s]
            keep &= (acc >= low[s]) & (acc <= high[s])
        if ell_bound >= 0:
            q = q_prefix[rep] + last_coord * last_coord * ell[last]
            keep &= q <= ell_bound
        if 0 <= j < count and counts[j]:
            offset, off_lattice = divmod(-int(first[j]), step)
            if not off_lattice and 0 <= offset < counts[j]:
                keep[starts[j] + offset] = False
        rows = np.empty((int(keep.sum()), m), dtype=np.int64)
        rows[:, :last] = prefix[:, rep[keep]].T
        rows[:, last] = last_coord[keep]
        yield rows, covered
        if final:
            return
        p0 = p1


def _lattice_prefixes(digits, lo, shape, lattice, n_prefix):
    """Lattice prefix rows n_j = first_j + t_j d_j for the digit rows t.

    first_j is the least value >= lo_j in the residue class that the earlier
    coordinates select.  Returns the rows that lie in the box and before box
    prefix n_prefix, their box prefix indices (increasing), the residue each
    requires of the last coordinate, and whether a row was dropped for
    lying past n_prefix (so no later row is needed).
    """
    M = lattice.modulus
    count = digits.shape[1]
    key = np.zeros(count, dtype=np.int64)
    flat = np.zeros(count, dtype=np.int64)
    inside = np.ones(count, dtype=np.bool_)
    power = 1
    for axis in range(digits.shape[0]):
        d = lattice.steps[axis]
        low = lo[axis]
        n = digits[axis]
        n *= d
        n += low + (lattice.residues[axis][key] - low) % d
        inside &= n < low + shape[axis]
        flat = flat * shape[axis] + (n - low)
        key += (n % M) * power
        power *= M
    residue = lattice.residues[-1][key]
    before = flat < n_prefix
    cut = bool(np.any(inside & ~before))
    inside &= before
    return digits[:, inside], flat[inside], residue[inside], cut


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
