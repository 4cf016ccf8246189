"""Lattice scan kernel: a numpy region scan.

The exact modules reduce their hot loops to one primitive: enumerate integer
coordinate vectors n in a box [lo, hi], keep those whose float64 embedding
values fall in per-embedding intervals (widened by a conservative margin) and
whose exact integer ellipsoid form stays under a bound.  Survivors are handed
back for exact rational confirmation, so the float filter only ever has to be
a sound over-approximation: the margin absorbs all rounding error, and
borderline candidates are resolved exactly by the caller.  Every box point is
tested alike, the origin included; a caller that must not see a point drops
it from the survivors.

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

``scan_box`` yields (survivor rows, box points covered).  ``chunk`` bounds
candidates, the last-axis values the per-point test runs on.  The first
pass takes chunk // ceil(w/d) prefixes (at least one), where w is the extent
of the last axis and d its lattice step, so it holds at most a chunk of
candidates; each later pass takes twice as many prefixes as the one before,
up to chunk.  A pass yields its prefixes whole, in groups whose candidates
add up to at most chunk (at least one prefix per group).  A caller that
stops at a yield has built at most twice the prefixes that the yields so far
covered, or a chunk more than them, and run the per-point test on their
candidates only.  Each yield covers the box through its last prefix and the scan's last one
through the point limit; a lattice scan whose last prefixes lie outside
the lattice ends with an empty yield that closes the count.

A lattice-free axis whose box is [0, 0] adds exactly 0 to every sum, so the
scan leaves it out and its rows hold 0 there; a lattice can exclude 0 on
an axis, so a lattice scan keeps every axis.

A scan is a plan and an execution.  The plan holds what the job's geometry
alone decides (the box, the embedding and ellipsoid coefficients, the
lattice, the point limit and the chunk): the scanned axes, the ellipsoid
guard, the prefix radix, the float reach and, for a scan of at most
``PLAN_ROWS`` = 2^14 prefixes, each pass's prefix rows with their box
indices, lattice residues, per-embedding partial sums and ellipsoid prefix
sums, built when a scan first reaches the pass.  One call then computes
only what its embedding windows and ellipsoid bound decide: the last-axis
intervals, the candidates and their groups, the per-point test and the
rows.  Plans are memoized per process, least recently used first out,
holding at most ``PLAN_ROWS`` prefix rows in all (about 2.2 MB at k = 3); a
larger scan keeps only its plan and builds each pass's prefixes as it goes,
through the same block builder.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ScanOverflowError

CHUNK = 1 << 16
SLACK = 2  # integer widening of the float-derived ends of a last-axis interval
PLAN_ROWS = 1 << 14  # prefix rows that the memoized plans hold in all

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
    ell_bound (disabled when ell_bound < 0).  lattice, when given, restricts
    the scan to the box points it holds.
    """

    lo: np.ndarray
    hi: np.ndarray
    embed: np.ndarray
    emb_lo: np.ndarray
    emb_hi: np.ndarray
    margin: np.ndarray
    ell_coeffs: np.ndarray
    ell_bound: int
    lattice: Lattice | None = None

    @property
    def shape(self) -> np.ndarray:
        return self.hi - self.lo + 1

    def total_points(self) -> int:
        return math.prod(self.shape.tolist())


def scan_box(job: BoxScan, *, budget: int | None = None, chunk: int = CHUNK):
    """Yield (survivor_coords, points_covered) in global odometer order.

    Survivors are the box points with flat index below min(total, budget)
    that lie in the job's lattice (if any) and pass the per-point test; the
    covered counts are box points and sum to that limit.  The caller decides
    what a truncated scan means.  A yield holds whole prefixes and at most
    ``chunk`` candidates, unless one prefix alone holds more; the first pass
    holds at most ``chunk`` candidates.

    The work that the job's geometry decides comes from a memoized
    ``_Plan``; the call runs only what its embedding windows and ellipsoid
    bound decide: the last-axis intervals, the candidates they hold, the
    per-point test and the rows.

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
    plan = _PLANS.plan(job, limit, chunk)
    # int64 safety for the exact ellipsoid accumulator.  No point's form
    # exceeds ``worst`` = sum_I max|n_I|^2 ell_I, so a larger bound is lowered
    # to it: same test, and it fits in int64 too.
    ell_bound = job.ell_bound
    if ell_bound >= 0:
        if plan.worst > (1 << 62):
            raise ScanOverflowError("ellipsoid accumulator would overflow int64")
        ell_bound = min(ell_bound, plan.worst)
    margin = job.margin.astype(np.float64)
    low = job.emb_lo.astype(np.float64) - margin
    high = job.emb_hi.astype(np.float64) + margin
    bound = np.maximum(np.abs(low), np.abs(high))
    with np.errstate(divide="ignore"):
        cuts = (plan.reach + bound) / np.abs(plan.e_last) + plan.radius <= 2.0 ** 48
    done = 0  # box points covered by the earlier yields
    for block in plan.blocks():
        if block.count:
            for rows, reached in _survivors(plan, block, low, high, cuts, ell_bound):
                yield rows, reached - done
                done = reached
        elif block.final and done < limit:
            # a lattice pass with no prefix in the box closes the count
            yield np.empty((0, plan.width), dtype=np.int64), limit - done


class _PlanMemo:
    """The most recently used plans, holding at most ``PLAN_ROWS`` prefix rows.

    A plan that keeps its passes counts its prefix indices, and one that
    does not (more than ``PLAN_ROWS`` of them) counts one.  The key holds
    every input a plan reads: the box, the embedding and ellipsoid
    coefficients, the point limit, the chunk and the lattice.  The lattice is
    keyed by identity, and the plan holds it, so its id is not reused while
    the plan is kept.
    """

    def __init__(self):
        self.plans = OrderedDict()
        self.rows = 0

    def clear(self):
        self.plans.clear()
        self.rows = 0

    def plan(self, job, limit, chunk):
        embed = np.asarray(job.embed, dtype=np.float64)
        key = (np.asarray(job.lo, dtype=np.int64).tobytes(),
               np.asarray(job.hi, dtype=np.int64).tobytes(),
               embed.shape, embed.tobytes(), np.asarray(job.ell_coeffs, dtype=np.int64).tobytes(),
               limit, chunk, id(job.lattice))
        plan = self.plans.get(key)
        if plan is not None:
            self.plans.move_to_end(key)
            return plan
        plan = _Plan(job, limit, chunk)
        self.plans[key] = plan
        self.rows += plan.rows
        while self.rows > PLAN_ROWS:
            self.rows -= self.plans.popitem(last=False)[1].rows
        return plan


_PLANS = _PlanMemo()


class _Plan:
    """Everything a scan derives from its geometry alone.

    The geometry is the box, the embedding coefficients, the ellipsoid form's
    coefficients, the lattice, the point limit and the chunk; the windows and
    the ellipsoid bound are not part of it.  A lattice-free axis whose box is
    [0, 0] adds exactly 0 to every sum, so the plan scans the other axes
    (``axes``) only, and the rows hold 0 there.  Prefixes are indexed by a
    running index p over mixed-radix digits (``radix``): the box coordinates
    themselves on unit steps, lattice digits t_j otherwise.  The first pass
    takes ``first`` indices, at most a chunk of box points, and each later
    pass twice as many as the one before, up to ``chunk``.  A plan of at most
    ``PLAN_ROWS`` indices keeps each pass's ``_Block`` in ``built`` as it is
    first built, so a repeated geometry builds its prefixes once.
    """

    __slots__ = ("lattice", "axes", "width", "lo", "shape", "embed", "ell", "m", "last", "w",
                 "limit", "lo_last", "hi_last", "below", "above", "n_prefix", "step", "radix",
                 "n_index", "chunk", "first", "e_last", "reach", "radius", "worst", "built",
                 "rows")

    def __init__(self, job, limit, chunk):
        lattice = job.lattice
        self.width = width = job.lo.shape[0]
        axes = np.arange(width)
        if lattice is None:
            axes = np.flatnonzero((job.lo != 0) | (job.hi != 0))
            if not axes.size:
                axes = np.array([width - 1])
        lo = job.lo[axes].astype(np.int64)
        shape = job.shape[axes].astype(np.int64)
        embed = np.array(job.embed[:, axes], dtype=np.float64, order="C")
        ell = job.ell_coeffs[axes].astype(np.int64)
        _freeze(axes, lo, shape, embed, ell)  # before any view is taken, so views are read-only too
        m = lo.shape[0]
        last = m - 1
        w = int(shape[last])
        self.lattice, self.axes = lattice, axes
        self.lo, self.shape, self.embed, self.ell = lo, shape, embed, ell
        self.m, self.last, self.w, self.limit = m, last, w, limit
        self.lo_last = int(lo[last])
        self.hi_last = self.lo_last + w - 1
        self.below, self.above = float(self.lo_last - 1), float(self.hi_last + 1)
        self.n_prefix = -(-limit // w)  # box prefixes; the last one may be clipped by the limit
        if lattice is None:
            self.step = 1
            self.radix = shape[:last]
            self.n_index = self.n_prefix
        else:
            steps = np.array(lattice.steps, dtype=np.int64)
            self.step = int(steps[last])
            self.radix = -(-shape[:last] // steps[:last])
            self.n_index = int(np.prod(self.radix.astype(object)))
        self.chunk = chunk
        self.first = max(1, chunk // -(-w // self.step))
        self.e_last = embed[:, last]
        radius = np.maximum(np.abs(lo), np.abs(lo + shape - 1)).astype(np.float64)
        self.reach = np.abs(embed[:, :last]) @ radius[:last]
        self.radius = radius.max()  # the box's largest |coordinate|
        self.worst = sum(max(abs(int(a)), abs(int(b))) ** 2 * int(e)
                         for a, b, e in zip(lo, lo + shape - 1, ell))
        self.built = [] if self.n_index <= PLAN_ROWS else None
        self.rows = self.n_index if self.built is not None else 1
        _freeze(self.radix, self.reach)

    def covered(self, flat):
        """Box points covered through box prefix ``flat``, clipped to the limit."""
        return min((flat + 1) * self.w, self.limit)

    def blocks(self):
        """The scan's passes in order, the last one final."""
        p0, size = 0, self.first
        for i in itertools.count():
            if self.built is not None and i < len(self.built):
                block = self.built[i]
            else:
                block = _Block(self, p0, min(p0 + size, self.n_index))
                if self.built is not None:
                    self.built.append(block)
            yield block
            if block.final:
                return
            p0, size = p0 + size, min(2 * size, self.chunk)


class _Block:
    """The prefixes of one pass (indices [p0, p1)) and their window-free sums.

    ``flat`` holds each prefix's box prefix index (its odometer index over
    the prefix axes of the box); ``partial[s]`` is embedding s's float sum
    over the prefix axes, in the per-point test's order, and ``q_prefix`` the
    ellipsoid form over them; ``n_hi`` holds the last axis's upper ends where
    only the box and the limit clip them; ``reached`` is the box points
    covered through this pass.
    """

    __slots__ = ("count", "prefix", "flat", "residue", "final", "reached", "n_hi", "partial",
                 "q_prefix")

    def __init__(self, plan, p0, p1):
        last = plan.last
        flat = idx = np.arange(p0, p1, dtype=np.int64)
        prefix = np.empty((last, p1 - p0), dtype=np.int64)
        for axis in range(last - 1, -1, -1):
            idx, prefix[axis] = np.divmod(idx, plan.radix[axis])
        final = p1 == plan.n_index
        if plan.lattice is None:
            prefix += plan.lo[:last, None]
            residue = None
        else:
            prefix, flat, residue, cut = _lattice_prefixes(prefix, plan.lo, plan.shape,
                                                           plan.lattice, plan.n_prefix)
            final = final or cut
        self.count = count = prefix.shape[1]
        self.final = final
        self.reached = plan.limit if final else plan.covered(int(flat[-1]) if count else -1)
        self.prefix, self.flat, self.residue = prefix, flat, residue
        self.n_hi = np.full(count, plan.hi_last, dtype=np.int64)
        if count and flat[-1] == plan.n_prefix - 1:
            self.n_hi[-1] = plan.lo_last + (plan.limit - (plan.n_prefix - 1) * plan.w) - 1
        embed = plan.embed
        self.partial = np.zeros((embed.shape[0], count), dtype=np.float64)
        if last:
            for s in range(embed.shape[0]):
                # acc = ((c_0 e_0) + c_1 e_1) + ...: the per-point order.
                acc = prefix[0] * embed[s, 0]
                for axis in range(1, last):
                    acc += prefix[axis] * embed[s, axis]
                self.partial[s] = acc
        # meaningful only where worst <= 2^62, the one case scan_box reads it
        self.q_prefix = np.zeros(count, dtype=np.int64)
        for axis in range(last):
            self.q_prefix += prefix[axis] * prefix[axis] * plan.ell[axis]
        _freeze(prefix, flat, residue, self.n_hi, self.partial, self.q_prefix)


def _freeze(*arrays):
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


def _survivors(plan, block, low, high, cuts, ell_bound):
    """The survivor rows of one pass under one call's windows and ellipsoid bound.

    Yields (rows, box points covered through the group's last prefix) for
    groups of the pass's whole prefixes whose candidates add up to at most
    ``plan.chunk``, at least one prefix per group; the last group reports
    ``block.reached``.
    """
    count = block.count
    last, step, e_last, ell = plan.last, plan.step, plan.e_last, plan.ell
    n_lo = np.full(count, plan.lo_last, dtype=np.int64)
    n_hi = block.n_hi.copy()
    alive = np.ones(count, dtype=np.bool_)
    partial = block.partial
    for s in range(partial.shape[0]):
        e = e_last[s]
        if e == 0.0:
            alive &= (partial[s] >= low[s]) & (partial[s] <= high[s])
        elif cuts[s]:
            a = (low[s] - partial[s]) / e
            b = (high[s] - partial[s]) / e
            if e < 0.0:
                a, b = b, a
            # clipped to one past the box, so the int64 conversion is exact
            a = np.minimum(np.maximum(np.ceil(a), plan.below), plan.above).astype(np.int64)
            b = np.minimum(np.maximum(np.floor(b), plan.below), plan.above).astype(np.int64)
            np.maximum(n_lo, a - SLACK, out=n_lo)
            np.minimum(n_hi, b + SLACK, out=n_hi)
    q_prefix = block.q_prefix
    if ell_bound >= 0:
        rem = ell_bound - q_prefix
        alive &= rem >= 0
        if ell[last] > 0:
            root = np.floor(np.sqrt(np.maximum(rem, 0) // ell[last]))
            root = root.astype(np.int64) + SLACK
            np.maximum(n_lo, -root, out=n_lo)
            np.minimum(n_hi, root, out=n_hi)
    # the last axis runs from its first admissible value by ``step``
    first = n_lo if block.residue is None else n_lo + (block.residue - n_lo) % step
    counts = np.where(alive, np.maximum((n_hi - first) // step + 1, 0), 0)
    ends = np.cumsum(counts)  # candidates through each prefix
    i = base = 0  # the group's first prefix and the candidates before it
    while i < count:
        # the last prefix whose candidates fit the chunk: all when the rest of the pass fits
        j = count if int(ends[-1]) - base <= plan.chunk else \
            max(i + 1, int(np.searchsorted(ends, base + plan.chunk, side="right")))
        g = slice(i, j)
        rows = _rows(plan, block.prefix[:, g], partial[:, g], q_prefix[g], first[g],
                     counts[g], ends[g], base, low, high, ell_bound)
        yield rows, block.reached if j == count else plan.covered(int(block.flat[j - 1]))
        i, base = j, int(ends[j - 1])


def _rows(plan, prefix, partial, q_prefix, first, counts, ends, base, low, high, ell_bound):
    """The survivor rows among the candidates of the given prefixes, where
    ``ends`` counts the candidates of the pass through each prefix and
    ``base`` those before the first."""
    last, step, e_last, ell = plan.last, plan.step, plan.e_last, plan.ell
    n_cand = int(ends[-1]) - base
    rep = np.repeat(np.arange(len(counts)), counts)
    # candidate base + t lies (base + t - start) steps past its prefix's first value
    last_coord = (np.arange(base * step, (base + n_cand) * step, step, dtype=np.int64)
                  + np.repeat(first - (ends - counts) * step, counts))
    keep = np.ones(n_cand, dtype=np.bool_)
    for s in range(partial.shape[0]):
        acc = partial[s][rep] + last_coord * e_last[s]
        keep &= (acc >= low[s]) & (acc <= high[s])
    if ell_bound >= 0:
        q = q_prefix[rep] + last_coord * last_coord * ell[last]
        keep &= q <= ell_bound
    rows = np.zeros((int(keep.sum()), plan.width), dtype=np.int64)
    rows[:, plan.axes[:last]] = prefix[:, rep[keep]].T
    rows[:, plan.axes[last]] = last_coord[keep]
    return rows


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
