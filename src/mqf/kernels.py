"""Vectorized lattice-box scan kernels with a numba fast path.

The exact modules reduce their hot loops to one primitive: enumerate integer
coordinate vectors n in a box [lo, hi], keep those whose float64 embedding
values fall in per-embedding intervals (widened by a conservative margin) and
whose exact integer ellipsoid form stays under a bound.  Survivors are handed
back for exact rational confirmation, so the float filter only ever has to be
a sound over-approximation: the margin absorbs all rounding error, and
borderline candidates are resolved exactly by the caller.

The kernel body exists twice with identical arithmetic (same accumulation
order, so both paths round identically): a numba ``@njit`` version and a pure
numpy version.  Selection: environment variable ``MQF_JIT`` — ``"1"`` forces
numba, ``"0"`` forces numpy, unset prefers numba when importable.  Numba
is optional: ``"1"`` without it raises ``BackendUnavailableError``.

The numpy version works in a ``_Workspace`` that ``scan_box`` allocates once
per scan, sized to one chunk or to the whole scan when that is smaller: the
coordinates (column-major), the flat index, the accumulators and the masks.
Each chunk writes into it through ``out=`` ufuncs, so no chunk-sized array is
allocated per chunk; only the survivor rows are fresh arrays.  The workspace
belongs to the scan and is freed when the scan ends.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import BackendUnavailableError

try:
    import numba
except ImportError:  # pragma: no cover - exercised only without numba installed
    numba = None

CHUNK = 1 << 16


def backend_name() -> str:
    flag = os.environ.get("MQF_JIT", "").strip()
    if flag == "0":
        return "numpy"
    if flag == "1":
        if numba is None:
            raise BackendUnavailableError("MQF_JIT=1 but numba is not importable")
        return "numba"
    return "numba" if numba is not None else "numpy"


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


class _Workspace:
    """Buffers for numpy chunks of up to ``size`` points in ``m`` dimensions.

    Coordinates are stored column-major, one contiguous row per axis, so every
    ufunc below runs on contiguous memory and writes through ``out=``.
    """

    def __init__(self, m: int, size: int):
        self.base = np.arange(size, dtype=np.int64)
        self.idx = np.empty(size, dtype=np.int64)
        self.coords = np.empty((m, size), dtype=np.int64)
        self.acc = np.empty(size, dtype=np.float64)
        self.term = np.empty(size, dtype=np.float64)
        self.q = np.empty(size, dtype=np.int64)
        self.keep = np.empty(size, dtype=np.bool_)
        self.test = np.empty(size, dtype=np.bool_)


def _scan_chunk_numpy(lo, shape, g0, g1, embed, emb_lo, emb_hi, margin,
                      ell_coeffs, ell_bound, skip_zero, work=None):
    count = g1 - g0
    m = lo.shape[0]
    if work is None:
        work = _Workspace(m, count)
    idx = work.idx[:count]
    coords = work.coords[:, :count]
    keep = work.keep[:count]
    test = work.test[:count]
    np.add(work.base[:count], g0, out=idx)
    for axis in range(m - 1, -1, -1):
        np.divmod(idx, shape[axis], out=(idx, coords[axis]))
        np.add(coords[axis], lo[axis], out=coords[axis])
    keep.fill(True)
    acc = work.acc[:count]
    term = work.term[:count]
    for s in range(embed.shape[0]):
        # acc = ((0 + c_0 e_0) + c_1 e_1) + ...: the reference loop's order.
        np.multiply(coords[0], embed[s, 0], out=acc)
        for axis in range(1, m):
            np.multiply(coords[axis], embed[s, axis], out=term)
            np.add(acc, term, out=acc)
        np.greater_equal(acc, emb_lo[s] - margin[s], out=test)
        np.logical_and(keep, test, out=keep)
        np.less_equal(acc, emb_hi[s] + margin[s], out=test)
        np.logical_and(keep, test, out=keep)
    if ell_bound >= 0:
        q = work.q[:count]
        sq = idx  # the flat index is spent; reuse its buffer
        q.fill(0)
        for axis in range(m):
            np.multiply(coords[axis], coords[axis], out=sq)
            np.multiply(sq, ell_coeffs[axis], out=sq)
            np.add(q, sq, out=q)
        np.less_equal(q, ell_bound, out=test)
        np.logical_and(keep, test, out=keep)
    if skip_zero and np.all(lo <= 0) and np.all(lo + shape > 0):
        # The origin is one point of the box; drop it by its flat index.
        origin = 0
        for axis in range(m):
            origin = origin * int(shape[axis]) - int(lo[axis])
        if g0 <= origin < g1:
            keep[origin - g0] = False
    return np.ascontiguousarray(coords[:, keep].T)


def _scan_chunk_python(lo, shape, g0, g1, embed, emb_lo, emb_hi, margin,
                       ell_coeffs, ell_bound, skip_zero):
    # Reference loop; numba compiles this body, numpy path mirrors it exactly.
    m = lo.shape[0]
    n_emb = embed.shape[0]
    out = np.empty((g1 - g0, m), dtype=np.int64)
    coord = np.empty(m, dtype=np.int64)
    g = g0
    for axis in range(m - 1, -1, -1):
        coord[axis] = g % shape[axis] + lo[axis]
        g //= shape[axis]
    found = 0
    for _ in range(g0, g1):
        ok = True
        if ell_bound >= 0:
            q = 0
            for axis in range(m):
                q += coord[axis] * coord[axis] * ell_coeffs[axis]
            if q > ell_bound:
                ok = False
        if ok:
            for s in range(n_emb):
                acc = 0.0
                for axis in range(m):
                    acc += coord[axis] * embed[s, axis]
                if acc < emb_lo[s] - margin[s] or acc > emb_hi[s] + margin[s]:
                    ok = False
                    break
        if ok and skip_zero:
            nonzero = False
            for axis in range(m):
                if coord[axis] != 0:
                    nonzero = True
                    break
            ok = nonzero
        if ok:
            for axis in range(m):
                out[found, axis] = coord[axis]
            found += 1
        for axis in range(m - 1, -1, -1):
            coord[axis] += 1
            if coord[axis] < lo[axis] + shape[axis]:
                break
            coord[axis] = lo[axis]
    return out[:found]


_scan_chunk_numba = None
if numba is not None:
    _scan_chunk_numba = numba.njit(cache=True)(_scan_chunk_python)


def scan_box(job: BoxScan, *, budget: int | None = None, chunk: int = CHUNK):
    """Yield (survivor_coords, points_in_chunk) in global odometer order.

    Chunks are ranges of the flattened index, so iteration order and point
    counts are identical for both backends.  Stops after ``budget`` points
    when given; the caller decides what a truncated scan means.
    """
    total = job.total_points()
    limit = total if budget is None else min(total, budget)
    if limit <= 0 or np.any(job.shape <= 0):
        return
    backend = backend_name()
    lo = job.lo.astype(np.int64)
    shape = job.shape.astype(np.int64)
    embed = np.ascontiguousarray(job.embed, dtype=np.float64)
    emb_lo = job.emb_lo.astype(np.float64)
    emb_hi = job.emb_hi.astype(np.float64)
    margin = job.margin.astype(np.float64)
    ell = job.ell_coeffs.astype(np.int64)
    # int64 safety for the exact ellipsoid accumulator.
    if job.ell_bound >= 0:
        worst = int(np.max(np.abs(np.stack([job.lo, job.hi]))) ** 2) * int(np.sum(ell))
        if worst > (1 << 62):
            raise OverflowError("ellipsoid accumulator would overflow int64")
    work = _Workspace(lo.shape[0], min(chunk, limit)) if backend == "numpy" else None
    g0 = 0
    while g0 < limit:
        g1 = min(g0 + chunk, limit)
        if backend == "numba":
            coords = _scan_chunk_numba(lo, shape, g0, g1, embed, emb_lo, emb_hi,
                                       margin, ell, job.ell_bound, job.skip_zero)
        else:
            coords = _scan_chunk_numpy(lo, shape, g0, g1, embed, emb_lo, emb_hi,
                                       margin, ell, job.ell_bound, job.skip_zero, work)
        yield coords, g1 - g0
        g0 = g1


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
