import os
from itertools import product

import numpy as np
import pytest

import mqf.kernels
from mqf.errors import BackendUnavailableError
from mqf.kernels import (
    BoxScan,
    _scan_chunk_numpy,
    _scan_chunk_python,
    backend_name,
    collect_survivors,
    embedding_margin,
    scan_box,
)


def _job(lo, hi, embed, emb_lo, emb_hi, ell=None, ell_bound=-1, skip_zero=True):
    lo = np.array(lo, dtype=np.int64)
    hi = np.array(hi, dtype=np.int64)
    embed = np.array(embed, dtype=np.float64)
    emb_lo = np.array(emb_lo, dtype=np.float64)
    emb_hi = np.array(emb_hi, dtype=np.float64)
    margin = embedding_margin(emb_lo, emb_hi, embed, lo, hi)
    ell_arr = np.array(ell if ell is not None else [0] * lo.shape[0], dtype=np.int64)
    return BoxScan(lo, hi, embed, emb_lo, emb_hi, margin, ell_arr, ell_bound, skip_zero)


def _reference_scan(job):
    """Plain Python re-enumeration, same acceptance tests, odometer order."""
    out = []
    ranges = [range(int(a), int(b) + 1) for a, b in zip(job.lo, job.hi)]
    for coords in product(*ranges):
        if job.skip_zero and not any(coords):
            continue
        if job.ell_bound >= 0:
            if sum(c * c * e for c, e in zip(coords, job.ell_coeffs)) > job.ell_bound:
                continue
        ok = True
        for s in range(job.embed.shape[0]):
            acc = 0.0
            for axis in range(len(coords)):
                acc += coords[axis] * job.embed[s, axis]
            if acc < job.emb_lo[s] - job.margin[s] or acc > job.emb_hi[s] + job.margin[s]:
                ok = False
                break
        if ok:
            out.append(coords)
    return out


SQRT2 = float(np.sqrt(2.0))
SQRT3 = float(np.sqrt(3.0))
SQRT6 = float(np.sqrt(6.0))

JOBS = [
    _job([-6, -6], [6, 6],
         [[0.5, 0.5 * SQRT2], [0.5, -0.5 * SQRT2]],
         [0.0, 0.0], [3.0, 3.0]),
    _job([-6, -6], [6, 6],
         [[0.5, 0.5 * SQRT2], [0.5, -0.5 * SQRT2]],
         [0.0, 0.0], [3.0, 3.0], ell=[1, 2], ell_bound=20),
    _job([-4, -4, -4, -4], [4, 4, 4, 4],
         [[0.25 * s2 * r for s2, r in zip(signs, (1.0, SQRT2, SQRT3, SQRT6))]
          for signs in product((1, -1), repeat=2)
          for signs in [(1, signs[0], signs[1], signs[0] * signs[1])]],
         [-5.0] * 4, [5.0] * 4, ell=[1, 2, 3, 6], ell_bound=64),
    _job([1, -3], [9, 3],
         [[0.5, 0.5 * SQRT2], [0.5, -0.5 * SQRT2]],
         [0.0, 0.0], [9.0, 9.0], skip_zero=False),
]


@pytest.mark.skipif(mqf.kernels.numba is None, reason="numba is not installed")
@pytest.mark.parametrize("job", JOBS)
def test_backends_agree_exactly(job, monkeypatch):
    monkeypatch.setenv("MQF_JIT", "0")
    numpy_out, n1 = collect_survivors(job)
    monkeypatch.setenv("MQF_JIT", "1")
    numba_out, n2 = collect_survivors(job)
    assert n1 == n2 == job.total_points()
    assert np.array_equal(numpy_out, numba_out)


@pytest.mark.parametrize("job", JOBS)
def test_reference_loop_matches_numpy(job):
    # _scan_chunk_python is the body numba.njit compiles, so this checks the
    # backend equivalence without numba; windows with g0 > 0 check that the
    # loop starts its odometer at g0.
    lo = job.lo.astype(np.int64)
    shape = job.shape.astype(np.int64)
    rest = (job.embed, job.emb_lo, job.emb_hi, job.margin, job.ell_coeffs,
            job.ell_bound, job.skip_zero)
    total = job.total_points()
    for g0, g1 in [(0, total), (5, total), (total // 3, 2 * total // 3 + 1)]:
        want = _scan_chunk_numpy(lo, shape, g0, g1, *rest)
        got = _scan_chunk_python(lo, shape, g0, g1, *rest)
        assert len(want) > 0
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("job", JOBS)
def test_matches_reference_enumeration(job):
    got, _ = collect_survivors(job)
    want = _reference_scan(job)
    assert [tuple(int(v) for v in row) for row in got] == want


def test_odometer_order_and_chunking(monkeypatch):
    job = JOBS[0]
    full, n_full = collect_survivors(job)
    small, n_small = collect_survivors(job, chunk=7)
    assert n_full == n_small
    assert np.array_equal(full, small)


@pytest.mark.parametrize("emb_lo, emb_hi", [(0.0, 4.0), (16.0, 20.0)],
                         ids=["survivors-first", "survivors-last"])
def test_workspace_reuse_across_chunks(emb_lo, emb_hi):
    # 105 points in chunks of 30, 30, 30 and 15: the last chunk is shorter
    # than the workspace, and survivors sit in the first or the last chunk
    # only, so a buffer that kept a value from the chunk before would show.
    job = _job([0, -2], [20, 2], [[1.0, 0.0]], [emb_lo], [emb_hi])
    chunks = [(len(coords), n) for coords, n in scan_box(job, chunk=30)]
    assert [n for _, n in chunks] == [30, 30, 30, 15]
    found = [k > 0 for k, _ in chunks]
    assert found == ([True, False, False, False] if emb_lo == 0.0
                     else [False, False, True, True])
    want, n_want = collect_survivors(job, chunk=7)
    got, n_got = collect_survivors(job, chunk=30)
    assert n_got == n_want == 105
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [tuple(int(v) for v in row) for row in got] == _reference_scan(job)


def test_budget_truncates_scan():
    job = JOBS[0]
    got, scanned = collect_survivors(job, budget=50)
    assert scanned == 50
    full, total = collect_survivors(job)
    assert scanned < total
    prefix = [tuple(r) for r in got]
    assert prefix == [tuple(r) for r in full][: len(prefix)]


def test_backend_selection(monkeypatch):
    monkeypatch.setenv("MQF_JIT", "0")
    assert backend_name() == "numpy"
    monkeypatch.setenv("MQF_JIT", "1")
    if mqf.kernels.numba is not None:
        assert backend_name() == "numba"
    else:
        # without numba the documented answer to MQF_JIT=1 is a refusal
        with pytest.raises(BackendUnavailableError, match="numba") as err:
            backend_name()
        assert isinstance(err.value, RuntimeError)
    monkeypatch.delenv("MQF_JIT")
    if mqf.kernels.numba is not None:
        assert backend_name() in ("numpy", "numba")
    else:
        assert backend_name() == "numpy"


def test_empty_box_yields_nothing():
    job = _job([2, 2], [1, 1], [[1.0, 1.0]], [0.0], [10.0])
    got, scanned = collect_survivors(job)
    assert len(got) == 0 and scanned == 0
