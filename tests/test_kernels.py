from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import mqf.kernels
from mqf.certifier import _pair_job
from mqf.errors import ScanOverflowError
from mqf.fields import make_field
from mqf.integers import residue_lattice, scan_job
from mqf.kernels import BoxScan, Lattice, embedding_margin, scan_box


def collect_survivors(job, *, budget=None, chunk=mqf.kernels.CHUNK):
    """Run the whole scan and return (all survivors stacked, points scanned)."""
    parts = []
    scanned = 0
    for coords, n in scan_box(job, budget=budget, chunk=chunk):
        scanned += n
        parts.append(coords)
    m = job.lo.shape[0]
    return np.concatenate([np.empty((0, m), dtype=np.int64)] + parts), scanned


def _job(lo, hi, embed, emb_lo, emb_hi, ell=None, ell_bound=-1, lattice=None):
    lo = np.array(lo, dtype=np.int64)
    hi = np.array(hi, dtype=np.int64)
    embed = np.array(embed, dtype=np.float64)
    emb_lo = np.array(emb_lo, dtype=np.float64)
    emb_hi = np.array(emb_hi, dtype=np.float64)
    margin = embedding_margin(emb_lo, emb_hi, embed, lo, hi)
    ell_arr = np.array(ell if ell is not None else [0] * lo.shape[0], dtype=np.int64)
    return BoxScan(lo, hi, embed, emb_lo, emb_hi, margin, ell_arr, ell_bound, lattice)


def _in_lattice(coords, lattice):
    """Membership straight from the definition of ``Lattice``."""
    M = lattice.modulus
    key = 0
    for j, n in enumerate(coords):
        if (n - int(lattice.residues[j][key])) % lattice.steps[j]:
            return False
        key += (n % M) * M ** j
    return True


def _reference_scan(job, stop=None):
    """Plain Python re-enumeration, same acceptance tests, odometer order.

    Only the points whose flat odometer index lies below stop are tested,
    and of those only the ones in the job's lattice, if it has one.
    """
    out = []
    ranges = [range(int(a), int(b) + 1) for a, b in zip(job.lo, job.hi)]
    for flat, coords in enumerate(product(*ranges)):
        if stop is not None and flat >= stop:
            break
        if job.lattice is not None and not _in_lattice(coords, job.lattice):
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


def _rows(coords):
    return [tuple(int(v) for v in row) for row in coords]


def _check_budgets(job, budgets, chunks=(7, mqf.kernels.CHUNK)):
    """collect_survivors equals the reference truncated to flat index < budget."""
    total = job.total_points()
    for budget in budgets:
        want = _reference_scan(job, stop=budget)
        for chunk in chunks:
            got, scanned = collect_survivors(job, budget=budget, chunk=chunk)
            assert scanned == min(total, budget)
            assert got.dtype == np.int64 and got.shape[1] == job.lo.shape[0]
            assert _rows(got) == want, (budget, chunk)


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
         [0.0, 0.0], [9.0, 9.0]),
]


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


@pytest.mark.parametrize("emb_lo, emb_hi, split", [
    (0.0, 4.0, [(10, 10), (10, 10), (5, 10), (0, 40), (0, 35)]),
    (16.0, 20.0, [(0, 10), (0, 20), (0, 40), (10, 20), (10, 10), (5, 5)]),
], ids=["survivors-first", "survivors-last"])
def test_prefix_chunk_boundaries(emb_lo, emb_hi, split):
    # 21 prefixes n_0 = 0..20 of w = 5 points; the window keeps the five
    # prefixes n_0 = 0..4 or 16..20 whole, 5 candidates each, all survivors.
    # A chunk of 12 makes a first pass of 12 // 5 = 2 prefixes, then passes
    # of 4, 8 and the last 7, and a pass yields its prefixes in groups of at
    # most 12 candidates.  Survivors-first: 0-1; 2-3 (10) and 4-5 (5); 6-13
    # and 14-20 without candidates.  Survivors-last: 0-1, 2-5 and 6-13
    # without candidates; 14-17 (10), 18-19 (10) and 20 (5).  A candidate
    # carried across a group or pass boundary would show.
    job = _job([0, -2], [20, 2], [[1.0, 0.0]], [emb_lo], [emb_hi])
    assert [(len(coords), n) for coords, n in scan_box(job, chunk=12)] == split
    want, n_want = collect_survivors(job, chunk=7)
    got, n_got = collect_survivors(job, chunk=12)
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


@pytest.mark.parametrize("ell_bound", [400, 10**6])
def test_ellipsoid_guard_is_per_axis(ell_bound):
    # the form reaches at most sum_I max|n_I|^2 ell_I = 10^6 here, although
    # max|n|^2 * sum_I ell_I is above 2^62
    job = _job([-1000, 0], [1000, 0], [[1.0, 0.0]], [-50.0], [50.0],
               ell=[1, 2**61], ell_bound=ell_bound)
    want = _reference_scan(job)
    assert len(want) == (41 if ell_bound == 400 else 101)
    _check_budgets(job, [job.total_points(), 1000])
    # one more step on the heavy axis: 10^6 + 4 * 2^61 does not fit
    job = _job([-1000, 0], [1000, 2], [[1.0, 0.0]], [-50.0], [50.0],
               ell=[1, 2**61], ell_bound=ell_bound)
    with pytest.raises(ScanOverflowError):
        collect_survivors(job)


def test_empty_box_yields_nothing():
    job = _job([2, 2], [1, 1], [[1.0, 1.0]], [0.0], [10.0])
    got, scanned = collect_survivors(job)
    assert len(got) == 0 and scanned == 0


# ---------------------------------------------------------------------------
# region scan against the reference, full and budget-truncated
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("job", JOBS)
def test_every_budget_matches_reference(job):
    total = job.total_points()
    if total > 1000:
        budgets = sorted({1, 2, total - 1, total, total + 1, total + 2}
                         | set(np.random.default_rng(3).integers(1, total, 40).tolist()))
    else:
        budgets = range(1, total + 3)
    _check_budgets(job, budgets)


def _random_job(rng):
    m = int(rng.integers(1, 5))
    lo = rng.integers(-5, 3, size=m)
    hi = lo + rng.integers(0, 7, size=m)
    n_emb = int(rng.integers(1, 4))
    # coefficients of both signs, some exactly 0
    embed = rng.normal(size=(n_emb, m)) * rng.choice([0.0, 0.5, 1.0, 3.0], size=(n_emb, m))
    center = rng.normal(size=n_emb) * 3.0
    emb_lo = center - rng.uniform(0.0, 4.0, size=n_emb)
    emb_hi = center + rng.uniform(0.0, 4.0, size=n_emb)
    ell, ell_bound = None, -1
    if rng.random() < 0.5:
        ell = rng.integers(0, 4, size=m).tolist()
        ell_bound = int(rng.integers(0, 60))
    rng.random()  # kept so that the seeded populations stay the same jobs
    return _job(lo, hi, embed, emb_lo, emb_hi, ell=ell, ell_bound=ell_bound)


def test_random_jobs_match_reference():
    rng = np.random.default_rng(20261018)
    survivors = 0
    for _ in range(300):
        job = _random_job(rng)
        total = job.total_points()
        budgets = [total, int(rng.integers(1, total + 3))]
        chunk = int(rng.integers(1, 40))
        _check_budgets(job, budgets, chunks=(chunk,))
        survivors += len(_reference_scan(job))
    assert survivors > 1000  # the windows are not all empty


def _exact_job(lo, hi, embed, emb_lo, emb_hi):
    """A job with margin 0, so the window ends are the accepted values themselves."""
    job = _job(lo, hi, embed, emb_lo, emb_hi)
    return replace(job, margin=np.zeros_like(job.margin))


def test_zero_last_axis_coefficient():
    # the second embedding ignores the last axis: it keeps or drops a prefix
    # whole, and the origin's prefix is among the kept ones
    job = _job([-3, -4], [3, 4], [[1.0, 0.5], [1.0, 0.0]], [-2.0, -1.0], [2.0, 1.0])
    want = _reference_scan(job)
    assert want and {c[0] for c in want} == {-1, 0, 1}
    _check_budgets(job, range(1, job.total_points() + 3))


def test_window_that_holds_no_prefix():
    job = _job([-3, -3, -3], [3, 3, 3], [[1.0, SQRT2, SQRT3]], [100.0], [101.0])
    assert _reference_scan(job) == []
    got, scanned = collect_survivors(job, chunk=7)
    assert len(got) == 0 and scanned == job.total_points()
    # only one prefix row (n_0 = 3) reaches the window
    job = _job([-3, -3, -3], [3, 3, 3], [[10.0, 0.25, -0.125]], [30.0], [31.0])
    assert {c[0] for c in _reference_scan(job)} == {3}
    _check_budgets(job, [job.total_points(), 300, 301])


def test_survivor_exactly_on_a_window_end():
    # the window ends are the float values of real points, with no margin
    embed = np.array([[0.1, 0.3, -0.7]])
    low = float(np.float64(2) * 0.1 + np.float64(-1) * 0.3 + np.float64(1) * -0.7)
    high = float(np.float64(-1) * 0.1 + np.float64(3) * 0.3 + np.float64(-2) * -0.7)
    job = _exact_job([-3, -3, -3], [3, 3, 3], embed, [low], [high])
    want = _reference_scan(job)
    assert (2, -1, 1) in want and (-1, 3, -2) in want
    _check_budgets(job, [job.total_points()])
    integral = _exact_job([-4, -4], [4, 4], [[1.0, 1.0]], [3.0], [5.0])
    assert {c[0] + c[1] for c in _reference_scan(integral)} == {3, 4, 5}
    _check_budgets(integral, range(1, integral.total_points() + 3))


def test_origin_inside_a_budget_clipped_prefix():
    # the origin has flat index 12 in the 5 x 5 box; budgets 11..15 clip the
    # prefix n_0 = 0 before it, at it, and after it
    job = _job([-2, -2], [2, 2], [[1.0, 1.0], [1.0, -1.0]], [-1.0, -1.0], [1.0, 1.0])
    for budget in range(11, 16):
        rows = _reference_scan(job, stop=budget)
        assert ((0, 0) in rows) == (budget > 12)
    _check_budgets(job, range(1, 28), chunks=(1, 5, 7, mqf.kernels.CHUNK))


def test_one_axis_box():
    job = _job([-6], [9], [[0.75], [-1.5]], [-3.0, -9.0], [4.0, 2.0], ell=[2], ell_bound=60)
    want = _reference_scan(job)
    assert (0,) in want
    chunks = [n for _, n in scan_box(job, chunk=4)]
    assert chunks == [16]  # the empty prefix is one prefix of w = 16 points
    _check_budgets(job, range(1, 19), chunks=(1, 4, mqf.kernels.CHUNK))


# ---------------------------------------------------------------------------
# lattice scans: the reference restricted to the lattice, box-point budgets
# ---------------------------------------------------------------------------

def _with_lattice(job, lattice):
    return replace(job, lattice=lattice)


# the 2-scaled O_K of Q(sqrt 5) (steps 1, 2); n_0 and n_1 even, where the
# origin's prefix has no lattice point; and a 4-axis lattice with every step > 1
LATTICES = [
    Lattice(2, (1, 2), (np.array([0]), np.array([0, 1]))),
    Lattice(2, (2, 2), (np.array([0]), np.array([1, 1]))),
    Lattice(4, (2, 2, 4, 4), (np.array([0]), np.array([0] * 4), np.arange(16) % 2,
                              (np.arange(64) // 4) % 4)),
]


@pytest.mark.parametrize("job, lattice", [(JOBS[0], LATTICES[0]), (JOBS[1], LATTICES[1]),
                                          (JOBS[3], LATTICES[0]), (JOBS[3], LATTICES[1]),
                                          (JOBS[1], None)])
def test_lattice_scan_every_budget(job, lattice):
    if lattice is None:  # a 2-axis cut of the 4-axis lattice: steps (2, 2)
        lattice = Lattice(4, (2, 2), LATTICES[2].residues[:2])
    job = _with_lattice(job, lattice)
    want = _reference_scan(job)
    assert want and len(want) < len(_reference_scan(_with_lattice(job, None)))
    _check_budgets(job, range(1, job.total_points() + 3), chunks=(1, 3, mqf.kernels.CHUNK))


def test_lattice_scan_four_axes():
    job = _with_lattice(JOBS[2], LATTICES[2])
    assert len(_reference_scan(job)) > 10
    total = job.total_points()
    budgets = [1, 2, total - 1, total, total + 1] + \
        np.random.default_rng(4).integers(1, total, 20).tolist()
    _check_budgets(job, budgets, chunks=(1, 7, mqf.kernels.CHUNK))


def test_lattice_prefix_chunks():
    # n_0 and n_1 even: 11 lattice prefixes n_0 = 0, 2, ..., 20, w = 5 and
    # d = 2, so 3 prefixes per chunk of 9 candidates; each yield covers the
    # box through its last prefix, and the last one the rest of the box
    lattice = Lattice(2, (2, 2), (np.array([0]), np.array([0, 0])))
    job = _job([0, -2], [20, 2], [[1.0, 0.0]], [-1.0], [30.0], lattice=lattice)
    got = list(scan_box(job, chunk=9))
    assert [n for _, n in got] == [25, 30, 30, 20]
    assert [len(coords) for coords, _ in got] == [9, 9, 9, 6]
    assert _rows(np.concatenate([c for c, _ in got])) == _reference_scan(job)
    # a budget inside prefix n_0 = 13, which is not a lattice prefix
    assert [n for _, n in scan_box(job, budget=67, chunk=9)] == [25, 30, 12]


def test_lattice_edge_cases():
    # the origin's prefix is a lattice prefix whose last axis holds odd n_1
    # only, so the origin is not a lattice point
    odd = Lattice(2, (1, 2), (np.array([0]), np.array([1, 1])))
    job = _job([-3, -3], [3, 3], [[1.0, 0.3]], [-5.0], [5.0], lattice=odd)
    assert (0, -1) in _reference_scan(job) and (0, 1) in _reference_scan(job)
    _check_budgets(job, range(1, job.total_points() + 3), chunks=(1, 2, mqf.kernels.CHUNK))
    # a prefix axis narrower than its step: n_1 = n_0 mod 4 lies in [0, 0]
    # only for n_0 = 0, 4, 8, and the rows past it must not end the scan early
    narrow = Lattice(4, (1, 4, 1), (np.array([0]), np.arange(4) % 4, np.zeros(16, dtype=np.int64)))
    job = _job([0, 0, -2], [9, 0, 2], [[1.0, 0.5, 0.25]], [-1.0], [20.0], lattice=narrow)
    assert {c[0] for c in _reference_scan(job)} == {0, 4, 8}
    _check_budgets(job, range(1, job.total_points() + 3), chunks=(1, 5, 10, mqf.kernels.CHUNK))


def _random_subgroup(rng, modulus, m):
    """Membership table of the subgroup of (Z/modulus)^m spanned by random vectors."""
    members = {(0,) * m}
    for _ in range(int(rng.integers(0, 4))):
        g = tuple(int(v) for v in rng.integers(0, modulus, size=m))
        while True:
            grown = members | {tuple((a + b) % modulus for a, b in zip(h, g)) for h in members}
            if grown == members:
                break
            members = grown
    table = np.zeros(modulus ** m, dtype=np.bool_)
    for h in members:
        table[sum(r * modulus ** i for i, r in enumerate(h))] = True
    return table


def _random_lattice(rng, m):
    modulus = int(rng.choice([2, 4]))
    if rng.random() < 0.5:
        table = _random_subgroup(rng, modulus, m)
        lattice = residue_lattice(modulus, m, table)
        for idx in range(modulus ** m):  # the derived lattice is exactly the subgroup
            coords = [(idx // modulus ** i) % modulus for i in range(m)]
            assert _in_lattice(coords, lattice) == table[idx]
        return lattice
    # any residue tables: a union of classes, perhaps without the origin
    steps = tuple(int(rng.choice([d for d in (1, 2, 4) if modulus % d == 0])) for _ in range(m))
    residues = tuple(rng.integers(0, d, size=modulus ** j) for j, d in enumerate(steps))
    return Lattice(modulus, steps, residues)


def test_random_lattice_jobs_match_reference():
    rng = np.random.default_rng(20261019)
    survivors = 0
    for _ in range(200):
        job = _random_job(rng)
        job = _with_lattice(job, _random_lattice(rng, job.lo.shape[0]))
        total = job.total_points()
        budgets = [total, int(rng.integers(1, total + 3))]
        chunk = int(rng.integers(1, 41))
        _check_budgets(job, budgets, chunks=(chunk,))
        survivors += len(_reference_scan(job))
    assert survivors > 200


# ---------------------------------------------------------------------------
# the plan memo: a repeated geometry reuses its plan, and nothing else does
# ---------------------------------------------------------------------------

def _yields(job, budget=None, chunk=mqf.kernels.CHUNK):
    out = []
    for coords, n in scan_box(job, budget=budget, chunk=chunk):
        assert coords.dtype == np.int64 and coords.shape[1] == job.lo.shape[0]
        out.append((_rows(coords), n))
    return out


def _cold(job, budget=None, chunk=mqf.kernels.CHUNK):
    mqf.kernels._PLANS.clear()
    return _yields(job, budget, chunk)


def _plan_count():
    return len(mqf.kernels._PLANS.plans)


def _with_windows(job, rng):
    """The same geometry under other embedding windows and another ellipsoid bound."""
    n_emb = job.embed.shape[0]
    center = rng.normal(size=n_emb) * 3.0
    emb_lo = center - rng.uniform(0.0, 4.0, size=n_emb)
    emb_hi = center + rng.uniform(0.0, 4.0, size=n_emb)
    margin = embedding_margin(emb_lo, emb_hi, job.embed, job.lo, job.hi)
    ell_bound = int(rng.integers(-1, 60))
    return replace(job, emb_lo=emb_lo, emb_hi=emb_hi, margin=margin, ell_bound=ell_bound)


def _check_cold_and_warm(population, rng):
    """Each job cold, then warm, then a job of its geometry with other windows."""
    for job, budgets, chunk in population:
        sibling = _with_windows(job, rng)
        for budget in budgets:
            cold = _cold(job, budget, chunk)
            kept = _plan_count()
            assert _yields(job, budget, chunk) == cold
            warm_sibling = _yields(sibling, budget, chunk)
            assert _plan_count() == kept  # the sibling reused the job's plan
            assert warm_sibling == _cold(sibling, budget, chunk)
            for scan, want in ((cold, job), (warm_sibling, sibling)):
                assert [row for rows, _ in scan for row in rows] == \
                    _reference_scan(want, stop=budget)
                assert sum(n for _, n in scan) == min(job.total_points(), budget)


def test_random_jobs_cold_and_warm():
    # the population of test_random_jobs_match_reference, drawn in its order
    rng = np.random.default_rng(20261018)
    population = []
    for _ in range(300):
        job = _random_job(rng)
        total = job.total_points()
        budgets = [total, int(rng.integers(1, total + 3))]
        population.append((job, budgets, int(rng.integers(1, 40))))
    _check_cold_and_warm(population, np.random.default_rng(1))


def test_random_lattice_jobs_cold_and_warm():
    # the population of test_random_lattice_jobs_match_reference, in its order
    rng = np.random.default_rng(20261019)
    population = []
    for _ in range(200):
        job = _random_job(rng)
        job = _with_lattice(job, _random_lattice(rng, job.lo.shape[0]))
        total = job.total_points()
        budgets = [total, int(rng.integers(1, total + 3))]
        population.append((job, budgets, int(rng.integers(1, 41))))
    _check_cold_and_warm(population, np.random.default_rng(2))


def _variants(job):
    """Jobs that differ from ``job`` in one input of its plan each."""
    lattice = job.lattice
    other_residues = Lattice(lattice.modulus, lattice.steps,
                             lattice.residues[:-1] + ((lattice.residues[-1] + 1) % 2,))
    equal_content = Lattice(lattice.modulus, tuple(lattice.steps),
                            tuple(r.copy() for r in lattice.residues))
    embed = job.embed.copy()
    embed[0, 0] *= 1.5
    return {
        "ell_coeffs": replace(job, ell_coeffs=job.ell_coeffs + 1),
        "embed": replace(job, embed=embed),
        "residues": replace(job, lattice=other_residues),
        "equal-content lattice": replace(job, lattice=equal_content),
    }


def test_plan_key_separates_geometries():
    # the residue change moves the last axis's class
    job = _job([-4, -5], [4, 5], [[1.0, 0.4], [1.0, -0.4]], [-3.0, -3.0], [3.0, 3.0],
               ell=[1, 2], ell_bound=30, lattice=Lattice(2, (1, 2), (np.array([0]),
                                                                     np.array([0, 1]))))
    base = _cold(job)
    assert _reference_scan(job) and _plan_count() == 1
    for name, variant in _variants(job).items():
        mqf.kernels._PLANS.clear()
        _yields(job)
        got = _yields(variant)
        assert _plan_count() == 2, name
        assert got == _cold(variant), name
        assert [row for rows, _ in got for row in rows] == _reference_scan(variant), name
    # the point limit and the chunk
    total = job.total_points()
    for budget, chunk in ((total - 7, mqf.kernels.CHUNK), (None, 3), (None, 4)):
        mqf.kernels._PLANS.clear()
        _yields(job)
        got = _yields(job, budget, chunk)
        assert _plan_count() == 2, (budget, chunk)
        assert got == _cold(job, budget, chunk)
        assert [row for rows, _ in got for row in rows] == _reference_scan(job, stop=budget)
    # a budget past the box sets the same limit as none, so it reads the same plan
    mqf.kernels._PLANS.clear()
    _yields(job)
    assert _yields(job, total + 5) == base and _plan_count() == 1


def test_cached_plan_arrays_are_read_only():
    mqf.kernels._PLANS.clear()
    for job, lattice in ((JOBS[2], None), (JOBS[2], LATTICES[2]), (JOBS[0], LATTICES[0])):
        _yields(_with_lattice(job, lattice))
    arrays = []
    for plan in mqf.kernels._PLANS.plans.values():
        for holder in (plan, *plan.built):
            arrays += [getattr(holder, name) for name in holder.__slots__
                       if isinstance(getattr(holder, name), np.ndarray)]
    assert len(arrays) > 20
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_plan_memo_is_bounded_by_prefix_rows():
    # 1,000 one-point prefixes per box (the last axis is [1, 1], which a scan
    # keeps; it would leave out a [0, 0] axis); 40 distinct boxes
    memo = mqf.kernels._PLANS
    memo.clear()
    jobs = [_job([i, 1], [i + 999, 1], [[1.0, 1.0]], [0.0], [2.0]) for i in range(40)]
    for job in jobs:
        _yields(job)
        assert memo.rows == sum(plan.rows for plan in memo.plans.values())
        assert memo.rows <= mqf.kernels.PLAN_ROWS
    assert len(memo.plans) == mqf.kernels.PLAN_ROWS // 1000
    assert all(plan.rows == 1000 for plan in memo.plans.values())
    # a repeated box becomes the most recent; a new one evicts the least recent
    plans = list(memo.plans.values())  # the last 16 boxes, oldest first
    _yields(jobs[40 - len(plans)])
    assert list(memo.plans.values()) == plans[1:] + plans[:1]
    _yields(jobs[0])
    assert list(memo.plans.values())[:-1] == plans[2:] + plans[:1]
    assert memo.rows == len(plans) * 1000
    # a plan of more prefixes than the bound keeps no passes and counts one row
    big = _job([0, 1], [mqf.kernels.PLAN_ROWS, 1], [[1.0, 1.0]], [0.0], [2.0])
    before = list(memo.plans.values())
    assert _yields(big) == [([(0, 1), (1, 1)], big.total_points())]
    *kept, newest = memo.plans.values()
    assert kept == before and newest.built is None and newest.rows == 1
    assert memo.rows == len(plans) * 1000 + 1


# (survivors, covered) of every yield.  A scan's first pass takes chunk //
# ceil(w/d) prefix indices (at least one) and each later pass twice as many
# as the one before, up to chunk.  JOBS[2] at chunk 7: its 729 nine-point
# prefixes in passes of 1, 2, 4, then 7 each, each prefix holding up to 9
# candidates, so many groups hold one prefix; the split is checked from the
# rows below.  With LATTICES[2] (steps 2, 2, 4, 4): 5 x 5 x 3 = 75 digit
# prefixes of up to ceil(9/4) = 3 candidates, in passes of 20 // 3 = 6, 12,
# 20, 20 and 17, holding 3, 11, 33, 30 and 14 candidates, so the third and
# the fourth yield two groups each (20 + 13, 20 + 10).  The 27 x 13 box with
# LATTICES[0]: 27 prefixes n_0 = -13..13 of up to 7 candidates, in passes of
# 1, 2, 4, 8 and 12; the candidates lie at n_0 = -2..8 (1, 2, 3, 2 | 3, 4, 3,
# 2, 3, 2, 1), so the fourth pass (n_0 = -6..1) is one group of 8 and the
# fifth splits after n_0 = 5 (12, then 6).  JOBS[2] at chunk 500: passes of
# 55, 110, 220 and 344 prefixes, yielded in 1, 2, 4 and 5 groups of at most
# 500 candidates, so every count is a multiple of 9.
WIDE_LATTICE_JOB = _job([-13, -6], [13, 6], [[0.5, 0.5 * SQRT2], [0.5, -0.5 * SQRT2]],
                        [0.0, 0.0], [3.0, 3.0])
MULTI_PASS = [
    (JOBS[2], None, 7, None),
    (JOBS[2], LATTICES[2], 20, [(3, 243), (7, 1296), (8, 1386), (5, 360), (8, 1422),
                                (4, 324), (10, 1530)]),
    (WIDE_LATTICE_JOB, LATTICES[0], 13, [(0, 13), (0, 26), (0, 52), (1, 104), (4, 52),
                                         (1, 104)]),
    (JOBS[2], None, 500, [(160, 495), (248, 693), (92, 297), (278, 576), (276, 603),
                          (264, 612), (109, 189), (266, 612), (269, 621), (263, 657),
                          (250, 693), (168, 513)]),
]


def _pass_sizes(first, chunk, n_index):
    sizes = []
    while sum(sizes) < n_index:
        sizes.append(min(first, n_index - sum(sizes)))
        first = min(2 * first, chunk)
    return sizes


@pytest.mark.parametrize("job, lattice, chunk, split", MULTI_PASS)
def test_multi_pass_scan_is_unchanged(job, lattice, chunk, split):
    job = _with_lattice(job, lattice)
    cold = _cold(job, chunk=chunk)
    (plan,) = mqf.kernels._PLANS.plans.values()
    # several passes, each kept as it was built
    w = int(job.shape[-1])
    step = 1 if lattice is None else lattice.steps[-1]
    assert plan.first == max(1, chunk // -(-w // step))
    sizes = _pass_sizes(plan.first, chunk, plan.n_index)
    assert len(sizes) > 1 and [block.count for block in plan.built] == sizes
    assert _yields(job, chunk=chunk) == cold
    if split is None:
        # whole nine-point prefixes per yield, at least one yield per pass,
        # and more than a chunk of survivors only from a single prefix
        assert all(n % 9 == 0 for _, n in cold) and sum(n for _, n in cold) == 6561
        assert len(cold) >= len(sizes) == 3 + 103 + 1
        assert all(len(rows) <= chunk or len({row[:-1] for row in rows}) == 1
                   for rows, _ in cold)
    else:
        assert [(len(rows), n) for rows, n in cold] == split
    survivors = [row for rows, _ in cold for row in rows]
    assert survivors == _reference_scan(job)
    assert survivors == [row for rows, _ in _cold(job) for row in rows]  # in one pass


def test_a_caller_that_stops_early_builds_one_pass():
    # JOBS[2] at chunk 100: a first pass of 100 // 9 = 11 prefixes (99 box
    # points), so a caller that stops at the first yield has built and tested
    # that pass only
    mqf.kernels._PLANS.clear()
    scan = scan_box(JOBS[2], chunk=100)
    rows, covered = next(scan)
    scan.close()
    (plan,) = mqf.kernels._PLANS.plans.values()
    assert plan.first == 11 and len(plan.built) == 1 and covered == 99
    assert _rows(rows) == _reference_scan(JOBS[2], stop=99)
    # a plan too large to keep builds its passes as it goes; its first covers
    # chunk // 100 prefixes of 100 points and holds the survivors n_0 = 0
    wide = _job([0, 0], [mqf.kernels.PLAN_ROWS, 99], [[1.0, 0.0]], [-0.5], [0.5])
    mqf.kernels._PLANS.clear()
    scan = scan_box(wide)
    rows, covered = next(scan)
    scan.close()
    (plan,) = mqf.kernels._PLANS.plans.values()
    assert plan.built is None and covered == mqf.kernels.CHUNK // 100 * 100
    assert _rows(rows) == [(0, n) for n in range(100)]


def _groups(job, chunk):
    """Each yield's rows, covered count and the prefixes its rows hold."""
    return [(rows, n, {row[:-1] for row in rows}) for rows, n in _yields(job, chunk=chunk)]


# no embedding reads the last axis and there is no ellipsoid, so a window
# keeps or drops each prefix whole and every candidate of a kept prefix
# survives: a yield's rows are its candidates
WHOLE_PREFIX_JOBS = [
    (_job([0, -2], [20, 2], [[1.0, 0.0]], [0.0], [4.0]), 5),
    (_job([-6, -6, -6], [6, 6, 6], [[1.0, 0.5, 0.0], [0.5, -1.0, 0.0]], [-3.0, -4.0],
          [5.0, 4.0]), 13),
    (_job([-6, -6], [6, 6], [[1.0, 0.0], [0.5, 0.0]], [-4.0, -3.0], [4.0, 3.0],
          lattice=LATTICES[0]), 13),
]


@pytest.mark.parametrize("job, w", WHOLE_PREFIX_JOBS, ids=["one-kept-run", "3-axes", "lattice"])
def test_yields_hold_at_most_a_chunk_of_candidates(job, w):
    total = job.total_points()
    n_index = total // w if job.lattice is None else 13
    for chunk in (1, 3, 7, 20, 64, n_index, mqf.kernels.CHUNK):
        cold = _cold(job, chunk=chunk)
        assert _yields(job, chunk=chunk) == cold  # warm
        groups = _groups(job, chunk)
        assert [row for rows, _, _ in groups for row in rows] == _reference_scan(job)
        covered = 0
        seen = set()
        for rows, n, prefixes in groups:
            # at most a chunk of candidates, unless one prefix alone holds more
            assert len(rows) <= chunk or len(prefixes) == 1, (chunk, len(rows))
            assert not prefixes & seen  # prefixes are yielded whole
            seen |= prefixes
            covered += n
            assert covered % w == 0 or covered == total  # through a whole prefix
            if rows:
                last = _reference_scan(job, stop=covered)[-1]
                assert last == rows[-1]  # the yield covers its last prefix
        assert covered == total


def test_wide_pair_scans_in_six_passes():
    # the D = 479 pair (197 - 9 sqrt 479, 1729 - 79 sqrt 479) of the N = 4
    # set: a 9,337 x 427 box whose windows leave 18,855 candidates, fewer
    # than a chunk.  Its prefixes run in passes of 65,536 // 427 = 153, 306,
    # 612, 1,224, 2,448 and the last 4,594, one yield each, and the memo
    # keeps them all
    field = make_field([479])
    job = _pair_job(field.element({0: 197, 1: -9}), field.element({0: 1729, 1: -79}))
    assert job.shape.tolist() == [9337, 427]
    cold = _cold(job)
    sizes = [153, 306, 612, 1224, 2448, 4594]
    assert [n for _, n in cold] == [427 * size for size in sizes]
    assert sum(n for _, n in cold) == job.total_points() == 3_986_899
    assert sum(len(rows) for rows, _ in cold) == 7
    (plan,) = mqf.kernels._PLANS.plans.values()
    assert [block.count for block in plan.built] == sizes
    assert plan.n_index == 9337 <= mqf.kernels.PLAN_ROWS
    built = list(plan.built)
    assert _yields(job) == cold and list(mqf.kernels._PLANS.plans.values()) == [plan]
    assert plan.built == built  # the warm scan built nothing


def test_zero_axes_are_left_out_of_a_lattice_free_scan():
    # a lattice-free box of Q(sqrt 2, sqrt 3, sqrt 5) whose axes 2, 4, 5 and 7
    # are [0, 0]: the plan scans axes 0, 1, 3 and 6 only, and its rows, with
    # 0 on the other axes, are those of a scan of the whole box
    field = make_field([2, 3, 5])
    half = [6, 4, 0, 3, 0, 0, 2, 0]
    emb = np.full(8, 1.0)
    everywhere = Lattice(2, (1,) * 8, tuple(np.zeros(2 ** j, dtype=np.int64) for j in range(8)))
    for ell_bound in (-1, 30):
        job = scan_job(field, [-m for m in half], half, -emb, emb, ell_bound=ell_bound)
        assert job.ell_coeffs[[2, 4, 5, 7]].tolist() == [0] * 4
        total = job.total_points()
        assert 200 < len(_reference_scan(job)) < 300
        for budget in (None, 1, 777, 1000, total - 1):
            for chunk in (50, mqf.kernels.CHUNK):
                got, scanned = collect_survivors(job, budget=budget, chunk=chunk)
                assert _rows(got) == _reference_scan(job, stop=budget)
                assert scanned == min(total, budget or total)
        cold = _cold(job)
        (plan,) = mqf.kernels._PLANS.plans.values()
        assert plan.axes.tolist() == [0, 1, 3, 6] and plan.m == 4
        # a lattice can exclude the origin of an axis, so a lattice scan keeps every axis
        assert _cold(replace(job, lattice=everywhere)) == cold
        (plan,) = mqf.kernels._PLANS.plans.values()
        assert plan.m == 8
    # every axis [0, 0]: the radicands past 2^63 never enter the ellipsoid,
    # and the scan holds the origin
    big = make_field([15, 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53])
    zeros = np.zeros(4)
    job = scan_job(big, [0] * 4, [0] * 4, zeros, zeros, ell_bound=0)
    assert job.ell_coeffs.tolist() == [0] * 4
    assert _cold(job) == [([(0, 0, 0, 0)], 1)] == [(_reference_scan(job), 1)]
