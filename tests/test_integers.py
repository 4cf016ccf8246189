import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from conftest import random_element, random_ok_element, random_tp_integer
import mqf.integers
from mqf.errors import ScanOverflowError
from mqf.fields import make_field
from mqf.integers import (
    integral_residue_table,
    is_algebraic_integer,
    ring_lattice,
    scan_job,
    superset_lattice_box,
    totally_positive_integers_up_to_trace,
    trace_simplex_box,
    trace_simplex_job,
)


# ---------------------------------------------------------------------------
# integrality
# ---------------------------------------------------------------------------

def test_integrality_examples(q32, q2):
    assert is_algebraic_integer(q32.element({2: Fraction(1, 2), 3: Fraction(1, 2)}))
    assert not is_algebraic_integer(q2.element({0: Fraction(1, 2), 1: Fraction(1, 2)}))
    f = make_field([5, 13])
    prod = ((f.one() + f.sqrt_term(5)) / 2) * ((f.one() + f.sqrt_term(13)) / 2)
    assert is_algebraic_integer(prod)


def test_integrality_via_char_poly_oracle(q23, q5):
    # the fast paths must agree with the definition: integer char poly
    rng = random.Random(31)
    for field in (q23, q5):
        for _ in range(150):
            x = random_element(field, rng, spread=5, denominators=(1, 2, 3, 4))
            expected = all(c.denominator == 1 for c in x.char_poly())
            assert is_algebraic_integer(x) == expected


def test_quadratic_textbook_rule():
    # D = 1 mod 4 admits half-integers (a and b both odd); otherwise only Z[sqrt(D)].
    for D in (2, 3, 5, 13, 6):
        field = make_field([D])
        for a in range(-20, 21):
            for b in range(-20, 21):
                x = field.element({0: Fraction(a, 2), 1: Fraction(b, 2)})
                both_even = a % 2 == 0 and b % 2 == 0
                both_odd = a % 2 == 1 and b % 2 == 1
                rule = both_even or (D % 4 == 1 and both_odd)
                assert is_algebraic_integer(x) == rule, (D, a, b)


def test_zero_and_rationals(q235):
    assert is_algebraic_integer(q235.zero())
    assert is_algebraic_integer(q235.rational(7))
    assert not is_algebraic_integer(q235.rational(Fraction(7, 3)))


def test_residue_table_matches_oracle(q23):
    table = integral_residue_table(q23)
    assert table.shape == (256,)
    scale = 4
    for idx in range(256):
        rem = idx
        coords = []
        for _ in range(4):
            coords.append(rem % scale)
            rem //= scale
        x = q23.from_scaled(coords, scale)
        assert bool(table[idx]) == all(c.denominator == 1 for c in x.char_poly())


# the 2^k-scaled O_K as a kernel lattice, k <= 2
LATTICE_STEPS = {(2,): (2, 2), (3,): (2, 2), (5,): (1, 2), (13,): (1, 2),
                 (2, 3): (4, 2, 4, 4), (2, 5): (2, 2, 4, 4), (5, 13): (1, 2, 2, 4),
                 (3, 7): (2, 2, 4, 4), (6, 10): (4, 2, 4, 4), (5, 29): (1, 2, 2, 4)}


@pytest.mark.parametrize("primes", list(LATTICE_STEPS), ids=str)
def test_ring_lattice_is_o_k(primes):
    field = make_field(list(primes))
    lattice = ring_lattice(field)
    assert lattice.steps == LATTICE_STEPS[primes]
    scale = 1 << field.k
    table = integral_residue_table(field)
    members = 0
    for idx in range(scale ** field.degree):
        coords = [(idx // scale ** i) % scale for i in range(field.degree)]
        key = 0
        inside = True
        for j, n in enumerate(coords):
            inside &= n % lattice.steps[j] == lattice.residues[j][key]
            key += n * scale ** j
        assert inside == table[idx], coords
        x = field.from_scaled(coords, scale)
        assert inside == is_algebraic_integer(x)
        assert inside == all(c.denominator == 1 for c in x.char_poly())
        members += inside
    # |O_K / Z[sqrt(p_I)]| classes, and the steps multiply to the index of O_K
    assert members * np.prod(lattice.steps) == scale ** field.degree


def test_ring_lattice_is_attached_for_k_at_most_2(q2, q23, q235):
    for field in (q2, q23):
        job = trace_simplex_job(field, 5, np.full(field.degree, 5.0))
        assert job.lattice is ring_lattice(field)
    job = trace_simplex_job(q235, 5, np.full(8, 5.0))
    assert ring_lattice(q235) is None and job.lattice is None


@pytest.mark.parametrize("primes, trace_bound", [([2], 40), ([5], 40), ([13], 40),
                                                 ([2, 3], 20), ([5, 13], 20), ([6, 10], 20)],
                         ids=str)
def test_enumeration_on_o_k_equals_the_superset_scan(primes, trace_bound, monkeypatch):
    field = make_field(primes)
    got = totally_positive_integers_up_to_trace(field, trace_bound)
    monkeypatch.setattr(mqf.integers, "ring_lattice", lambda field: None)
    want = totally_positive_integers_up_to_trace(field, trace_bound)
    assert got == want and len(got) > 20
    for budget in (1, 37, 500):
        monkeypatch.undo()
        got = totally_positive_integers_up_to_trace(field, trace_bound, budget=budget)
        monkeypatch.setattr(mqf.integers, "ring_lattice", lambda field: None)
        assert got == totally_positive_integers_up_to_trace(field, trace_bound, budget=budget)


@pytest.mark.parametrize("primes", [[2, 3], [5, 13], [3, 2]])
def test_random_ok_element_reaches_beyond_the_order(primes):
    # the generator draws from all of O_K, not only from Z[sqrt(p_I)]
    field = make_field(primes)
    rng = random.Random(35)
    samples = [random_ok_element(field, rng) for _ in range(200)]
    assert all(is_algebraic_integer(x) for x in samples)
    assert any(x.scaled_coords()[0] > 1 for x in samples)


# ---------------------------------------------------------------------------
# superset lattice boxes
# ---------------------------------------------------------------------------

def test_box_example_k1(q2):
    # |a| <= 3, |b| <= 2 on the grid (1/2)Z
    assert superset_lattice_box(q2, [3, 3]) == (6, 4)
    # exhaustive: every integer a + b sqrt(2) with both embeddings in [-3, 3]
    # satisfies |a| <= 3, |b| <= 2  (grid here is (1/2)Z, integers are in Z)
    for a in range(-10, 11):
        for b in range(-10, 11):
            if abs(a + b * 2 ** 0.5) <= 3 and abs(a - b * 2 ** 0.5) <= 3:
                assert abs(a) <= 3 and abs(b) <= 2


def test_box_zero_bounds(q23):
    half = superset_lattice_box(q23, [0, 0, 0, 0])
    assert half == (0, 0, 0, 0)
    job = scan_job(q23, [-m for m in half], half, np.zeros(4), np.zeros(4))
    assert job.total_points() == 1  # only the origin


def test_box_example_k2(q23):
    half = superset_lattice_box(q23, [10] * 4)
    # largest multiple of 1/4 with B * sqrt(6) <= 10 is 4
    assert half[3] == 4 * 4  # scaled by 2^k = 4
    # brute-force soundness on Z[sqrt2, sqrt3] points
    import itertools
    mat = q23.embedding_matrix()
    for coords in itertools.product(range(-12, 13), repeat=2):
        vals = mat @ np.array([coords[0], 0, 0, coords[1]], dtype=np.float64)
        if max(abs(v) for v in vals) <= 9.99:
            assert abs(coords[0]) * 4 <= half[0]
            assert abs(coords[1]) * 4 <= half[3]


def test_box_soundness_random_integers(q23):
    f513 = make_field([5, 13])
    rng = random.Random(33)
    for field in (q23, f513):
        for _ in range(500):
            x = random_ok_element(field, rng, spread=5)
            uppers = [max(u, v) for u, v in zip(x.embedding_upper_bounds(),
                                                (-x).embedding_upper_bounds())]
            half = superset_lattice_box(field, uppers)
            den, coords = x.scaled_coords()
            step = (1 << field.k) // den
            for mask, n in enumerate(coords):
                assert abs(n * step) <= half[mask], (repr(x), mask)


def test_box_rejects_negative_bounds(q2):
    with pytest.raises(ValueError):
        superset_lattice_box(q2, [-1, 1])


@pytest.mark.parametrize("primes, hi, message", [
    ([2], [(1 << 62) + 1, 0], "coordinates"),
    # squarefree and below 2^63, but 15 times it is not, and its axis is not [0, 0]
    ([15, 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53], [0, 0, 0, 1],
     "radicands"),
], ids=["coordinate", "radicand"])
def test_scan_job_refuses_int64_overflow(primes, hi, message):
    field = make_field(primes)
    zeros = np.zeros(field.degree)
    with pytest.raises(ScanOverflowError, match=message):
        scan_job(field, [0] * field.degree, hi, zeros, zeros)


def test_trace_simplex_box_contains_tp_integers(q23):
    rng = random.Random(34)
    for _ in range(300):
        x = random_tp_integer(q23, rng, spread=4, use_residues=True)
        t = x.trace()
        assert t.denominator == 1
        half = trace_simplex_box(q23, int(t))
        den, coords = x.scaled_coords()
        step = 4 // den  # 2^k = 4
        for mask, n in enumerate(coords):
            assert abs(n * step) <= half[mask]


def test_totally_positive_enumeration_small(q2):
    got = totally_positive_integers_up_to_trace(q2, 6)
    names = sorted(repr(x) for x in got)
    # traces 2, 4, 6: rationals 1, 2, 3 and the conjugate pairs around them
    assert "1" in names and "2" in names and "3" in names
    assert "2 + s2" in names and "2 - s2" in names
    for x in got:
        assert x.is_totally_positive()
        assert is_algebraic_integer(x)
        assert x.trace() <= 6
    # completeness cross-check by brute force over integer coordinates
    count = 0
    for a in range(1, 4):
        for b in range(-3, 4):
            x = q2.element({0: a, 1: b})
            if x.is_totally_positive():
                count += 1
    assert count == len(got)
