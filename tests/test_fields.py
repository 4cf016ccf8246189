import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from conftest import random_element, random_integer_element, shift_totally_positive
from oracles import FractionElement, char_poly_by_products, enclosures_at, signs_rec
from mqf.errors import (
    DegenerateFieldError,
    EmptyPrimeListError,
    FieldMismatchError,
    NotSquarefreeError,
    PairwiseCoprimeError,
)
from mqf.fields import ROOT_BITS, factor, make_field, squarefree_part


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_make_field_basic(q23):
    assert q23.degree == 4
    assert q23.radicands == (1, 2, 3, 6)


def test_make_field_non_coprime_biquadratic():
    # gcd(6, 10) = 2 is allowed at k = 2; the mixed radicand is 15 and
    # sqrt(6)*sqrt(10) = 2*sqrt(15).
    field = make_field([6, 10])
    assert field.radicands == (1, 6, 10, 15)
    assert field.mult[1][2] == 2
    assert field.sqrt_term(6) * field.sqrt_term(10) == 2 * field.sqrt_term(15)


def test_make_field_rejects_square_collapse():
    with pytest.raises(DegenerateFieldError):
        make_field([2, 8])  # sqrt(2)*sqrt(8) = 4 collapses the degree


def test_make_field_rejects_non_squarefree_entry():
    with pytest.raises(NotSquarefreeError):
        make_field([8])


def test_make_field_rejects_empty():
    with pytest.raises(EmptyPrimeListError):
        make_field([])


def test_make_field_rejects_one():
    with pytest.raises(DegenerateFieldError):
        make_field([1, 2])


def test_make_field_requires_coprime_for_k3():
    with pytest.raises(PairwiseCoprimeError):
        make_field([6, 35, 10])  # degree would be fine, but gcd(6, 10) = 2
    make_field([2, 3, 5])  # coprime is accepted


def test_radicand_table_invariants(q235):
    # p_empty = 1; p_I is the squarefree part of the product; multiplier law.
    assert q235.radicands[0] == 1
    for mask in range(q235.degree):
        prod = 1
        for i in range(q235.k):
            if mask >> i & 1:
                prod *= q235.primes[i]
        assert q235.radicands[mask] == squarefree_part(prod)
    for i in range(q235.degree):
        for j in range(q235.degree):
            m = q235.mult[i][j]
            assert m * m * q235.radicands[i ^ j] == q235.radicands[i] * q235.radicands[j]


def test_all_radicands_distinct(q235):
    assert len(set(q235.radicands)) == q235.degree


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------

def test_mul_examples(q23):
    assert q23.sqrt_term(2) * q23.sqrt_term(3) == q23.sqrt_term(6)
    golden = make_field([5]).element({0: Fraction(1, 2), 1: Fraction(1, 2)})
    sq = golden * golden
    assert sq == golden + 1  # x^2 = x + 1
    assert sq.coeffs == {0: Fraction(3, 2), 1: Fraction(1, 2)}


def test_ring_axioms_random(q2, q23, q235):
    rng = random.Random(101)
    for field in (q2, q23, q235):
        for _ in range(60):
            x = random_element(field, rng)
            y = random_element(field, rng)
            z = random_element(field, rng)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x * y == y * x
            assert x + y == y + x


def test_field_mismatch(q2, q23):
    with pytest.raises(FieldMismatchError):
        q2.one() + q23.one()
    with pytest.raises(FieldMismatchError):
        q2.one().succeq(q23.one())


def test_equality_drops_zeros(q23):
    a = q23.element({0: 1, 2: 0})
    b = q23.element({0: 1})
    assert a == b and hash(a) == hash(b)
    assert a.coeffs == {0: Fraction(1)}


def _assert_stored_form(x):
    """den >= 1, the coordinates in lowest terms with no zero entry, zero as ({}, 1)."""
    assert x.den >= 1 and gcd(x.den, *x.num.values()) == 1
    assert all(x.num.values()) and (x or (x.num, x.den) == ({}, 1))


def _assert_same(new, ref):
    _assert_stored_form(new)
    assert new.coeffs == ref.coeffs
    assert new.to_json() == ref.to_json() and repr(new) == repr(ref)
    assert new == new.field.element(ref.coeffs) and hash(new) == hash(ref)


@pytest.mark.parametrize("primes", [[2], [5], [2, 3], [6, 10], [2, 3, 5]])
def test_ring_arithmetic_matches_the_fraction_reference(primes):
    """Integer coordinates over one denominator against Fraction-map arithmetic."""
    field = make_field(primes)
    rng = random.Random(30 + sum(primes))
    denominators = range(1, 9)
    rationals = [(field.rational(0), FractionElement(field, {})),
                 (field.rational(Fraction(-3, 6)), FractionElement(field, {0: Fraction(-1, 2)}))]
    for _ in range(150 if field.k < 3 else 40):
        x, y = (random_element(field, rng, spread=6, max_terms=rng.randint(0, field.degree),
                               denominators=denominators) for _ in range(2))
        rx, ry = FractionElement(field, x.coeffs), FractionElement(field, y.coeffs)
        n = rng.randint(-4, 4)
        c = Fraction(rng.randint(-6, 6), rng.choice(denominators))
        e = rng.randint(0, 3)
        cases = [(x, rx), (x + y, rx + ry), (x - y, rx - ry), (-x, -rx), (x * y, rx * ry),
                 (x + n, rx + n), (n - x, n - rx), (x * n, rx * n), (n * x, rx * n),
                 (x * c, rx * c), (c * x, rx * c), (x ** e, rx ** e), (x - x, rx - rx)]
        cases += [(x.conjugate(s), rx.conjugate(s)) for s in range(field.degree)]
        for r, rr in rationals:
            cases += [(r, rr), (x + r, rx + rr), (r - x, rr - rx), (x * r, rx * rr)]
        if y:
            cases += [(x / y, rx / ry), (y.inverse(), ry.inverse()), (y ** -2, ry ** -2)]
        if n:
            cases.append((x / n, rx / n))
        if c:
            cases.append((x / c, rx / c))
        for new, ref in cases:
            _assert_same(new, ref)
        assert x.trace() == rx.trace() and x.norm() == rx.norm()
        assert (x == y) == (rx == ry) and (x + 0 == x) and (field.rational(c) == c)
        coords = [rng.randint(-9, 9) for _ in range(field.degree)]
        d = rng.choice(denominators)
        _assert_same(field.from_scaled(coords, -d), FractionElement.from_scaled(field, coords, -d))
    for coords in ([1] * field.degree, [0] * field.degree):
        with pytest.raises(ZeroDivisionError):
            field.from_scaled(coords, 0)


def test_inverse_and_division(q2):
    x = q2.one() + q2.sqrt_term(2)
    assert x.inverse() * x == q2.one()
    assert (x / x) == q2.one()
    assert x ** -2 == (x * x).inverse()


# ---------------------------------------------------------------------------
# Galois action, trace, norm, characteristic polynomial
# ---------------------------------------------------------------------------

def test_conjugate_pattern(q23):
    x = q23.element({0: 1, 1: 1, 2: 1, 3: 1})
    # flip sqrt(3) only: mask 2
    conj = x.conjugate(2)
    assert conj == q23.element({0: 1, 1: 1, 2: -1, 3: -1})
    assert x.conjugate(0) == x
    s6 = q23.sqrt_term(6)
    assert s6.conjugate(3) == s6


def test_conjugation_is_automorphism(q23, q235):
    rng = random.Random(7)
    for field in (q23, q235):
        for smask in range(field.degree):
            x = random_element(field, rng)
            y = random_element(field, rng)
            assert (x * y).conjugate(smask) == x.conjugate(smask) * y.conjugate(smask)
            assert (x + y).conjugate(smask) == x.conjugate(smask) + y.conjugate(smask)


def test_conjugation_composition(q235):
    rng = random.Random(8)
    x = random_element(q235, rng)
    for a in range(q235.degree):
        for b in range(q235.degree):
            assert x.conjugate(a).conjugate(b) == x.conjugate(a ^ b)


def test_trace_examples(q23, q5):
    assert (q23.rational(3) + q23.sqrt_term(2)).trace() == 12
    for mask in range(1, q23.degree):
        assert q23.element({mask: 5}).trace() == 0
    half = q5.element({0: Fraction(3, 2), 1: Fraction(1, 2)})
    assert half.trace() == 3


def test_trace_is_sum_of_conjugates(q23, q235):
    rng = random.Random(9)
    for field in (q23, q235):
        for _ in range(30):
            x = random_element(field, rng)
            total = field.zero()
            for smask in range(field.degree):
                total = total + x.conjugate(smask)
            assert total == field.rational(x.trace())


def test_trace_linearity(q23):
    rng = random.Random(10)
    for _ in range(30):
        x = random_element(q23, rng)
        y = random_element(q23, rng)
        c = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        assert (x + y).trace() == x.trace() + y.trace()
        assert (c * x).trace() == c * x.trace()


def test_norm_examples(q2, q23):
    assert (q2.one() + q2.sqrt_term(2)).norm() == -1
    assert q23.sqrt_term(2).norm() == 4
    assert (q23.rational(2) + q23.sqrt_term(3)).norm() == 1


def test_norm_multiplicative(q23, q235):
    rng = random.Random(11)
    for field in (q23, q235):
        for _ in range(25):
            x = random_element(field, rng, spread=4)
            y = random_element(field, rng, spread=4)
            assert (x * y).norm() == x.norm() * y.norm()


def test_norm_equals_conjugate_product(q23, q235):
    rng = random.Random(19)
    for field in (q23, q235, make_field([6, 10])):
        for x in [field.zero()] + [random_element(field, rng, spread=30) for _ in range(100)]:
            prod = field.one()
            for smask in range(field.degree):
                prod = prod * x.conjugate(smask)
            assert x.norm() == prod.coeffs.get(0, Fraction(0))
            assert set(prod.coeffs) <= {0}


def test_char_poly_examples(q32, q5, q23):
    x = q32.element({2: Fraction(1, 2), 3: Fraction(1, 2)})  # (sqrt2 + sqrt6)/2
    assert x.char_poly() == [Fraction(1), Fraction(0), Fraction(-4), Fraction(0), Fraction(1)]
    assert q23.zero().char_poly() == [Fraction(0)] * 4 + [Fraction(1)]
    golden = q5.element({0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert golden.char_poly() == [Fraction(-1), Fraction(-1), Fraction(1)]


def test_char_poly_monic_and_root(q23):
    rng = random.Random(12)
    for _ in range(10):
        x = random_element(q23, rng, spread=3)
        poly = x.char_poly()
        assert len(poly) == q23.degree + 1
        assert poly[-1] == 1
        # x is a root of its own characteristic polynomial
        acc = q23.zero()
        power = q23.one()
        for coeff in poly:
            acc = acc + coeff * power
            power = power * x
        assert acc == q23.zero()


def test_char_poly_matches_the_conjugate_product():
    # the integer char-poly with its coefficients rescaled, against the
    # product of the conjugates in field arithmetic
    rng = random.Random(14)
    for primes in ([2], [5], [3, 2], [5, 13], [6, 10], [2, 3, 5], [3, 5, 7]):
        field = make_field(primes)
        for _ in range(40 if field.k < 3 else 8):
            x = random_element(field, rng, spread=7, denominators=(1, 2, 3, 4, 8))
            assert x.char_poly() == char_poly_by_products(x), x


def test_char_poly_constant_coeff_is_norm(q23):
    rng = random.Random(13)
    for _ in range(20):
        x = random_element(q23, rng, spread=4)
        poly = x.char_poly()
        sign = 1 if q23.degree % 2 == 0 else -1
        assert poly[0] == sign * x.norm()


def test_factor_and_squarefree_part_against_brute_force():
    limit = 10**4
    exponents = [{} for _ in range(limit)]  # built prime power by prime power
    for p in range(2, limit):
        if all(p % d for d in range(2, isqrt(p) + 1)):
            power = p
            while power < limit:
                for n in range(power, limit, power):
                    exponents[n][p] = exponents[n].get(p, 0) + 1
                power *= p
    for n in range(1, limit):
        assert factor(n) == exponents[n], n
        largest_square = max(s * s for s in range(1, isqrt(n) + 1) if n % (s * s) == 0)
        assert squarefree_part(n) == n // largest_square, n
    with pytest.raises(ValueError):
        factor(0)


# ---------------------------------------------------------------------------
# exact signs and the total-positivity order
# ---------------------------------------------------------------------------

def test_sign_examples(q2, q23):
    x = q2.one() + q2.sqrt_term(2)
    assert x.sign_at(1) == -1  # 1 - sqrt(2) < 0
    assert x.sign_at(0) == 1
    t = q23.rational(3) + q23.sqrt_term(2) + q23.sqrt_term(3) + q23.sqrt_term(6)
    assert t.signs() == [1, 1, 1, 1]
    assert q23.zero().signs() == [0, 0, 0, 0]


def test_sign_at_rejects_out_of_range_mask(q23):
    x = q23.one() + q23.sqrt_term(2)
    for bad in (4, 7, -1):
        with pytest.raises(ValueError):
            x.sign_at(bad)
    assert [x.sign_at(s) for s in range(4)] == x.signs() == [1, -1, 1, -1]


def _huge(field, rng):
    """Coefficients around 10^30 over denominators 1, 2 and 4, some zero."""
    return field.element({m: Fraction(rng.randint(-10**30, 10**30), rng.choice((1, 2, 4)))
                          for m in range(field.degree) if rng.random() < 0.8})


def _near_boundary(field, rng):
    """A power z^e or a huge element, minus the floor of one of its embeddings
    (and minus 1 more half the time): that embedding lies in [-1, 1) while the
    coefficients stay large, so the enclosure cannot always decide it."""
    if rng.random() < 0.5:
        y = random_element(field, rng, spread=9, denominators=(1,)) ** rng.randint(1, 12 // field.k)
    else:
        y = _huge(field, rng)
    # wide enough that lo has the floor of the embedding (unless it is within
    # 2^-64 of an integer, which only makes the element another test case)
    bits = 64 + 2 * max((abs(c.numerator) + c.denominator).bit_length()
                        for c in y.coeffs.values() or [Fraction(0)])
    lo, _ = enclosures_at(y, bits)[rng.randrange(field.degree)]
    return y - (lo.numerator // lo.denominator) - rng.randint(0, 1)


@pytest.mark.parametrize("primes", [[2], [5], [2, 3], [6, 10], [2, 3, 5]])
def test_signs_match_reference_recursion(primes):
    """The refined integer enclosure agrees with the Fraction recursion on
    random, near-boundary and huge elements, zero included."""
    field = make_field(primes)
    rng = random.Random(20 + sum(primes))
    # 10^4 elements for each k = 1, 2, 3; fewer on the second field of k = 1, 2
    count = {(2,): 10**4, (5,): 2000, (2, 3): 10**4, (6, 10): 2000, (2, 3, 5): 10**4}[tuple(primes)]
    elements = [field.zero()]
    while len(elements) < count:
        kind = rng.random()
        if kind < 0.6:
            elements.append(random_element(field, rng, spread=30,
                                           max_terms=rng.randint(1, field.degree),
                                           denominators=(1, 2, 4)))
        elif kind < 0.85:
            elements.append(_near_boundary(field, rng))
        else:
            elements.append(_huge(field, rng))
    for x in elements:
        expected = signs_rec(field, x.coeffs, field.k)
        assert x.signs() == expected, x
        assert x.is_totally_positive() == all(s > 0 for s in expected)
        assert x.succeq(0) == all(s >= 0 for s in expected)


@pytest.mark.parametrize("primes, top", [([2], 300), ([2, 3], 120), ([2, 3, 5], 60)])
def test_signs_of_unit_powers_refine_the_enclosure(primes, top):
    """u = (1 + sqrt2)(2 + sqrt3)(2 + sqrt5), cut to the field's generators.
    Its powers have coordinates near |u|^n and one conjugate near |u|^-n, so
    the enclosure at ROOT_BITS leaves that embedding open from n = 27, 11 and
    7 on (k = 1, 2, 3), and the largest powers need a 1024-bit table.
    1 - sqrt2 and 2 - sqrt5 are negative and 2 - sqrt3 is positive, so
    sigma_s(u^n) has sign (-1)^(n * (bit0(s) + bit2(s)))."""
    field = make_field(primes)
    unit = field.one()
    for p, c in zip(primes, (1, 2, 2)):
        unit = unit * (c + field.sqrt_term(p))
    negative = 0b101 & (field.degree - 1)
    x = field.one()
    for n in range(1, top + 1):
        x = x * unit
        expected = [(-1) ** (n * (s & negative).bit_count()) for s in range(field.degree)]
        assert x.signs() == expected, n
        assert [x.sign_at(s) for s in range(field.degree)] == expected, n
        if n % (top // 4) == 0:
            assert signs_rec(field, x.coeffs, field.k) == expected, n


def test_enclosure_width_follows_bits():
    x = make_field([2, 3]).element({0: Fraction(3, 2), 1: -1, 2: 5, 3: Fraction(-1, 4)})
    enclosures = enclosures_at(x, ROOT_BITS)  # sum |x_I| = 31/4
    assert x.embedding_upper_bounds() == [hi for _, hi in enclosures]
    assert [-u for u in (-x).embedding_upper_bounds()] == [lo for lo, _ in enclosures]
    for lo, hi in enclosures:
        assert hi - lo == Fraction(31, 4) / 2 ** ROOT_BITS


def test_sign_matches_interval_at_128_bits(q2, q23, q235):
    rng = random.Random(14)
    for field in (q2, q23, q235):
        for _ in range(200):
            x = random_element(field, rng)
            enclosures = enclosures_at(x, 128)
            for smask, (lo, hi) in enumerate(enclosures):
                if lo > 0:
                    assert x.sign_at(smask) == 1
                elif hi < 0:
                    assert x.sign_at(smask) == -1
                else:
                    # interval straddles zero: only the exact element 0 allows it
                    assert not x or abs(hi - lo) < Fraction(1, 2 ** 100)


def test_succeq_examples(q2, q32):
    assert q2.rational(4).succeq(q2.one())
    x = q2.one() + q2.sqrt_term(2)
    assert not x.succeq(0)
    assert not x.is_totally_positive()
    w = q32.rational(2) + q32.element({2: Fraction(1, 2), 3: Fraction(1, 2)})
    assert w.is_totally_positive()


def test_succeq_is_reflexive_and_respects_shift(q23):
    rng = random.Random(15)
    for _ in range(20):
        x = random_element(q23, rng)
        assert x.succeq(x)
        y = shift_totally_positive(x)
        assert y.is_totally_positive() and y.succeq(0)


def test_trace_of_square_identity(q2, q23, q235):
    rng = random.Random(16)
    for field in (q2, q23, q235):
        for _ in range(40):
            x = random_element(field, rng)
            expected = field.degree * sum(
                c * c * field.radicands[m] for m, c in x.coeffs.items()
            )
            assert (x * x).trace() == expected


def test_trace_of_square_in_q_sqrt2(q2):
    # Tr((a + b*sqrt2)^2) = 2(a^2 + 2 b^2)
    rng = random.Random(17)
    for _ in range(40):
        a = Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
        b = Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
        x = q2.element({0: a, 1: b})
        assert (x * x).trace() == 2 * (a * a + 2 * b * b)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_field_json_roundtrip(q235):
    from mqf.fields import MultiquadField

    data = q235.to_json()
    assert data == {"primes": [2, 3, 5]}
    assert MultiquadField.from_json(data) == q235


def test_element_json_roundtrip(q23):
    rng = random.Random(18)
    for _ in range(20):
        x = random_element(q23, rng)
        data = x.to_json()
        for key, val in data["coeffs"].items():
            assert "/" in val and key.isdigit()
        assert q23.element_from_json(data) == x


def test_sign_exact_beats_float_cancellation(q2):
    # Pell solutions p^2 - 2q^2 = 1 give p - q*sqrt(2) = 1/(p + q*sqrt(2)),
    # eventually far below float64 resolution of the subtraction; the exact
    # sign must stay +1 even when naive float evaluation returns junk
    p, q = 3, 2
    for _ in range(20):
        x = q2.element({0: p, 1: -q})
        assert p * p - 2 * q * q == 1
        assert x.sign_at(0) == 1
        assert x.sign_at(1) == 1  # conjugate p + q*sqrt2 is clearly positive
        assert x.is_totally_positive()
        assert (x * x.conjugate(1)).coeffs == {0: Fraction(1)}  # norm 1 exactly
        p, q = 3 * p + 4 * q, 2 * p + 3 * q
    assert p > 10**15  # deep enough that float64 cancellation is total


def test_succeq_near_equality_exact(q5):
    # x and y differing by an invisible-to-float margin at one embedding
    golden = q5.element({0: Fraction(1, 2), 1: Fraction(1, 2)})
    tiny = golden ** -40          # unit power, one embedding ~ 1e-9, exact
    x = q5.rational(7)
    assert ((x + tiny) - x).is_totally_positive()
    assert not x.succeq(x + tiny)
    assert (x + tiny).succeq(x + tiny)
