"""Test-only oracles: slow independent re-derivations that the tests compare
the library against.  None of them is on a certification path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import isqrt

from mqf.certifier import _pair_job
from mqf.cf import _convergent_chain, _twice_embedding_floor
from mqf.errors import (
    BudgetExceededError,
    FieldMismatchError,
    MqfError,
    NonRationalCoefficientError,
    NotIntegralError,
    WrongDegreeError,
)
from mqf.fields import FieldElement, MultiquadField, make_field
from mqf.indecomposables import require_totally_positive_integer
from mqf.integers import is_algebraic_integer

UNPRUNED_POINT_CAP = 4 * 10**6


class DegeneratePartError(MqfError):
    """c = u + v*sqrt(q) was required to have both parts nonzero."""


def mul_fractions(field: MultiquadField, a: dict[int, Fraction],
                  b: dict[int, Fraction]) -> dict[int, Fraction]:
    """Sparse product of Fraction coefficient maps over the sqrt(p_I) basis."""
    out: dict[int, Fraction] = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[i ^ j] = out.get(i ^ j, 0) + ca * cb * field.mult[i][j]
    return {m: c for m, c in out.items() if c}


class FractionElement:
    """Reference ring arithmetic on a map from each nonzero mask to its
    Fraction coefficient, the element form the library kept before it stored
    integer coordinates over one denominator."""

    def __init__(self, field: MultiquadField, coeffs: dict[int, Fraction]):
        self.field = field
        self.coeffs = {m: Fraction(c) for m, c in coeffs.items() if c}

    @classmethod
    def from_scaled(cls, field: MultiquadField, coords, denominator: int) -> FractionElement:
        return cls(field, {m: Fraction(n, denominator) for m, n in enumerate(coords) if n})

    def _coerce(self, other) -> FractionElement:
        if isinstance(other, FractionElement):
            return other
        return FractionElement(self.field, {0: Fraction(other)})

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field.primes, frozenset(self.coeffs.items())))

    def __add__(self, other) -> FractionElement:
        out = dict(self.coeffs)
        for m, c in self._coerce(other).coeffs.items():
            out[m] = out.get(m, 0) + c
        return FractionElement(self.field, out)

    __radd__ = __add__

    def __neg__(self) -> FractionElement:
        return FractionElement(self.field, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other) -> FractionElement:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> FractionElement:
        return (-self) + other

    def __mul__(self, other) -> FractionElement:
        return FractionElement(self.field, mul_fractions(self.field, self.coeffs,
                                                         self._coerce(other).coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> FractionElement:
        base = self.inverse() if exponent < 0 else self
        out = self._coerce(1)
        for _ in range(abs(exponent)):
            out = out * base
        return out

    def __truediv__(self, other) -> FractionElement:
        if isinstance(other, FractionElement):
            return self * other.inverse()
        return self * (1 / Fraction(other))

    def conjugate(self, smask: int) -> FractionElement:
        return FractionElement(self.field, {
            m: -c if (smask & m).bit_count() & 1 else c for m, c in self.coeffs.items()})

    def trace(self) -> Fraction:
        return self.field.degree * self.coeffs.get(0, Fraction(0))

    def norm(self) -> Fraction:
        prod = self._coerce(1)
        for smask in range(self.field.degree):
            prod = prod * self.conjugate(smask)
        assert set(prod.coeffs) <= {0}
        return prod.coeffs.get(0, Fraction(0))

    def inverse(self) -> FractionElement:
        if not self.coeffs:
            raise ZeroDivisionError("zero has no inverse")
        prod = self._coerce(1)
        for smask in range(1, self.field.degree):
            prod = prod * self.conjugate(smask)
        return prod * (1 / self.norm())

    def to_json(self) -> dict:
        return {"coeffs": {str(m): f"{c.numerator}/{c.denominator}"
                           for m, c in sorted(self.coeffs.items())}}

    def __repr__(self) -> str:
        parts = []
        for mask, c in sorted(self.coeffs.items()):
            tok = f"s{self.field.radicands[mask]}"
            parts.append(str(c) if mask == 0 else tok if c == 1 else f"-{tok}" if c == -1
                         else f"{c}*{tok}")
        out = parts[0] if parts else "0"
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def char_poly_by_products(x: FieldElement) -> list[Fraction]:
    """Coefficients of prod_s (T - sigma_s(x)), constant term first, built by
    multiplying out the conjugates as field elements."""
    field = x.field
    poly: list[FieldElement] = [field.one()]
    for smask in range(field.degree):
        conj = x.conjugate(smask)
        nxt = [field.zero() for _ in range(len(poly) + 1)]
        for d, coeff in enumerate(poly):
            nxt[d + 1] = nxt[d + 1] + coeff
            nxt[d] = nxt[d] - coeff * conj
        poly = nxt
    out: list[Fraction] = []
    for coeff in poly:
        for mask, c in coeff.coeffs.items():
            if mask != 0 and c:
                raise NonRationalCoefficientError(
                    "characteristic polynomial has a non-rational coefficient"
                )
        out.append(coeff.coeffs.get(0, Fraction(0)))
    return out


def trace_exceeds_min_radicand(x: FieldElement) -> bool:
    """Biquadratic final clause: x not rational implies Tr(x) > min(sqrt(p), sqrt(q), sqrt(r))."""
    if x.field.k != 2:
        raise WrongDegreeError("the min-radicand trace clause is biquadratic (k=2)")
    require_totally_positive_integer(x)
    if set(x.coeffs) <= {0}:
        return True  # rational integers are exempt
    t = x.trace()
    return t * t > min(x.field.radicands[1:])


def trace_of_square(x: FieldElement) -> Fraction:
    """Tr(x^2) = 2^k sum_I x_I^2 p_I, over the Fraction coefficients.

    A cross term sqrt(p_I) sqrt(p_J) with I != J is a rational multiple of
    sqrt(p_{I xor J}), whose trace is 0, so only the squares are left.
    """
    return x.field.degree * sum(c * c * x.field.radicands[m] for m, c in x.coeffs.items())


def enclosures_at(x: FieldElement, bits: int) -> list[tuple[Fraction, Fraction]]:
    """Rational intervals around each sigma_s(x), of width sum_I |x_I| * 2^-bits,
    from r_I = isqrt(p_I * 4^bits) <= sqrt(p_I) * 2^bits < r_I + 1."""
    field = x.field
    roots = [isqrt(p << 2 * bits) for p in field.radicands]
    out = []
    for smask in range(field.degree):
        lo = hi = Fraction(0)
        for m, c in x.coeffs.items():
            t = -c if (smask & m).bit_count() & 1 else c
            lo += min(t * roots[m], t * (roots[m] + 1))
            hi += max(t * roots[m], t * (roots[m] + 1))
        out.append((lo / 2 ** bits, hi / 2 ** bits))
    return out


def signs_rec(field: MultiquadField, coeffs, level: int) -> list[int]:
    """Reference signs of sigma_s(x), s = 0 .. 2^level - 1, for x supported on
    masks < 2^level, in Fraction arithmetic.

    Splits x = u + v*sqrt(p_top) over the subfield of the first level-1
    generators and decides each embedding by the signs of u, v and u^2 -
    p_top*v^2 there, recursing to plain rational signs at level 0.  The split
    and w = u^2 - p_top*v^2 do not depend on the embedding, so each is built
    once: embedding s of x restricts to embedding s mod 2^(level-1) of the
    subfield, and its bit 2^(level-1) flips the sign of sqrt(p_top).
    """
    if level == 0:
        c = coeffs.get(0, Fraction(0))
        return [(c > 0) - (c < 0)]
    top = 1 << (level - 1)
    p_top = field.radicands[top]
    u: dict[int, Fraction] = {}
    v: dict[int, Fraction] = {}
    for mask, c in coeffs.items():
        if mask & top:
            low = mask ^ top
            # sqrt(p_mask) = sqrt(p_low) * sqrt(p_top) / m
            v[low] = c / field.mult[low][top]
        else:
            u[mask] = c
    su = signs_rec(field, u, level - 1)
    sv = signs_rec(field, v, level - 1)
    sw = None
    out = []
    for s in range(2 * top):
        a = su[s % top]
        b = -sv[s % top] if s & top else sv[s % top]
        if b == 0 or a == b:
            out.append(a)
        elif a == 0:
            out.append(b)
        else:
            if sw is None:
                w = mul_fractions(field, u, u)
                pv2 = mul_fractions(field, v, v)
                for mask, c in pv2.items():
                    c *= p_top
                    if mask in w:
                        w[mask] -= c
                    else:
                        w[mask] = -c
                sw = signs_rec(field, w, level - 1)
            out.append(a * sw[s % top])
    return out


def enumerate_violations_unpruned(a: FieldElement, b: FieldElement):
    """Slow independent oracle: same embedding box, no ellipsoid, no prefilter.

    Pure rational arithmetic over every nonzero point; only meant for small
    boxes (tests and spot checks).  Returns (violations, near_misses).
    """
    if a.field != b.field:
        raise FieldMismatchError("pair elements live in different fields")
    field = a.field
    job = _pair_job(a, b)
    total = job.total_points()
    if total > UNPRUNED_POINT_CAP:
        raise BudgetExceededError(0, total, "unpruned enumeration")
    fourab = a * b * 4
    violations = []
    near = 0
    ranges = [range(lo, hi + 1) for lo, hi in zip(job.lo.tolist(), job.hi.tolist())]
    for coords in iter_product(*ranges):
        if not any(coords):
            continue
        c = field.from_scaled(coords, 1 << field.k)
        diff = fourab - c * c
        if all(diff.sign_at(s) >= 0 for s in range(field.degree)):
            if is_algebraic_integer(c):
                violations.append(c)
            else:
                near += 1
    return violations, near


def check_case_c_bound(c: FieldElement) -> bool:
    """Verify Tr_L(c^2) > sqrt(q) for integral c = u + v*sqrt(q), u, v != 0.

    Property-test harness for the mixed case of the extension argument; not
    part of the certification path.  Comparison is exact on squares.
    """
    field = c.field
    top = 1 << (field.k - 1)
    q = field.radicands[top]
    has_low = any(mask < top and coeff for mask, coeff in c.coeffs.items())
    has_high = any(mask & top and coeff for mask, coeff in c.coeffs.items())
    if not has_low or not has_high:
        raise DegeneratePartError("c = u + v*sqrt(q) needs both u and v nonzero")
    if not is_algebraic_integer(c):
        raise NotIntegralError(f"{c!r} is not an algebraic integer")
    t = (c * c).trace()
    return t > 0 and t * t > q


def split_at_top(c: FieldElement) -> tuple[FieldElement, FieldElement]:
    """Write c = u + v*sqrt(q) with u, v in the subfield below the top generator.

    Both parts are returned as elements of the subfield K.
    """
    field = c.field
    top = 1 << (field.k - 1)
    sub = make_field(list(field.primes[:-1]))
    u: dict[int, Fraction] = {}
    v: dict[int, Fraction] = {}
    for mask, coeff in c.coeffs.items():
        if mask & top:
            # sqrt(p_mask) = sqrt(p_low)*sqrt(q)/m, so the sqrt(q)-part picks up 1/m.
            low = mask ^ top
            v[low] = coeff / field.mult[low][top]
        else:
            u[mask] = coeff
    return sub.element(u), sub.element(v)


def case_b_identity_holds(field_k: MultiquadField, q: int, v: FieldElement) -> bool:
    """Exact check of the squared-pure-part chain for v != 0 in (1/2^(k+1))Z[sqrt(p_I)]:

    Tr_L((v sqrt(q))^2) = 2 q Tr_K(v^2) >= q / 2^(k+1) > sqrt(q).
    """
    if not v:
        raise ValueError("v must be nonzero")
    k = field_k.k
    tr_k_v2 = (v * v).trace()
    lhs = 2 * q * tr_k_v2          # Tr_L(v^2 q) with Tr_L = 2 Tr_K on K
    bound = Fraction(q, 1 << (k + 1))
    return lhs >= bound and bound * bound > q


def semiconvergent_coords_full_walk(D: int, trace_bound: int) -> list[tuple[int, int]]:
    """``cf._semiconvergent_coords`` walking every block to its end: each
    semiconvergent alpha_i + r alpha_(i+1), 0 <= r <= u_(i+2), is visited and
    kept if its trace is at most trace_bound."""
    chain = _convergent_chain(D)
    found = set()
    prev = next(chain)
    while True:
        cur, nxt = next(chain), next(chain)
        n0, n1 = prev
        while True:
            if n0 <= trace_bound:
                found.add((n0, n1))
                found.add((n0, -n1))
            if (n0, n1) == nxt:
                break
            n0, n1 = n0 + cur[0], n1 + cur[1]
        if _twice_embedding_floor(D, *nxt) // 2 > trace_bound:
            return sorted(found)
        prev = nxt
