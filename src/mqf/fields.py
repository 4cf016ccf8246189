"""Exact arithmetic in totally real multiquadratic fields Q(sqrt(p_1), ..., sqrt(p_k)).

An element x = sum_I (n_I / d) sqrt(p_I) is stored as its integer coordinates
n_I over one positive denominator d, in lowest terms, as a sparse map from
subset bitmasks to the nonzero n_I; p_I is the squarefree part of
prod_{i in I} p_i, and bit i of a mask corresponds to the generator p_{i+1}.
All decisions (signs, orderings, total positivity) are exact; floating point
appears only in optional prefilters and never in a decision path.

Signs are decided on the stored coordinates, in one routine (:func:`_signs`).
An integer enclosure built from the per-field table r_I = isqrt(p_I * 2^128)
decides almost every embedding; the few it leaves open go to an exact integer
recursion over the quadratic subfield tower (:func:`_exact_signs`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateFieldError,
    EmptyPrimeListError,
    FieldMismatchError,
    FieldTooLargeError,
    MalformedPayloadError,
    NonRationalCoefficientError,
    NonRationalNormError,
    NotSquarefreeError,
    PairwiseCoprimeError,
)

RationalLike = int | Fraction

# The most generators a field may have: the product table has 4^k entries and
# every exact sign walks 2^k embeddings.  Every field a command builds stays
# within it, and so does every field read from a JSON artifact.
MAX_K = 8

_RATIONAL = re.compile(r"-?[1-9][0-9]*/[1-9][0-9]*")


def json_object(data, keys: tuple[str, ...], what: str) -> dict:
    """``data`` if it is a JSON object with exactly ``keys``."""
    if not isinstance(data, dict) or set(data) != set(keys):
        raise MalformedPayloadError(f"{what}: expected an object with keys {sorted(keys)}")
    return data


def json_value(value, kind: type, what: str, *, minimum: int | None = None):
    """``value`` if its JSON type is ``kind`` (a bool is not an int) and, for
    an int, it is at least ``minimum``."""
    if type(value) is not kind or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise MalformedPayloadError(f"{what}: expected {kind.__name__}{bound}")
    return value


def factor(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of n >= 1, by trial division."""
    if n < 1:
        raise ValueError("factor requires n >= 1")
    out = {}
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out[d] = e
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor d of n with n/d a perfect square (n >= 1)."""
    part = 1
    for p, e in factor(n).items():
        if e & 1:
            part *= p
    return part


def is_squarefree(n: int) -> bool:
    return n >= 1 and squarefree_part(n) == n


# Bits of the cached root table: sqrt(p_I) * 2^ROOT_BITS lies in [r_I, r_I + 1).
# Certificates are built from enclosures of this width, so it is fixed.
ROOT_BITS = 64


def _root_table(radicands: Iterable[int], bits: int) -> tuple[int, ...]:
    """r_I = isqrt(p_I * 4^bits), so r_I <= sqrt(p_I) * 2^bits < r_I + 1."""
    return tuple(isqrt(p << 2 * bits) for p in radicands)


class MultiquadField:
    """The field Q(sqrt(p_1), ..., sqrt(p_k)) with precomputed subset tables.

    Immutable after construction.  Use :func:`make_field` to build one with
    full validation.
    """

    __slots__ = (
        "primes", "k", "degree", "radicands", "mult",
        "roots", "_embed_matrix", "_value_to_mask", "_residue_cache",
        "_lattice_cache",
    )

    def __init__(self, primes: tuple[int, ...], radicands: tuple[int, ...]):
        self.primes = primes
        self.k = len(primes)
        self.degree = 1 << self.k
        self.radicands = radicands
        # mult[i][j] = m with sqrt(p_I)*sqrt(p_J) = m*sqrt(p_{I xor J});
        # for squarefree radicands m is exactly gcd(p_I, p_J).
        self.mult = tuple(
            tuple(gcd(radicands[i], radicands[j]) for j in range(self.degree))
            for i in range(self.degree)
        )
        for i in range(self.degree):
            for j in range(self.degree):
                m = self.mult[i][j]
                if m * m * radicands[i ^ j] != radicands[i] * radicands[j]:
                    raise DegenerateFieldError(
                        f"inconsistent product table at subsets {i}, {j}"
                    )
        self._value_to_mask = {radicands[m]: m for m in range(self.degree)}
        self.roots = _root_table(radicands, ROOT_BITS)
        self._embed_matrix: np.ndarray | None = None
        self._residue_cache: np.ndarray | None = None  # filled by integers.py
        self._lattice_cache = None  # integers.ring_lattice, filled there

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiquadField) and self.primes == other.primes

    def __hash__(self) -> int:
        return hash(self.primes)

    def __repr__(self) -> str:
        inside = ", ".join(f"sqrt({p})" for p in self.primes)
        return f"Q({inside})"

    # -- element constructors ---------------------------------------------

    def element(self, coeffs: Mapping[int, RationalLike | str]) -> FieldElement:
        clean: dict[int, Fraction] = {}
        for mask, c in coeffs.items():
            mask = int(mask)
            if not 0 <= mask < self.degree:
                raise ValueError(f"subset mask {mask} out of range for k={self.k}")
            frac = Fraction(c)
            if frac:
                clean[mask] = frac
        # over the least common denominator the coordinates are in lowest terms
        den = lcm(*(c.denominator for c in clean.values()))
        return FieldElement(self, {m: c.numerator * (den // c.denominator)
                                   for m, c in clean.items()}, den)

    def zero(self) -> FieldElement:
        return FieldElement(self, {}, 1)

    def one(self) -> FieldElement:
        return FieldElement(self, {0: 1}, 1)

    def rational(self, value: RationalLike) -> FieldElement:
        return self.element({0: Fraction(value)})

    def sqrt_term(self, radicand: int, coeff: RationalLike = 1) -> FieldElement:
        """The element coeff * sqrt(radicand); radicand must be some p_I."""
        mask = self._value_to_mask.get(radicand)
        if mask is None:
            raise ValueError(
                f"sqrt({radicand}) is not a basis radicand of {self!r}; "
                f"available: {sorted(self._value_to_mask)}"
            )
        return self.element({mask: coeff})

    def from_scaled(self, coords: Iterable[int], denominator: int) -> FieldElement:
        """sum_I coords[I] / denominator * sqrt(p_I); coords may be numpy integers."""
        if not denominator:
            raise ZeroDivisionError("from_scaled with denominator 0")
        sign = 1 if denominator > 0 else -1
        num = {m: sign * int(n) for m, n in enumerate(coords) if n}
        if num and max(num) >= self.degree:
            raise ValueError(f"subset mask {max(num)} out of range for k={self.k}")
        return _reduced(self, num, sign * denominator)

    # -- embeddings ---------------------------------------------------------

    def embedding_matrix(self) -> np.ndarray:
        """float64 matrix M with M[s, I] = (sign of sqrt(p_I) under s) * sqrt(p_I)."""
        if self._embed_matrix is None:
            roots = np.sqrt(np.array(self.radicands, dtype=np.float64))
            mat = np.empty((self.degree, self.degree), dtype=np.float64)
            for s in range(self.degree):
                for m in range(self.degree):
                    sign = -1.0 if (s & m).bit_count() % 2 else 1.0
                    mat[s, m] = sign * roots[m]
            self._embed_matrix = mat
        return self._embed_matrix

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"primes": list(self.primes)}

    @staticmethod
    def from_json(data: Mapping) -> MultiquadField:
        primes = json_value(json_object(data, ("primes",), "field")["primes"], list,
                            "field primes")
        return make_field([json_value(p, int, "field prime") for p in primes])

    def element_from_json(self, data: Mapping) -> FieldElement:
        """Parse what ``FieldElement.to_json`` writes, and nothing else: masks
        in range, nonzero coefficients as "n/d" in lowest terms."""
        coeffs = json_value(json_object(data, ("coeffs",), "element")["coeffs"], dict,
                            "element coeffs")
        masks = {str(m) for m in range(self.degree)}
        clean: dict[int, Fraction] = {}
        for mask, text in coeffs.items():
            if mask not in masks:
                raise MalformedPayloadError(f"element coeffs: bad subset mask {mask[:40]!r}")
            if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
                raise MalformedPayloadError(f"element coeffs: bad rational {str(text)[:40]!r}")
            try:
                value = Fraction(text)
            except ValueError as exc:  # too many digits for int()
                raise MalformedPayloadError(f"element coeffs: {exc}")
            if f"{value.numerator}/{value.denominator}" != text:
                raise MalformedPayloadError(f"element coeffs: {text[:40]!r} is not in lowest terms")
            clean[int(mask)] = value
        return self.element(clean)


def make_field(primes: list[int] | tuple[int, ...]) -> MultiquadField:
    """Build and validate Q(sqrt(p_1), ..., sqrt(p_k)).

    Rejects generator lists that collapse the degree below 2^k (some product
    of generators rational), non-squarefree entries, and, for k >= 3,
    non-pairwise-coprime entries.
    """
    entries = [int(p) for p in primes]
    if not entries:
        raise EmptyPrimeListError("at least one generator is required")
    if len(entries) > MAX_K:
        raise FieldTooLargeError(f"{len(entries)} generators; at most {MAX_K} are supported")
    for p in entries:
        if p < 2:
            raise DegenerateFieldError(f"generator {p} is not a valid radicand (need >= 2)")
    # Degeneracy is judged on squarefree parts so that e.g. [2, 8] reports the
    # degree collapse rather than the squarefree violation.
    reduced = [squarefree_part(p) for p in entries]
    k = len(entries)
    radicands = [1] * (1 << k)
    for i, p in enumerate(reduced):
        bit = 1 << i
        for mask in range(bit):
            g = gcd(radicands[mask], p)
            radicands[mask | bit] = (radicands[mask] // g) * (p // g)
    if len(set(radicands)) != 1 << k:
        raise DegenerateFieldError(
            f"generators {entries} span degree < 2^{k}: subset radicands collide "
            f"(some product of generators is a perfect square)"
        )
    for i, p in enumerate(entries):
        if reduced[i] != p:
            raise NotSquarefreeError(p)
    if k >= 3:
        for i in range(k):
            for j in range(i + 1, k):
                if gcd(entries[i], entries[j]) != 1:
                    raise PairwiseCoprimeError(
                        f"k >= 3 requires pairwise coprime generators; "
                        f"gcd({entries[i]}, {entries[j]}) > 1"
                    )
    return MultiquadField(tuple(entries), tuple(radicands))


def _mul_dicts(field: MultiquadField, a: Mapping[int, int],
               b: Mapping[int, int]) -> dict[int, int]:
    """Sparse product of integer coordinate maps over the sqrt(p_I) basis."""
    mult = field.mult
    out: dict[int, int] = {}
    for i, ca in a.items():
        row = mult[i]
        for j, cb in b.items():
            target = i ^ j
            term = ca * cb * row[j]
            if target in out:
                out[target] += term
            else:
                out[target] = term
    return {m: c for m, c in out.items() if c}


def _reduced(field: MultiquadField, num: dict[int, int], den: int) -> FieldElement:
    """The element with coordinates ``num`` (no zero entry) over ``den`` > 0,
    brought to lowest terms."""
    g = gcd(den, *num.values())
    if g != 1:
        num = {m: c // g for m, c in num.items()}
    return FieldElement(field, num, den // g)


def _scaled_char_poly(field: MultiquadField, coords: Sequence[int]) -> list[int]:
    """Coefficients of prod_s (T - sigma_s(x)) for x = sum_I coords[I] sqrt(p_I)
    with integer coords, constant term first; integers, since x is integral."""
    base = {m: c for m, c in enumerate(coords) if c}
    poly: list[dict[int, int]] = [{0: 1}]
    for smask in range(field.degree):
        conj = {m: -c if (smask & m).bit_count() & 1 else c for m, c in base.items()}
        nxt: list[dict[int, int]] = [{} for _ in range(len(poly) + 1)]
        for deg, coeff in enumerate(poly):
            for m, c in coeff.items():
                nxt[deg + 1][m] = nxt[deg + 1].get(m, 0) + c
            for m, c in _mul_dicts(field, coeff, conj).items():
                nxt[deg][m] = nxt[deg].get(m, 0) - c
        poly = nxt
    if any(c for coeff in poly for m, c in coeff.items() if m):
        raise NonRationalCoefficientError(
            "characteristic polynomial has a non-rational coefficient")
    return [coeff.get(0, 0) for coeff in poly]


def _exact_signs(field: MultiquadField, n: Mapping[int, int], smasks: Collection[int],
                 level: int) -> dict[int, int]:
    """Exact sign of sigma_s(x) for each s in ``smasks``, x = sum_I n_I sqrt(p_I)
    with integer n_I on masks < 2^level.

    Splits x = u + v*sqrt(p_top) over the subfield of the first level-1
    generators, decides by the signs of u and v where they agree or one is 0,
    and otherwise by the sign of w = u^2 - p_top*v^2, formed once for every
    embedding that needs it.  The subfield sees only the low bits of s.
    """
    if level == 0:
        c = n.get(0, 0)
        return dict.fromkeys(smasks, (c > 0) - (c < 0))
    top = 1 << (level - 1)
    row = field.mult[top]
    # sqrt(p_I) = sqrt(p_{I^top}) * sqrt(p_top) / row[I^top] when I has the top
    # bit; scaling by the lcm of those divisors (1 for coprime generators) keeps
    # u and v integral and leaves every sign as it is.
    scale = lcm(*(row[m ^ top] for m in n if m & top))
    u: dict[int, int] = {}
    v: dict[int, int] = {}
    for m, c in n.items():
        if m & top:
            v[m ^ top] = c * scale // row[m ^ top]
        else:
            u[m] = c * scale
    low = top - 1
    lows = {s & low for s in smasks}
    su = _exact_signs(field, u, lows, level - 1)
    sv = _exact_signs(field, v, lows, level - 1)
    out: dict[int, int] = {}
    mixed = []
    for s in smasks:
        a = su[s & low]
        b = -sv[s & low] if s & top else sv[s & low]
        if b == 0 or a == b:
            out[s] = a
        elif a == 0:
            out[s] = b
        else:
            mixed.append(s)
    if mixed:
        w = _mul_dicts(field, u, u)
        for m, c in _mul_dicts(field, v, v).items():
            w[m] = w.get(m, 0) - field.radicands[top] * c
        sw = _exact_signs(field, w, {s & low for s in mixed}, level - 1)
        for s in mixed:
            out[s] = su[s & low] * sw[s & low]
    return out


def _signs(field: MultiquadField, n: Mapping[int, int], smasks: Sequence[int]) -> list[int]:
    """Exact sign of sigma_s(x) for each s in ``smasks``, x = sum_I n_I sqrt(p_I)
    with integer n_I; the one place signs are decided.

    A_s = sum_I +-n_I r_I differs from sigma_s(x) * 2^64 by less than
    sum_{I != 0} |n_I| (r_0 = 2^64 is exact), so a larger |A_s| decides the
    sign as sign(A_s).  Embeddings left open go to :func:`_exact_signs`.
    """
    slack = sum(abs(c) for m, c in n.items() if m)
    terms = [(m, c * field.roots[m]) for m, c in n.items()]
    out = []
    for s in smasks:
        a = sum(-t if (s & m).bit_count() & 1 else t for m, t in terms)
        out.append(1 if a > slack else -1 if a < -slack else 0)
    undecided = [s for s, sign in zip(smasks, out) if not sign]
    if undecided:
        exact = _exact_signs(field, n, undecided, field.k)
        out = [sign or exact[s] for s, sign in zip(smasks, out)]
    return out


class FieldElement:
    """Exact element of a :class:`MultiquadField`; immutable value type, held
    as the integer coordinates ``num`` over ``den`` of the module docstring."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: MultiquadField, num: dict[int, int], den: int):
        self.field = field
        self.num = num
        self.den = den
        self._hash: int | None = None

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """A fresh map from each nonzero mask to its coefficient in lowest terms."""
        return {m: Fraction(c, self.den) for m, c in self.num.items()}

    # -- basics -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.field, self.den, self.num) == (other.field, other.den, other.num)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field.primes, frozenset(self.coeffs.items())))
        return self._hash

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for mask, c in sorted(self.coeffs.items()):
            if mask == 0:
                parts.append(str(c))
            else:
                tok = f"s{self.field.radicands[mask]}"
                if c == 1:
                    parts.append(tok)
                elif c == -1:
                    parts.append(f"-{tok}")
                else:
                    parts.append(f"{c}*{tok}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out

    def _coerce(self, other: FieldElement | RationalLike) -> FieldElement:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine elements of {self.field!r} and {other.field!r}"
                )
            return other
        return self.field.rational(other)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: FieldElement | RationalLike) -> FieldElement:
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        out = {m: c * (den // self.den) for m, c in self.num.items()}
        scale = den // other.den
        for m, c in other.num.items():
            out[m] = out.get(m, 0) + c * scale
        return _reduced(self.field, {m: c for m, c in out.items() if c}, den)

    __radd__ = __add__

    def __neg__(self) -> FieldElement:
        return FieldElement(self.field, {m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other: FieldElement | RationalLike) -> FieldElement:
        return self + (-self._coerce(other))

    def __rsub__(self, other: FieldElement | RationalLike) -> FieldElement:
        return (-self) + other

    def __mul__(self, other: FieldElement | RationalLike) -> FieldElement:
        other = self._coerce(other)
        return _reduced(self.field, _mul_dicts(self.field, self.num, other.num),
                        self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> FieldElement:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = self.field.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other: FieldElement | RationalLike) -> FieldElement:
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                raise ZeroDivisionError("division by zero")
            return self * (1 / other)
        return self * self._coerce(other).inverse()

    def inverse(self) -> FieldElement:
        if not self.num:
            raise ZeroDivisionError("zero has no inverse")
        prod = self.field.one()
        for smask in range(1, self.field.degree):
            prod = prod * self.conjugate(smask)
        return prod * (1 / self.norm())

    # -- Galois action and invariants ----------------------------------------

    def conjugate(self, smask: int) -> FieldElement:
        """sigma_s(x), where embedding s negates sqrt(p_{i+1}) for each bit i of s."""
        num = {m: -c if (smask & m).bit_count() & 1 else c for m, c in self.num.items()}
        return FieldElement(self.field, num, self.den)

    def trace(self) -> Fraction:
        """Trace to Q: 2^k times the rational coefficient."""
        return Fraction(self.field.degree * self.num.get(0, 0), self.den)

    def norm(self) -> Fraction:
        """Product of all 2^k conjugates, verified to be rational."""
        field = self.field
        prod = {0: 1}
        for smask in range(field.degree):
            prod = _mul_dicts(field, prod, self.conjugate(smask).num)
        for mask in prod:
            if mask != 0:
                raise NonRationalNormError(
                    f"conjugate product has residual sqrt({field.radicands[mask]}) term"
                )
        return Fraction(prod.get(0, 0), self.den ** field.degree)

    def char_poly(self) -> list[Fraction]:
        """Coefficients of prod_s (T - sigma_s(x)), constant term first, monic.

        With x = n/d for integer coordinates n, char(x)(T) = char(n)(d T) /
        d^(2^k), so coefficient j is that of n divided by d^(2^k - j).
        """
        den, coords = self.scaled_coords()
        degree = self.field.degree
        return [Fraction(c, den ** (degree - j))
                for j, c in enumerate(_scaled_char_poly(self.field, coords))]

    # -- order and sign decisions ----------------------------------------------

    def sign_at(self, smask: int) -> int:
        """Exact sign of sigma_s(x) in {-1, 0, +1}; no floating point involved."""
        if not 0 <= smask < self.field.degree:
            raise ValueError(f"embedding mask {smask} out of range for k={self.field.k}")
        return _signs(self.field, self.num, [smask])[0]

    def signs(self) -> list[int]:
        return _signs(self.field, self.num, range(self.field.degree))

    def succeq(self, other: FieldElement | RationalLike) -> bool:
        """self >= other in the total-positivity partial order (equality allowed)."""
        return min((self - self._coerce(other)).signs()) >= 0

    def is_totally_positive(self) -> bool:
        return min(self.signs()) > 0

    # -- numeric views -----------------------------------------------------------

    def embedding_enclosures(self, bits: int = ROOT_BITS) -> list[tuple[Fraction, Fraction]]:
        """Exact rational intervals containing each sigma_s(x), of width
        sum_I |x_I| * 2^-bits (sqrt(1) too is enclosed, not taken as exact)."""
        field = self.field
        roots = field.roots if bits == ROOT_BITS else _root_table(field.radicands, bits)
        scale = self.den << bits
        out = []
        for smask in range(field.degree):
            # each term t * sqrt(p_I) * 2^bits, t = +-n_I, lies between t*r_I and t*(r_I + 1)
            lo = hi = 0
            for m, c in self.num.items():
                t = -c if (smask & m).bit_count() & 1 else c
                if t > 0:
                    lo += t * roots[m]
                    hi += t * (roots[m] + 1)
                else:
                    lo += t * (roots[m] + 1)
                    hi += t * roots[m]
            out.append((Fraction(lo, scale), Fraction(hi, scale)))
        return out

    def scaled_coords(self) -> tuple[int, list[int]]:
        """(d, n) with coefficient on mask m equal to n[m]/d and d minimal."""
        coords = [0] * self.field.degree
        for mask, c in self.num.items():
            coords[mask] = c
        return self.den, coords

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "coeffs": {
                str(mask): f"{c.numerator}/{c.denominator}"
                for mask, c in sorted(self.coeffs.items())
            }
        }
