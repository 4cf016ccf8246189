"""Trace bounds, the small-norm indecomposability criterion, and the
exhaustive decomposition oracle.

A totally positive integer is (additively) indecomposable when it is not the
sum of two totally positive integers.  The oracle realizes the definition by
enumerating every lattice candidate beta with 0 < sigma_s(beta) < sigma_s(x)
inside a box of the superset lattice, so a full scan with no hit is a proof.
For k <= 2 the scan visits only the box's points of O_K itself
(``integers.ring_lattice``); for k = 3 it visits the whole box and
``integral_mask`` drops the non-integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import NotIntegralError, NotTotallyPositiveError, WrongDegreeError
from .fields import FieldElement, factor
from .integers import integral_mask, is_algebraic_integer, trace_simplex_job
from .kernels import scan_box

DEFAULT_ORACLE_BUDGET = 10**7


class Verdict(Enum):
    INDECOMPOSABLE_BY_NORM = "indecomposable_by_norm"
    INDECOMPOSABLE_BY_EXHAUSTION = "indecomposable_by_exhaustion"
    DECOMPOSABLE = "decomposable"
    UNKNOWN = "unknown"

    @property
    def is_indecomposable(self) -> bool:
        return self in (Verdict.INDECOMPOSABLE_BY_NORM,
                        Verdict.INDECOMPOSABLE_BY_EXHAUSTION)


@dataclass(frozen=True)
class IndecomposabilityVerdict:
    element: FieldElement
    verdict: Verdict
    witness: FieldElement | None
    budget_used: int

    def to_json(self) -> dict:
        return {
            "element": self.element.to_json(),
            "verdict": self.verdict.value,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "budget_used": self.budget_used,
        }


def require_totally_positive_integer(x: FieldElement, what: str = "element") -> None:
    if not x.is_totally_positive():
        raise NotTotallyPositiveError(f"{what} {x!r} is not totally positive")
    if not is_algebraic_integer(x):
        raise NotIntegralError(f"{what} {x!r} is not an algebraic integer")


def trace_bound_holds(x: FieldElement) -> bool:
    """Check Tr(x) > sqrt(p_I) for every subset I with a nonzero coefficient.

    Comparisons are done on squares to stay rational; strictness survives
    because Tr(x) is rational and sqrt(p_I) is not (for I nonempty).
    """
    require_totally_positive_integer(x)
    t = x.trace()
    return all(
        t * t > x.field.radicands[mask]
        for mask in x.num
        if mask != 0
    )


def is_primitive(x: FieldElement) -> bool:
    """True iff no rational integer n > 1 divides x inside O_K.

    Only primes dividing the content of the 2^k-scaled coordinate vector can
    divide x, and n | x reduces to primality: if n = l*m divides x then so
    does the prime l.  Each candidate is decided exactly via integrality.
    """
    content = gcd(*x.num.values()) * ((1 << x.field.k) // x.den)
    for ell in factor(content):
        if is_algebraic_integer(x * Fraction(1, ell)):
            return False
    return True


def normab_criterion(x: FieldElement) -> bool:
    """Sufficient biquadratic test: N(x) < 2*min(sqrt(p), sqrt(q), sqrt(r)) and x primitive.

    True implies x is indecomposable; False says nothing.
    """
    if x.field.k != 2:
        raise WrongDegreeError("the norm criterion is biquadratic (k=2)")
    require_totally_positive_integer(x)
    n = x.norm()
    if not n * n < 4 * min(x.field.radicands[1:]):
        return False
    return is_primitive(x)


def _strict_floor(bound: Fraction) -> int:
    """Largest integer strictly below ``bound``... for integers n < bound."""
    return (bound.numerator - 1) // bound.denominator


def _trace_of_square(x: FieldElement) -> Fraction:
    """Tr(x^2) = 2^k sum_I c_I^2 p_I.

    A cross term sqrt(p_I) sqrt(p_J) with I != J is a rational multiple of
    sqrt(p_{I xor J}), whose trace is 0, so only the squares are left.
    """
    square = sum(n * n * x.field.radicands[m] for m, n in x.num.items())
    return Fraction(x.field.degree * square, x.den * x.den)


def _points_through(job, row) -> int:
    """Box points up to and including ``row`` in odometer order: its flat index + 1."""
    flat = 0
    for n, low, extent in zip(row, job.lo, job.shape):
        flat = flat * int(extent) + int(n) - int(low)
    return flat + 1


def exhaustive_indecomposable(x: FieldElement, budget: int = DEFAULT_ORACLE_BUDGET,
                              *, deterministic: bool = False) -> IndecomposabilityVerdict:
    """Decide decomposability by scanning all candidates 0 < beta < x.

    Every totally positive integer beta below x (in the embedding order) lies
    in the superset box bounded by the embeddings of x, so an exhausted scan
    proves indecomposability.  Candidates are visited in coordinate odometer
    order; in deterministic mode the returned witness is therefore the
    lexicographically smallest one.  In fast mode beta = 1 is probed first.

    ``budget_used`` counts box points in odometer order: through the witness
    (its flat index + 1) for a DECOMPOSABLE verdict found by the scan, so a
    rerun with that budget finds the same witness and one with a point less
    does not; the budget for UNKNOWN; the whole box for an exhausted scan.
    The box is that of the superset lattice even where the scan steps
    through O_K only (k <= 2), and the count does not depend on the kernel's
    chunking.
    """
    require_totally_positive_integer(x)
    field = x.field
    if not deterministic and (x - 1).is_totally_positive():
        return IndecomposabilityVerdict(x, Verdict.DECOMPOSABLE, field.one(), 0)

    # Any decomposition part beta is totally positive with integer trace
    # strictly between 0 and Tr(x), so the trace-simplex box is exhaustive.
    trace = x.trace()
    assert trace.denominator == 1
    t_max = int(trace) - 1
    if t_max < 1:
        return IndecomposabilityVerdict(x, Verdict.INDECOMPOSABLE_BY_EXHAUSTION, None, 0)
    uppers = [hi for _, hi in x.embedding_enclosures()]
    emb_hi = np.array([float(hi) for hi in uppers])
    # beta < x also bounds Tr(beta^2) = sum sigma_s(beta)^2 strictly by Tr(x^2).
    ell_bound = _strict_floor(Fraction(1 << field.k) * _trace_of_square(x))
    box, job = trace_simplex_job(field, t_max, emb_hi, ell_bound=ell_bound)
    total = job.total_points()

    scanned = 0
    for coords, n in scan_box(job, budget=budget):
        scanned += n
        if not len(coords):
            continue
        for row in coords[integral_mask(field, coords)]:
            beta = box.element(row)
            if not beta.is_totally_positive():
                continue
            if not (x - beta).is_totally_positive():
                continue
            return IndecomposabilityVerdict(x, Verdict.DECOMPOSABLE, beta,
                                            _points_through(job, row))
    if scanned < total:
        return IndecomposabilityVerdict(x, Verdict.UNKNOWN, None, scanned)
    return IndecomposabilityVerdict(x, Verdict.INDECOMPOSABLE_BY_EXHAUSTION, None, scanned)


def classify_indecomposable(x: FieldElement, budget: int = DEFAULT_ORACLE_BUDGET,
                            *, deterministic: bool = False,
                            use_norm_criterion: bool = True) -> IndecomposabilityVerdict:
    """Norm criterion first (k=2 only), exhaustive oracle otherwise."""
    if use_norm_criterion and x.field.k == 2 and normab_criterion(x):
        return IndecomposabilityVerdict(x, Verdict.INDECOMPOSABLE_BY_NORM, None, 0)
    return exhaustive_indecomposable(x, budget, deterministic=deterministic)
