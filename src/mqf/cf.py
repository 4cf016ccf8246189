"""Continued fractions for sqrt(D) and certified quadratic witness search.

The base case of the tower construction lives here: real quadratic fields
supply the initial witness sets, found by search over the indecomposable pool
with an exact relative-minima screen and then certified pair by pair.
Nothing is taken on faith at runtime: a returned WitnessSet always carries
its own enumeration certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import isqrt

from .certifier import DEFAULT_PAIR_BUDGET, WitnessSet, certify_witness_set
from .errors import (
    BudgetExceededError,
    NotSquarefreeError,
    PerfectSquareError,
    ScreenMismatchError,
    WitnessNotFoundError,
)
from .fields import FieldElement, MultiquadField, make_field, is_squarefree

DEFAULT_TRACE_BOUND = 1000
DEFAULT_SCAN_LIMIT = 100_000


@dataclass(frozen=True)
class CFExpansion:
    """Periodic continued fraction of sqrt(D): [a0; period] with minimal period."""

    D: int
    a0: int
    period: tuple[int, ...]

    def to_json(self) -> dict:
        return {"D": self.D, "a0": self.a0, "period": list(self.period)}


def _cf_terms(D: int, P: int, Q: int):
    """Yield (a_n, Q_n), n = 0, 1, ..., of xi = (P + sqrt(D))/Q.

    The integer (P, Q) recurrence needs Q > 0 and Q | D - P^2 at the start;
    both then hold at every step.
    """
    root = isqrt(D)
    while True:
        a = (P + root) // Q
        yield a, Q
        P = a * Q - P
        Q = (D - P * P) // Q


def _require_radicand(D: int) -> None:
    """Raise unless D is a squarefree integer >= 2; a square has its own error."""
    if D < 2:
        raise NotSquarefreeError(D, "D")
    if isqrt(D) ** 2 == D:
        raise PerfectSquareError(f"{D} is a perfect square")
    if not is_squarefree(D):
        raise NotSquarefreeError(D, "D")


def cf_expand(D: int) -> CFExpansion:
    """Exact periodic expansion of sqrt(D) via the integer (P, Q) recurrence."""
    _require_radicand(D)
    a0 = isqrt(D)
    period = []
    terms = _cf_terms(D, 0, 1)
    next(terms)
    for a, Q in terms:
        period.append(a)
        if Q == 1:
            return CFExpansion(D, a0, tuple(period))


def _convergents(D: int, P: int, Q: int):
    """Yield the convergents (p_n, q_n), n = -1, 0, 1, ..., of xi = (P +
    sqrt(D))/Q, from (p_(-2), q_(-2)) = (0, 1) and (p_(-1), q_(-1)) = (1, 0)
    by p_n = a_n p_(n-1) + p_(n-2), and likewise q_n, over ``_cf_terms``."""
    p_old, q_old, p, q = 0, 1, 1, 0
    yield p, q
    for a, _ in _cf_terms(D, P, Q):
        p_old, q_old, p, q = p, q, a * p + p_old, a * q + q_old
        yield p, q


def convergents(cf: CFExpansion, count: int) -> list[tuple[int, int]]:
    """First ``count`` convergents (p_n, q_n), n = 0 .. count-1, of sqrt(D)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return list(islice(_convergents(cf.D, 0, 1), 1, count + 1))


def _convergent_chain(D: int):
    """Yield the scaled coordinates (n0, n1), x = (n0 + n1 sqrt(D))/2, of
    alpha_n = p_n + q_n omega for n = -1, 0, 1, ...

    Here omega = sqrt(D), or (1 + sqrt(D))/2 when D = 1 mod 4, and p_n/q_n are
    the convergents of xi = -omega', so alpha_n = a_n alpha_(n-1) +
    alpha_(n-2) from alpha_(-2) = omega and alpha_(-1) = 1.  Up to sign, the
    alpha_n and their conjugates are the relative minima of O_K (Voronoi),
    and their larger embeddings p_n + q_n omega increase with n.
    """
    if D % 4 == 1:
        for p, q in _convergents(D, -1, 2):
            yield 2 * p + q, q
    else:
        for p, q in _convergents(D, 0, 1):
            yield 2 * p, 2 * q


def _twice_embedding_floor(D: int, n0: int, n1: int) -> int:
    # A lower bound on 2*max|sigma(x)| for x = (n0 + n1 sqrt(D))/2, n0 >= 0.
    return n0 + isqrt(n1 * n1 * D)


def _semiconvergent_coords(D: int, trace_bound: int) -> list[tuple[int, int]]:
    """Scaled coordinates (n0, n1), x = (n0 + n1 sqrt(D))/2, of every
    indecomposable of Q(sqrt(D)) with trace n0 <= trace_bound, sorted.

    The indecomposables are the semiconvergents alpha_i + r alpha_(i+1), odd
    i >= -1, 0 <= r <= u_(i+2) (so r = u_(i+2) gives alpha_(i+2)), and their
    conjugates (Perron; Dress-Scharlau).  The trace n0 grows along a block
    (alpha_(i+1) has n0 > 0), so a block is left at its first term past
    trace_bound.  Every term of a later block has larger embedding >=
    alpha_(i+2), and the trace of a totally positive element exceeds its
    larger embedding, so the expansion stops once alpha_(i+2) > trace_bound.
    """
    chain = _convergent_chain(D)
    found = set()
    prev = next(chain)  # alpha_i, i odd; starts at alpha_(-1) = 1
    while True:
        cur, nxt = next(chain), next(chain)  # alpha_(i+1), alpha_(i+2)
        n0, n1 = prev
        while n0 <= trace_bound:
            found.add((n0, n1))
            found.add((n0, -n1))
            if (n0, n1) == nxt:
                break
            n0, n1 = n0 + cur[0], n1 + cur[1]
        if _twice_embedding_floor(D, *nxt) // 2 > trace_bound:
            return sorted(found)
        prev = nxt


def quadratic_candidates(cf: CFExpansion, trace_bound: int) -> list[FieldElement]:
    """All indecomposables of Q(sqrt(D)) with trace <= trace_bound, ordered by
    trace, from the semiconvergents of the continued fraction."""
    field = make_field([cf.D])
    return [field.from_scaled([n0, n1], 2)
            for n0, n1 in _semiconvergent_coords(cf.D, trace_bound)]


def _pair_holds(D: int, a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Exactly whether 4ab >= c^2 forces c = 0 for c in O_K, K = Q(sqrt(D));
    a and b are given by their coordinates (n0, n1), x = (n0 + n1 sqrt(D))/2.

    A nonzero c with 4ab >= c^2 lies in the rectangle |sigma_s(c)| <=
    2 sqrt(sigma_s(ab)); a lattice point there that is minimal in both
    |sigma_s| is a relative minimum of O_K, which is +-alpha_n or
    +-alpha_n' (`_convergent_chain`).  So the pair holds exactly when no
    alpha_n or alpha_n' satisfies 4ab >= c^2, and the walk stops once
    alpha_n^2 exceeds 4 Tr(ab), which bounds both 4 sigma_s(ab).

    Integers only: 4ab = X0 + X1 sqrt(D), and c = (n0 + n1 sqrt(D))/2 has
    4(4ab - c^2) = u + v sqrt(D), which is totally >= 0 exactly when u >= 0
    and u^2 >= v^2 D.  The conjugate c' flips the sign of n0*n1 in v.
    """
    (a0, a1), (b0, b1) = a, b
    X0 = a0 * b0 + a1 * b1 * D
    X1 = a0 * b1 + a1 * b0
    for n0, n1 in _convergent_chain(D):
        if _twice_embedding_floor(D, n0, n1) ** 2 > 8 * X0:  # alpha_n^2 > 4 Tr(ab) = 2 X0
            return True
        u = 4 * X0 - n0 * n0 - n1 * n1 * D
        if u >= 0 and any(u * u >= v * v * D for v in (4 * X1 - 2 * n0 * n1,
                                                        4 * X1 + 2 * n0 * n1)):
            return False


def _search_pool(D: int, pool: list[tuple[int, int]],
                 n_wanted: int) -> list[tuple[int, int]] | None:
    """Greedy depth-first selection by increasing trace with backtracking,
    each pair decided by the exact screen `_pair_holds`.

    Returns the coordinates of the witnesses, or None when the pool admits no
    set of n_wanted.
    """
    cache: dict[tuple[int, int], bool] = {}

    def pair_ok(i: int, j: int) -> bool:
        key = (i, j)
        if key not in cache:
            cache[key] = _pair_holds(D, pool[i], pool[j])
        return cache[key]

    chosen: list[int] = []

    def extend(start: int) -> bool:
        if len(chosen) == n_wanted:
            return True
        for idx in range(start, len(pool)):
            if all(pair_ok(prev, idx) for prev in chosen):
                chosen.append(idx)
                if extend(idx + 1):
                    return True
                chosen.pop()
        return False

    return [pool[i] for i in chosen] if extend(0) else None


def _witnesses_in_field(field: MultiquadField, N: int, trace_bound: int,
                        pair_budget: int) -> tuple[WitnessSet | None, bool]:
    """Search the thinned pool of one Q(sqrt(D)) and certify what it finds.

    Returns (certified WitnessSet or None, budget_limited); only the
    certification of the chosen set can run out of budget.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    pool = _thin_pool(field, trace_bound)
    if len(pool) < N:
        return None, False
    chosen = _search_pool(field.radicands[1], pool, N)
    if chosen is None:
        return None, False
    try:
        cert = certify_witness_set([field.from_scaled(c, 2) for c in chosen],
                                   budget=pair_budget)
    except BudgetExceededError:
        return None, True
    for pair in cert.pairs:
        if not pair.holds:
            raise ScreenMismatchError(
                f"D={field.radicands[1]}: the pair screen accepted pair ({pair.i},{pair.j}) "
                f"but enumeration finds c = {pair.violating_c!r}")
    return WitnessSet(field, cert.witnesses, cert), False


def search_witnesses(D: int, N: int, trace_bound: int = DEFAULT_TRACE_BOUND,
                     *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> WitnessSet:
    """Find and certify N witnesses in Q(sqrt(D)): the D-scan over this one D.

    Raises NotSquarefreeError or PerfectSquareError for an unusable D, and
    WitnessNotFoundError when the pool admits no certified set; that is a
    statement about this D and these bounds only, never a refutation.
    """
    _require_radicand(D)
    ws, budget_limited = _witnesses_in_field(make_field([D]), N, trace_bound, pair_budget)
    if ws is None:
        raise WitnessNotFoundError(
            f"no certified witness set of size {N} for D={D} "
            f"among the indecomposables with trace <= {trace_bound}",
            budget_limited=budget_limited,
        )
    return ws


def _thin_pool(field: MultiquadField, trace_bound: int) -> list[tuple[int, int]]:
    """Coordinates (n0, n1), x = (n0 + n1 sqrt(D))/2, of all indecomposables
    that could appear in a certified set.

    1, the only semiconvergent with n1 = 0 (kept whatever its norm, and the
    first by trace), and the semiconvergents of norm < D/4: a larger norm
    puts, by Minkowski's theorem, a violating c inside any pair's candidate
    rectangle.
    """
    D = field.radicands[1]
    return [(n0, n1) for n0, n1 in _semiconvergent_coords(D, trace_bound)
            if n1 == 0 or n0 * n0 - D * n1 * n1 < D]  # 4*N(x) < D


def scan_for_witnesses(N: int, *, d_limit: int = DEFAULT_SCAN_LIMIT,
                       trace_bound: int = DEFAULT_TRACE_BOUND,
                       pair_budget: int = DEFAULT_PAIR_BUDGET,
                       d_start: int = 2) -> WitnessSet:
    """Scan squarefree D upward until some Q(sqrt(D)) yields a certified
    N-witness set, searching each D as search_witnesses does.

    A D is skipped only when its pool up to trace_bound admits no certified
    set.  Raises WitnessNotFoundError if the scan limit is reached.
    """
    budget_limited = False
    for D in range(max(2, d_start), d_limit + 1):
        if not is_squarefree(D):  # no square D >= 2 is squarefree
            continue
        ws, limited = _witnesses_in_field(make_field([D]), N, trace_bound, pair_budget)
        if ws is not None:
            return ws
        budget_limited = budget_limited or limited
    raise WitnessNotFoundError(
        f"no certified {N}-witness set found for any squarefree D <= {d_limit}",
        budget_limited=budget_limited,
    )
