"""Continued fractions for sqrt(D) and certified quadratic witness search.

The base case of the tower construction lives here: real quadratic fields
supply the initial witness sets, found by search over the indecomposable pool
and certified pair by pair.  Nothing is taken on faith at runtime: a returned
WitnessSet always carries its own enumeration certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .certifier import (
    DEFAULT_PAIR_BUDGET,
    WitnessSet,
    certify_witness_set,
    pair_condition_certify,
)
from .errors import (
    BudgetExceededError,
    NotSquarefreeError,
    PerfectSquareError,
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
    q_values: tuple[int, ...]  # Q_1..Q_L of the (P, Q) recurrence

    def partial_quotient(self, n: int) -> int:
        if n == 0:
            return self.a0
        return self.period[(n - 1) % len(self.period)]

    def q_value(self, n: int) -> int:
        """Q_n of the recurrence; Q_0 = 1 and the rest are periodic."""
        if n == 0:
            return 1
        return self.q_values[(n - 1) % len(self.q_values)]

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
    q_values = []
    terms = _cf_terms(D, 0, 1)
    next(terms)
    for a, Q in terms:
        period.append(a)
        q_values.append(Q)
        if Q == 1:
            return CFExpansion(D, a0, tuple(period), tuple(q_values))


def convergents(cf: CFExpansion, count: int) -> list[tuple[int, int]]:
    """First ``count`` convergents (p_n, q_n), n = 0 .. count-1."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    p_prev, p_cur = 1, cf.a0
    q_prev, q_cur = 0, 1
    out.append((p_cur, q_cur))
    for n in range(1, count):
        a = cf.partial_quotient(n)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append((p_cur, q_cur))
    return out


def _semiconvergent_coords(D: int, trace_bound: int) -> list[tuple[int, int]]:
    """Scaled coordinates (n0, n1), x = (n0 + n1 sqrt(D))/2, of every
    indecomposable of Q(sqrt(D)) with trace n0 <= trace_bound, sorted.

    With xi = -omega' (sqrt(D), or (sqrt(D) - 1)/2 when D = 1 mod 4) and
    alpha_n = p_n + q_n omega built from the convergents p_n/q_n of xi, the
    indecomposables are the semiconvergents alpha_i + r alpha_(i+1), odd
    i >= -1, 0 <= r <= u_(i+2), and their conjugates (Perron; Dress-Scharlau).
    Every term of a later block has larger embedding >= alpha_(i+2), and the
    trace of a totally positive element exceeds its larger embedding, so the
    expansion stops once alpha_(i+2) > trace_bound.
    """
    if D % 4 == 1:
        terms = _cf_terms(D, -1, 2)

        def scaled(p, q):
            return 2 * p + q, q
    else:
        terms = _cf_terms(D, 0, 1)

        def scaled(p, q):
            return 2 * p, 2 * q

    def floor_embedding(p, q):
        n0, n1 = scaled(p, q)
        return (n0 + isqrt(n1 * n1 * D)) // 2

    found = set()
    prev = (1, 0)  # alpha_i, i odd; starts at alpha_(-1) = 1
    cur = (next(terms)[0], 1)  # alpha_(i+1)
    while True:
        u = next(terms)[0]  # u_(i+2)
        for r in range(u + 1):
            n0, n1 = scaled(prev[0] + r * cur[0], prev[1] + r * cur[1])
            if n0 <= trace_bound:
                found.add((n0, n1))
                found.add((n0, -n1))
        prev = (u * cur[0] + prev[0], u * cur[1] + prev[1])  # alpha_(i+2)
        if floor_embedding(*prev) > trace_bound:
            return sorted(found)
        u = next(terms)[0]  # u_(i+3)
        cur = (u * prev[0] + cur[0], u * prev[1] + cur[1])  # alpha_(i+3)


def quadratic_candidates(cf: CFExpansion, trace_bound: int) -> list[FieldElement]:
    """All indecomposables of Q(sqrt(D)) with trace <= trace_bound, ordered by
    trace, from the semiconvergents of the continued fraction."""
    field = make_field([cf.D])
    return [field.from_scaled([n0, n1], 2)
            for n0, n1 in _semiconvergent_coords(cf.D, trace_bound)]


def _minkowski_covol_sq(D: int) -> int:
    # Squared covolume of O_K under both real embeddings (= discriminant).
    return D if D % 4 == 1 else 4 * D


def _pairs_possible(D: int, norms: list[Fraction], i: int, j: int) -> bool:
    """Necessary condition from Minkowski's theorem: the candidate rectangle
    for the pair misses lattice points only if 16 N(a_i) N(a_j) < disc."""
    return 16 * norms[i] * norms[j] < _minkowski_covol_sq(D)


def _search_pool(field: MultiquadField, pool: list[FieldElement], n_wanted: int,
                 pair_budget: int) -> tuple[list[FieldElement] | None, bool]:
    """Greedy depth-first selection by increasing trace with backtracking.

    Returns (witnesses or None, budget_limited).
    """
    D = field.radicands[1]
    norms = [x.norm() for x in pool]
    cache: dict[tuple[int, int], bool] = {}
    budget_limited = False

    def pair_ok(i: int, j: int) -> bool:
        nonlocal budget_limited
        key = (i, j)
        if key not in cache:
            if not _pairs_possible(D, norms, i, j):
                cache[key] = False
            else:
                try:
                    cache[key] = pair_condition_certify(
                        pool[i], pool[j], i=i, j=j, budget=pair_budget).holds
                except BudgetExceededError:
                    budget_limited = True
                    cache[key] = False
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

    if extend(0):
        return [pool[i] for i in chosen], budget_limited
    return None, budget_limited


def _witnesses_in_field(field: MultiquadField, N: int, trace_bound: int,
                        pair_budget: int) -> tuple[WitnessSet | None, bool]:
    """Search the thinned pool of one Q(sqrt(D)) and certify what it finds.

    Returns (certified WitnessSet or None, budget_limited).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    pool = _thin_pool(field, trace_bound)
    if len(pool) < N:
        return None, False
    witnesses, budget_limited = _search_pool(field, pool, N, pair_budget)
    if witnesses is None:
        return None, budget_limited
    cert = certify_witness_set(witnesses, budget=pair_budget)
    assert cert.all_hold, "search returned a set its own certification rejects"
    return WitnessSet(field, tuple(witnesses), cert), budget_limited


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


def _thin_pool(field: MultiquadField, trace_bound: int) -> list[FieldElement]:
    """Pool of all indecomposables that could appear in a certified set.

    1 comes first; the other semiconvergents pass two exact necessary
    conditions, neither of which can exclude a usable witness:

    * norm < D/4 - otherwise Minkowski's theorem puts a violating c inside
      any pair's candidate rectangle;
    * minimal embedding < 1 - an element with every embedding above 1
      decomposes as 1 + (x - 1) and is not indecomposable.
    """
    D = field.radicands[1]
    coords = _semiconvergent_coords(D, trace_bound)
    if not coords:
        return []
    pool = [field.one()]
    for n0, n1 in coords:
        small_norm = n0 * n0 - D * n1 * n1 < D  # 4*N(x) < D
        thin = (n0 - 2) * (n0 - 2) < D * n1 * n1  # min embedding < 1
        if small_norm and thin:
            pool.append(field.from_scaled([n0, n1], 2))
    return pool


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
