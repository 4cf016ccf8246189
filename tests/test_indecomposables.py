import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_element, random_tp_integer
from oracles import trace_exceeds_min_radicand, trace_of_square
from mqf.errors import NotIntegralError, NotTotallyPositiveError, WrongDegreeError
from mqf.fields import make_field
from mqf.indecomposables import (
    Verdict,
    classify_indecomposable,
    exhaustive_indecomposable,
    is_primitive,
    normab_criterion,
    trace_bound_holds,
)
from mqf.integers import (
    integral_mask,
    is_algebraic_integer,
    totally_positive_integers_up_to_trace,
    trace_simplex_job,
)
from mqf.kernels import scan_box

CHUNK = 1 << 18  # the fastest unit-step chunk on this population


# ---------------------------------------------------------------------------
# trace bounds
# ---------------------------------------------------------------------------

def test_trace_bound_example(q32):
    x = q32.rational(2) + q32.element({2: Fraction(1, 2), 3: Fraction(1, 2)})
    assert x.trace() == 8
    assert trace_bound_holds(x)


def test_trace_bound_rational_vacuous(q32):
    assert trace_bound_holds(q32.one())


def test_trace_bound_rejects_bad_inputs(q32):
    with pytest.raises(NotTotallyPositiveError):
        trace_bound_holds(q32.one() + q32.sqrt_term(3))
    with pytest.raises(NotIntegralError):
        trace_bound_holds(q32.rational(Fraction(1, 2)))


def test_trace_bound_random_sample(q23):
    fields = [make_field(p) for p in ([2, 3], [5, 13], [6, 10])]
    rng = random.Random(41)
    for field in fields:
        for _ in range(150):
            x = random_tp_integer(field, rng, use_residues=True)
            assert trace_bound_holds(x)
            assert trace_exceeds_min_radicand(x)


def test_sharpened_bound_in_3_2_2_class():
    # p = 3 mod 4, q = r = 2 mod 4: Tr > min(4 sqrt p, 2 sqrt q, 2 sqrt r) for x != 0
    rng = random.Random(42)
    for primes in ([3, 2], [7, 2], [11, 2]):
        field = make_field(primes)
        p = next(d for d in field.radicands[1:] if d % 4 == 3)
        q, r = sorted(d for d in field.radicands[1:] if d % 4 == 2)
        floor_sq = min(16 * p, 4 * q, 4 * r)
        for _ in range(150):
            x = random_tp_integer(field, rng, use_residues=True)
            t = x.trace()
            assert t * t > floor_sq


# ---------------------------------------------------------------------------
# norm criterion
# ---------------------------------------------------------------------------

def test_normab_examples(q23):
    assert normab_criterion(q23.rational(2) + q23.sqrt_term(3))
    assert not normab_criterion(q23.rational(5))  # norm 625 way above the bound


def test_normab_requires_totally_positive(q23):
    # the divisible element 2*(1 + sqrt 3) from the worked examples is not
    # totally positive, so the criterion refuses it outright
    with pytest.raises(NotTotallyPositiveError):
        normab_criterion(2 * (q23.one() + q23.sqrt_term(3)))


def test_normab_divisibility_clause():
    # In Q(sqrt 67, sqrt 71): N(2) = 16 and 16^2 = 256 < 4*67, so the norm
    # bound passes and only the primitivity clause rejects x = 2 = 1 + 1.
    f = make_field([67, 71])
    two = f.rational(2)
    assert two.norm() ** 2 < 4 * min(f.radicands[1:])
    assert not is_primitive(two)
    assert not normab_criterion(two)
    v = exhaustive_indecomposable(two)
    assert v.verdict is Verdict.DECOMPOSABLE


def test_normab_wrong_degree(q2):
    with pytest.raises(WrongDegreeError):
        normab_criterion(q2.rational(2))


def test_is_primitive(q23):
    assert is_primitive(q23.rational(2) + q23.sqrt_term(3))
    assert not is_primitive(q23.rational(6))
    assert is_primitive(q23.one())


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def test_oracle_one_is_indecomposable(q2, q23):
    for field in (q2, q23):
        v = exhaustive_indecomposable(field.one())
        assert v.verdict is Verdict.INDECOMPOSABLE_BY_EXHAUSTION
        # candidates are capped at trace Tr(1) - 1, so the box is tiny
        assert v.budget_used <= 200


def test_oracle_two_decomposes(q2):
    v = exhaustive_indecomposable(q2.rational(2), deterministic=True)
    assert v.verdict is Verdict.DECOMPOSABLE
    assert v.witness == q2.one()
    fast = exhaustive_indecomposable(q2.rational(2))
    assert fast.verdict is Verdict.DECOMPOSABLE and fast.witness == q2.one()


def test_oracle_agrees_with_criterion(q23):
    x = q23.rational(2) + q23.sqrt_term(3)
    assert exhaustive_indecomposable(x).verdict is Verdict.INDECOMPOSABLE_BY_EXHAUSTION
    assert normab_criterion(x)


def test_oracle_witness_is_verifiable(q23, q5):
    rng = random.Random(43)
    budget = 10**7
    for field in (q23, q5):
        for _ in range(40):
            x = random_tp_integer(field, rng, spread=3)
            v = exhaustive_indecomposable(x, budget, deterministic=rng.random() < 0.5)
            if v.verdict is Verdict.DECOMPOSABLE:
                beta = v.witness
                assert beta.is_totally_positive()
                assert (x - beta).is_totally_positive()
                assert is_algebraic_integer(beta)
                assert is_algebraic_integer(x - beta)
            elif v.verdict is Verdict.UNKNOWN:
                # only a genuine budget stop may return unknown
                assert v.budget_used == budget
            else:
                assert v.verdict is Verdict.INDECOMPOSABLE_BY_EXHAUSTION


def test_oracle_budget_unknown(q23):
    # a fat element whose box is far beyond a tiny budget, deterministic so the
    # beta = 1 shortcut cannot answer first
    x = q23.rational(30) + q23.sqrt_term(2)
    v = exhaustive_indecomposable(x, budget=10, deterministic=True)
    assert v.verdict is Verdict.UNKNOWN
    assert v.budget_used == 10


def test_oracle_budget_used_is_the_witness_position(q23, q5):
    # budget_used of a scan-found witness is its flat odometer index + 1: that
    # budget finds the same witness, one point less finds none (the witness is
    # the lexicographically smallest in deterministic mode).
    rng = random.Random(44)
    checked = 0
    for field in (q23, q5):
        for _ in range(12):
            x = random_tp_integer(field, rng, spread=3)
            v = exhaustive_indecomposable(x, deterministic=True)
            if v.verdict is not Verdict.DECOMPOSABLE:
                continue
            checked += 1
            same = exhaustive_indecomposable(x, budget=v.budget_used, deterministic=True)
            assert same.verdict is Verdict.DECOMPOSABLE
            assert same.witness == v.witness and same.budget_used == v.budget_used
            short = exhaustive_indecomposable(x, budget=v.budget_used - 1, deterministic=True)
            assert short.verdict is Verdict.UNKNOWN
            assert short.budget_used == v.budget_used - 1
    assert checked >= 10


def test_oracle_rejects_bad_input(q23):
    with pytest.raises(NotTotallyPositiveError):
        exhaustive_indecomposable(q23.sqrt_term(2))
    with pytest.raises(NotIntegralError):
        exhaustive_indecomposable(q23.rational(Fraction(3, 2)))


def test_classify_prefers_norm_criterion(q23):
    x = q23.rational(2) + q23.sqrt_term(3)
    v = classify_indecomposable(x)
    assert v.verdict is Verdict.INDECOMPOSABLE_BY_NORM
    v2 = classify_indecomposable(x, use_norm_criterion=False)
    assert v2.verdict is Verdict.INDECOMPOSABLE_BY_EXHAUSTION


def test_criterion_never_contradicts_oracle_small_window(q23):
    from mqf.integers import totally_positive_integers_up_to_trace

    for x in totally_positive_integers_up_to_trace(q23, 16):
        if normab_criterion(x):
            assert exhaustive_indecomposable(x).verdict is Verdict.INDECOMPOSABLE_BY_EXHAUSTION


def _superset_verdicts(x, budgets):
    """The oracle's verdict JSON for each (deterministic, budget), read off one
    whole unit-step scan of the trace-simplex box plus ``integral_mask``.

    The first exact decomposition in odometer order decides every budget: a
    budget past its flat index finds it, a smaller one runs out (UNKNOWN) or
    exhausts the box.
    """
    field = x.field
    t_max = int(x.trace()) - 1
    emb_hi = np.array([float(hi) for hi in x.embedding_upper_bounds()])
    tr_sq = (1 << field.k) * (x * x).trace()  # Tr((2^k scaled beta)^2) < 2^k Tr(x^2)
    ell_bound = (tr_sq.numerator - 1) // tr_sq.denominator
    first = None  # (flat index, witness)
    if t_max >= 1:
        job = replace(trace_simplex_job(field, t_max, emb_hi, ell_bound=ell_bound),
                      lattice=None)
        total = job.total_points()
        for coords, _ in scan_box(job, chunk=CHUNK):
            for row in coords[integral_mask(field, coords)]:
                beta = field.from_scaled(row, 1 << field.k)
                if beta.is_totally_positive() and (x - beta).is_totally_positive():
                    first = (int(np.ravel_multi_index(tuple(row - job.lo), job.shape)), beta)
                    break
            if first is not None:
                break
    else:
        total = 0
    out = {}
    for budget in budgets:
        if first is not None and first[0] < budget:
            found = (Verdict.DECOMPOSABLE, first[1].to_json(), first[0] + 1)
        elif total > budget:
            found = (Verdict.UNKNOWN, None, budget)
        else:
            found = (Verdict.INDECOMPOSABLE_BY_EXHAUSTION, None, total)
        want = dict(zip(("verdict", "witness", "budget_used"), found),
                    element=x.to_json(), verdict=found[0].value)
        out[True, budget] = want
        out[False, budget] = want
        if (x - 1).is_totally_positive():
            out[False, budget] = dict(want, verdict="decomposable", budget_used=0,
                                      witness=field.one().to_json())
    return out


def test_oracle_on_o_k_equals_the_superset_scan(q23):
    # the trace <= 40 population of acceptance criterion 3, both modes, two budgets
    budgets = (10**7, 37)
    elements = totally_positive_integers_up_to_trace(q23, 40)
    verdicts = set()
    for x in elements:
        want = _superset_verdicts(x, budgets)
        for (deterministic, budget), data in want.items():
            got = exhaustive_indecomposable(x, budget, deterministic=deterministic)
            assert got.to_json() == data, (x, deterministic, budget)
            verdicts.add(data["verdict"])
    assert len(elements) == 2704 and len(verdicts) == 3


def test_verdict_json(q2):
    v = exhaustive_indecomposable(q2.rational(2))
    data = v.to_json()
    assert data["verdict"] == "decomposable"
    assert data["witness"] == {"coeffs": {"0": "1/1"}}


def test_trace_of_square_closed_form(monkeypatch):
    # the closed form against (x*x).trace(): denominators 1 to 8 in k = 1, 2,
    # 3 fields, integral or not, totally positive or not; then the ellipsoid
    # bound the oracle passes to its scan: the largest integer below 2^k Tr(x^2)
    class Captured(Exception):
        pass

    bounds = []

    def capture(field, trace_bound, emb_hi, *, ell_bound):
        bounds.append(ell_bound)
        raise Captured

    monkeypatch.setattr("mqf.indecomposables.trace_simplex_job", capture)
    rng = random.Random(20261019)
    fields = [make_field(p) for p in ([2], [5], [13], [2, 3], [5, 13], [6, 10],
                                      [2, 3, 5], [3, 7, 11])]
    integral = positive = 0
    for field in fields:
        for _ in range(40):
            x = random_element(field, rng, denominators=(1, 2, 4, 8))
            assert trace_of_square(x) == (x * x).trace()
            integral += is_algebraic_integer(x)
            positive += x.is_totally_positive()
        for _ in range(5):
            x = random_tp_integer(field, rng, use_residues=True)
            assert trace_of_square(x) == (x * x).trace()
            with pytest.raises(Captured):
                exhaustive_indecomposable(x, deterministic=True)
            assert bounds.pop() == math.ceil((1 << field.k) * trace_of_square(x)) - 1
    assert 0 < integral < 320 and 0 < positive < 320
