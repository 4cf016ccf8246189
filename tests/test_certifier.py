import json
import random
from fractions import Fraction

import pytest

from conftest import random_tp_integer
from oracles import enumerate_violations_unpruned
from mqf.certifier import (
    Certificate,
    WitnessSet,
    _pair_job,
    certify_witness_set,
    dumps_canonical,
    pair_condition_certify,
    sqrt_upper,
    verify_certificate,
)
from mqf.cf import search_witnesses
from mqf.errors import (
    BudgetExceededError,
    FieldMismatchError,
    NotIntegralError,
    NotTotallyPositiveError,
)
from mqf.fields import make_field
from mqf.kernels import scan_box
from mqf.integers import is_algebraic_integer, scan_job, superset_lattice_box


def test_sqrt_upper_bounds():
    rng = random.Random(61)
    for _ in range(200):
        q = Fraction(rng.randint(0, 500), rng.randint(1, 40))
        u = sqrt_upper(q)
        assert u * u >= q
        assert (u - Fraction(1, q.denominator)) ** 2 < q or u == 0


# ---------------------------------------------------------------------------
# single pairs
# ---------------------------------------------------------------------------

def test_pair_one_one_fails_with_c_one(q2):
    v = pair_condition_certify(q2.one(), q2.one())
    assert not v.holds
    assert v.violating_c == q2.one()
    assert v.points_scanned > 0
    # soundness re-check of the reported violation
    c = v.violating_c
    diff = 4 * q2.one() * q2.one() - c * c
    assert all(diff.sign_at(s) >= 0 for s in range(q2.degree))
    assert is_algebraic_integer(c) and c != q2.zero()


def test_zero_bounds_box_is_vacuous(q2):
    # with embedding bounds 0 the box holds only the origin, which the
    # certifier drops, so it sees no candidate at all
    half = superset_lattice_box(q2, [0, 0])
    job = scan_job(q2, [-m for m in half], half, [0.0, 0.0], [0.0, 0.0])
    assert job.total_points() == 1


def test_pair_whose_only_survivor_is_the_origin_holds():
    # b = 12 - sqrt(143) has embeddings near 0.042 and 23.96, so the region of
    # 4b >= c^2 holds no lattice point but the origin
    field = make_field([143])
    a, b = field.one(), field.element({0: 12, 1: -1})
    job = _pair_job(a, b)
    assert [row.tolist() for coords, _ in scan_box(job) for row in coords] == [[0, 0]]
    verdict = pair_condition_certify(a, b)
    assert verdict.holds and verdict.violating_c is None and verdict.near_misses == 0
    assert verdict.points_scanned == job.total_points()
    # no verdict reports c = 0, whether the pair holds or not
    for x, y in ((a, b), (a, a), (b, field.rational(3))):
        verdict, violations = pair_condition_certify(x, y, collect_all=True)
        assert verdict.violating_c != 0 and all(violations)
        assert verdict.holds == (not violations)


def test_pair_from_search_holds_and_matches_unpruned():
    ws = search_witnesses(15, 2, trace_bound=60)
    a, b = ws.elements
    verdict, allv = pair_condition_certify(a, b, collect_all=True)
    assert verdict.holds and not allv
    unpruned, _ = enumerate_violations_unpruned(a, b)
    assert unpruned == []


def test_pruned_equals_unpruned_on_random_pairs():
    rng = random.Random(62)
    fields = [make_field([d]) for d in (2, 5, 13, 19)]
    checked = 0
    for _ in range(40):
        field = rng.choice(fields)
        a = random_tp_integer(field, rng, spread=2)
        b = random_tp_integer(field, rng, spread=2)
        verdict, pruned = pair_condition_certify(a, b, collect_all=True)
        unpruned, near = enumerate_violations_unpruned(a, b)
        assert set(pruned) == set(unpruned)
        assert verdict.holds == (not unpruned)
        assert verdict.near_misses == near
        checked += 1
    assert checked == 40


def test_ellipsoid_pruning_is_valid(q2, q23):
    # succeq(4ab, c^2) implies Tr(c^2) <= 4 Tr(ab); sample the implication
    rng = random.Random(63)
    for field in (q2, q23):
        for _ in range(100):
            a = random_tp_integer(field, rng, spread=2)
            b = random_tp_integer(field, rng, spread=2)
            fourab = 4 * a * b
            c = field.element({m: rng.randint(-3, 3) for m in range(field.degree)})
            if (fourab - c * c).succeq(0):
                assert (c * c).trace() <= fourab.trace()


def test_unit_scaling_preserves_verdict(q2):
    unit = q2.rational(3) + 2 * q2.sqrt_term(2)  # 3 + 2 sqrt2 = (1 + sqrt2)^2
    assert unit.norm() == 1 and unit.is_totally_positive()
    rng = random.Random(64)
    for _ in range(6):
        a = random_tp_integer(q2, rng, spread=2)
        b = random_tp_integer(q2, rng, spread=2)
        before = pair_condition_certify(a, b).holds
        after = pair_condition_certify(unit * a, unit * b).holds
        assert before == after


def test_pair_requires_valid_inputs(q2, q23):
    with pytest.raises(FieldMismatchError):
        pair_condition_certify(q2.one(), q23.one())
    with pytest.raises(NotTotallyPositiveError):
        pair_condition_certify(q2.one() + q2.sqrt_term(2), q2.one())
    with pytest.raises(NotIntegralError):
        pair_condition_certify(q2.rational(Fraction(1, 2)), q2.one())


def test_pair_budget_exceeded(q2):
    big = q2.rational(50) + q2.sqrt_term(2)
    with pytest.raises(BudgetExceededError) as info:
        pair_condition_certify(big, big, budget=100)
    assert info.value.points_scanned == 100
    assert info.value.points_required > 100


def test_budget_still_reports_found_violation(q2):
    # a violation inside the budget is a complete verdict even if the box
    # is larger than the budget
    big = q2.rational(50) + q2.sqrt_term(2)
    v = pair_condition_certify(big, big, budget=3 * 10**5)
    assert not v.holds
    assert v.violating_c is not None


# ---------------------------------------------------------------------------
# whole witness sets and certificates
# ---------------------------------------------------------------------------

def test_certify_singleton_vacuous(q2):
    cert = certify_witness_set([q2.one()])
    assert cert.pairs == ()
    assert cert.conclusion == 1
    assert cert.all_hold


def test_certify_rejects_non_integral(q2):
    with pytest.raises(NotIntegralError):
        certify_witness_set([q2.one(), q2.rational(Fraction(1, 2))])


def test_certify_failing_set_has_no_conclusion(q2):
    cert = certify_witness_set([q2.one(), q2.rational(2)])
    assert not cert.all_hold
    assert cert.conclusion is None
    assert cert.pairs[0].violating_c is not None


def test_parallel_jobs_match_serial(monkeypatch):
    # three pairs and two CPUs: jobs=2 starts two worker processes
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    ws = search_witnesses(55, 3)
    serial = certify_witness_set(ws.elements)
    parallel = certify_witness_set(ws.elements, jobs=2)
    assert serial.to_json() == parallel.to_json()
    # a budget stop crosses the pool as the same exception
    stops = []
    for jobs in (1, 2):
        with pytest.raises(BudgetExceededError) as info:
            certify_witness_set(ws.elements, budget=1000, jobs=jobs)
        exc = info.value
        stops.append((str(exc), exc.points_scanned, exc.points_required))
    assert stops[0] == stops[1]
    assert stops[0][0].startswith("pair (0,2) certification budget exhausted")


@pytest.mark.parametrize("jobs, cpus, workers", [
    (100_000, 4, 3), (2, 4, 2), (100_000, 2, 2), (100_000, None, None), (1, 4, None),
])
def test_pool_is_capped(q2, monkeypatch, jobs, cpus, workers):
    # at most one worker per pair and per CPU; a stand-in pool starts no process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("mqf.certifier.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    elements = [q2.one(), q2.rational(2), q2.rational(3)]
    cert = certify_witness_set(elements, jobs=jobs)
    assert sizes == ([] if workers is None else [workers])
    assert cert.to_json() == certify_witness_set(elements).to_json()


def test_certificate_json_roundtrip():
    ws = search_witnesses(15, 2, trace_bound=60)
    cert = ws.certificate
    data = json.loads(dumps_canonical(cert.to_json()))
    back = Certificate.from_json(data)
    assert back.to_json() == cert.to_json()
    assert data["pair_condition"] == "i<j"
    assert data["lattice"] == {"kind": "superset", "denominator": 2}
    assert data["conclusion"] == {"m_lower_bound": 2}


def test_verify_certificate_clean():
    ws = search_witnesses(15, 2, trace_bound=60)
    assert verify_certificate(ws.certificate.to_json()) == []


@pytest.mark.parametrize("tamper", [
    "witness_coeff", "holds_flip", "drop_pair", "conclusion_bump", "scanned_edit",
    "lattice_kind", "lattice_denominator", "pair_condition", "conclusion_null",
])
def test_verify_detects_tampering(tamper):
    ws = search_witnesses(15, 2, trace_bound=60)
    data = json.loads(dumps_canonical(ws.certificate.to_json()))
    if tamper == "witness_coeff":
        key = sorted(data["witnesses"][1]["coeffs"])[0]
        data["witnesses"][1]["coeffs"][key] = "17/1"
    elif tamper == "holds_flip":
        data["pairs"][0]["holds"] = False
        data["pairs"][0]["c"] = data["witnesses"][0]
    elif tamper == "drop_pair":
        data["pairs"] = []
    elif tamper == "conclusion_bump":
        data["conclusion"] = {"m_lower_bound": 5}
    elif tamper == "scanned_edit":
        data["pairs"][0]["scanned"] += 1
    elif tamper == "lattice_kind":
        data["lattice"]["kind"] = "o_k"
    elif tamper == "lattice_denominator":
        data["lattice"]["denominator"] = 4
    elif tamper == "pair_condition":
        data["pair_condition"] = "i<=j"
    elif tamper == "conclusion_null":  # every pair holds
        data["conclusion"] = None
    assert verify_certificate(data) != []


def test_verify_tamper_to_invalid_witness_reports_not_crashes():
    # a coefficient edit that breaks total positivity must still be a
    # verification failure, not an error
    ws = search_witnesses(15, 2, trace_bound=60)
    data = json.loads(dumps_canonical(ws.certificate.to_json()))
    key = sorted(data["witnesses"][1]["coeffs"])[0]
    data["witnesses"][1]["coeffs"][key] = "-5/1"
    problems = verify_certificate(data)
    assert problems and "witness invalid" in problems[0]
