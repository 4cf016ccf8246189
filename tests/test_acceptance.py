"""Acceptance suite: one test per release criterion, each printing a PASS line
with its runtime and headline numbers.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete."""

import json
import random
import time
from fractions import Fraction

from conftest import (
    random_element,
    random_integer_element,
    random_tp_integer,
    shift_totally_positive,
)
from oracles import case_b_identity_holds, check_case_c_bound, enumerate_violations_unpruned
from mqf.certifier import dumps_canonical, pair_condition_certify, \
    verify_certificate, WitnessSet
from mqf.cf import scan_for_witnesses
from mqf.cli import main as cli_main
from mqf.fields import make_field
from mqf.indecomposables import (
    Verdict,
    exhaustive_indecomposable,
    normab_criterion,
    trace_bound_holds,
)
from mqf.integers import is_algebraic_integer, totally_positive_integers_up_to_trace
from mqf.tower import build_tower, verify_tower

_FOUND = {}


def _report(number: int, name: str, start: float, budget_s: float, detail: str) -> None:
    elapsed = time.time() - start
    print(f"\n[ACCEPTANCE] criterion {number} ({name}): PASS in {elapsed:.1f}s "
          f"(budget {budget_s:.0f}s) - {detail}", flush=True)
    assert elapsed < budget_s, f"criterion {number} exceeded its time budget"


def test_criterion_1_exact_arithmetic_suite():
    start = time.time()
    rng = random.Random(2024)
    counts = {1: 4000, 2: 4000, 3: 2000}
    total = 0
    for k, count in counts.items():
        field = make_field({1: [2], 2: [2, 3], 3: [2, 3, 5]}[k])
        elems = []
        for _ in range(count):
            x = random_element(field, rng, spread=9, max_terms=min(field.degree, 5))
            elems.append(x)
            # trace-of-square identity, exact
            assert (x * x).trace() == field.degree * sum(
                c * c * field.radicands[m] for m, c in x.coeffs.items())
        total += count
        for i in range(0, count - 2, 3):
            x, y, z = elems[i], elems[i + 1], elems[i + 2]
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
        for i in range(0, count, 7):
            x, y = elems[i], elems[(i + 1) % count]
            s = rng.randrange(field.degree)
            assert (x * y).conjugate(s) == x.conjugate(s) * y.conjugate(s)
            assert (x + y).trace() == x.trace() + y.trace()
        for i in range(0, count, 37):
            x, y = elems[i], elems[(i + 3) % count]
            assert (x * y).norm() == x.norm() * y.norm()
            acc = field.zero()
            for smask in range(field.degree):
                acc = acc + x.conjugate(smask)
            assert acc == field.rational(x.trace())
    _report(1, "exact arithmetic", start, 60,
            f"{total} random elements across k=1,2,3, all identities exact")


def test_criterion_2_trace_lower_bounds():
    start = time.time()
    rng = random.Random(2025)
    biquadratic = [[2, 3], [2, 5], [5, 13], [6, 10], [3, 7],
                   [13, 17], [2, 7], [3, 11], [5, 7], [2, 11]]
    triquadratic = [[2, 3, 5], [2, 3, 7], [2, 5, 7], [3, 5, 7], [2, 5, 11]]
    checked = 0
    for primes in biquadratic:
        field = make_field(primes)
        for _ in range(1000):
            x = random_tp_integer(field, rng, spread=5, use_residues=True)
            assert trace_bound_holds(x)
            checked += 1
    for primes in triquadratic:
        field = make_field(primes)
        for _ in range(1000):
            x = random_tp_integer(field, rng, spread=4)
            assert trace_bound_holds(x)
            checked += 1
    sharpened = 0
    for primes in ([3, 2], [7, 2], [11, 2]):
        field = make_field(primes)
        p = next(d for d in field.radicands[1:] if d % 4 == 3)
        q, r = sorted(d for d in field.radicands[1:] if d % 4 == 2)
        floor_sq = min(16 * p, 4 * q, 4 * r)
        for _ in range(1000):
            x = random_tp_integer(field, rng, spread=5, use_residues=True)
            t = x.trace()
            assert t * t > floor_sq
            sharpened += 1
    _report(2, "trace lower bounds", start, 120,
            f"{checked} totally positive integers, 0 violations; "
            f"sharpened bound on {sharpened} samples in the (3 mod 4, 2, 2) class")


def test_criterion_3_indecomposability_agreement():
    start = time.time()
    field = make_field([2, 3])
    elements = totally_positive_integers_up_to_trace(field, 40)
    criterion_positive = 0
    oracle_indecomposable = 0
    missed_by_criterion = 0
    for x in elements:
        crit = normab_criterion(x)
        verdict = exhaustive_indecomposable(x)
        assert verdict.verdict is not Verdict.UNKNOWN
        indec = verdict.verdict.is_indecomposable
        if crit:
            criterion_positive += 1
            assert indec, f"norm criterion contradicted by the oracle on {x!r}"
        if indec:
            oracle_indecomposable += 1
            if not crit:
                missed_by_criterion += 1
    _report(3, "indecomposability agreement", start, 600,
            f"{len(elements)} totally positive integers with trace <= 40; "
            f"{criterion_positive} criterion positives all confirmed; "
            f"{oracle_indecomposable} oracle indecomposables, "
            f"{missed_by_criterion} missed by the criterion (informational)")


def test_criterion_4_certifier_soundness():
    start = time.time()
    rng = random.Random(2026)
    fields = [make_field([d]) for d in (2, 5, 13, 19, 21)]
    # mix in pairs from certified searches so both verdicts are exercised
    from mqf.cf import search_witnesses

    special = []
    for d in (15, 23):
        ws = search_witnesses(d, 2, trace_bound=60)
        special.append(ws.elements)
        special.append((ws.elements[0], ws.elements[0]))
    pairs_checked = 0
    violations_seen = 0
    holds_seen = 0
    while pairs_checked < 100:
        if pairs_checked < len(special):
            a, b = special[pairs_checked]
            field = a.field
        else:
            field = fields[pairs_checked % len(fields)]
            a = random_tp_integer(field, rng, spread=2)
            b = random_tp_integer(field, rng, spread=2)
        verdict, pruned = pair_condition_certify(a, b, collect_all=True)
        unpruned, near = enumerate_violations_unpruned(a, b)
        assert set(pruned) == set(unpruned)
        assert verdict.near_misses == near
        assert verdict.holds == (not unpruned)
        if not verdict.holds:
            violations_seen += 1
            c = verdict.violating_c
            assert c is not None and c != field.zero()
            assert is_algebraic_integer(c)
            assert (4 * a * b - c * c).succeq(0)
        else:
            holds_seen += 1
        pairs_checked += 1
    assert holds_seen >= 1
    _report(4, "certifier dual-enumeration soundness", start, 300,
            f"100 quadratic pairs, identical violation sets "
            f"({holds_seen} holding, {violations_seen} with violations, all re-verified)")


def test_criterion_5_end_to_end_base_case(tmp_path):
    start = time.time()
    ws = scan_for_witnesses(3, d_limit=10**5, trace_bound=10**3)
    assert ws.certified
    assert ws.certificate.conclusion == 3
    d_found = ws.field.radicands[1]
    path = tmp_path / "witnesses_n3.json"
    path.write_text(dumps_canonical(ws.to_json()))
    reloaded = json.loads(path.read_text())
    back = WitnessSet.from_json(reloaded)
    assert back.elements == ws.elements
    problems = verify_certificate(reloaded["certificate"])
    assert problems == []
    _FOUND["n3"] = ws
    _report(5, "end-to-end base case", start, 1800,
            f"certified N=3 witness set found at D={d_found}; "
            f"certificate re-verified from JSON")


def test_criterion_6_tower_construction(tmp_path):
    start = time.time()
    ws = _FOUND.get("n3") or scan_for_witnesses(3, d_limit=10**5, trace_bound=10**3)
    D = ws.field.radicands[1]
    towers = {k: build_tower(D, 3, k) for k in (2, 3)}
    for k, tower in towers.items():
        assert tower.field.k == k
        assert all(step.constraints_hold() for step in tower.steps)
        data = json.loads(dumps_canonical(tower.to_json()))
        assert verify_tower(data) == []
    # proof-case sampling: 10^4 total, zero violations
    rng = random.Random(2027)
    case_b = 0
    K = ws.field
    for k, tower in towers.items():
        q = tower.steps[-1].chosen_q
        base_field = make_field(list(tower.steps[-1].base_primes))
        while case_b < 5000 * (1 if k == 2 else 2):
            v = base_field.element({
                m: Fraction(rng.randint(-8, 8), 1 << (base_field.k + 1))
                for m in range(base_field.degree)})
            if not v:
                continue
            assert case_b_identity_holds(base_field, q, v)
            case_b += 1
    case_c = 0
    top = towers[3].field
    top_bit = 1 << (top.k - 1)
    while case_c < 5000:
        c = top.element({m: rng.randint(-4, 4) for m in range(top.degree)})
        has_low = any(m < top_bit and v for m, v in c.coeffs.items())
        has_high = any(m & top_bit and v for m, v in c.coeffs.items())
        if not (has_low and has_high):
            continue
        assert check_case_c_bound(c)
        case_c += 1
    _report(6, "tower construction", start, 600,
            f"k=2 and k=3 towers over D={D} verified; "
            f"{case_b} case-b and {case_c} case-c samples, 0 violations")


def test_criterion_7_cli_determinism_and_tampering(tmp_path, capsys):
    start = time.time()
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["witness", "--N", "2", "--D", "15", "--trace-bound", "60"]
    assert cli_main(argv + ["--out", str(out_a)]) == 0
    assert cli_main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    base = json.loads(out_a.read_text())["certificate"]
    tamperings = []
    t = json.loads(json.dumps(base))
    key = sorted(t["witnesses"][1]["coeffs"])[0]
    t["witnesses"][1]["coeffs"][key] = "23/1"
    tamperings.append(t)
    t = json.loads(json.dumps(base))
    t["pairs"][0]["holds"] = not t["pairs"][0]["holds"]
    tamperings.append(t)
    t = json.loads(json.dumps(base))
    t["pairs"][0]["scanned"] += 1
    tamperings.append(t)
    t = json.loads(json.dumps(base))
    t["conclusion"] = {"m_lower_bound": 9}
    tamperings.append(t)
    t = json.loads(json.dumps(base))
    t["pairs"] = t["pairs"][:0]
    tamperings.append(t)
    detected = 0
    for i, bad in enumerate(tamperings):
        path = tmp_path / f"tampered_{i}.json"
        path.write_text(dumps_canonical(bad))
        assert cli_main(["verify", str(path)]) == 1
        detected += 1
    capsys.readouterr()
    _report(7, "CLI determinism and tamper detection", start, 60,
            f"byte-identical reruns; {detected}/5 tamperings rejected with exit 1")
