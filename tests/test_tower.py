import json
import random
from fractions import Fraction

import pytest

from conftest import random_element
from oracles import DegeneratePartError, case_b_identity_holds, check_case_c_bound, split_at_top
from mqf.certifier import WitnessSet, certify_witness_set, dumps_canonical
from mqf.cf import search_witnesses
from mqf.errors import BaseWitnessNotFoundError, MqfError, NotSquarefreeError
from mqf.fields import make_field
from mqf.tower import (
    Tower,
    TowerStep,
    build_tower,
    lift_witnesses,
    max_pair_trace,
    select_next_q,
    verify_tower,
)


def synthetic_witnesses(field, elements):
    return WitnessSet(field, tuple(elements), certificate=None)


# ---------------------------------------------------------------------------
# q selection
# ---------------------------------------------------------------------------

def test_select_next_q_example():
    # max pair trace 10 forces q > max(16, 6400); 6401 = 37*173 is squarefree
    field = make_field([5])
    w = [field.one(), field.rational(5) + 2 * field.sqrt_term(5)]
    assert max_pair_trace(w) == 10
    step = select_next_q(field.primes, 10, offset=0)
    assert step.chosen_q == 6401
    assert step.degree_threshold == 16
    assert step.trace_threshold == 6400
    assert step.constraints_hold()
    nxt = select_next_q(field.primes, 10, offset=1)
    assert nxt.chosen_q == 6402  # 2*3*11*97, squarefree and coprime to 5
    assert nxt.constraints_hold()


def test_select_q_offsets_strictly_increase():
    ws = search_witnesses(15, 2, trace_bound=60)
    trace = max_pair_trace(ws.elements)
    qs = [select_next_q(ws.field.primes, trace, offset=i).chosen_q for i in range(4)]
    assert qs == sorted(set(qs))


def test_step_constraint_replay_fails_on_edit():
    step = select_next_q((5,), 10)
    bad = TowerStep(step.base_primes, step.chosen_q - 1, step.max_pair_trace, step.offset)
    assert not bad.constraints_hold()


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_doubles_traces():
    # one and two levels up: Q(sqrt15, sqrt q1), then Q(sqrt15, sqrt q1, sqrt q2)
    ws = search_witnesses(15, 2, trace_bound=60)
    trace = max_pair_trace(ws.elements)
    primes = ws.field.primes
    for level in range(2):
        primes += (select_next_q(primes, trace << level).chosen_q,)
        lifted = lift_witnesses(ws, make_field(primes))
        assert lifted.field.k == level + 2
        assert lifted.certificate is None
        for old, new in zip(ws.elements, lifted.elements):
            assert new.trace() == (2 << level) * old.trace()
            assert dict(new.coeffs) == dict(old.coeffs)


def test_lift_refuses_a_non_squarefree_q():
    # 6404 = 2^2 * 1601 passes both bounds (q > 6400) and is prime to 5;
    # building Q(sqrt5, sqrt6404), the field to lift into, is what refuses it
    field = make_field([5])
    w = synthetic_witnesses(field, [field.one(), field.rational(5) + 2 * field.sqrt_term(5)])
    step = TowerStep(field.primes, 6404, max_pair_trace(w.elements), 0)
    assert step.constraints_hold()
    with pytest.raises(NotSquarefreeError):
        lift_witnesses(w, make_field([5, 6404]))
    # and a lift goes only into a field whose first generators are the witnesses'
    with pytest.raises(MqfError, match="does not extend"):
        lift_witnesses(w, make_field([6401, 5]))


def test_lift_commutes_with_multiplication():
    base = make_field([15])
    ws = search_witnesses(15, 2, trace_bound=60)
    step = select_next_q(base.primes, max_pair_trace(ws.elements))
    top = make_field(list(base.primes) + [step.chosen_q])
    rng = random.Random(71)

    def lift(x):
        return top.element(dict(x.coeffs))

    for _ in range(30):
        x = random_element(base, rng)
        y = random_element(base, rng)
        assert lift(x * y) == lift(x) * lift(y)
        assert lift(x + y) == lift(x) + lift(y)


def test_lifted_pair_recertifies_small_scale():
    # tiny synthetic instance: base pair in Q(sqrt 15), minimal admissible q;
    # the constraint bounds promise the lifted pair still certifies - check it
    # directly in the extension.
    ws = search_witnesses(15, 2, trace_bound=40)
    step = select_next_q(ws.field.primes, max_pair_trace(ws.elements))
    lifted = lift_witnesses(ws, make_field(ws.field.primes + (step.chosen_q,)))
    cert = certify_witness_set(lifted.elements)
    assert cert.all_hold
    assert cert.conclusion == 2


# ---------------------------------------------------------------------------
# whole towers
# ---------------------------------------------------------------------------

def test_build_tower_k1_degenerates_to_search():
    tower = build_tower(15, 2, 1, trace_bound=60)
    assert tower.steps == ()
    assert tower.field.k == 1
    assert tower.base_certificate.conclusion == 2
    # the witnesses are an uncertified copy of the base: no top certificate
    assert tower.top_certificate is None
    assert verify_tower(json.loads(dumps_canonical(tower.to_json()))) == []


def test_build_tower_builds_one_field(monkeypatch):
    # every level is derived from the base trace; only the top field is built
    base = search_witnesses(55, 3)
    built = []

    def counting_make_field(primes):
        built.append(tuple(primes))
        return make_field(primes)

    monkeypatch.setattr("mqf.tower.make_field", counting_make_field)
    tower = build_tower(55, 3, 3, base=base)
    assert built == [tower.field.primes]


def test_build_tower_k3():
    tower = build_tower(15, 2, 3, trace_bound=60)
    assert tower.field.k == 3
    assert len(tower.steps) == 2
    assert all(s.constraints_hold() for s in tower.steps)
    assert tower.m_lower_bound == 2
    qs = [s.chosen_q for s in tower.steps]
    assert qs[1] > qs[0] > 15


def test_build_tower_distinct_offsets_distinct_fields():
    t0 = build_tower(15, 2, 2, offsets=[0], trace_bound=60)
    t1 = build_tower(15, 2, 2, offsets=[1], trace_bound=60)
    assert t0.field != t1.field
    assert t0.steps[0].chosen_q < t1.steps[0].chosen_q


def test_build_tower_base_failure():
    with pytest.raises(BaseWitnessNotFoundError):
        build_tower(2, 6, 2, trace_bound=12)


def test_build_tower_given_base_must_be_of_D():
    base = search_witnesses(55, 3)
    plain = build_tower(55, 3, 2)
    assert build_tower(55, 3, 2, base=base).to_json() == plain.to_json()
    # a base from another field would record a D its bundle cannot verify
    with pytest.raises(MqfError, match="base is not a certified witness set"):
        build_tower(15, 3, 2, base=base)
    with pytest.raises(MqfError, match="base is not a certified witness set"):
        build_tower(55, 3, 2, base=synthetic_witnesses(base.field, base.elements))


def test_tower_deep_verify_synthetic():
    tower = build_tower(15, 2, 2, trace_bound=40, deep_verify=True)
    assert tower.top_certificate is not None
    assert tower.top_certificate.all_hold
    assert tower.witnesses.certified


def test_tower_json_roundtrip_and_verify():
    tower = build_tower(15, 2, 2, trace_bound=60)
    data = json.loads(dumps_canonical(tower.to_json()))
    back = Tower.from_json(data)
    assert back.to_json() == tower.to_json()
    assert verify_tower(data) == []


@pytest.mark.parametrize("tamper", ["q_edit", "witness_edit", "claim_edit", "trace_edit",
                                    "degree_threshold", "trace_threshold", "base_primes",
                                    "base_field_wider_than_top", "uncertified_base",
                                    "q_below_bounds"])
def test_verify_tower_detects_tampering(tamper):
    tower = build_tower(15, 2, 2, trace_bound=60)
    data = json.loads(dumps_canonical(tower.to_json()))
    if tamper == "q_edit":
        data["steps"][0]["q"] += 1
    elif tamper == "witness_edit":
        key = sorted(data["witnesses"][1]["coeffs"])[0]
        data["witnesses"][1]["coeffs"][key] = "99/1"
    elif tamper == "claim_edit":
        data["claim"]["m_lower_bound"] = 7
    elif tamper == "trace_edit":
        data["steps"][0]["max_pair_trace"] += 1
    elif tamper in ("degree_threshold", "trace_threshold"):
        data["steps"][0][tamper] -= 1
    elif tamper == "base_primes":
        data["steps"][0]["base_primes"] = [2]
    elif tamper == "base_field_wider_than_top":
        # a genuine certificate whose witness uses sqrt2, which Q(sqrt15) lacks
        k2 = make_field([15, 2])
        data["base"]["certificate"] = json.loads(dumps_canonical(
            certify_witness_set([k2.one(), 3 + k2.sqrt_term(2)]).to_json()))
        data["field"]["primes"] = [15]
    elif tamper == "q_below_bounds":  # squarefree and prime to 15, in steps and field
        data["steps"][0]["q"] = data["field"]["primes"][1] = 2
    elif tamper == "uncertified_base":
        # a bundle consistent in every derived value over a base whose pair
        # (1, 1) fails: c = 1 has 4 * 1 * 1 >= c^2
        field = make_field([15])
        ws = synthetic_witnesses(field, [field.one()] * 2)
        step = select_next_q(field.primes, max_pair_trace(ws.elements))
        top = make_field([15, step.chosen_q])
        data = json.loads(dumps_canonical(Tower(15, certify_witness_set(ws.elements), (step,),
                                                lift_witnesses(ws, top)).to_json()))
    assert verify_tower(data) != []


# ---------------------------------------------------------------------------
# proof-case harnesses
# ---------------------------------------------------------------------------

def test_case_c_explicit_examples():
    tower = build_tower(15, 2, 2, trace_bound=60)
    L = tower.field
    q = L.radicands[2]
    c = L.one() + L.sqrt_term(q)
    assert check_case_c_bound(c)
    assert (c * c).trace() == (1 << L.k) * (1 + q)


def test_case_c_half_integral_quadratic():
    # q = 5, k = 0 relative case: c = (1 + sqrt 5)/2 is integral with
    # Tr(c^2) = 3 > sqrt(5)
    f = make_field([5])
    c = f.element({0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert check_case_c_bound(c)


def test_case_c_rejects_degenerate_parts():
    f = make_field([2, 3])
    with pytest.raises(DegeneratePartError):
        check_case_c_bound(f.one() + f.sqrt_term(2))  # no sqrt(3)-part
    with pytest.raises(DegeneratePartError):
        check_case_c_bound(f.sqrt_term(3) * 2)  # no low part


def test_case_c_random_samples():
    tower = build_tower(15, 2, 3, trace_bound=60)
    L = tower.field
    top = 1 << (L.k - 1)
    rng = random.Random(72)
    checked = 0
    for _ in range(300):
        coeffs = {m: rng.randint(-4, 4) for m in range(L.degree)}
        c = L.element(coeffs)
        has_low = any(m < top and v for m, v in c.coeffs.items())
        has_high = any(m & top and v for m, v in c.coeffs.items())
        if not (has_low and has_high):
            continue
        assert check_case_c_bound(c)
        checked += 1
    assert checked > 200


def test_case_b_identity_random():
    tower = build_tower(15, 2, 2, trace_bound=60)
    K = make_field([15])
    q = tower.steps[0].chosen_q
    rng = random.Random(73)
    checked = 0
    for _ in range(300):
        v = K.element({m: Fraction(rng.randint(-8, 8), 1 << (K.k + 1))
                       for m in range(K.degree)})
        if not v:
            continue
        assert case_b_identity_holds(K, q, v)
        checked += 1
    assert checked > 250


def test_split_at_top():
    f = make_field([2, 3])
    c = f.element({0: 1, 1: 2, 2: Fraction(1, 2), 3: Fraction(3, 2)})
    u, v = split_at_top(c)
    sub = make_field([2])
    assert u == sub.element({0: 1, 1: 2})
    assert v == sub.element({0: Fraction(1, 2), 1: Fraction(3, 2)})
    # recombine: u + v*sqrt(3)
    lifted_u = f.element(dict(u.coeffs))
    lifted_v = f.element(dict(v.coeffs))
    assert lifted_u + lifted_v * f.sqrt_term(3) == c
