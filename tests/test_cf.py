import json
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import isqrt

import pytest

from conftest import random_ok_element, shift_totally_positive
from oracles import pair_holds_walk, search_pool_unpruned, semiconvergent_coords_full_walk
import mqf.cf
import mqf.fields
from mqf.certifier import WitnessSet, pair_condition_certify, verify_certificate
from mqf.cf import (
    DEFAULT_TRACE_BOUND,
    _cf_terms,
    _convergent_chain,
    _pair_holds,
    _relative_minima,
    _search_pool,
    _semiconvergent_coords,
    _thin_pool,
    cf_expand,
    convergents,
    quadratic_candidates,
    scan_for_witnesses,
    search_witnesses,
)
from mqf.errors import NotSquarefreeError, PerfectSquareError, WitnessNotFoundError
from mqf.fields import is_squarefree, make_field
from mqf.indecomposables import Verdict, exhaustive_indecomposable


def squarefree_ds(rng, count, hi=2000):
    out = []
    while len(out) < count:
        d = rng.randint(2, hi)
        if is_squarefree(d) and isqrt(d) ** 2 != d:
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# expansions and convergents
# ---------------------------------------------------------------------------

def test_expansion_examples():
    cf = cf_expand(19)
    assert cf.a0 == 4
    assert cf.period == (2, 1, 3, 1, 2, 8)
    assert cf_expand(2).period == (2,)
    assert cf_expand(5).period == (4,)


def test_expansion_rejects_bad_d():
    with pytest.raises(PerfectSquareError):
        cf_expand(16)
    with pytest.raises(NotSquarefreeError):
        cf_expand(12)
    with pytest.raises(NotSquarefreeError):
        cf_expand(1)


def test_period_structure_random():
    rng = random.Random(51)
    for d in squarefree_ds(rng, 50):
        cf = cf_expand(d)
        assert cf.period[-1] == 2 * cf.a0
        body = cf.period[:-1]
        assert body == body[::-1]  # palindromic prefix
        # minimality: no shorter rotation of the (P, Q) recurrence closes early
        q_values = [Q for _, Q in islice(_cf_terms(d, 0, 1), 1, len(cf.period) + 1)]
        assert all(q >= 1 for q in q_values)
        assert q_values[-1] == 1
        assert 1 not in q_values[:-1]


def test_convergent_identities():
    cf = cf_expand(19)
    conv = convergents(cf, 8)
    assert conv[5] == (170, 39)
    assert 170 ** 2 - 19 * 39 ** 2 == 1
    assert convergents(cf_expand(2), 1)[0] == (1, 1)
    assert 1 - 2 == -1
    assert convergents(cf_expand(5), 1)[0] == (2, 1)


def test_pell_type_identity_random():
    rng = random.Random(52)
    for d in squarefree_ds(rng, 50):
        cf = cf_expand(d)
        count = 2 * len(cf.period) + 2
        q_values = [Q for _, Q in islice(_cf_terms(d, 0, 1), count + 1)]  # Q_0, Q_1, ...
        for n, (p, q) in enumerate(convergents(cf, count)):
            assert p * p - d * q * q == (-1) ** (n + 1) * q_values[n + 1]


def test_convergents_approach_sqrt(q2):
    cf = cf_expand(2)
    for p, q in convergents(cf, 10):
        assert abs(p * p - 2 * q * q) == 1


def _quotients(D, r, s):
    """Partial quotients of xi = r + s sqrt(D) (Fractions r, s, xi irrational),
    by exact floors and conjugate inversion in Q(sqrt(D))."""
    while True:
        a = int(r + s * D ** 0.5)  # a float guess, then corrected exactly
        while not _at_least(D, r - a, s):
            a -= 1
        while _at_least(D, r - a - 1, s):
            a += 1
        yield a
        u = r - a  # 1/(u + s sqrt(D)) = (u - s sqrt(D))/(u^2 - s^2 D)
        norm = u * u - s * s * D
        r, s = u / norm, -s / norm


def _at_least(D, u, s):
    # u + s sqrt(D) >= 0
    if u >= 0 and s >= 0:
        return True
    if u <= 0 and s <= 0:
        return u == s == 0
    return u * u >= s * s * D if u > 0 else s * s * D >= u * u


def _recurrence(quotients, count):
    # (p_n, q_n), n = -1 .. count-2, from p_(-2), q_(-2) = 0, 1 and p_(-1), q_(-1) = 1, 0
    out = [(0, 1), (1, 0)]
    for a in islice(quotients, count - 1):
        out.append((a * out[-1][0] + out[-2][0], a * out[-1][1] + out[-2][1]))
    return out[1:]


def test_convergents_and_chain_match_the_recurrence():
    ds = [d for d in range(2, 400) if is_squarefree(d) and isqrt(d) ** 2 != d]
    assert {d % 4 for d in ds} == {1, 2, 3}
    for D in ds:
        count = 2 * len(cf_expand(D).period) + 6
        # sqrt(D): the convergents p_n/q_n, n >= 0
        want = _recurrence(_quotients(D, Fraction(0), Fraction(1)), count + 1)[1:]
        assert convergents(cf_expand(D), count) == want, D
        # xi = -omega': sqrt(D), or (sqrt(D) - 1)/2 when D = 1 mod 4
        half = D % 4 == 1
        xi = (Fraction(-1, 2), Fraction(1, 2)) if half else (Fraction(0), Fraction(1))
        want = [(2 * p + q, q) if half else (2 * p, 2 * q)
                for p, q in _recurrence(_quotients(D, *xi), count)]
        assert list(islice(_convergent_chain(D), count)) == want, D


# ---------------------------------------------------------------------------
# candidate pools
# ---------------------------------------------------------------------------

def test_pool_examples():
    pool2 = quadratic_candidates(cf_expand(2), 6)
    names = {repr(x) for x in pool2}
    assert {"1", "2 + s2", "2 - s2"} <= names
    pool5 = quadratic_candidates(cf_expand(5), 3)
    assert {repr(x) for x in pool5} == {"1", "3/2 + 1/2*s5", "3/2 - 1/2*s5"}
    assert quadratic_candidates(cf_expand(2), 0) == []


def test_semiconvergent_walk_matches_the_full_walk():
    checked = 0
    for D in range(2, 3000):
        if not is_squarefree(D) or isqrt(D) ** 2 == D:
            continue
        for trace_bound in (1, 2, 3, 60, 1000, 10**5):
            assert _semiconvergent_coords(D, trace_bound) == \
                semiconvergent_coords_full_walk(D, trace_bound), (D, trace_bound)
        checked += 1
    assert checked > 1800


def test_semiconvergent_walk_leaves_a_long_block():
    # sqrt(D) = [10^8; 10^8, 2*10^8]: the block after alpha_(-1) = 1 has 10^8
    # terms, of which 4 pairs are below the trace bound
    start = time.perf_counter()
    coords = _semiconvergent_coords(10**16 + 2, 10**9)
    assert time.perf_counter() - start < 2.0
    assert coords == [(2, 0)] + [(2 * 10**8 * r + 2, s * 2 * r) for r in (1, 2, 3, 4)
                                 for s in (-1, 1)]


def test_pool_sorted_by_trace():
    pool = quadratic_candidates(cf_expand(13), 30)
    traces = [x.trace() for x in pool]
    assert traces == sorted(traces)


def test_pool_closed_under_conjugation():
    for d in (2, 5, 13, 19):
        pool = quadratic_candidates(cf_expand(d), 40)
        as_set = set(pool)
        for x in pool:
            assert x.conjugate(1) in as_set


def _oracle_pool(D, trace_bound):
    """Every totally positive x = (n0 + n1 sqrt(D))/2 in O_K with trace
    n0 <= trace_bound that the exhaustive oracle calls indecomposable,
    ordered by (n0, n1)."""
    field = make_field([D])
    out = []
    for n0 in range(1, trace_bound + 1):
        reach = isqrt(n0 * n0 // D)
        for n1 in range(-reach, reach + 1):
            # x is integral iff n0, n1 are both even, or both odd when D = 1 mod 4
            if (n0 - n1) % 2 or (n0 % 2 and D % 4 != 1):
                continue
            if n0 * n0 <= D * n1 * n1:
                continue
            x = field.from_scaled([n0, n1], 2)
            if exhaustive_indecomposable(x).verdict.is_indecomposable:
                out.append(x)
    return out


def test_pool_equals_oracle_pool_for_small_d():
    # semiconvergents against the definition, both residue classes mod 4
    ds = [d for d in range(2, 201) if is_squarefree(d) and isqrt(d) ** 2 != d]
    assert {d % 4 for d in ds} == {1, 2, 3}
    for d in ds:
        assert quadratic_candidates(cf_expand(d), 80) == _oracle_pool(d, 80), d


def test_pool_members_are_oracle_indecomposable():
    pool = quadratic_candidates(cf_expand(19), 30)
    assert pool, "pool should not be empty"
    for x in pool:
        v = exhaustive_indecomposable(x)
        assert v.verdict.is_indecomposable


# ---------------------------------------------------------------------------
# relative minima and the pair screen
# ---------------------------------------------------------------------------

def _up_to_sign(n0, n1):
    return (n0, n1) if (n0, n1) > (0, 0) else (-n0, -n1)


def _brute_force_minima(D, bound):
    """Scaled coordinates, up to sign, of the relative minima x of O_K with
    both |sigma_s(x)| <= bound: no nonzero y other than +-x has |y| <= |x|
    and |y'| <= |x'|.  Floats decide exactly here: two different values
    |sigma(y)| != |sigma(x)| differ by |sigma(y -+ x)| >= 1/(2 bound), the
    norm of a nonzero integer being at least 1."""
    root = D ** 0.5
    points = {}
    for n1 in range(-int(2 * bound / root) - 1, int(2 * bound / root) + 2):
        for n0 in range(-2 * bound - 1, 2 * bound + 2):
            if (n0 - n1) % 2 or (n0 % 2 and D % 4 != 1) or (n0, n1) == (0, 0):
                continue
            s1, s2 = abs(n0 + n1 * root) / 2, abs(n0 - n1 * root) / 2
            if s1 <= bound and s2 <= bound:
                points[_up_to_sign(n0, n1)] = (s1, s2)
    minima = set()
    lowest = float("inf")  # smallest |sigma_2| among points of smaller |sigma_1|
    for key, (s1, s2) in sorted(points.items(), key=lambda kv: kv[1]):
        if s2 < lowest:
            minima.add(key)
            lowest = s2
    return minima


def test_convergent_chain_is_the_relative_minima():
    ds = [d for d in range(2, 60) if is_squarefree(d) and isqrt(d) ** 2 != d]
    assert 5 in ds and {d % 4 for d in ds} == {1, 2, 3}
    bound = 40
    for D in ds:
        chain = []
        for n0, n1 in _convergent_chain(D):
            larger = (n0 + n1 * D ** 0.5) / 2
            if larger > bound:
                break
            assert not chain or larger > chain[-1][0], D  # increasing
            chain.append((larger, n0, n1))
        from_chain = {_up_to_sign(n0, s * n1) for _, n0, n1 in chain for s in (1, -1)}
        assert from_chain == _brute_force_minima(D, bound), D


def _half_coords(x):
    # (n0, n1) with x = (n0 + n1 sqrt(D))/2; the denominator of O_K is 1 or 2
    den, (n0, n1) = x.scaled_coords()
    return 2 * n0 // den, 2 * n1 // den


def _minima_for(D, pool):
    return _relative_minima(D, max(n0 for n0, _ in pool))


def _assert_screen_matches_enumeration(D, minima, a, b):
    """The screen on coordinates (n0, n1), x = (n0 + n1 sqrt(D))/2, against
    the enumeration on the elements."""
    field = make_field([D])
    holds = pair_condition_certify(field.from_scaled(a, 2), field.from_scaled(b, 2)).holds
    assert _pair_holds(D, minima, a, b) == holds, (D, a, b)
    return holds


def _assert_screen_matches_on_pool(D, pool):
    minima = _minima_for(D, pool)
    return sum(_assert_screen_matches_enumeration(D, minima, a, b)
               for i, a in enumerate(pool) for b in pool[i + 1:])


def test_screen_matches_enumeration_on_thin_pools():
    pairs = held = 0
    for D in range(2, 150):
        if is_squarefree(D):
            pool = _thin_pool(make_field([D]), 600)
            held += _assert_screen_matches_on_pool(D, pool)
            pairs += len(pool) * (len(pool) - 1) // 2
    assert pairs == 4330 and held > 100


@pytest.mark.parametrize("D", [55, 479])
def test_screen_matches_enumeration_at_trace_4000(D):
    pool = _thin_pool(make_field([D]), 4000)
    assert _assert_screen_matches_on_pool(D, pool) > 0


def test_screen_matches_enumeration_on_random_pairs():
    rng = random.Random(53)
    held = 0
    for D in (2, 3, 5, 13, 15, 21, 55, 79, 101, 479):
        field = make_field([D])
        for _ in range(30):
            a, b = (_half_coords(shift_totally_positive(random_ok_element(field, rng, 3)))
                    for _ in "ab")
            held += _assert_screen_matches_enumeration(D, _minima_for(D, [a, b]), a, b)
    assert held > 0


def _thin_pools(d_limit, trace_bound):
    for D in range(2, d_limit):
        if is_squarefree(D):
            yield D, _thin_pool(make_field([D]), trace_bound)


def test_screen_matches_the_per_pair_walk():
    pairs = held = 0
    for D, pool in _thin_pools(1000, 2000):
        if pool:
            minima = _minima_for(D, pool)
            for i, a in enumerate(pool):
                for b in pool[i + 1:]:
                    holds = _pair_holds(D, minima, a, b)
                    assert holds == pair_holds_walk(D, a, b), (D, a, b)
                    pairs += 1
                    held += holds
    assert pairs == 67123 and held > 1000


def test_minima_reach_past_every_pair():
    # the screen stops at the first alpha_n with floor(2 alpha_n)^2 > 8 X0,
    # 4ab = X0 + X1 sqrt(D); the list must hold one for every pair of the pool,
    # and end there for the largest trace
    for D, pool in _thin_pools(1000, 2000):
        if pool:
            minima = _minima_for(D, pool)
            x0 = max(a0 * b0 + a1 * b1 * D for a0, a1 in pool for b0, b1 in pool)
            assert minima[-1][0] > 8 * x0, D
            top = max(n0 for n0, _ in pool)
            assert all(floor_sq <= 16 * top * top for floor_sq, _, _ in minima[:-1]), D


def test_screen_on_a_five_set_at_a_large_d():
    # 1, 10873 - s, 456665 - 42 s, 4555777 - 419 s, 190885969 - 17556 s with
    # s = sqrt(118221610): every pair holds
    D = 118_221_610
    pool = [(2 * r, -2 * q) for r, q in ((1, 0), (10873, 1), (456665, 42),
                                         (4555777, 419), (190885969, 17556))]
    assert all(n0 * n0 > n1 * n1 * D for n0, n1 in pool)  # totally positive
    minima = _minima_for(D, pool)
    for i, a in enumerate(pool):
        for b in pool[i + 1:]:
            assert _pair_holds(D, minima, a, b), (a, b)
            assert pair_holds_walk(D, a, b), (a, b)
    assert _search_pool(D, pool, 5) == pool


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

def test_search_witnesses_n1_is_vacuous():
    # the certified condition quantifies over i < j only, so a singleton
    # certifies with zero pairs (recorded as pair_condition = "i<j")
    ws = search_witnesses(15, 1, trace_bound=40)
    assert len(ws.elements) == 1
    assert ws.certified
    assert ws.certificate.pairs == ()
    assert ws.certificate.conclusion == 1


def test_search_witnesses_pool_too_small():
    with pytest.raises(WitnessNotFoundError):
        search_witnesses(2, 40, trace_bound=8)


def test_search_witnesses_n2():
    ws = search_witnesses(15, 2, trace_bound=60)
    assert ws.certified and ws.certificate.conclusion == 2
    for pair in ws.certificate.pairs:
        assert pair.holds


def test_witness_set_roundtrip_recertifies():
    ws = search_witnesses(15, 2, trace_bound=60)
    blob = json.dumps(ws.to_json(), sort_keys=True)
    back = WitnessSet.from_json(json.loads(blob))
    assert back.elements == ws.elements
    assert not verify_certificate(json.loads(blob)["certificate"])
    assert json.dumps(back.to_json(), sort_keys=True) == blob


def test_search_agrees_with_a_cheap_first_pass():
    # The D-scan once searched a pool capped at trace 8*isqrt(D) + 16 before
    # the full bound.  That pass is gone; wherever it found a set, the single
    # full-bound search returns the same one.
    agreed = 0
    for D in range(2, 300):
        if not is_squarefree(D):
            continue
        field = make_field([D])
        cheap = _thin_pool(field, min(DEFAULT_TRACE_BOUND, 8 * isqrt(D) + 16))
        for N in (2, 3):
            found = None
            if len(cheap) >= N:
                found = _search_pool(D, cheap, N)
            if found is not None:
                assert search_witnesses(D, N).elements == tuple(
                    field.from_scaled(c, 2) for c in found), (D, N)
                agreed += 1
    assert agreed >= 90


def test_pruned_search_equals_the_unpruned_search():
    searches = found = 0
    for D, pool in _thin_pools(700, 2000):
        for N in (2, 3, 4):
            if len(pool) >= N:
                result = _search_pool(D, pool, N)
                assert result == search_pool_unpruned(D, pool, N), (D, N)
                searches += 1
                found += result is not None
    assert searches == 1270 and found > 100


def test_search_work_counts(monkeypatch):
    # the work of the dscan searches, not their time: one walk of the relative
    # minima per searched D, a fixed number of screen calls, and one
    # factorization per non-square D
    searching, walks, counts = [], Counter(), Counter()

    def search_pool(D, pool, n_wanted):
        searching.append(D)
        try:
            return _search_pool(D, pool, n_wanted)
        finally:
            searching.pop()

    def chain(D):
        if searching:
            walks[D] += 1
        return _convergent_chain(D)

    def counted(module, name):
        func = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return func(*args)
        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(mqf.cf, "_search_pool", search_pool)
    monkeypatch.setattr(mqf.cf, "_convergent_chain", chain)
    counted(mqf.cf, "_pair_holds")
    counted(mqf.fields, "factor")
    assert scan_for_witnesses(3).field.radicands[1] == 55
    assert scan_for_witnesses(4, trace_bound=4000, d_start=479, d_limit=479).certified
    assert len(walks) == 32 and set(walks.values()) == {1}
    assert counts["_pair_holds"] == 1437
    assert counts["factor"] == 49  # 2..55 less its 6 squares, and 479


def test_scan_finds_n2_quickly():
    ws = scan_for_witnesses(2, d_limit=100, trace_bound=200)
    assert ws.certified and len(ws.elements) == 2
    # the scan returns the first D that admits a certified pair
    assert ws.field.radicands[1] <= 100


def test_n4_witness_set_at_d479():
    # four witnesses exist at D = 479 once the pool reaches trace 3458;
    # the largest pair region scans ~4M lattice points
    ws = scan_for_witnesses(4, d_limit=479, trace_bound=4000, d_start=479)
    assert ws.certified and ws.certificate.conclusion == 4
    traces = [x.trace() for x in ws.elements]
    assert traces == [2, 44, 394, 3458]
    assert verify_certificate(ws.certificate.to_json()) == []
