"""Inductive tower construction: extend a certified witness set upward.

Given witnesses in K = Q(sqrt(p_1), ..., sqrt(p_k)) satisfying the pair
condition, adjoining sqrt(q) for a suitable squarefree q preserves the
condition.  The choice of q is governed by three machine-checkable bounds:

* sqrt(q) > 2^(k+1), stored exactly as q > 4^(k+1);
* sqrt(q) > 8 * Tr_K(a_i a_j) for every pair, stored as q > 64 * maxTr^2;
* gcd(q, p_i) = 1 for every generator.

The headline claim for the top field therefore rests on the base certificate
(machine-enumerated) plus these constraint logs (machine-checked integers);
re-certifying in the extension is exposed separately because its enumeration
region grows with q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping

from .certifier import (DEFAULT_PAIR_BUDGET, Certificate, WitnessSet, certify_witness_set,
                        verify_certificate)
from .cf import DEFAULT_TRACE_BOUND, search_witnesses
from .errors import BaseWitnessNotFoundError, MqfError, WitnessNotFoundError
from .fields import MultiquadField, is_squarefree, json_object, json_value, make_field


@dataclass(frozen=True)
class TowerStep:
    """One induction step K -> K(sqrt(q)) with its exact constraint log."""

    base_primes: tuple[int, ...]
    chosen_q: int
    degree_threshold: int      # 4^(k+1), from sqrt(q) > 2^(k+1)
    trace_threshold: int       # 64 * max_pair_trace^2, from sqrt(q) > 8 Tr_K(a_i a_j)
    max_pair_trace: int
    offset: int

    def constraints_hold(self) -> bool:
        """Replay all three bounds with integer arithmetic only."""
        q = self.chosen_q
        return (
            q > self.degree_threshold
            and q > self.trace_threshold
            and self.trace_threshold == 64 * self.max_pair_trace ** 2
            and self.degree_threshold == 4 ** (len(self.base_primes) + 1)
            and all(gcd(q, p) == 1 for p in self.base_primes)
            and is_squarefree(q)
        )

    def to_json(self) -> dict:
        return {
            "base_primes": list(self.base_primes),
            "q": self.chosen_q,
            "degree_threshold": self.degree_threshold,
            "trace_threshold": self.trace_threshold,
            "max_pair_trace": self.max_pair_trace,
            "offset": self.offset,
        }

    @staticmethod
    def from_json(data: Mapping) -> TowerStep:
        data = json_object(data, ("base_primes", "degree_threshold", "max_pair_trace",
                                  "offset", "q", "trace_threshold"), "tower step")
        return TowerStep(
            base_primes=tuple(json_value(p, int, "step base prime") for p in
                              json_value(data["base_primes"], list, "step base_primes")),
            chosen_q=json_value(data["q"], int, "step q"),
            degree_threshold=json_value(data["degree_threshold"], int, "step degree_threshold"),
            trace_threshold=json_value(data["trace_threshold"], int, "step trace_threshold"),
            max_pair_trace=json_value(data["max_pair_trace"], int, "step max_pair_trace"),
            offset=json_value(data["offset"], int, "step offset", minimum=0),
        )


def max_pair_trace(witnesses: WitnessSet) -> int:
    """max over i<j of Tr_K(a_i a_j); witnesses are integral so this is an integer."""
    elements = witnesses.elements
    best = Fraction(0)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            t = (elements[i] * elements[j]).trace()
            if t > best:
                best = t
    assert best.denominator == 1
    return int(best)


def select_next_q(field: MultiquadField, witnesses: WitnessSet, offset: int = 0) -> TowerStep:
    """The (offset+1)-th smallest squarefree q satisfying all three bounds.

    Always terminates: squarefree integers have positive density and the
    constraints only exclude finitely many residues.
    """
    if witnesses.field != field:
        raise MqfError("witness set does not belong to the given field")
    k = field.k
    m = max_pair_trace(witnesses)
    degree_threshold = 4 ** (k + 1)
    trace_threshold = 64 * m * m
    q = max(degree_threshold, trace_threshold)
    remaining = offset
    while True:
        q += 1
        if not all(gcd(q, p) == 1 for p in field.primes):
            continue
        if not is_squarefree(q):
            continue
        if remaining == 0:
            return TowerStep(
                base_primes=field.primes,
                chosen_q=q,
                degree_threshold=degree_threshold,
                trace_threshold=trace_threshold,
                max_pair_trace=m,
                offset=offset,
            )
        remaining -= 1


def lift_witnesses(step: TowerStep, witnesses: WitnessSet) -> WitnessSet:
    """Re-express the witnesses in L = K(sqrt(q)); certification is cleared.

    Coefficient masks are unchanged (the new generator occupies the top bit),
    and the lift must double every trace, which is asserted.
    """
    if witnesses.field.primes != step.base_primes:
        raise MqfError("tower step does not match the witness field")
    if not step.constraints_hold():
        raise MqfError("tower step constraints do not hold")
    top = make_field(list(step.base_primes) + [step.chosen_q])
    lifted = []
    for x in witnesses.elements:
        y = top.element(dict(x.coeffs))
        assert y.trace() == 2 * x.trace(), "relative trace identity violated"
        lifted.append(y)
    return WitnessSet(top, tuple(lifted), certificate=None)


@dataclass(frozen=True)
class Tower:
    """A certified base plus constraint-checked extension steps."""

    base_d: int
    base_certificate: Certificate
    steps: tuple[TowerStep, ...]
    witnesses: WitnessSet  # in the top field
    top_certificate: Certificate | None = None  # only with deep verification

    @property
    def field(self) -> MultiquadField:
        return self.witnesses.field

    @property
    def m_lower_bound(self) -> int:
        return len(self.witnesses.elements)

    def to_json(self) -> dict:
        return {
            "base": {"D": self.base_d, "certificate": self.base_certificate.to_json()},
            "steps": [s.to_json() for s in self.steps],
            "field": self.field.to_json(),
            "witnesses": [w.to_json() for w in self.witnesses.elements],
            "top_certificate": (
                self.top_certificate.to_json() if self.top_certificate else None
            ),
            "claim": self.claim(),
        }

    def claim(self) -> dict:
        sources = ["base_certificate", "tower_constraints"]
        if self.top_certificate is not None:
            sources.append("top_certificate")
        return {"m_lower_bound": self.m_lower_bound, "established_by": sources}

    @staticmethod
    def from_json(data: Mapping) -> Tower:
        """Parse what ``to_json`` writes; any other shape or type raises
        MalformedPayloadError before anything is recomputed."""
        data = json_object(data, ("base", "claim", "field", "steps", "top_certificate",
                                  "witnesses"), "tower")
        base = json_object(data["base"], ("D", "certificate"), "tower base")
        base_cert = Certificate.from_json(base["certificate"])
        steps = tuple(TowerStep.from_json(s) for s in
                      json_value(data["steps"], list, "tower steps"))
        field = MultiquadField.from_json(data["field"])
        witnesses = WitnessSet(
            field,
            tuple(field.element_from_json(w) for w in
                  json_value(data["witnesses"], list, "tower witnesses")),
            certificate=None,
        )
        claim = json_object(data["claim"], ("established_by", "m_lower_bound"), "tower claim")
        json_value(claim["m_lower_bound"], int, "claim m_lower_bound")
        for source in json_value(claim["established_by"], list, "claim established_by"):
            json_value(source, str, "claim source")
        top = data["top_certificate"]
        return Tower(
            base_d=json_value(base["D"], int, "tower base D"),
            base_certificate=base_cert,
            steps=steps,
            witnesses=witnesses,
            top_certificate=None if top is None else Certificate.from_json(top),
        )


def build_tower(D: int, N: int, k: int, *, offsets: list[int] | None = None,
                trace_bound: int = DEFAULT_TRACE_BOUND,
                pair_budget: int = DEFAULT_PAIR_BUDGET,
                deep_verify: bool = False,
                base: WitnessSet | None = None) -> Tower:
    """Compose base search and k-1 extension rounds into a tower of degree 2^k.

    ``offsets`` picks the (offset+1)-th admissible q at each level, so the
    infinite family of admissible towers is enumerable and every output is
    reproducible.  ``base`` short-circuits the quadratic search when a
    certified set of Q(sqrt(D)) is already at hand; any other set is refused.
    """
    if k < 1:
        raise ValueError("tower height k must be >= 1")
    offsets = list(offsets) if offsets else []
    offsets += [0] * (k - 1 - len(offsets))
    if len(offsets) > k - 1:
        raise ValueError(f"too many offsets for a k={k} tower")
    if base is None:
        try:
            base = search_witnesses(D, N, trace_bound, pair_budget=pair_budget)
        except WitnessNotFoundError as exc:
            raise BaseWitnessNotFoundError(str(exc), budget_limited=exc.budget_limited)
    elif base.field.primes != (D,) or not base.certified:
        raise MqfError(f"base is not a certified witness set of Q(sqrt({D}))")
    current = base
    steps = []
    for level in range(k - 1):
        step = select_next_q(current.field, current, offsets[level])
        current = lift_witnesses(step, current)
        steps.append(step)
    top_cert = None
    if deep_verify and k > 1:
        top_cert = certify_witness_set(current, budget=pair_budget)
        current = WitnessSet(current.field, current.elements, top_cert)
    return Tower(
        base_d=D,
        base_certificate=base.certificate,
        steps=tuple(steps),
        witnesses=current,
        top_certificate=top_cert,
    )


def verify_tower(data: Mapping, *, jobs: int = 1) -> list[str]:
    """Replay every machine-checkable claim in a serialized tower bundle.

    Re-derives the base certificate in full, replays all step constraints in
    integer arithmetic, re-checks the lift chain (same coefficients, traces
    doubled per level) and the final claim.  Returns mismatch descriptions.
    """
    problems: list[str] = []
    tower = Tower.from_json(data)
    base_problems = verify_certificate(data["base"]["certificate"], jobs=jobs)
    if base_problems:
        # steps build on the base witnesses; a broken base already refutes
        return [f"base: {p}" for p in base_problems]
    base_cert = tower.base_certificate
    if base_cert.field.k != 1 or base_cert.field.radicands[1] != tower.base_d:
        problems.append("base certificate field does not match the recorded D")
    n = len(tower.witnesses.elements)
    if base_cert.conclusion != n:
        problems.append(f"base conclusion {base_cert.conclusion} != witness count {n}")
    primes = base_cert.field.primes
    base_max = max_pair_trace(WitnessSet(base_cert.field, base_cert.witnesses))
    for level, step in enumerate(tower.steps):
        tag = f"step {level}"
        if step.base_primes != primes:
            problems.append(f"{tag}: base primes {step.base_primes} != expected {primes}")
        if not step.constraints_hold():
            problems.append(f"{tag}: constraint log fails integer replay")
        expected_trace = base_max << level  # traces double at every lift
        if step.max_pair_trace != expected_trace:
            problems.append(
                f"{tag}: max pair trace {step.max_pair_trace} != recomputed {expected_trace}"
            )
        primes = primes + (step.chosen_q,)
    if tower.field.primes != primes:
        problems.append(f"top field primes {tower.field.primes} != chain result {primes}")
    if len(base_cert.witnesses) != n:
        problems.append("witness count changed between base and top")
    else:
        for base_w, top_w in zip(base_cert.witnesses, tower.witnesses.elements):
            if dict(base_w.coeffs) != dict(top_w.coeffs):
                problems.append("lifted witness coefficients differ from the base witnesses")
                break
    if data["claim"] != tower.claim():
        problems.append("claim does not match the witness count and the certificates")
    if tower.top_certificate is not None:
        problems += [f"top: {p}" for p in verify_certificate(data["top_certificate"], jobs=jobs)]
        if tuple(tower.top_certificate.witnesses) != tuple(tower.witnesses.elements):
            problems.append("top certificate witnesses differ from the tower witnesses")
    return problems
