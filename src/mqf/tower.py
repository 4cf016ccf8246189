"""Inductive tower construction: extend a certified witness set upward.

Given witnesses in K = Q(sqrt(p_1), ..., sqrt(p_k)) satisfying the pair
condition, adjoining sqrt(q) for a suitable squarefree q preserves the
condition.  Besides squarefreeness, the choice of q is governed by three
machine-checkable bounds:

* sqrt(q) > 2^(k+1), stored exactly as q > 4^(k+1);
* sqrt(q) > 8 * Tr_K(a_i a_j) for every pair, stored as q > 64 * maxTr^2;
* gcd(q, p_i) = 1 for every generator.

Lifting doubles every trace, so level l's bound is the base max pair trace
times 2^l.  :func:`build_tower` and :func:`verify_tower` derive every step
from it and lift the base witnesses once, into the top field, with
:func:`lift_witnesses`.  :func:`select_next_q` screens candidates with
``is_squarefree``; :func:`~mqf.fields.make_field` decides each chosen q once
more when the top field is built or parsed, and
:meth:`TowerStep.constraints_hold` replays the three bounds.  The headline
claim therefore rests on the base certificate (machine-enumerated) plus these
constraint logs (machine-checked integers); re-certifying in the extension is
exposed separately because its enumeration region grows with q.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .certifier import (DEFAULT_PAIR_BUDGET, Certificate, WitnessSet, certify_witness_set,
                        compare_certificate, json_differs)
from .cf import DEFAULT_TRACE_BOUND, search_witnesses
from .errors import BaseWitnessNotFoundError, MqfError, WitnessNotFoundError
from .fields import (FieldElement, MultiquadField, is_squarefree, json_object, json_value,
                     make_field)


@dataclass(frozen=True)
class TowerStep:
    """One induction step K -> K(sqrt(q)) with its exact constraint log."""

    base_primes: tuple[int, ...]
    chosen_q: int
    max_pair_trace: int
    offset: int

    @property
    def degree_threshold(self) -> int:
        """4^(k+1), from sqrt(q) > 2^(k+1)."""
        return 4 ** (len(self.base_primes) + 1)

    @property
    def trace_threshold(self) -> int:
        """64 * max_pair_trace^2, from sqrt(q) > 8 Tr_K(a_i a_j)."""
        return 64 * self.max_pair_trace ** 2

    def constraints_hold(self) -> bool:
        """Replay all three bounds with integer arithmetic only."""
        q = self.chosen_q
        return (
            q > self.degree_threshold
            and q > self.trace_threshold
            and all(gcd(q, p) == 1 for p in self.base_primes)
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
            max_pair_trace=json_value(data["max_pair_trace"], int, "step max_pair_trace"),
            offset=json_value(data["offset"], int, "step offset", minimum=0),
        )


def max_pair_trace(elements: Sequence[FieldElement]) -> int:
    """max over i<j of Tr_K(a_i a_j); witnesses are integral so this is an integer."""
    best = Fraction(0)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            t = (elements[i] * elements[j]).trace()
            if t > best:
                best = t
    assert best.denominator == 1
    return int(best)


def select_next_q(primes: tuple[int, ...], max_pair_trace: int, offset: int = 0) -> TowerStep:
    """The (offset+1)-th smallest squarefree q satisfying all three bounds.

    Always terminates: squarefree integers have positive density and the
    constraints only exclude finitely many residues.
    """
    if offset < 0:
        raise MqfError(f"offset {offset} is negative")
    step = TowerStep(tuple(primes), 0, max_pair_trace, offset)
    q = max(step.degree_threshold, step.trace_threshold)
    remaining = offset
    while True:
        q += 1
        step = replace(step, chosen_q=q)
        if step.constraints_hold() and is_squarefree(q):
            if remaining == 0:
                return step
            remaining -= 1


def lift_witnesses(witnesses: WitnessSet, top: MultiquadField) -> WitnessSet:
    """Re-express the witnesses in ``top``, which extends their field; certification is cleared.

    Coefficient masks are unchanged (the new generators occupy the top bits),
    and the lift must multiply every trace by [top : K], which is asserted.
    """
    field = witnesses.field
    if top.primes[:field.k] != field.primes:
        raise MqfError(f"{top!r} does not extend the witness field {field!r}")
    ratio = top.degree // field.degree
    lifted = []
    for x in witnesses.elements:
        y = top.from_scaled(x.scaled_coords()[1], x.den)
        assert y.trace() == ratio * x.trace(), "relative trace identity violated"
        lifted.append(y)
    return WitnessSet(top, tuple(lifted), certificate=None)


@dataclass(frozen=True)
class Tower:
    """A certified base plus constraint-checked extension steps."""

    base_d: int
    base_certificate: Certificate
    steps: tuple[TowerStep, ...]
    witnesses: WitnessSet  # in the top field

    @property
    def top_certificate(self) -> Certificate | None:
        """The witnesses' certificate in the top field; only with deep verification."""
        return self.witnesses.certificate

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
        MalformedPayloadError.  Derived keys are only required to be present."""
        data = json_object(data, ("base", "claim", "field", "steps", "top_certificate",
                                  "witnesses"), "tower")
        base = json_object(data["base"], ("D", "certificate"), "tower base")
        base_cert = Certificate.from_json(base["certificate"])
        steps = tuple(TowerStep.from_json(s) for s in
                      json_value(data["steps"], list, "tower steps"))
        field = MultiquadField.from_json(data["field"])
        top = data["top_certificate"]
        witnesses = WitnessSet(
            field,
            tuple(field.element_from_json(w) for w in
                  json_value(data["witnesses"], list, "tower witnesses")),
            certificate=None if top is None else Certificate.from_json(top),
        )
        return Tower(
            base_d=json_value(base["D"], int, "tower base D"),
            base_certificate=base_cert,
            steps=steps,
            witnesses=witnesses,
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
        raise MqfError(f"too many offsets for a k={k} tower")
    if base is None:
        try:
            base = search_witnesses(D, N, trace_bound, pair_budget=pair_budget)
        except WitnessNotFoundError as exc:
            raise BaseWitnessNotFoundError(str(exc), budget_limited=exc.budget_limited)
    elif base.field.primes != (D,) or not base.certified:
        raise MqfError(f"base is not a certified witness set of Q(sqrt({D}))")
    trace = max_pair_trace(base.elements)
    primes = base.field.primes
    steps = []
    for level, offset in enumerate(offsets):
        step = select_next_q(primes, trace << level, offset)
        steps.append(step)
        primes += (step.chosen_q,)
    witnesses = lift_witnesses(base, make_field(primes) if steps else base.field)
    if deep_verify and steps:
        witnesses = replace(witnesses, certificate=certify_witness_set(
            witnesses.elements, budget=pair_budget))
    return Tower(
        base_d=D,
        base_certificate=base.certificate,
        steps=tuple(steps),
        witnesses=witnesses,
    )


def verify_tower(data: Mapping, *, jobs: int = 1) -> list[str]:
    """Rebuild a serialized tower bundle and compare it with the file.

    Steps are rebuilt from the recorded q's and offsets and the base max pair
    trace, doubled at each level; the base witnesses are lifted into the top
    field when it is the chain's.  Returns one line per mismatch.
    """
    tower = Tower.from_json(data)
    base = tower.base_certificate
    if base.field.primes != (tower.base_d,):
        # the bundle claims a tower over Q(sqrt(D))
        return ["base certificate field is not Q(sqrt(D)) for the recorded D"]
    problems = [f"base: {p}" for p in
                compare_certificate(base, data["base"]["certificate"], jobs=jobs)]
    if problems:
        # steps build on the base witnesses; a broken base already refutes
        return problems
    if base.conclusion is None:
        problems.append(f"base certificate does not conclude m >= {len(base.witnesses)}")
    primes = base.field.primes
    trace = max_pair_trace(base.witnesses)
    steps = []
    for level, recorded in enumerate(tower.steps):
        step = TowerStep(primes, recorded.chosen_q, trace << level, recorded.offset)
        if not step.constraints_hold():
            problems.append(f"step {level}: q = {step.chosen_q} fails its bounds")
        steps.append(step)
        primes += (step.chosen_q,)
    if tower.field.primes != primes:
        return problems + ["field differs from the rebuilt tower"]
    lifted = lift_witnesses(WitnessSet(base.field, base.witnesses), tower.field)
    if tower.top_certificate is not None:
        lifted = replace(lifted, certificate=certify_witness_set(
            lifted.elements, budget=tower.top_certificate.pair_budget, jobs=jobs))
    rebuilt = Tower(tower.base_d, base, tuple(steps), lifted).to_json()
    problems += [f"{key} differs from the rebuilt tower" for key in rebuilt
                 if json_differs(rebuilt[key], data[key])]
    return problems
