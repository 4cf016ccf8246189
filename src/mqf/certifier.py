"""Certification of the pair condition: 4*a_i*a_j >= c^2 forces c = 0.

A witness set a_1, ..., a_N of totally positive integers whose pairs (i < j)
all satisfy the condition rules out universal (N-1)-ary totally positive
quadratic forms, i.e. m(K) >= N.  Each pair verdict comes from a finite,
provably exhaustive enumeration:

* every candidate c with 4ab >= c^2 has |sigma_s(c)| <= 2*sqrt(sigma_s(ab)),
  which converts to a coordinate box of the superset lattice (1/2^k)Z[sqrt(p_I)];
* taking traces gives the exact integer ellipsoid Tr(c^2) <= 4*Tr(ab)
  used as a second pruning condition.

Survivors of the float prefilter are confirmed or rejected in exact rational
arithmetic, in ellipsoid-radius order so small violations surface first.
A candidate that satisfies the order relation but is not an algebraic integer
is a near miss: counted, never a verdict changer.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Mapping, Sequence

import numpy as np

from .errors import BudgetExceededError, FieldMismatchError, MqfError
from .fields import FieldElement, MultiquadField, json_object, json_value
from .indecomposables import require_totally_positive_integer
from .integers import is_algebraic_integer, scan_job, superset_lattice_box
from .kernels import BoxScan, scan_box

DEFAULT_PAIR_BUDGET = 10**8


def sqrt_upper(value: Fraction) -> Fraction:
    """A rational upper bound for sqrt(value), value >= 0; tight to one ulp of 1/den."""
    if value < 0:
        raise ValueError("sqrt of negative bound")
    prod = value.numerator * value.denominator
    root = isqrt(prod)
    if root * root < prod:
        root += 1
    return Fraction(root, value.denominator)


@dataclass(frozen=True)
class PairVerdict:
    i: int
    j: int
    holds: bool
    violating_c: FieldElement | None
    points_scanned: int
    near_misses: int

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "holds": self.holds,
            "c": self.violating_c.to_json() if self.violating_c is not None else None,
            "scanned": self.points_scanned,
            "near_misses": self.near_misses,
        }


@dataclass(frozen=True)
class Certificate:
    field: MultiquadField
    witnesses: tuple[FieldElement, ...]
    pairs: tuple[PairVerdict, ...]
    pair_budget: int

    lattice_kind = "superset"
    pair_condition = "i<j"

    @property
    def all_hold(self) -> bool:
        return all(p.holds for p in self.pairs)

    @property
    def conclusion(self) -> int | None:
        """N, for m(K) >= N, when every pair holds; otherwise None."""
        return len(self.witnesses) if self.all_hold else None

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "witnesses": [w.to_json() for w in self.witnesses],
            "pairs": [p.to_json() for p in self.pairs],
            "lattice": {"kind": self.lattice_kind,
                        "denominator": 1 << self.field.k},
            "pair_condition": self.pair_condition,
            "pair_budget": self.pair_budget,
            "conclusion": (
                {"m_lower_bound": self.conclusion} if self.conclusion is not None else None
            ),
        }

    @staticmethod
    def from_json(data: Mapping) -> Certificate:
        """Parse what ``to_json`` writes; any other shape or type raises
        MalformedPayloadError.  Derived keys are only required to be present."""
        data = json_object(data, _CERTIFICATE_KEYS, "certificate")
        field = MultiquadField.from_json(data["field"])
        witnesses = tuple(field.element_from_json(w) for w in
                          json_value(data["witnesses"], list, "certificate witnesses"))
        pairs = tuple(_pair_from_json(field, p) for p in
                      json_value(data["pairs"], list, "certificate pairs"))
        return Certificate(
            field=field,
            witnesses=witnesses,
            pairs=pairs,
            pair_budget=json_value(data["pair_budget"], int, "pair_budget", minimum=1),
        )


_CERTIFICATE_KEYS = ("conclusion", "field", "lattice", "pair_budget", "pair_condition",
                     "pairs", "witnesses")
_PAIR_KEYS = ("c", "holds", "i", "j", "near_misses", "scanned")


def _pair_from_json(field: MultiquadField, data) -> PairVerdict:
    data = json_object(data, _PAIR_KEYS, "pair")
    c = data["c"]
    return PairVerdict(
        i=json_value(data["i"], int, "pair i", minimum=0),
        j=json_value(data["j"], int, "pair j", minimum=0),
        holds=json_value(data["holds"], bool, "pair holds"),
        violating_c=None if c is None else field.element_from_json(c),
        points_scanned=json_value(data["scanned"], int, "pair scanned", minimum=0),
        near_misses=json_value(data["near_misses"], int, "pair near_misses", minimum=0),
    )


@dataclass(frozen=True)
class WitnessSet:
    """Elements claimed to satisfy the pair condition; certified only once a
    Certificate from this module is attached."""

    field: MultiquadField
    elements: tuple[FieldElement, ...]
    certificate: Certificate | None = None

    @property
    def certified(self) -> bool:
        return self.certificate is not None and self.certificate.all_hold

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "elements": [e.to_json() for e in self.elements],
            "certificate": self.certificate.to_json() if self.certificate else None,
        }

    @staticmethod
    def from_json(data: Mapping) -> WitnessSet:
        data = json_object(data, ("certificate", "elements", "field"), "witness set")
        field = MultiquadField.from_json(data["field"])
        elements = tuple(field.element_from_json(e) for e in
                         json_value(data["elements"], list, "witness set elements"))
        cert = data["certificate"]
        return WitnessSet(field, elements,
                          None if cert is None else Certificate.from_json(cert))


def _pair_job(a: FieldElement, b: FieldElement) -> BoxScan:
    """Scan job over the box + ellipsoid enclosing every candidate c with 4ab >= c^2."""
    field = a.field
    ab = a * b
    bounds = [2 * sqrt_upper(max(hi, Fraction(0))) for hi in ab.embedding_upper_bounds()]
    half = superset_lattice_box(field, bounds)
    tr_ab = ab.trace()
    assert tr_ab.denominator == 1, "trace of an integral product must be integral"
    emb_hi = np.array([float(r) for r in bounds])
    return scan_job(field, [-m for m in half], half, -emb_hi, emb_hi,
                    ell_bound=4 * int(tr_ab) * (1 << field.k))


def _confirm_order(coords: np.ndarray, radicands: Sequence[int]) -> list[np.ndarray]:
    """Survivors sorted by (ellipsoid radius, |coords|, sign pattern).

    Small candidates are confirmed first; the positive representative of a
    +-c pair comes before the negative one.
    """
    rows = [tuple(int(v) for v in row) for row in coords]
    rad = list(radicands)

    def key(row):
        radius = sum(n * n * p for n, p in zip(row, rad))
        return (radius, tuple(abs(n) for n in row), tuple(n < 0 for n in row))

    rows.sort(key=key)
    return [np.array(r, dtype=np.int64) for r in rows]


def pair_condition_certify(a: FieldElement, b: FieldElement, *, i: int = 0, j: int = 1,
                           budget: int = DEFAULT_PAIR_BUDGET,
                           collect_all: bool = False):
    """Certify the pair condition for (a, b) by exhaustive enumeration.

    Returns a PairVerdict; with ``collect_all=True`` returns
    (PairVerdict, [all violating c]) for cross-checking enumerations.
    Raises BudgetExceededError when the region cannot be exhausted and no
    violation was found inside the budget (a found violation is already a
    valid verdict).
    """
    if a.field != b.field:
        raise FieldMismatchError("pair elements live in different fields")
    require_totally_positive_integer(a, "witness")
    require_totally_positive_integer(b, "witness")
    field = a.field
    job = _pair_job(a, b)
    fourab = a * b * 4
    total = job.total_points()

    survivors = []
    scanned = 0
    for coords, n in scan_box(job, budget=budget):
        scanned += n
        if len(coords):
            survivors.append(coords)
    stacked = (np.concatenate(survivors, axis=0) if survivors
               else np.empty((0, field.degree), dtype=np.int64))
    stacked = stacked[stacked.any(axis=1)]  # c = 0 is the one point the condition allows

    near_misses = 0
    violations: list[FieldElement] = []
    for row in _confirm_order(stacked, field.radicands):
        c = field.from_scaled(row, 1 << field.k)
        if fourab.succeq(c * c):
            if is_algebraic_integer(c):
                violations.append(c)
                if not collect_all:
                    break
            else:
                near_misses += 1
    if not violations and scanned < total:
        raise BudgetExceededError(scanned, total, f"pair ({i},{j}) certification")
    verdict = PairVerdict(
        i=i, j=j,
        holds=not violations,
        violating_c=violations[0] if violations else None,
        points_scanned=scanned,
        near_misses=near_misses,
    )
    if collect_all:
        return verdict, violations
    return verdict


def _certify_pair(task) -> PairVerdict:
    a, b, i, j, budget = task
    return pair_condition_certify(a, b, i=i, j=j, budget=budget)


def certify_witness_set(elements: Sequence[FieldElement], *, budget: int = DEFAULT_PAIR_BUDGET,
                        jobs: int = 1) -> Certificate:
    """Run the pair condition on all i < j and assemble the certificate.

    N witnesses with every pair holding rule out (N-1)-ary universal forms,
    so the recorded conclusion is m(K) >= N.
    """
    elements = tuple(elements)
    if not elements:
        raise MqfError("cannot certify an empty witness set")
    field = elements[0].field
    for e in elements:
        if e.field != field:
            raise FieldMismatchError("witnesses live in different fields")
        require_totally_positive_integer(e, "witness")
    tasks = [(elements[i], elements[j], i, j, budget)
             for i in range(len(elements)) for j in range(i + 1, len(elements))]
    # The pool starts every worker at once, so ask for no more than can work.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            verdicts = list(pool.map(_certify_pair, tasks))
    else:
        verdicts = list(map(_certify_pair, tasks))
    return Certificate(
        field=field,
        witnesses=elements,
        pairs=tuple(verdicts),
        pair_budget=budget,
    )


def verify_certificate(data: Mapping, *, jobs: int = 1) -> list[str]:
    """Parse a serialized certificate and compare it with its recomputation
    (see :func:`compare_certificate`); return mismatches."""
    return compare_certificate(Certificate.from_json(data), data, jobs=jobs)


def compare_certificate(cert: Certificate, data: Mapping, *, jobs: int = 1) -> list[str]:
    """Re-certify ``cert``'s witnesses with its pair budget.  Returns one line
    per invalid witness, else per top-level key or pair of ``data`` (the JSON
    ``cert`` was parsed from) whose canonical JSON differs from the result."""
    problems = []
    for w in cert.witnesses:
        try:
            require_totally_positive_integer(w, "witness")
        except MqfError as exc:
            problems.append(f"witness invalid: {exc}")
    if problems:
        return problems
    fresh = certify_witness_set(cert.witnesses, budget=cert.pair_budget, jobs=jobs).to_json()
    for key, value in fresh.items():
        if key == "pairs" and len(value) == len(data[key]):
            problems += [f"pair ({p['i']},{p['j']}) differs from the recomputation"
                         for p, recorded in zip(value, data[key]) if json_differs(p, recorded)]
        elif json_differs(value, data[key]):
            problems.append(f"{key} differs from the recomputation")
    return problems


def dumps_canonical(payload: dict) -> str:
    """Deterministic JSON encoding used for every artifact file."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def json_differs(a, b) -> bool:
    """Whether two JSON values differ with keys sorted (so 1, 1.0 and true
    differ).  Compact, since the C encoder runs only without an indent."""
    return json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)
