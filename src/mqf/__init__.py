"""mqf: exact multiquadratic field arithmetic with certified lower bounds
for the arity of universal quadratic forms."""

from .certifier import (
    Certificate,
    PairVerdict,
    WitnessSet,
    certify_witness_set,
    pair_condition_certify,
    verify_certificate,
)
from .cf import (
    CFExpansion,
    cf_expand,
    convergents,
    quadratic_candidates,
    scan_for_witnesses,
    search_witnesses,
)
from .fields import FieldElement, MultiquadField, make_field
from .indecomposables import (
    IndecomposabilityVerdict,
    Verdict,
    classify_indecomposable,
    exhaustive_indecomposable,
    normab_criterion,
    trace_bound_holds,
)
from .integers import is_algebraic_integer, superset_lattice_box
from .tower import Tower, TowerStep, build_tower, lift_witnesses, select_next_q, verify_tower

__version__ = "0.1.0"

__all__ = [
    "Certificate", "PairVerdict", "WitnessSet", "certify_witness_set",
    "pair_condition_certify", "verify_certificate",
    "CFExpansion", "cf_expand", "convergents", "quadratic_candidates",
    "scan_for_witnesses", "search_witnesses",
    "FieldElement", "MultiquadField", "make_field",
    "IndecomposabilityVerdict", "Verdict", "classify_indecomposable",
    "exhaustive_indecomposable", "normab_criterion", "trace_bound_holds",
    "is_algebraic_integer", "superset_lattice_box",
    "Tower", "TowerStep", "build_tower", "lift_witnesses", "select_next_q",
    "verify_tower",
]
