#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Writes perfbench/expected.json: sha256 digests of the canonical certificate
and tower JSON, and the totally positive integers of Q(sqrt2, sqrt3) up to
trace 24 with the indecomposable ones listed.  Certificates must stay
byte-identical across versions, so rerun this only when a change is meant
to alter an artifact, and say so.

Run from the repository root:  PYTHONPATH=src python3 perfbench/make_expected.py
"""

import json
from pathlib import Path

from mqf import exhaustive_indecomposable, make_field, scan_for_witnesses, search_witnesses
from mqf.certifier import dumps_canonical
from mqf.integers import totally_positive_integers_up_to_trace
from mqf.tower import build_tower

from workloads import TOWER_OFFSETS, conjugate_coords, sha256

INDEC_PRIMES = [2, 3]
INDEC_TRACE_CAP = 24


def digest(payload) -> str:
    return sha256(dumps_canonical(payload))


def main() -> None:
    w3 = scan_for_witnesses(3)
    w4 = scan_for_witnesses(4, trace_bound=4000, d_start=479, d_limit=479)
    dscan = {"N3": digest(w3.certificate.to_json()), "N4": digest(w4.certificate.to_json())}

    base = search_witnesses(55, 3, 1000)
    tower = {}
    for a in range(TOWER_OFFSETS):
        for b in range(TOWER_OFFSETS):
            t = build_tower(55, 3, 3, offsets=[a, b], base=base)
            tower[f"{a},{b}"] = digest(t.to_json())
    assert digest(build_tower(55, 3, 3, offsets=[0, 0]).to_json()) == tower["0,0"]

    field = make_field(INDEC_PRIMES)
    den = 1 << field.k
    population, indecomposable = [], []
    for x in totally_positive_integers_up_to_trace(field, INDEC_TRACE_CAP):
        d, coords = x.scaled_coords()
        coords = [c * (den // d) for c in coords]
        population.append(coords)
        if exhaustive_indecomposable(x, deterministic=True).verdict.is_indecomposable:
            indecomposable.append(coords)
    members = {tuple(c) for c in population}
    assert all(tuple(conjugate_coords(c, s)) in members
               for c in population for s in range(field.degree)), "population not Galois-closed"

    out = {
        "dscan": dscan,
        "tower": tower,
        "indec": {"primes": INDEC_PRIMES, "trace_cap": INDEC_TRACE_CAP, "denominator": den,
                  "population": population, "indecomposable": indecomposable},
    }
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(out, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(population)} elements, {len(indecomposable)} indecomposable")


if __name__ == "__main__":
    main()
