"""Algebraic-integer membership, the superset lattice and O_K itself.

The ring of integers O_K is needed in three forms:

* exact membership via the characteristic polynomial (``is_algebraic_integer``)
* an enclosing lattice (1/2^k) Z[sqrt(p_I)] with per-coordinate bounds
  (``superset_lattice_box``), which contains every algebraic integer whose
  embeddings are bounded, so enumerating it is exhaustive;
* for k <= 2, O_K as a kernel ``Lattice`` in those 2^k-scaled coordinates
  (``ring_lattice``), read off the residue table, so that a scan of the
  trace-simplex box (``trace_simplex_job``) visits the integers only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .errors import ScanOverflowError
from .fields import FieldElement, MultiquadField, _scaled_char_poly
from .kernels import BoxScan, Lattice, embedding_margin, scan_box


def _charpoly_integral(field: MultiquadField, coords: list[int], den: int) -> bool:
    cpoly = _scaled_char_poly(field, coords)
    n = field.degree
    # char(x)(T) = char(den*x)(den*T) / den^n, so coefficient j must lose den^(n-j).
    return all(cpoly[j] % den ** (n - j) == 0 for j in range(n))


def integral_residue_table(field: MultiquadField) -> np.ndarray:
    """Boolean table over coordinate residues mod 2^k deciding integrality.

    Integrality of an element of the superset grid only depends on its
    coordinates modulo Z[sqrt(p_I)], so for k <= 2 a (2^k)^(2^k)-entry table
    answers membership in O(1).  Indexing: sum_I residue_I * (2^k)^I.
    """
    if field._residue_cache is None:
        scale = 1 << field.k
        size = scale ** field.degree
        if field.k > 2:
            raise ValueError("residue table only built for k <= 2")
        table = np.zeros(size, dtype=np.bool_)
        for idx in range(size):
            rem = idx
            coords = []
            for _ in range(field.degree):
                coords.append(rem % scale)
                rem //= scale
            g = 0
            for c in coords:
                g = gcd(g, c)
            den = scale // gcd(scale, g) if any(coords) else 1
            if den == 1:
                table[idx] = True
            else:
                reduced = [c // (scale // den) for c in coords]
                table[idx] = _charpoly_integral(field, reduced, den)
        field._residue_cache = table
    return field._residue_cache


def _residue_index(coords, scale: int):
    """Index into ``integral_residue_table`` of 2^k-scaled coordinates, given
    axis by axis (ints, or int arrays of rows)."""
    idx = 0
    power = 1
    for c in coords:
        idx += (c % scale) * power
        power *= scale
    return idx


def residue_lattice(modulus: int, degree: int, members: np.ndarray) -> Lattice:
    """The lattice {n in Z^degree : n mod modulus in H} as a kernel ``Lattice``.

    ``members`` marks H, a subgroup of (Z/modulus)^degree, indexed by sum_I
    r_I * modulus^I.  The residues of axis j that H allows once the earlier
    coordinates are fixed form a coset of G_j = {h_j : h in H, h_0 = ... =
    h_(j-1) = 0} = d_j Z/modulus, so axis j steps by d_j = modulus / |G_j|
    from the residue h_j mod d_j of any h in H with those earlier residues.
    """
    idx = np.flatnonzero(members)
    res = (idx[:, None] // modulus ** np.arange(degree)) % modulus  # one row per h in H
    steps = []
    residues = []
    for j in range(degree):
        below = np.all(res[:, :j] == 0, axis=1)
        d = modulus // len(np.unique(res[below, j]))
        table = np.zeros(modulus ** j, dtype=np.int64)
        table[res[:, :j] @ modulus ** np.arange(j)] = res[:, j] % d
        steps.append(d)
        residues.append(table)
    return Lattice(modulus, tuple(steps), tuple(residues))


def ring_lattice(field: MultiquadField) -> Lattice | None:
    """O_K in 2^k-scaled coordinates, from ``integral_residue_table``; None
    for k > 2, where there is no residue table."""
    if field.k > 2:
        return None
    if field._lattice_cache is None:
        field._lattice_cache = residue_lattice(1 << field.k, field.degree,
                                               integral_residue_table(field))
    return field._lattice_cache


def integral_mask(field: MultiquadField, coords: np.ndarray) -> np.ndarray:
    """Vectorized is_algebraic_integer over rows of 2^k-scaled coordinates.

    On the rows of a ``ring_lattice`` scan (k <= 2) it keeps every row.
    """
    if field.k <= 2:
        return integral_residue_table(field)[_residue_index(coords.T, 1 << field.k)]
    return np.array(
        [is_algebraic_integer(field.from_scaled(row, 1 << field.k))
         for row in coords],
        dtype=np.bool_,
    )


def is_algebraic_integer(x: FieldElement) -> bool:
    """True iff the characteristic polynomial of x has integer coefficients."""
    den, coords = x.scaled_coords()
    if den == 1:
        return True  # Z[sqrt(p_I)] consists of algebraic integers
    scale = 1 << x.field.k
    if scale % den != 0:
        # O_K lies inside (1/2^k) Z[sqrt(p_I)]; other denominators never occur.
        return False
    if x.field.k <= 2:
        step = scale // den
        idx = _residue_index([c * step for c in coords], scale)
        return bool(integral_residue_table(x.field)[idx])
    return _charpoly_integral(x.field, coords, den)


@dataclass(frozen=True)
class LatticeBox:
    """Finite subset of the superset lattice (1/2^k) Z[sqrt(p_I)].

    ``scaled_bounds[I]`` is the largest integer m with (m/2^k) sqrt(p_I) not
    exceeding the embedding bound, so the box is { sum (n_I/2^k) sqrt(p_I) :
    |n_I| <= scaled_bounds[I] }.  Guaranteed to contain every algebraic
    integer all of whose embeddings are bounded by the inputs.
    """

    field: MultiquadField
    scaled_bounds: tuple[int, ...]
    denominator: int

    def scan_job(self, emb_lo, emb_hi, *, ell_bound: int = -1) -> BoxScan:
        """Kernel job scanning this box against float embedding intervals."""
        field = self.field
        if max(self.scaled_bounds) > 1 << 62:
            raise ScanOverflowError("box coordinates would overflow int64")
        if max(field.radicands) >= 1 << 63:
            raise ScanOverflowError("radicands would overflow int64")
        lo = -np.array(self.scaled_bounds, dtype=np.int64)
        hi = np.array(self.scaled_bounds, dtype=np.int64)
        embed = field.embedding_matrix() / self.denominator
        emb_lo = np.asarray(emb_lo, dtype=np.float64)
        emb_hi = np.asarray(emb_hi, dtype=np.float64)
        margin = embedding_margin(emb_lo, emb_hi, embed, lo, hi)
        ell = np.array(field.radicands, dtype=np.int64)
        return BoxScan(lo, hi, embed, emb_lo, emb_hi, margin, ell, int(ell_bound))

    def element(self, coords) -> FieldElement:
        return self.field.from_scaled(coords, self.denominator)


def trace_simplex_box(field: MultiquadField, trace_bound: int) -> LatticeBox:
    """Box containing every totally positive element with trace <= trace_bound.

    A totally positive beta has coordinates a_I = 2^-k sum_s (+-) sigma_s(beta)
    / sqrt(p_I) with all sigma_s positive, so |a_I| <= Tr(beta) / (2^k sqrt(p_I)).
    That is 2^k times tighter per coordinate than the generic embedding box.
    """
    t = max(0, trace_bound)
    scaled = tuple(isqrt(t * t // p) for p in field.radicands)
    return LatticeBox(field, scaled, 1 << field.k)


def trace_simplex_job(field: MultiquadField, trace_bound: int, emb_hi,
                      *, ell_bound: int = -1) -> tuple[LatticeBox, BoxScan]:
    """Scan job for totally positive elements with trace in [1, trace_bound].

    The box is ``trace_simplex_box`` and the embedding windows are [0,
    emb_hi].  The scaled rational coordinate n_0 equals the trace, so axis 0
    runs over [1, trace_bound], so the box never holds the origin.  For k <= 2
    the job carries ``ring_lattice``, so the scan visits O_K's points of the
    box only; its budget and covered counts are still box points.
    """
    box = trace_simplex_box(field, trace_bound)
    job = box.scan_job(np.zeros(field.degree), emb_hi, ell_bound=ell_bound)
    lo = job.lo.copy()
    hi = job.hi.copy()
    lo[0] = 1
    hi[0] = trace_bound
    return box, replace(job, lo=lo, hi=hi, lattice=ring_lattice(field))


def totally_positive_integers_up_to_trace(field: MultiquadField, trace_bound: int,
                                          *, budget: int | None = None) -> list[FieldElement]:
    """Every totally positive x in O_K with Tr(x) <= trace_bound, odometer order.

    The scan enumerates O_K for k <= 2 (``trace_simplex_job``).  Exact
    confirmation: integrality first (integer arithmetic), then total
    positivity.
    """
    if trace_bound < 1:
        return []
    box, job = trace_simplex_job(field, trace_bound,
                                 np.full(field.degree, float(trace_bound)))
    out = []
    for coords, _ in scan_box(job, budget=budget):
        if not len(coords):
            continue
        for row in coords[integral_mask(field, coords)]:
            x = box.element(row)
            if x.is_totally_positive():
                out.append(x)
    return out


def superset_lattice_box(field: MultiquadField, embedding_bounds) -> LatticeBox:
    """Box of the superset lattice containing all integers bounded as given.

    ``embedding_bounds`` is one nonnegative rational per embedding.  The
    coordinate bound B_I = (max_s bound_s)/sqrt(p_I) is realized exactly on
    the lattice grid: the largest m with m^2 p_I <= (2^k max_s bound_s)^2.
    """
    bounds = [Fraction(b) for b in embedding_bounds]
    if len(bounds) != field.degree:
        raise ValueError(f"need {field.degree} embedding bounds, got {len(bounds)}")
    if any(b < 0 for b in bounds):
        raise ValueError("embedding bounds must be nonnegative")
    big = max(bounds)
    scale = 1 << field.k
    num = (scale * big.numerator) ** 2
    den = big.denominator ** 2
    scaled = tuple(isqrt(num // (den * p)) for p in field.radicands)
    return LatticeBox(field, scaled, scale)
