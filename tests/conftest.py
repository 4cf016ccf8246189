import os
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mqf.fields import make_field
from mqf.integers import integral_residue_table


@pytest.fixture(autouse=True, scope="session")
def _children_import_src():
    """The CLI tests start `python -m mqf.cli` in child interpreters, which
    find the package under `src` only through PYTHONPATH: pytest's
    `pythonpath` setting reaches this process alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"),
                  prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def q2():
    return make_field([2])


@pytest.fixture(scope="session")
def q5():
    return make_field([5])


@pytest.fixture(scope="session")
def q23():
    return make_field([2, 3])


@pytest.fixture(scope="session")
def q32():
    return make_field([3, 2])


@pytest.fixture(scope="session")
def q235():
    return make_field([2, 3, 5])


def random_element(field, rng: random.Random, spread: int = 9, max_terms: int | None = None,
                   denominators=(1, 1, 2, 4)):
    """Sparse random element with small exact coefficients."""
    masks = list(range(field.degree))
    if max_terms is not None and max_terms < field.degree:
        masks = rng.sample(masks, max_terms)
    coeffs = {}
    for m in masks:
        num = rng.randint(-spread, spread)
        if num:
            coeffs[m] = Fraction(num, rng.choice(denominators))
    return field.element(coeffs)


def random_integer_element(field, rng: random.Random, spread: int = 6):
    """Random element of Z[sqrt(p_I)] (always an algebraic integer)."""
    return field.element({m: rng.randint(-spread, spread) for m in range(field.degree)})


def random_ok_element(field, rng: random.Random, spread: int = 4):
    """Random element of O_K (k <= 2): a random integral residue class of
    (1/2^k) Z[sqrt(p_I)] mod Z[sqrt(p_I)], plus 2^k times random integers
    in [-spread, spread] on the 2^k-scaled coordinates."""
    scale = 1 << field.k
    idx = rng.choice(np.flatnonzero(integral_residue_table(field)).tolist())
    coords = []
    for _ in range(field.degree):
        coords.append(idx % scale + scale * rng.randint(-spread, spread))
        idx //= scale
    return field.from_scaled(coords, scale)


def shift_totally_positive(x):
    """Smallest integer shift t making x + t totally positive (exact)."""
    lo_min = -max((-x).embedding_upper_bounds())
    t = 1
    if lo_min < 0:
        t += -lo_min.numerator // lo_min.denominator  # ceil(-lo_min)
    y = x + t
    assert y.is_totally_positive()
    return y


def random_tp_integer(field, rng: random.Random, spread: int = 6, use_residues: bool = False):
    """Random totally positive algebraic integer, via an exact positive shift."""
    if use_residues and field.k == 2:
        x = random_ok_element(field, rng, spread)
    else:
        x = random_integer_element(field, rng, spread)
    return shift_totally_positive(x)
