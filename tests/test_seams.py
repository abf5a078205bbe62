"""Differential tests at the seams where a fast path switches strategy.

The transform runs the +-1 butterflies over each run of 2-factors and numpy's
FFT over every other factor, so groups mixing the two are checked against the
character-matrix oracle.  Translate rows come from a window on cyclic groups
and are built digit by digit otherwise; both are checked against the
coordinate formula (x + n) mod m.  Every all-translates loop runs on blocks of
rows, so the progression sums are checked on groups where the last block is
partial, and the brute-force oracle against a literal tuple sum.
"""

from itertools import product

import numpy as np
import pytest

from conftest import naive_dft

from arithreg.applications import ap3_table, nu_weight
from arithreg.bohr import random_frequency_set
from arithreg.groups import (
    TRANSLATE_BLOCK_BYTES,
    character_table,
    coords_table,
    parse_group,
    ravel_coords,
    translate_indices,
    translate_rows,
    translate_values,
)
from arithreg.harmonic import DenseFn, Spectrum, brute_force_zero_sum, dft_many, idft
from arithreg.reg_general import SCALED, RegPair

MIXED_SHAPES = ["2^3x7x2^2", "3x2^4x5", "2^6x35", "2^12"]
TRANSLATE_SHAPES = ["2048", "2^11", "2049", "4096", "2^12", "4097", "2^6x35"]
BLOCK_SHAPES = ["2^6x35", "3^7", "4097"]


@pytest.fixture
def release_character_table():
    # the (Z/2)^12 matrix alone is 256 MB; do not keep it for the session
    yield
    character_table.cache_clear()


@pytest.mark.parametrize("spec", MIXED_SHAPES)
def test_dft_many_matches_naive(spec, rng, release_character_table):
    g = parse_group(spec)
    rows = rng.standard_normal((3, g.order))
    fast = dft_many(g, rows)
    for row, got in zip(rows, fast):
        assert np.max(np.abs(got - naive_dft(DenseFn(g, row)))) < 1e-9


@pytest.mark.parametrize("spec", MIXED_SHAPES)
def test_idft_matches_naive(spec, rng, release_character_table):
    g = parse_group(spec)
    f = DenseFn(g, rng.standard_normal(g.order))
    back, residue = idft(Spectrum(g, naive_dft(f)), return_residue=True)
    assert np.max(np.abs(back.values - f.values)) < 1e-9
    assert residue < 1e-9
    F = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    expected = (character_table(g).conj() @ F).real / g.order
    assert np.max(np.abs(idft(Spectrum(g, F)).values - expected)) < 1e-9


def coordinate_row(g, x: int) -> np.ndarray:
    c = coords_table(g)
    return ravel_coords(g, (c[x] + c) % np.asarray(g.factors))


def _sample(g, rng) -> list[int]:
    n = g.order
    return sorted({0, 1, n // 2, n - 1, *(int(x) for x in rng.integers(0, n, 6))})


@pytest.mark.parametrize("spec", TRANSLATE_SHAPES)
def test_translate_rows_match_coordinates(spec, rng):
    g = parse_group(spec)
    xs = _sample(g, rng)
    expected = np.stack([coordinate_row(g, x) for x in xs])
    assert np.array_equal(translate_rows(g, xs), expected)
    assert np.array_equal(translate_rows(g, np.asarray(xs)), expected)
    lo = g.order - 3
    block = translate_rows(g, range(lo, g.order))
    assert np.array_equal(block, np.stack([coordinate_row(g, x) for x in range(lo, g.order)]))
    values = rng.standard_normal(g.order)
    assert np.array_equal(translate_values(g, values, xs), values[expected])
    assert np.array_equal(translate_values(g, values, range(lo, g.order)), values[block])


@pytest.mark.parametrize("spec", TRANSLATE_SHAPES)
def test_translate_indices_match_coordinates(spec, rng):
    g = parse_group(spec)
    for x in _sample(g, rng):
        assert np.array_equal(translate_indices(g, x), coordinate_row(g, x))


def progression_formula(g, f: np.ndarray, h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sum_y f(y) h(y + d) k(y + 2d) per d, one coordinate row at a time."""
    out = np.zeros(g.order)
    for d in range(g.order):
        row = coordinate_row(g, d)
        out[d] = np.sum(f * h[row] * k[coordinate_row(g, int(row[d]))])
    return out


@pytest.mark.parametrize("spec", BLOCK_SHAPES)
def test_progression_sums_match_coordinates(spec, rng):
    g = parse_group(spec)
    rows_per_block = TRANSLATE_BLOCK_BYTES // (8 * g.order)
    assert 1 < rows_per_block < g.order and g.order % rows_per_block
    a = (rng.uniform(size=g.order) < 0.3).astype(float)
    assert np.array_equal(ap3_table(DenseFn(g, a)), progression_formula(g, a, a, a))
    if g.order % 2 == 0:
        return  # nu needs odd order
    chars = random_frequency_set(g, 2, rng)
    pair = RegPair(chars, 0.2, 3, 0.5, mode=SCALED, scale=2.0**60)
    s = pair.psi1.psi_sqrt.values
    psi2 = np.clip(pair.psi2.psi.values, 0.0, None)
    halved = np.array([psi2[coordinate_row(g, y)[y]] for y in range(g.order)])
    assert np.array_equal(nu_weight(pair).values, progression_formula(g, s, halved, s))


def test_brute_force_zero_sum_matches_literal_sum(rng):
    g = parse_group("2^3x7")
    n = g.order
    add = np.stack([coordinate_row(g, x) for x in range(n)]).tolist()
    neg = [row.index(0) for row in add]
    fs = [rng.integers(0, 3, n).astype(float) for _ in range(4)]
    f1, f2, f3, f4 = (f.tolist() for f in fs)
    literal = sum(
        f1[x1] * f2[x2] * f3[x3] * f4[neg[add[add[x1][x2]][x3]]]
        for x1, x2, x3 in product(range(n), repeat=3)
    )
    assert brute_force_zero_sum([DenseFn(g, f) for f in fs]) == literal
