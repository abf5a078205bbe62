"""Differential tests at the seams where a fast path switches strategy.

The transform runs the +-1 butterflies over each run of 2-factors and numpy's
FFT over every other factor, so groups mixing the two are checked against the
character-matrix oracle.  Translate rows come from the dense table up to order
2048 and are built on demand above it, from a window on cyclic groups and
digit by digit otherwise; both sides of each switch are checked against the
coordinate formula (x + n) mod m.
"""

import numpy as np
import pytest

from conftest import naive_dft

from arithreg.errors import ResourceBudgetError
from arithreg.groups import (
    add_index_table,
    character_table,
    coords_table,
    parse_group,
    ravel_coords,
    translate_indices,
    translate_rows,
    translate_values,
)
from arithreg.harmonic import DenseFn, Spectrum, dft_many, idft

MIXED_SHAPES = ["2^3x7x2^2", "3x2^4x5", "2^6x35", "2^12"]
TABLE_SEAM_SHAPES = ["2048", "2^11", "2049", "4096", "2^12", "4097", "2^6x35"]


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


@pytest.mark.parametrize("spec", TABLE_SEAM_SHAPES)
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


@pytest.mark.parametrize("spec", TABLE_SEAM_SHAPES)
def test_translate_indices_match_coordinates(spec, rng):
    g = parse_group(spec)
    for x in _sample(g, rng):
        assert np.array_equal(translate_indices(g, x), coordinate_row(g, x))


@pytest.mark.parametrize("spec", TABLE_SEAM_SHAPES)
def test_add_index_table_matches_coordinates(spec):
    g = parse_group(spec)
    if g.order > 2048:
        with pytest.raises(ResourceBudgetError):
            add_index_table(g)
        return
    table = add_index_table(g)
    assert table.shape == (g.order, g.order)
    assert not table.flags.writeable
    for x in range(g.order):
        assert np.array_equal(table[x], coordinate_row(g, x))
