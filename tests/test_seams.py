"""Differential tests at the seams where a fast path switches strategy.

The transform runs the +-1 butterflies over each run of 2-factors and numpy's
FFT over every other factor, so groups mixing the two are checked against the
character-matrix oracle.  The butterflies run their short stages on
transposed slabs, so they are pinned bitwise to the plain stage loop and to
the integer transform.  Translate rows are built digit by digit, and a
single row on a cyclic group is a view of a window over a doubled arange;
both are checked against the coordinate formula (x + n) mod m.  The
whole-group maps -x, 2x and the character numerators are summed from
per-digit tables, so each is pinned to its coordinate formula wherever the
digits split differently, factors 1 included, and its memory peak on
(Z/2)^20 is held below four index arrays; the characters on 3^13 are held to
one complex buffer.  Every all-translates loop runs on blocks of rows, so the
progression sums are checked on groups where the last block is partial.  The
brute-force oracle sums from the inside out over blocks of translate rows, so
it is pinned to a literal tuple sum for k = 2 to 5 on cyclic, (Z/2)^n and
mixed groups, and its peak at the budget seam is held to a block.  On a cyclic
group the progression table is a popcount of packed 64-bit words, so it is
checked where the last word is partial or full and where N is even, and its
memory peak is held below that of the float translate rows.  On a cyclic
group the progression sums read their translates from windows into one
buffer, so nu is pinned bitwise to the coordinate formula wherever the blocks
fall differently, and its memory peak is held to about one block.  The tower
levels are broadcast from per-prefix tables and checked by folding f's
blocks, so their peaks are held to the arrays the construction keeps.  The
regularity profile runs on blocks of translate rows, so it is pinned bitwise
to a one-row-per-call reference and its memory peak is bounded.  The
regularity state decides most rows from one transform per coset of ker R
wherever psi2 is uniform on ker R up to rounding, and sends only the rest
through that kernel, so every decision it makes (counts, reduction,
refinement step) is pinned to the state built on the exact profile, on fixed
and on random pairs, and every value it screens to within its certified
margin.  Cutoff part v reads each pair of translate rows {z, -z} once, turns
blocks of them into their excess in place and decides infinite coefficients
in closed form, so its maximum is pinned bitwise to the whole-table oracle,
also by a property over shapes with self-inverse rows, where the last block
is partial and where roundoff makes the report false; coefficients that
differ at y and -y raise, and its memory peak is bounded.  Parts
vi-viii smooth with the finer cutoff's stored transform, so each lhs is
pinned bitwise to fresh convolutions.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import naive_dft
from oracles import _shift_violation, coords_table, translate_values

from arithreg.applications import (
    _progression_sums,
    ap3_table,
    build_tower_function,
    nu_weight,
    verify_tower_step,
)
from arithreg import reg_general
from arithreg.bohr import (
    _shift_excess,
    _sinh_coeffs,
    bohr_set,
    check_cutoff_property,
    fine_width,
    make_cutoff,
    make_frequency_set,
    norm_numerators,
    random_frequency_set,
)
from arithreg.errors import InternalCheckError
from arithreg.groups import (
    TRANSLATE_BLOCK_BYTES,
    _char_numerators,
    _multiple_index,
    char_values,
    character_table,
    neg_index,
    parse_group,
    ravel_coords,
    translate_indices,
    translate_rows,
)
from arithreg.harmonic import (
    DenseFn,
    Spectrum,
    _butterflies,
    _transform,
    brute_force_zero_sum,
    convolve,
    dft_many,
    idft,
    indicator,
)
from arithreg.reg_general import (
    FAITHFUL,
    SCALED,
    RegPair,
    _PairState,
    _reduce,
    _refine_pair_detailed,
    regular_value_profile,
    trivial_pair,
)

MIXED_SHAPES = ["2^3x7x2^2", "3x2^4x5", "2^6x35", "2^12"]
TRANSLATE_SHAPES = ["2048", "2^11", "2049", "4096", "2^12", "4097", "2^6x35"]
BLOCK_SHAPES = ["2^6x35", "3^7", "4097"]
# partial last words, exact multiples of 64, and even N, where 2d mod N repeats
CYCLIC_AP3_ORDERS = [1, 63, 64, 65, 127, 129, 4096, 4097]
# odd orders where the nu blocks fall differently from BLOCK_SHAPES' 4097
CYCLIC_NU_ORDERS = [1, 3, 101, 2001]
# last profile block partial (2049, 4097, 2^6x35), a 2-run after an FFT digit
# (3x2^4x5, 2^3x7x2^2), and pure (Z/2)^11
PROFILE_SHAPES = ["2049", "4097", "2^6x35", "3x2^4x5", "2^3x7x2^2", "2^11"]
PART_V_SHAPES = ["101", "1001", "2001", "2^3x7", "5x5x3", "4x3x5", "2^11"]
# index maps: the translate and part v shapes, 3^7, and factors 1, which
# index_digits drops together with their frequencies
INDEX_MAP_SHAPES = list(
    dict.fromkeys(TRANSLATE_SHAPES + PART_V_SHAPES + ["3^7", "1", "1x4", "2x1x2x3"])
)


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
    F = Spectrum(g, naive_dft(f))
    back = idft(F)
    residue = np.max(np.abs(_transform(g, F.values, inverse=True).imag))
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
    # on a cyclic group every row is a view of one window, not a fresh array
    cyclic = len(g.factors) == 1
    assert np.shares_memory(translate_indices(g, 0), translate_indices(g, 1)) == cyclic


@pytest.mark.parametrize("spec", INDEX_MAP_SHAPES)
def test_index_maps_match_coordinates(spec, rng):
    g = parse_group(spec)
    n, L = g.order, g.exponent_lcm
    c, m = coords_table(g), np.asarray(g.factors)
    assert np.array_equal(neg_index(g), ravel_coords(g, -c % m))
    assert np.array_equal(_multiple_index(g, 2), ravel_coords(g, 2 * c % m))
    # every character where N <= 300, a seeded sample elsewhere
    for i in range(n) if n <= 300 else rng.choice(n, 40, replace=False):
        gamma = g.character_at(int(i))
        w = np.asarray([f * (L // mj) for f, mj in zip(gamma.freqs, g.factors)])
        assert np.array_equal(_char_numerators(g, gamma), c @ w % L)


def _cold_peak(fn, *args) -> int:
    neg_index.cache_clear()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        neg_index.cache_clear()


def test_index_map_peaks_hold_no_coordinate_table():
    # built from the index digits: an (N, rank) table alone would be 160 MiB here
    g = parse_group("2^20")
    bound = 4 * g.order * 8
    assert _cold_peak(neg_index, g) < bound
    assert _cold_peak(char_values, g, g.character_at(g.order - 1)) < bound


def test_char_values_peak_is_one_complex_buffer():
    # exp(2j pi num / L) in place: the numerators and one complex array, where
    # the expression form held two complex temporaries at once (61 MiB here)
    g = parse_group("3^13")
    assert _cold_peak(char_values, g, g.character_at(g.order - 1)) < 2 * g.order * 16


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


@pytest.mark.parametrize("n", CYCLIC_NU_ORDERS)
def test_cyclic_nu_weight_matches_coordinates(n, rng):
    # the window path: one block of all n rows (1, 3, 101), 65-row blocks, the last partial (2001)
    g = parse_group(str(n))
    chars = random_frequency_set(g, min(2, n - 1), rng)
    pair = RegPair(chars, 0.2, 3, 0.5, mode=SCALED, scale=2.0**60)
    s = pair.psi1.psi_sqrt.values
    psi2 = np.clip(pair.psi2.psi.values, 0.0, None)
    halved = psi2[2 * np.arange(n) % n]
    assert np.array_equal(nu_weight(pair).values, progression_formula(g, s, halved, s))


@pytest.mark.parametrize("n", CYCLIC_AP3_ORDERS)
def test_packed_progression_table_matches_coordinates(n, rng):
    g = parse_group(str(n))
    a = (rng.uniform(size=n) < 0.4).astype(float)
    assert np.array_equal(ap3_table(DenseFn(g, a)), progression_formula(g, a, a, a))
    assert np.array_equal(ap3_table(DenseFn(g, np.ones(n))), np.full(n, float(n)))


def _peak_bytes(fn, *args) -> int:
    fn(*args)  # fill the caches outside the measurement
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", ["2001", "4097"])
def test_packed_table_peak_is_below_the_float_rows(spec, rng):
    g = parse_group(spec)
    a = (rng.uniform(size=g.order) < 0.3).astype(float)
    float_rows = _peak_bytes(_progression_sums, g, a, a, a)
    assert _peak_bytes(ap3_table, DenseFn(g, a)) <= float_rows


def test_cyclic_nu_weight_peak_is_one_block():
    # g and h are read from windows into one reused buffer: no copied rows, no temporaries
    pair = trivial_pair(parse_group("4097"), 3, 0.05)
    assert _peak_bytes(nu_weight, pair) < 1.5 * TRANSLATE_BLOCK_BYTES


def test_tower_check_peak_is_below_f():
    # the check folds f's own blocks: no coset grid, no gather of f through it
    spec, f = build_tower_function(18, 3, 0)
    assert _peak_bytes(verify_tower_step, spec, f, spec.chain[0], 0, 0.04) < f.values.nbytes


def test_tower_build_peak_is_f_alone():
    # each level stays its (prefix, block) table: no 2^n level set, index array or parity pass
    spec, f = build_tower_function(18, 3, 0)
    assert _peak_bytes(build_tower_function, 18, 3, 0) <= f.values.nbytes + 2**20


@pytest.mark.parametrize("spec, k", [
    *((spec, k) for spec in ["13", "2^4", "2x3x2"] for k in (2, 3, 4, 5)), ("2^3x7", 4),
])
def test_brute_force_zero_sum_matches_literal_sum(spec, k, rng):
    # k = 2 pairs f_1 with f_2(-x); k = 3 has no inner pass; 4 and 5 have one and two
    g = parse_group(spec)
    n = g.order
    add = np.stack([coordinate_row(g, x) for x in range(n)]).tolist()
    neg = [row.index(0) for row in add]
    fs = [rng.integers(-2, 3, n).astype(float) for _ in range(k)]
    vals = [f.tolist() for f in fs]
    literal = 0.0
    for xs in product(range(n), repeat=k - 1):
        s, term = 0, 1.0
        for x, f in zip(xs, vals):
            s, term = add[s][x], term * f[x]
        literal += term * vals[-1][neg[s]]
    assert brute_force_zero_sum([DenseFn(g, f) for f in fs]) == literal


def test_brute_force_zero_sum_peak_at_the_budget_seam_is_one_block(rng):
    # k = 3 on Z/4472 ranges over N^2 = 19998784 tuples, just inside the
    # budget; an N x N array of them would be 153 MiB, one translate block is 1 MiB
    g = parse_group("4472")
    fs = [DenseFn(g, (rng.uniform(size=g.order) < 0.2).astype(float)) for _ in range(3)]
    assert _peak_bytes(brute_force_zero_sum, fs) < 2 * TRANSLATE_BLOCK_BYTES


def stage_loop(a: np.ndarray) -> None:
    """The butterflies as one plain loop over the stages, most significant first."""
    lead, n, s = a.shape[:-2], a.shape[-2], a.shape[-1]
    h = n // 2
    while h:
        view = a.reshape(lead + (n // (2 * h), 2, h * s))
        lo = view[..., 0, :]
        hi = view[..., 1, :]
        tmp = lo.copy()
        lo += hi
        np.subtract(tmp, hi, out=hi)
        h //= 2


def hadamard(n: int) -> np.ndarray:
    """The n x n +-1 Sylvester matrix with entry (-1)^popcount(i & j)."""
    i = np.arange(n)
    return 1 - 2 * (np.bitwise_count(i[:, None] & i) & 1).astype(np.int64)


@pytest.mark.parametrize("shape", [(37, 2048, 1), (37, 1024, 3), (5, 64, 35), (1, 8, 1), (3, 2, 1)])
def test_butterflies_match_stage_loop_and_integer_transform(shape, rng):
    # (37, 2048, 1) and (37, 1024, 3) need two slabs, the second one partial;
    # s = 35 has no short stage
    a = rng.standard_normal(shape)
    expected = a.copy()
    stage_loop(expected)
    _butterflies(a)
    assert np.array_equal(a, expected)
    z = rng.integers(-50, 50, shape)
    exact = np.einsum("jk,bks->bjs", hadamard(shape[1]), z)
    _butterflies(z)
    assert z.dtype == np.int64 and np.array_equal(z, exact)


def profile_pairs(g):
    faithful = make_frequency_set(
        g, [g.character([int(k == j) for k in range(g.rank)]) for j in range(g.rank)]
    )
    degenerate = RegPair(faithful, 0.5, 3, 0.1)
    assert degenerate.degenerate
    return [
        trivial_pair(g, 3, 0.1),
        trivial_pair(g, 3, 0.1, SCALED, 2.0**60, seed_chars=[g.character_at(1)]),
        degenerate,
    ]


@pytest.mark.parametrize("spec", PROFILE_SHAPES)
def test_profile_matches_row_by_row_reference(spec, rng):
    g = parse_group(spec)
    A = DenseFn(g, (rng.uniform(size=g.order) < 0.3).astype(float))
    # every 11th row and all of the last, partial block
    rows_per_block = TRANSLATE_BLOCK_BYTES // (8 * g.order)
    xs = sorted({*range(0, g.order, 11), *range(g.order - g.order % rows_per_block, g.order)})
    for pair in profile_pairs(g):
        a1 = convolve(A, pair.psi1.psi).values
        a2 = convolve(A, pair.psi2.psi).values
        smooth_sq = convolve(pair.psi1.psi, DenseFn(g, a2 * a2)).values
        smooth = convolve(pair.psi1.psi, DenseFn(g, a2)).values
        cond1, cond2, worst, p_a1, p_a2 = regular_value_profile(A, pair)
        # the stored cutoff transforms stand in for fresh ones bit for bit
        assert np.array_equal(p_a1, a1) and np.array_equal(p_a2, a2)
        expanded = smooth_sq - 2.0 * a1 * smooth + a1 * a1
        assert expanded.min() > -1e-12  # only rounding is clamped away
        assert np.array_equal(cond1, np.maximum(expanded, 0.0))
        for x in xs:
            row = (translate_values(g, A.values, [x]) - a2[x]) * pair.psi2.psi.values
            mags = np.abs(dft_many(g, row))[0]
            assert worst[x] == np.argmax(mags)
            assert cond2[x] == mags[worst[x]]


@pytest.mark.parametrize("spec", ["4096", "2^12"])
def test_profile_memory_peak_is_bounded(spec, rng):
    # 1 MiB blocks of rows and their transforms: about 4.4-5.3 MiB; per-block
    # temporaries of 256 rows took 32-48 MiB here
    g = parse_group(spec)
    A = DenseFn(g, (rng.uniform(size=g.order) < 0.3).astype(float))
    pair = trivial_pair(g, 3, 0.1)
    regular_value_profile(A, pair)  # fill the caches outside the measurement
    tracemalloc.start()
    try:
        regular_value_profile(A, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("spec", ["4096", "2^12"])
def test_state_memory_peak_at_a_point_mass_is_bounded(spec, rng):
    # the coset screen decides every row here with no transform (K = {0}): a
    # few length-N arrays per profile, no per-row temporaries
    g = parse_group(spec)
    A = DenseFn(g, (rng.uniform(size=g.order) < 0.3).astype(float))
    pair = profile_pairs(g)[-1]
    _PairState([A], pair)  # fill the caches outside the measurement
    tracemalloc.start()
    try:
        _PairState([A], pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_state_memory_peak_with_many_cosets_is_bounded(rng, kernel_rows):
    # eleven coordinate characters of (Z/2)^12 leave |ker R| = 2: 2,048
    # cosets, each with its own transform, which the screen makes in blocks
    g = parse_group("2^12")
    chars = make_frequency_set(
        g, [g.character([int(k == j) for k in range(12)]) for j in range(11)]
    )
    pair = RegPair(chars, 0.5, 3, 0.1)
    assert not pair.degenerate and np.count_nonzero(norm_numerators(chars) == 0) == 2
    A = DenseFn(g, (rng.uniform(size=g.order) < 0.3).astype(float))
    _PairState([A], pair)  # fill the caches outside the measurement
    kernel_rows[0] = 0
    tracemalloc.start()
    try:
        _PairState([A], pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert kernel_rows[0] == 0


def exact_state(As, pair, monkeypatch):
    """The state on the exact profile (every row through the kernel) and its refinement step."""
    with monkeypatch.context() as m:
        m.setattr(reg_general, "_screened_profile",
                  lambda A, state: regular_value_profile(A, state.pair))
        state = _PairState(As, pair)
        return state, None if state.regular else _refine_pair_detailed(state)[1]


def assert_same_decisions(As, pair, monkeypatch):
    """The screened state decides as the exact one: counts, reduction, one refinement step.

    Returns the exact state.
    """
    screened = _PairState(As, pair)
    exact, reference = exact_state(As, pair, monkeypatch)
    assert screened.counts == exact.counts and screened.regular == exact.regular
    for got, want in zip(_reduce(screened), _reduce(exact)):
        assert np.array_equal(got.values, want.values)
    if reference is not None:
        # branch, aligned count, cond1/cond2 failure counts, witnesses, index gain, ...
        assert _refine_pair_detailed(screened)[1] == reference
    return exact


def kernel_profile(A, pair, monkeypatch):
    """The state's profile of A and the rows it sent through the cond2 kernel."""
    sent: list[int] = []
    rows = reg_general._cond2_rows

    def recorded(A, xs, *args):
        sent.extend(xs)
        return rows(A, xs, *args)

    with monkeypatch.context() as m:
        m.setattr(reg_general, "_cond2_rows", recorded)
        (profile,) = _PairState([A], pair).profiles
    return profile, np.asarray(sent, dtype=np.int64)


def interval(g):
    """{x : ||x||_gamma <= 1/6}, gamma the character at index 1: irregular at the trivial pair."""
    return indicator(g, bohr_set(make_frequency_set(g, [g.character_at(1)]), 1 / 6))


@pytest.mark.parametrize("spec", PROFILE_SHAPES)
def test_screened_state_decides_as_the_exact_profile(spec, rng, monkeypatch, kernel_rows):
    g = parse_group(spec)
    random_set = DenseFn(g, (rng.uniform(size=g.order) < 0.3).astype(float))
    trivial, *far = profile_pairs(g)
    # the random set passes every row on the screen; the interval fails every
    # row there, and its refinement step takes the witnesses from kernel rows
    assert_same_decisions([random_set], trivial, monkeypatch)
    assert_same_decisions([interval(g)], trivial, monkeypatch)
    kernel_rows[0] = 0
    _PairState([random_set, interval(g)], trivial)
    assert kernel_rows[0] == 0
    for pair in far:
        # seeded and degenerate: psi2 is uniform on ker R up to rounding where
        # the seed character takes only the values +-1 or R spans the dual, and
        # far from it otherwise; a decided row sits on the exact profile's side
        # of eps within the screen's margin, and every other row is the exact
        # profile's bit for bit
        for A in (random_set, interval(g)):
            (want,) = assert_same_decisions([A], pair, monkeypatch).profiles
            got, rows = kernel_profile(A, pair, monkeypatch)
            for field in ("cond1", "a1", "a2"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
            assert np.array_equal(got.cond2[rows], want.cond2[rows])
            assert np.array_equal(got.worst[rows], want.worst[rows])
            decided = np.setdiff1d(np.arange(g.order), rows)
            assert_screened(got, want, decided, pair, A)
    # faithful mode collapses psi2 to a point mass: every row is
    # A(x) - alpha2(x) at every character, and none takes the kernel
    kernel_rows[0] = 0
    _PairState([random_set, interval(g)], far[-1])
    assert kernel_rows[0] == 0


def screen_margin(A, pair):
    """M(x) of _screened_profile, restated: spread dev + K(x) + r sqrt(N) ||A||_2 / |K|."""
    n, psi = A.group.order, pair.psi2.psi.values
    kernel = (norm_numerators(pair.chars) == 0).astype(float)
    a2 = convolve(A, pair.psi2.psi).values
    spread = np.maximum(A.values.max() - a2, a2 - A.values.min())
    dev = np.abs(psi - kernel / kernel.sum()).sum()
    r = 64 * max(np.log2(n), 1.0) * 2.0**-53
    kernel_error = r * (np.sqrt(n) * spread * np.linalg.norm(psi) + 1.0)
    return spread * dev + kernel_error + r * np.sqrt(n) * np.linalg.norm(A.values) / kernel.sum()


def assert_screened(got, want, decided, pair, A):
    """Rows decided on the screen: the kernel's side of eps and of perp, within the margin."""
    eps = pair.eps
    perp = pair.psi2.psi_hat.values.real >= eps / 6.0
    assert np.array_equal(got.cond2[decided] > eps, want.cond2[decided] > eps)
    assert np.all(np.abs(got.cond2 - want.cond2)[decided] <= screen_margin(A, pair)[decided])
    failed = decided[want.cond2[decided] > eps]
    assert np.array_equal(perp[got.worst[failed]], perp[want.worst[failed]])


def test_rows_at_eps_take_the_kernel(rng, monkeypatch, kernel_rows):
    # eps = S(x) = max_{gamma != 0} |A^(gamma)| / N on every row: none is decided
    g = parse_group("2049")
    A = DenseFn(g, (rng.uniform(size=g.order) < 0.3).astype(float))
    eps = float(np.max(np.abs(dft_many(g, A.values[None])[0, 1:]) / g.order))
    pair = trivial_pair(g, 3, eps)
    assert_same_decisions([A], pair, monkeypatch)
    kernel_rows[0] = 0
    _PairState([A], pair)
    assert kernel_rows[0] == g.order


def test_rows_within_the_margin_take_the_kernel(monkeypatch, kernel_rows):
    # psi2 is 0.3 in L1 from uniform on the seed's kernel: every row of the
    # interval screens to about 0.15 and is about 0.26, so at eps = 0.2 each
    # lies within its margin and none is decided
    g = parse_group("2^11")
    pair = trivial_pair(g, 3, 0.2, SCALED, 2.0**58, seed_chars=[g.character_at(1)])
    assert 0.25 < reg_general._cosets(pair)[2] < 0.5
    assert_same_decisions([interval(g)], pair, monkeypatch)
    kernel_rows[0] = 0
    _PairState([interval(g)], pair)
    assert kernel_rows[0] == g.order


def test_a_pair_far_from_uniform_on_its_kernel_sends_every_row_to_the_kernel(
    monkeypatch, kernel_rows
):
    # this wide psi2 is about 0.9 in L1 from uniform on the seed's kernel, so
    # K-perp is not certain and no coset screens; the set's values lie in
    # [0.4, 0.6], so spread dev stays under eps and a screen that took the
    # pair anyway would decide rows
    g = parse_group("2^11")
    pair = trivial_pair(g, 3, 0.3, SCALED, 2.0**66, seed_chars=[g.character_at(1)])
    kernel = norm_numerators(pair.chars) == 0
    assert np.abs(pair.psi2.psi.values - kernel / kernel.sum()).sum() > 0.5
    A = DenseFn(g, 0.4 + 0.2 * interval(g).values)
    assert screen_margin(A, pair).max() < pair.eps
    assert_same_decisions([A], pair, monkeypatch)
    kernel_rows[0] = 0
    _PairState([A], pair)
    assert kernel_rows[0] == g.order


def test_failing_rows_level_across_perp_take_the_kernel(kernel_rows):
    # at the trivial pair every row of the interval fails on the screen, at
    # |A^(+-gamma)| / N with gamma the character at index 1.  The pair's own
    # perp is even, so it holds both or neither; a perp holding gamma but not
    # -gamma puts equal screened maxima on its two sides, and which side the
    # worst character lies on is then not certain: every row takes the kernel
    g = parse_group("2049")
    A, pair = interval(g), trivial_pair(g, 3, 0.1)
    state = _PairState([A], pair)
    state.perp = np.isin(np.arange(g.order), [0, 1])
    want = regular_value_profile(A, pair)
    assert np.all(want.cond2 > pair.eps + screen_margin(A, pair))
    assert set(want.worst) <= {1, g.order - 1}
    kernel_rows[0] = 0
    got = reg_general._screened_profile(A, state)
    assert kernel_rows[0] == g.order
    assert np.array_equal(got.cond2, want.cond2) and np.array_equal(got.worst, want.worst)


@st.composite
def screened_cases(draw):
    """(set, pair) on a PROFILE_SHAPES group.

    The set is an indicator, [0, 1]-valued, or stretched to [-0.25, 1.25];
    the pair is scaled, or faithful, where psi2 is uniform on ker R.
    """
    g = parse_group(draw(st.sampled_from(PROFILE_SHAPES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        members = rng.uniform(size=g.order) < draw(st.floats(0.01, 0.99))
    else:
        gamma = make_frequency_set(g, [g.character_at(int(rng.integers(1, g.order)))])
        members = np.zeros(g.order, dtype=bool)
        members[bohr_set(gamma, draw(st.floats(0.02, 0.45)))] = True
    # blur 0 keeps the indicator; otherwise values move into (0, 1)
    blur = draw(st.sampled_from([0.0, 0.01, 0.2]))
    shift = blur * rng.uniform(size=g.order)
    stretch = draw(st.sampled_from([1.0, 1.5]))
    A = DenseFn(g, stretch * (np.where(members, 1.0 - shift, shift) - 0.5) + 0.5)
    chars = make_frequency_set(
        g, [g.character_at(int(c)) for c in rng.integers(1, g.order, draw(st.integers(0, 3)))]
    )
    eta = draw(st.sampled_from([1.0, 0.5, 0.2, 0.05, 0.02]))
    eps = draw(st.sampled_from([0.05, 0.1, 0.3]))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return A, RegPair(chars, eta, k, eps, FAITHFUL)
    return A, RegPair(chars, eta, k, eps, SCALED, 2.0 ** draw(st.integers(30, 70)))


# an example makes up to two all-rows profiles, about a second each on Z/4097
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(screened_cases())
def test_screened_state_decides_as_the_exact_profile_on_random_pairs(monkeypatch, case):
    A, pair = case
    (want,) = assert_same_decisions([A], pair, monkeypatch).profiles
    got, rows = kernel_profile(A, pair, monkeypatch)
    assert np.array_equal(got.cond2[rows], want.cond2[rows])
    assert_screened(got, want, np.setdiff1d(np.arange(A.group.order), rows), pair, A)


@pytest.mark.parametrize("spec", PROFILE_SHAPES)
def test_a_set_outside_the_unit_interval_takes_the_kernel_at_a_point_mass(spec, rng, monkeypatch):
    # values in [-0.25, 1.25]: the screen needs no range of values, and at the
    # degenerate pair (ker R = {0}) it decides every row with no transform
    g = parse_group(spec)
    A = DenseFn(g, 1.5 * interval(g).values - 0.25 + rng.uniform(0.0, 0.01, g.order))
    pair = profile_pairs(g)[-1]
    (want,) = assert_same_decisions([A], pair, monkeypatch).profiles
    got, rows = kernel_profile(A, pair, monkeypatch)
    assert rows.size == 0
    assert_screened(got, want, np.arange(g.order), pair, A)


def test_screen_on_a_set_that_is_not_an_indicator(rng, monkeypatch, kernel_rows):
    # values in [-0.5, 2]: the spread of A around alpha2 exceeds 1
    g = parse_group("2^6x35")
    A = DenseFn(g, 1.5 * interval(g).values + rng.uniform(-0.5, 0.5, g.order))
    pair = trivial_pair(g, 3, 0.1)
    assert_same_decisions([A], pair, monkeypatch)
    kernel_rows[0] = 0
    assert not _PairState([A], pair).regular
    assert kernel_rows[0] == 0


def _same_float(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


@pytest.mark.parametrize("spec", PART_V_SHAPES)
def test_part_v_kernel_matches_the_whole_table_oracle(spec, rng):
    # on Z/2001 the 65-row blocks leave a partial last block of 51 rows
    g = parse_group(spec)
    fs = random_frequency_set(g, 2, rng)
    psi = make_cutoff(fs, 0.1).psi.values
    coeffs = _sinh_coeffs(fs, 0.1)
    assert _same_float(_shift_excess(g, psi, coeffs), _shift_violation(g, psi, coeffs))
    # small coefficients, equal at y and -y: the maximum is a real excess
    vals = rng.uniform(-0.5, 1.0, g.order)
    small = rng.uniform(0.0, 0.5, g.order)
    small = np.minimum(small, small[neg_index(g)])
    got = _shift_excess(g, vals, small)
    assert got > 0 and _same_float(got, _shift_violation(g, vals, small))


@pytest.mark.parametrize("n", [101, 2001])
def test_part_v_kernel_takes_the_absolute_difference(n):
    # a falling ramp on Z/n checked at y = +-1 alone: its one large step,
    # f(0) - f(-1), has f(x) above f(x - y) at y = 1
    g = parse_group(str(n))
    vals = 0.9 - 0.8 * np.arange(n) / n
    coeffs = np.full(n, 1e3)
    coeffs[[0, 1, -1]] = 0.0
    got = _shift_excess(g, vals, coeffs)
    assert _same_float(got, _shift_violation(g, vals, coeffs))
    assert got == pytest.approx(0.8 * (n - 1) / n)


@pytest.mark.parametrize("spec, d, delta, excess", [
    ("101", 1, 1e-2, 3.9e5),
    ("101", 2, 1e-3, 4.4e199),
    ("1001", 1, 1e-3, 3.4e200),
    ("1001", 2, 1e-4, np.inf),
])
def test_part_v_reproduces_the_roundoff_violations(spec, d, delta, excess):
    # psi underflows to entries just below zero; the false violations stay
    g = parse_group(spec)
    fs = random_frequency_set(g, d, np.random.default_rng(0))
    rep = check_cutoff_property("v", fs, delta)
    oracle = _shift_violation(g, make_cutoff(fs, delta).psi.values, _sinh_coeffs(fs, delta))
    assert _same_float(rep.details["max_excess"], oracle) and not rep.holds
    assert rep.lhs == pytest.approx(excess, rel=0.05)


@pytest.mark.parametrize("spec", ["101", "5x5x3"])
@pytest.mark.parametrize("negative", [False, True])
def test_part_v_infinite_coefficients(spec, negative, rng):
    g = parse_group(spec)
    vals = rng.uniform(0.0, 1.0, g.order)
    vals[rng.choice(g.order, 5, replace=False)] = 0.0  # 0 * inf reads as +inf
    if negative:
        vals[rng.choice(g.order, 3, replace=False)] = -1e-17
    coeffs = rng.uniform(0.0, 2.0, g.order)
    coeffs[rng.choice(g.order, g.order // 3, replace=False)] = np.inf
    coeffs = np.maximum(coeffs, coeffs[neg_index(g)])  # infinite at y and -y alike
    got = _shift_excess(g, vals, coeffs)
    assert _same_float(got, _shift_violation(g, vals, coeffs))
    assert (got == np.inf) == negative
    coeffs[:] = np.inf  # every row decided in closed form
    assert _same_float(_shift_excess(g, vals, coeffs), _shift_violation(g, vals, coeffs))


@pytest.mark.parametrize("spec", ["101", "2^3x7"])
def test_part_v_kernel_requires_coefficients_symmetric_under_negation(spec, rng):
    # the kernel reads rows z and -z together, so one coefficient serves both
    g = parse_group(spec)
    fs = random_frequency_set(g, 2, rng)
    vals = make_cutoff(fs, 0.1).psi.values
    unpaired = np.flatnonzero(neg_index(g) != np.arange(g.order))
    for y, ulp_off in [(unpaired[0], False), (unpaired[-1], True)]:
        coeffs = _sinh_coeffs(fs, 0.1)
        coeffs[y] = np.nextafter(coeffs[y], np.inf) if ulp_off else np.inf
        with pytest.raises(InternalCheckError, match="differ at some y and -y"):
            _shift_excess(g, vals, coeffs)


# z = 32 is its own negative on Z/64, every row is on (Z/2)^6, and Z/2001
# leaves a partial last block of paired rows
PART_V_PROPERTY_SHAPES = ["64", "2^6", "2^3x7", "2x2x3", "2001"]


@st.composite
def part_v_cases(draw):
    """(group, f, coeffs): coefficients a function of the norm numerators, with
    zeros and infinities on numerator classes, and f a cutoff or a random
    function, with a few entries of -1e-17 and 0."""
    g = parse_group(draw(st.sampled_from(PART_V_PROPERTY_SHAPES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = random_frequency_set(g, draw(st.sampled_from([0, 1, 2, 2])), rng)
    delta = draw(st.sampled_from([1e-3, 0.05, 0.1, 0.5]))
    nums = norm_numerators(fs)
    coeffs = _sinh_coeffs(fs, delta) * draw(st.sampled_from([1.0, 1e-2, 1e-4]))
    modulus = draw(st.integers(2, 5))
    for value, odds in ((0.0, [False, True]), (np.inf, [False, False, False, True])):
        if draw(st.sampled_from(odds)):
            coeffs[nums % modulus == draw(st.integers(0, modulus - 1))] = value
    # a cutoff is even, which would hide a kernel that bounds a pair by one
    # side only; a random f does not
    low = draw(st.sampled_from([None, 0.0, -0.5]))
    if low is None:
        vals = make_cutoff(fs, delta).psi.values.copy()
    else:
        vals = rng.uniform(low, 1.0, g.order)
    for value in (-1e-17, 0.0):
        vals[rng.choice(g.order, draw(st.sampled_from([0, 0, 1, 3])))] = value
    return g, vals, coeffs


# the oracle's whole table on Z/2001 is about 0.3 s an example
@settings(max_examples=60, deadline=None)
@given(part_v_cases())
def test_part_v_kernel_is_the_whole_table_oracle_bit_for_bit(case):
    g, vals, coeffs = case
    assert _same_float(_shift_excess(g, vals, coeffs), _shift_violation(g, vals, coeffs))


def test_part_v_memory_peak_is_bounded(rng):
    # two 1 MiB blocks (rows and bounds): about 2.2 MiB; the seven-pass form
    # with its per-block temporaries peaked at 5.2 MiB with the cutoff build
    g = parse_group("2001")
    fs = random_frequency_set(g, 2, rng)
    make_cutoff(fs, 0.1)  # build the cutoff outside the measurement
    check_cutoff_property("v", fs, 0.1)
    tracemalloc.start()
    try:
        check_cutoff_property("v", fs, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


@pytest.mark.parametrize("spec", ["64", "5x5x3"])
def test_fine_smoothing_parts_match_fresh_convolutions(spec, rng):
    # the finer cutoff's stored transform stands in for a fresh one bit for bit
    g = parse_group(spec)
    fs = random_frequency_set(g, 2, rng)
    gamma2 = fs.extend(random_frequency_set(g, 1, rng).chars)
    tau, delta = 0.2, 0.15
    d2 = fine_width(delta, tau, gamma2.d) * 0.9
    coarse, fine = make_cutoff(fs, delta), make_cutoff(gamma2, d2)
    root = coarse.psi_sqrt.values
    kw = {"gamma2": gamma2, "delta2": d2, "tau": tau}

    rep = check_cutoff_property("vii", fs, delta, **kw)
    assert rep.lhs == float(np.sum(np.abs(convolve(coarse.psi, fine.psi).values - coarse.psi.values)))

    rep = check_cutoff_property("vi", fs, delta, m=2, **kw)
    smoothed = convolve(convolve(coarse.psi_sqrt, fine.psi), fine.psi).values
    assert rep.lhs == float(np.max(np.abs(smoothed - root) - 3.0 * tau * root))

    f = DenseFn(g, rng.uniform(-1.0, 1.0, g.order))
    rep = check_cutoff_property("viii", fs, delta, f=f, **kw)
    left = convolve(DenseFn(g, f.values * root), fine.psi).values
    right = root * convolve(f, fine.psi).values
    assert rep.lhs == float(np.sqrt(np.sum((left - right) ** 2)))
