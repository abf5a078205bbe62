"""The removal route shared by triangle and zero-sum removal, and its exact counts.

The participant-deletion fallback is forced with one-entry schedules and
pinned element by element against a brute-force participant oracle; the
exact zero-sum count (one checked spectral rounding at every size) is pinned
to the literal sum on the shapes it used to be served by.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import random_indicator

from arithreg import reg_general
from arithreg.errors import InternalCheckError, ResourceBudgetError
from arithreg.groups import BRUTE_FORCE_BUDGET, make_group
from arithreg.harmonic import DenseFn, brute_force_zero_sum, indicator
from arithreg.reg_f2 import (
    reduced_set_f2,
    regularize_f2,
    remove_triangles_f2,
    triangle_count_exact,
)
from arithreg.reg_general import (
    _PairState,
    _reduce,
    exact_zero_sum_tuples,
    regularize,
    zero_sum_removal,
)

G101 = make_group([101])


def members(A: DenseFn) -> set[int]:
    return {int(x) for x in np.flatnonzero(A.values > 0.5)}


class TestParticipantDeletion:
    def test_general_fallback_deletes_exactly_the_participants(self):
        A1 = indicator(G101, range(1, 17))
        A3 = indicator(G101, list(range(40, 61)) + [99, 84])
        As = [A1, A1, A3]
        out, removed, cert = zero_sum_removal(As, 0.01, eps_schedule=[0.01])
        assert cert["pipeline"] == "reduced-sets+participant-deletion"
        assert cert["attempts"][0]["residual_tuples"] > 0
        assert exact_zero_sum_tuples(out) == 0
        pair, _ = regularize(As, 0.01, 64, mode="scaled")
        candidate = _reduce(_PairState(As, pair))
        R1, R2, R3 = (members(B) for B in candidate)
        gone = {x for x in R1 if any((x + y + z) % 101 == 0 for y in R2 for z in R3)}
        assert gone
        assert members(out[0]) == R1 - gone
        for B, C in zip(out[1:], candidate[1:]):
            assert np.array_equal(B.values, C.values)
        assert removed == [int(A.values.sum() - B.values.sum()) for A, B in zip(As, out)]

    def test_f2_fallback_deletes_exactly_the_participants(self):
        g8 = make_group([2] * 8)
        A = random_indicator(g8, np.random.default_rng(3), density=0.3)
        out, removed, cert = remove_triangles_f2(A, [0.02])
        assert cert["pipeline"] == "reduced-set+participant-deletion"
        assert cert["attempts"][0]["residual_triangles"] > 0
        assert triangle_count_exact(out) == 0
        candidate = reduced_set_f2(regularize_f2(A, 0.02).state, 0.02)
        R = members(candidate)
        gone = {x for x in R if any(x ^ y in R for y in R)}
        assert gone
        assert members(out) == R - gone
        assert removed == int(A.values.sum() - out.values.sum())


def test_tiny_cover_radius_does_not_overflow():
    # kappa is tiny here, so the covering bound (2/kappa)^d is past the float range
    g = make_group([2] * 7)
    As = [DenseFn(g, (np.random.default_rng(s).uniform(size=128) < 0.4).astype(float))
          for s in range(3)]
    out, removed, cert = zero_sum_removal(As, 0.1)
    assert exact_zero_sum_tuples(out) == 0
    assert cert["attempts"][-1]["residual_tuples"] == 0


def test_underflowed_cutoff_width_does_not_warn():
    # eta2 underflows here, so ||x|| / eta2 in the smoothed indicator passes the float range
    g = make_group([2] * 6)
    As = [DenseFn(g, (np.random.default_rng(s).uniform(size=64) < 0.15).astype(float))
          for s in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, removed, cert = zero_sum_removal(As, 0.01, eps_schedule=[0.01])
    assert exact_zero_sum_tuples(out) == 0


class TestExactCount:
    @pytest.mark.parametrize("n", [4472, 4473])
    def test_brute_force_budget_seam(self, n):
        g = make_group([n])
        rng = np.random.default_rng(n)
        As = [random_indicator(g, rng, density=0.2) for _ in range(3)]
        assert (n**2 <= BRUTE_FORCE_BUDGET) == (n == 4472)
        expected = brute_force_zero_sum(As, budget=n**2)
        assert expected == round(expected) > 0
        assert exact_zero_sum_tuples(As) == round(expected)

    def test_off_integer_spectral_count_raises(self, monkeypatch):
        g = make_group([4473])
        As = [random_indicator(g, np.random.default_rng(0), density=0.2)] * 3
        true = exact_zero_sum_tuples(As)
        monkeypatch.setattr(reg_general, "zero_sum_count", lambda fs: true + 0.3)
        with pytest.raises(InternalCheckError):
            exact_zero_sum_tuples(As)

    def test_no_exact_integer_past_the_error_bound(self):
        g = make_group([2] * 12)
        with pytest.raises(ResourceBudgetError):
            exact_zero_sum_tuples([indicator(g, [1, 2])] * 8)

    @pytest.mark.parametrize(
        "factors, k, density",
        [
            ([2] * 12, 3, 0.3),
            ([2] * 8 + [3], 3, 0.3),
            ([2] * 3 + [7] + [2] * 2, 3, 0.3),
            ([1009], 3, 0.3),
            ([3] * 5, 4, 0.2),
            ([31], 5, 0.4),
            ([2] * 3 + [7] + [2] * 2, 3, 0.0),
            ([1009], 3, 1.0),
        ],
        ids=["2^12", "2^8x3", "2^3x7x2^2", "1009", "3^5-k4", "31-k5", "empty", "full"],
    )
    def test_spectral_count_matches_the_literal_sum(self, factors, k, density):
        g = make_group(factors)
        rng = np.random.default_rng(len(factors) * 100 + k)
        As = [random_indicator(g, rng, density=density) for _ in range(k)]
        assert exact_zero_sum_tuples(As) == round(brute_force_zero_sum(As))

    @pytest.mark.parametrize("n", range(4, 13))
    def test_triangle_count_matches_the_literal_sum(self, n):
        A = random_indicator(make_group([2] * n), np.random.default_rng(n), density=0.3)
        assert triangle_count_exact(A) == round(brute_force_zero_sum([A] * 3))

    def test_triangle_count_memory_stays_linear(self):
        # (Z/2)^13 at density 0.5: any |A|^2 array would take about 135 MB
        A = random_indicator(make_group([2] * 13), np.random.default_rng(0), density=0.5)
        tracemalloc.start()
        try:
            triangle_count_exact(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
