import numpy as np
import pytest

from conftest import random_indicator
from oracles import constant, element

from arithreg.bohr import bohr_set, make_cutoff, make_frequency_set, random_frequency_set
from arithreg.errors import DomainMismatchError
from arithreg.groups import make_group, translate_indices
from arithreg.harmonic import (
    DenseFn,
    brute_force_zero_sum,
    convolve,
    dft,
    indicator,
)
from arithreg.reg_general import (
    RegPair,
    _PairState,
    _reduce,
    _refine_pair_detailed,
    alpha,
    branch_decision,
    check_energy_difference,
    check_low_density_count,
    check_regular_value,
    check_uniform_weight_count,
    check_witness_stability,
    cover_by_translates,
    exact_zero_sum_tuples,
    regular_value_profile,
    regularize,
    trivial_pair,
    weighted_T,
    zero_sum_removal,
)

G101 = make_group([101])


def qr_set(g=G101):
    return indicator(g, sorted({(x * x) % 101 for x in range(1, 101)}))


def refine_detailed(As, pair):
    """(new pair, step info) from one refinement step of (As, pair)."""
    state, info = _refine_pair_detailed(_PairState(As, pair))
    return state.pair, info


class TestAlpha:
    def test_full_set_gives_one(self, rng):
        pair = trivial_pair(G101, 1, 0.3)
        out = alpha(constant(G101, 1.0), pair.psi1)
        assert np.max(np.abs(out.values - 1.0)) < 1e-12

    def test_empty_set_gives_zero(self, rng):
        pair = trivial_pair(G101, 1, 0.3)
        assert np.max(np.abs(alpha(indicator(G101, []), pair.psi1).values)) < 1e-15

    def test_matches_direct_sum_on_z49(self, rng):
        g = make_group([49])
        fs = random_frequency_set(g, 2, rng)
        cutoff = make_cutoff(fs, 0.11)
        A = random_indicator(g, rng)
        out = alpha(A, cutoff).values
        for x in range(0, 49, 5):
            direct = sum(
                A.values[y] * cutoff.psi.values[(x - y) % 49] for y in range(49)
            )
            assert abs(out[x] - direct) < 1e-10

    def test_indicator_values_stay_in_unit_interval(self, rng):
        pair = trivial_pair(G101, 1, 0.2)
        A = random_indicator(G101, rng)
        vals = alpha(A, pair.psi2).values
        assert vals.min() > -1e-9 and vals.max() < 1 + 1e-9


class TestRegularValue:
    def test_full_and_empty_sets_are_regular_with_zero_conditions(self, rng):
        pairs = [
            trivial_pair(G101, 1, 0.25),
            RegPair(random_frequency_set(G101, 2, rng), 0.2, 1, 0.25, "scaled", 2.0**40),
        ]
        for pair in pairs:
            for A in (constant(G101, 1.0), indicator(G101, [])):
                w = check_regular_value(A, pair, 17)
                assert w.regular
                assert abs(w.cond1_lhs) < 1e-12
                assert abs(w.cond2_lhs) < 1e-12

    def test_trivial_pair_cond1_reduces_to_variance(self, rng):
        # with (empty, 1): psi1 uniform, alpha1 constant = mean of alpha2
        pair = trivial_pair(G101, 1, 0.3)
        A = random_indicator(G101, rng)
        a2 = alpha(A, pair.psi2).values
        w = check_regular_value(A, pair, 0)
        expected = float(np.mean((a2 - a2.mean()) ** 2))
        assert abs(w.cond1_lhs - expected) < 1e-10

    def test_cond2_matches_definition_directly(self, rng):
        pair = trivial_pair(G101, 1, 0.3)
        A = random_indicator(G101, rng)
        x = 31
        w = check_regular_value(A, pair, x)
        row = translate_indices(G101, x)
        a2 = alpha(A, pair.psi2).values
        windowed = DenseFn(G101, (A.values[row] - a2[x]) * pair.psi2.psi.values)
        mags = np.abs(dft(windowed).values)
        assert abs(w.cond2_lhs - mags.max()) < 1e-12
        assert w.worst_char.index == int(np.argmax(mags))

    def test_profile_agrees_with_single_point_checks(self, rng):
        pair = trivial_pair(G101, 1, 0.2)
        A = random_indicator(G101, rng)
        cond1, cond2, worst = regular_value_profile(A, pair)[:3]
        for x in (0, 11, 64, 100):
            w = check_regular_value(A, pair, x)
            assert abs(cond1[x] - w.cond1_lhs) < 1e-9
            assert abs(cond2[x] - w.cond2_lhs) < 1e-9
            assert int(worst[x]) == w.worst_char.index

    def test_profile_cond1_is_clamped_at_zero(self, rng):
        # unclamped, the expansion reads -2e-16 on a random set, -2e-15 on the full one
        pair = trivial_pair(G101, 1, 0.2)
        for A in (random_indicator(G101, rng), constant(G101, 1.0)):
            cond1 = regular_value_profile(A, pair).cond1
            assert cond1.min() >= 0


class TestRegularPair:
    def test_trivial_sets_are_regular(self):
        pair = trivial_pair(G101, 2, 0.2)
        state = _PairState([constant(G101, 1.0), indicator(G101, [])], pair)
        assert state.regular and state.counts == [0, 0]

    def test_random_dense_sets_usually_regular_at_loose_eps(self, rng):
        g = make_group([2] * 9)  # order 512
        pair = trivial_pair(g, 2, 0.4)
        hits = 0
        for _ in range(5):
            As = [random_indicator(g, rng) for _ in range(2)]
            state = _PairState(As, pair)
            hits += state.regular
            profile_counts = [
                int(np.count_nonzero((c1 > pair.eps**2) | (c2 > pair.eps)))
                for c1, c2, *_ in (regular_value_profile(A, pair) for A in As)
            ]
            assert state.counts == profile_counts
        assert hits >= 4

    def test_structured_set_fails_at_small_eps(self):
        pair = trivial_pair(G101, 1, 0.05)
        state = _PairState([qr_set()], pair)
        assert not state.regular and state.counts[0] == 101


class TestIndexGeneral:
    """The index of a state is the sum of its one-set states' indices."""

    def test_trivial_pair_gives_alpha_squared(self, rng):
        pair = trivial_pair(G101, 1, 0.3)
        A = random_indicator(G101, rng, density=0.4)
        per = _PairState([A], pair).index
        assert per == pytest.approx(A.values.mean() ** 2, abs=1e-12)
        assert _PairState([A, A], pair).index == 2 * per

    def test_full_set_has_index_one_for_any_pair(self, rng):
        fs = random_frequency_set(G101, 2, rng)
        pair = RegPair(fs, 0.2, 1, 0.3)
        per = _PairState([constant(G101, 1.0)], pair).index
        assert per == pytest.approx(1.0, abs=1e-10)

    def test_matches_direct_computation_on_z64(self, rng):
        g = make_group([64])
        fs = random_frequency_set(g, 2, rng)
        pair = RegPair(fs, 0.15, 1, 0.3, "scaled", scale=2.0**30)
        A = random_indicator(g, rng)
        a1 = np.array(
            [
                sum(A.values[y] * pair.psi1.psi.values[(x - y) % 64] for y in range(64))
                for x in range(64)
            ]
        )
        per = _PairState([A], pair).index
        assert per == pytest.approx(float(np.sum(a1**2)) / 64, abs=1e-9)

    def test_translation_invariance(self, rng):
        fs = random_frequency_set(G101, 1, rng)
        pair = RegPair(fs, 0.2, 2, 0.3)
        As = [random_indicator(G101, rng) for _ in range(2)]
        shifted = [DenseFn(G101, A.values[translate_indices(G101, 42)]) for A in As]
        assert _PairState(As, pair).index == pytest.approx(
            _PairState(shifted, pair).index, abs=1e-10
        )

    def test_total_bounded_by_k(self, rng):
        pair = trivial_pair(G101, 3, 0.3)
        As = [random_indicator(G101, rng) for _ in range(3)]
        total = _PairState(As, pair).index
        assert total == sum(_PairState([A], pair).index for A in As)
        assert total <= 3.0

    def test_energy_drop_under_width_shrink_is_controlled(self, rng):
        # passing from the eta1 smoothing to the eta2 smoothing loses at most
        # 8 * (measured cutoff compatibility) of each per-set index
        g = make_group([64])
        fs = random_frequency_set(g, 1, rng)
        pair = RegPair(fs, 0.3, 2, 0.25, "scaled", scale=2.0**40)
        for _ in range(5):
            A = random_indicator(g, rng)
            ind1 = float(np.sum(alpha(A, pair.psi1).values ** 2)) / 64
            ind2 = float(np.sum(alpha(A, pair.psi2).values ** 2)) / 64
            assert ind2 >= ind1 - 8.0 * pair.compat_l1 - 1e-9


class TestPairConstruction:
    def test_eta2_formula_with_max_convention(self):
        pair = trivial_pair(G101, 2, 0.5)
        assert pair.eta2 == pytest.approx(2.0**-40 * 0.5**6 / (1 * 2**4))

    def test_faithful_narrow_cutoff_degenerates_and_is_recorded(self):
        fs = make_frequency_set(G101, [G101.character([1])])
        pair = RegPair(fs, 0.3, 1, 0.3, "faithful")
        assert pair.degenerate
        assert pair.psi2.is_point_mass

    def test_trivial_pair_compatibility_is_exactly_zero(self):
        pair = trivial_pair(G101, 1, 0.3)
        assert not pair.degenerate  # uniform cutoffs, not point masses
        assert pair.compat_l1 < 1e-12
        assert pair.compat_l1 <= pair.compat_bound

    def test_eta2_capped_by_eta1(self):
        fs = make_frequency_set(G101, [G101.character([1])])
        pair = RegPair(fs, 0.45, 1, 0.12, "scaled", scale=2.0**152)
        assert pair.eta2 == pair.eta1

    def test_bad_mode_and_eta_rejected(self):
        with pytest.raises(DomainMismatchError):
            trivial_pair(G101, 1, 0.3, mode="loose")
        with pytest.raises(DomainMismatchError):
            RegPair(make_frequency_set(G101), 1.5, 1, 0.3)

    def test_faithful_mode_rejects_a_scale(self):
        # faithful constants ignore the scale, so a report must not carry one
        with pytest.raises(DomainMismatchError):
            RegPair(make_frequency_set(G101), 0.3, 1, 0.3, "faithful", 1e12)
        with pytest.raises(DomainMismatchError):
            regularize([constant(G101, 1.0)], 0.1, 4, mode="faithful", scale=2.0)
        assert RegPair(make_frequency_set(G101), 0.3, 1, 0.3, "faithful", 1.0).scale == 1.0

    @pytest.mark.parametrize("scale", [0.0, -1.0, -0.0])
    def test_scaled_mode_rejects_a_nonpositive_scale(self, scale):
        # the widths scale with it, so a zero or negative scale has no cutoff
        with pytest.raises(DomainMismatchError, match=f"got scale {scale}$"):
            RegPair(make_frequency_set(G101), 0.3, 1, 0.3, "scaled", scale)
        assert RegPair(make_frequency_set(G101), 0.3, 1, 0.3, "scaled", 1e-300).scale == 1e-300

    @pytest.mark.parametrize("k, eps, err", [
        (1, 0.0, "need eps > 0, got eps 0.0$"),
        (3, -0.5, "need eps > 0, got eps -0.5$"),
        (0, 0.3, "need k >= 1, got k 0$"),
    ])
    def test_rejection_names_the_one_value(self, k, eps, err):
        with pytest.raises(DomainMismatchError, match=err):
            RegPair(make_frequency_set(G101), 0.3, k, eps)


class TestCovering:
    def test_single_element(self, rng):
        fs = random_frequency_set(G101, 2, rng)
        pieces, centers = cover_by_translates(G101, [13], 0.1, fs)
        assert len(pieces) == 1 and centers == [13]
        assert pieces[0].tolist() == [13]

    def test_empty_frequencies_cover_in_one_piece(self, rng):
        fs = make_frequency_set(G101)
        u = sorted(rng.choice(101, size=40, replace=False).tolist())
        pieces, centers = cover_by_translates(G101, u, 0.2, fs)
        assert len(pieces) == 1
        assert pieces[0].size >= len(u) / 2

    def test_postconditions_on_random_draws(self, rng):
        for _ in range(30):
            fs = random_frequency_set(G101, 2, rng)
            size = int(rng.integers(5, 80))
            u = sorted(rng.choice(101, size=size, replace=False).tolist())
            kappa = float(rng.uniform(0.05, 0.3))
            pieces, centers = cover_by_translates(G101, u, kappa, fs)
            flat = np.concatenate(pieces)
            assert len(set(flat.tolist())) == flat.size  # disjoint
            assert flat.size >= size / 2  # coverage
            assert set(centers) <= set(u)
            assert len(pieces) <= (2.0 / kappa) ** fs.d
            ball = set(bohr_set(fs, kappa).tolist())
            for piece, z in zip(pieces, centers):
                for s in piece:
                    assert (int(s) - z) % 101 in ball


class TestRefinePair:
    def test_width_shrink_branch(self):
        A = DenseFn(G101, np.array([(x // 5) % 2 == 0 for x in range(101)], dtype=float))
        fs = make_frequency_set(G101, [G101.character([1])])
        pair = RegPair(fs, 0.3, 1, 0.3, "faithful")
        new_pair, info = refine_detailed([A], pair)
        assert info["branch"] == "width-shrink"
        assert new_pair.eta == pair.eta2
        assert new_pair.chars is pair.chars

    def test_covering_branch_adds_global_witness(self):
        pair = trivial_pair(G101, 1, 0.05)
        new_pair, info = refine_detailed([qr_set()], pair)
        assert info["branch"] == "new-characters"
        assert info["witnesses"]  # the dominant character joins R
        assert new_pair.d >= 1
        assert info["index_gain"] > 0

    def test_aligned_branch_keeps_characters(self):
        fs = make_frequency_set(G101, [G101.character([1])])
        pair = RegPair(fs, 0.45, 1, 0.12, "scaled", scale=2.0**152)
        shifted_interval = indicator(
            G101, [(x + 25) % 101 for x in bohr_set(fs, 0.15)]
        )
        new_pair, info = refine_detailed([shifted_interval], pair)
        assert info["branch"] == "aligned-witnesses"
        assert new_pair.chars is pair.chars
        assert info["witnesses"] == []

    def test_branch_decision_unit_cases(self):
        n, eps, k = 100, 0.2, 1
        cond1 = np.zeros(n)
        cond2 = np.zeros(n)
        worst = np.zeros(n, dtype=np.int64)
        perp = np.zeros(n, dtype=bool)
        perp[0] = True
        # width-shrink: many condition-1 failures
        c1 = cond1.copy()
        c1[:40] = 1.0
        assert branch_decision(c1, cond2, worst, perp, eps, k)["branch"] == "width-shrink"
        # aligned: all witnesses in the near-orthogonal set (ties included)
        c2 = cond2.copy()
        c2[:30] = 1.0
        assert (
            branch_decision(cond1, c2, worst, perp, eps, k)["branch"]
            == "aligned-witnesses"
        )
        # exactly half aligned still routes to aligned (tie rule)
        w = worst.copy()
        w[:15] = 5  # not perp
        dec = branch_decision(cond1, c2, w, perp, eps, k)
        assert dec["branch"] == "aligned-witnesses" and dec["aligned"] == 15
        # strict minority aligned escapes to covering
        w[:16] = 5
        dec = branch_decision(cond1, c2, w, perp, eps, k)
        assert dec["branch"] == "new-characters" and dec["escapers"].size == 16

    def test_refine_on_regular_pair_rejected(self):
        pair = trivial_pair(G101, 1, 0.4)
        with pytest.raises(DomainMismatchError):
            refine_detailed([constant(G101, 1.0)], pair)

    def test_size_and_width_bounds_reported(self):
        pair = trivial_pair(G101, 1, 0.05)
        _, info = refine_detailed([qr_set()], pair)
        assert info["size_bound_ok"]
        assert "width_bound_ok" in info


class TestRegularize:
    def test_trivial_sets_return_start_pair(self):
        As = [constant(G101, 1.0), indicator(G101, [])]
        pair, trace = regularize(As, 0.3, budget=8)
        assert trace["converged"] and not trace["iterations"]
        assert pair.d == 0 and pair.eta == 1.0

    def test_random_dense_sets_converge_without_refinement(self, rng):
        g = make_group([2] * 9)
        As = [random_indicator(g, rng) for _ in range(2)]
        pair, trace = regularize(As, 0.4, budget=8)
        assert trace["converged"]
        assert len(trace["iterations"]) == 0

    def test_structured_set_gains_its_character(self):
        pair, trace = regularize([qr_set()], 0.05, budget=8)
        assert trace["converged"]
        assert len(trace["iterations"]) == 1
        assert pair.d == 1
        assert _PairState([qr_set()], pair).regular

    def test_budget_exhaustion_is_flagged_not_raised(self):
        fs_set = qr_set()
        # huge scale keeps the cutoffs wide, so regularity stays out of reach
        pair, trace = regularize(
            [fs_set], 0.02, budget=2, mode="scaled", scale=2.0**152
        )
        if not trace["converged"]:
            assert trace["budget_exhausted"]
            assert len(trace["iterations"]) == 2

    def test_exhausted_trace_describes_the_returned_pair(self):
        # the index rises and then falls, so the best pair is not the last one
        g = make_group([96])
        A = indicator(g, np.flatnonzero(np.random.default_rng(0).uniform(size=96) < 0.3))
        As = [A]
        pair, trace = regularize(As, 0.05, 3, mode="scaled", scale=2.0**120)
        assert trace["budget_exhausted"]
        gains = [step["index_gain"] for step in trace["iterations"]]
        assert gains[1] > 0 > gains[2]
        assert trace["final"] == pair.describe() | {
            "per_set_irregular": _PairState(As, pair).counts
        }

    def test_seed_characters_prepopulate_r(self):
        g = make_group([101])
        seeds = [g.character([1]), g.character([51])]  # 51 = inverse of 2 mod 101
        pair, trace = regularize([constant(g, 1.0)], 0.3, budget=4, seed_chars=seeds)
        assert pair.d == 2
        assert trace["converged"]


class TestWeightedCount:
    def test_full_sets(self):
        pair = trivial_pair(G101, 3, 0.2)
        ones = constant(G101, 1.0)
        rep = weighted_T([ones] * 3, pair, [0, 0, 0])
        assert rep.holds and rep.part == "weighted-count"
        assert abs(rep.details["value"] - rep.details["alpha_product"]) == rep.lhs <= rep.rhs

    def test_empty_slot_zeroes_everything(self):
        pair = trivial_pair(G101, 3, 0.2)
        rep = weighted_T(
            [constant(G101, 1.0), indicator(G101, []), constant(G101, 1.0)],
            pair,
            [5, 10, 86],
        )
        assert rep.details["value"] == pytest.approx(0.0, abs=1e-12)
        assert rep.details["alpha_product"] == 0.0

    def test_matches_exhaustive_oracle(self, rng):
        pair = trivial_pair(G101, 3, 0.2)
        As = [random_indicator(G101, rng) for _ in range(3)]
        xs = [7, 11, (101 - 18) % 101]
        rep = weighted_T(As, pair, xs)
        from arithreg.reg_general import _weighted_functions

        brute = brute_force_zero_sum(_weighted_functions(As, pair, xs))
        assert abs(rep.details["value"] - brute) < 1e-6

    def test_regular_slots_obey_count_bound(self, rng):
        pair = trivial_pair(G101, 3, 0.3)
        As = [random_indicator(G101, rng) for _ in range(3)]
        rep = weighted_T(As, pair, [3, 4, 94])
        assert rep.hypothesis_ok == (rep.details["irregular_slots"] == [])
        if rep.hypothesis_ok:
            assert rep.holds

    def test_irregular_base_points_fail_the_hypothesis(self):
        # at the trivial pair an interval's top coefficient, about 0.28, exceeds eps everywhere
        pair = trivial_pair(G101, 3, 0.2)
        rep = weighted_T([indicator(G101, range(34))] * 3, pair, [0, 0, 0])
        assert rep.details["irregular_slots"] == [0, 1, 2] and not rep.hypothesis_ok

    def test_nonzero_sum_rejected(self):
        pair = trivial_pair(G101, 3, 0.2)
        with pytest.raises(DomainMismatchError):
            weighted_T([constant(G101, 1.0)] * 3, pair, [1, 2, 3])

    @pytest.mark.parametrize("xs", [[101, 0, 0], [-1, 1, 0], [0, 0, 202]])
    def test_base_point_outside_the_group_is_named(self, xs):
        pair = trivial_pair(G101, 3, 0.2)
        bad = next(x for x in xs if not 0 <= x < 101)
        with pytest.raises(DomainMismatchError, match=rf"base point {bad} is outside \[0, 101\)"):
            weighted_T([constant(G101, 1.0)] * 3, pair, xs)

    @pytest.mark.parametrize(
        "factors, coords, zero_sum",
        [
            ([2, 2, 2, 7], [(1, 0, 1, 3), (1, 1, 0, 5), (0, 1, 1, 6)], True),
            ([2, 2, 2, 7], [(1, 0, 1, 3), (1, 1, 0, 5), (0, 1, 1, 5)], False),
            ([2, 2, 2, 7], [(1, 0, 1, 3), (1, 1, 1, 5), (0, 1, 1, 6)], False),
            ([5, 5, 3], [(4, 2, 1), (3, 4, 2), (3, 4, 0)], True),
            ([5, 5, 3], [(4, 2, 1), (3, 4, 2), (3, 4, 1)], False),
            ([5, 5, 3], [(4, 2, 1), (3, 4, 2), (4, 4, 0)], False),
        ],
    )
    def test_base_points_sum_to_zero_per_factor(self, factors, coords, zero_sum):
        # the accepted tuples sum to zero only after each coordinate wraps;
        # the rejected ones are off by one in a single coordinate
        g = make_group(factors)
        pair = trivial_pair(g, 3, 0.2)
        xs = [element(g, c).index for c in coords]
        As = [constant(g, 1.0)] * 3
        if zero_sum:
            assert weighted_T(As, pair, xs).details["value"] > 0
        else:
            with pytest.raises(DomainMismatchError, match="sum to zero"):
                weighted_T(As, pair, xs)


class TestUniformWeightCount:
    def test_zero_function(self):
        pair = trivial_pair(G101, 3, 0.2)
        rep = check_uniform_weight_count(pair, constant(G101, 0.0), 3)
        assert rep.lhs < 1e-12 and rep.holds

    def test_constant_one_uses_unit_mass(self):
        pair = trivial_pair(G101, 3, 0.2)
        rep = check_uniform_weight_count(pair, constant(G101, 1.0), 3)
        assert rep.details["center"] == pytest.approx(1.0, abs=1e-12)
        assert rep.holds

    def test_random_bounded_function_on_z64(self, rng):
        g = make_group([64])
        pair = trivial_pair(g, 3, 0.25)
        f = DenseFn(g, rng.uniform(-1.0, 1.0, 64))
        rep = check_uniform_weight_count(pair, f, 3)
        assert rep.hypothesis_ok and rep.holds


class TestEnergyDifference:
    def test_point_mass_cutoffs_are_exactly_tight(self, rng):
        g = make_group([49])
        d0 = indicator(g, [0])
        f = DenseFn(g, rng.uniform(-1, 1, 49))
        rep = check_energy_difference(d0, d0, f)
        assert rep.details["kappa"] == pytest.approx(0.0, abs=1e-15)
        assert rep.details["identity_residue"] < 1e-10
        assert rep.holds

    def test_constant_function(self, rng):
        g = make_group([49])
        fs = random_frequency_set(g, 2, rng)
        phi1 = make_cutoff(fs, 0.2).psi
        phi2 = make_cutoff(fs, 0.05).psi
        rep = check_energy_difference(phi1, phi2, constant(g, 1.0))
        assert rep.details["energy_gap"] == pytest.approx(0.0, abs=1e-9)
        assert rep.holds

    def test_random_draws_on_z49(self, rng):
        g = make_group([49])
        for _ in range(10):
            fs = random_frequency_set(g, int(rng.integers(1, 3)), rng)
            phi1 = make_cutoff(fs, float(rng.uniform(0.1, 0.3))).psi
            phi2 = make_cutoff(fs, float(rng.uniform(0.02, 0.1))).psi
            f = DenseFn(g, rng.uniform(-1, 1, 49))
            rep = check_energy_difference(phi1, phi2, f)
            assert rep.hypothesis_ok and rep.holds
            assert rep.details["identity_residue"] < 1e-8


class TestWitnessStability:
    def test_uniform_window_witness(self):
        # trivial pair: the narrow cutoff is uniform, witnesses persist globally
        pair = trivial_pair(G101, 1, 0.05)
        A = qr_set()
        w = check_regular_value(A, pair, 0)
        rep = check_witness_stability(A, pair, 0, w.worst_char)
        assert rep.hypothesis_ok and rep.part == "witness-stability"
        assert rep.details["ball_size"] == 101  # empty R: the ball is the whole group
        assert rep.holds and rep.lhs == pair.eps / 2.0 <= rep.rhs

    def test_narrow_ball_witness(self, rng):
        fs = make_frequency_set(G101, [G101.character([1])])
        pair = RegPair(fs, 0.45, 1, 0.12, "scaled", scale=2.0**152)
        A = indicator(G101, [(x + 25) % 101 for x in bohr_set(fs, 0.15)])
        cond1, cond2, worst = regular_value_profile(A, pair)[:3]
        x = int(np.argmax(cond2))
        chi = G101.character_at(int(worst[x]))
        rep = check_witness_stability(A, pair, x, chi)
        if rep.hypothesis_ok:
            assert rep.holds


class TestReducedSets:
    def test_full_sets_survive_at_small_eps(self):
        pair = trivial_pair(G101, 3, 0.01)
        out = _reduce(_PairState([constant(G101, 1.0)] * 3, pair))
        for A in out:
            assert A.values.sum() == 101

    def test_empty_sets_stay_empty(self):
        pair = trivial_pair(G101, 3, 0.01)
        out = _reduce(_PairState([indicator(G101, [])] * 3, pair))
        for A in out:
            assert A.values.sum() == 0

    def test_deletion_bound_and_containment(self, rng):
        eps = 0.1
        pair = trivial_pair(G101, 3, eps)
        As = [random_indicator(G101, rng) for _ in range(3)]
        out = _reduce(_PairState(As, pair))
        for A, B in zip(As, out):
            assert np.all(B.values <= A.values)
            assert A.values.sum() - B.values.sum() <= 10 * 3 * eps ** (1 / 3) * 101


class TestLowDensityCount:
    def test_empty_set(self):
        pair = trivial_pair(G101, 1, 0.2)
        rep = check_low_density_count(indicator(G101, []), pair.psi1, 0.3)
        assert rep.lhs == 0.0 and rep.holds

    def test_full_set_with_small_rho(self):
        pair = trivial_pair(G101, 1, 0.2)
        rep = check_low_density_count(constant(G101, 1.0), pair.psi1, 0.9)
        assert rep.lhs == 0.0 and rep.holds

    def test_random_sparse_sets(self, rng):
        for _ in range(10):
            fs = random_frequency_set(G101, int(rng.integers(1, 3)), rng)
            cutoff = make_cutoff(fs, float(rng.uniform(0.05, 0.3)))
            A = random_indicator(G101, rng, density=float(rng.uniform(0.05, 0.3)))
            rho = float(rng.uniform(0.05, 0.5))
            assert check_low_density_count(A, cutoff, rho).holds


class TestZeroSumRemoval:
    def test_empty_sets_unchanged(self):
        out, removed, cert = zero_sum_removal([indicator(G101, [])] * 3, 0.1)
        assert removed == [0, 0, 0]
        assert all(s.values.sum() == 0 for s in out)

    def test_planted_instance_reaches_zero_exactly(self, rng):
        A1 = indicator(G101, range(1, 17))
        A2 = indicator(G101, range(1, 17))
        A3 = indicator(G101, list(range(40, 61)) + [99, 84])
        initial = exact_zero_sum_tuples([A1, A2, A3])
        assert initial > 0
        out, removed, cert = zero_sum_removal([A1, A2, A3], 0.1)
        assert exact_zero_sum_tuples(out) == 0
        assert abs(cert["spectral_tuples"]) < 1e-6
        assert cert["initial_tuples"] == initial

    def test_zero_sum_free_input_survives_at_tiny_eps(self):
        # at eps below 4^-k the faithful cutoffs are point masses, every value
        # is regular and nothing is deleted; the product is already clean
        A1 = indicator(G101, range(1, 17))
        A2 = indicator(G101, range(1, 17))
        A3 = indicator(G101, range(40, 61))
        out, removed, cert = zero_sum_removal([A1, A2, A3], 0.01)
        assert removed == [0, 0, 0]
        assert cert["pipeline"] == "reduced-sets"

    def test_triangle_specialization(self, rng):
        # one set used three times reproduces single-set triangle removal
        A = random_indicator(G101, rng, density=0.25)
        out, removed, cert = zero_sum_removal([A, A, A], 0.1)
        assert exact_zero_sum_tuples(out) == 0

    def test_needs_three_sets(self):
        with pytest.raises(DomainMismatchError):
            zero_sum_removal([constant(G101, 1.0)] * 2, 0.1)
