import itertools
import math

import numpy as np
import pytest

from conftest import random_indicator
from oracles import constant, subgroup_elements

from arithreg import applications
from arithreg.applications import (
    IntegerSet,
    ap3_count,
    ap3_table,
    bhk_witness_group,
    bhk_witness_interval,
    build_tower_function,
    growth_step,
    nu_mass_identity,
    nu_weight,
    schur_triples,
    spanning_family,
    sum_free_decompose,
    tower_sequence,
    verify_tower_step,
)
from arithreg.errors import DomainMismatchError, ResourceBudgetError, UsageError
from arithreg.groups import f2_parity, f2_span, make_group
from arithreg.harmonic import DenseFn, indicator, zero_sum_count
from arithreg.reg_f2 import local_fourier
from arithreg.reg_general import RegPair, trivial_pair
from arithreg.bohr import random_frequency_set

G101 = make_group([101])


class TestAp3:
    def test_whole_group_any_difference(self):
        assert ap3_count(constant(G101, 1.0), 7) == 101

    def test_difference_zero_counts_members(self, rng):
        A = random_indicator(G101, rng)
        assert ap3_count(A, 0) == int(A.values.sum())
        I = IntegerSet(20, (2, 5, 9))
        assert ap3_count(I, 0) == 3

    def test_small_integer_example(self):
        assert ap3_count(IntegerSet(7, (1, 2, 3)), 1) == 1

    def test_interval_full_range(self):
        assert ap3_count(IntegerSet(50, tuple(range(1, 51))), 1) == 48

    def test_group_count_matches_enumeration(self, rng):
        A = random_indicator(G101, rng, density=0.4)
        members = set(np.flatnonzero(A.values > 0.5).tolist())
        for d in (1, 13, 57):
            direct = sum(
                1
                for x in members
                if (x + d) % 101 in members and (x + 2 * d) % 101 in members
            )
            assert ap3_count(A, d) == direct

    def test_table_needs_an_indicator(self):
        with pytest.raises(DomainMismatchError):
            ap3_table(constant(G101, 0.5))
        with pytest.raises(DomainMismatchError):
            ap3_table(constant(make_group([3, 5]), 2.0))

    def test_total_count_matches_spectral_identity(self, rng):
        # sum over d of P(A;d) equals the zero-sum count of (A, -2A, A)
        A = random_indicator(G101, rng, density=0.35)
        members = np.flatnonzero(A.values > 0.5)
        neg2 = indicator(G101, [(-2 * int(m)) % 101 for m in members])
        total = float(ap3_table(A).sum())
        spectral = zero_sum_count([A, neg2, A])
        assert total == pytest.approx(spectral, abs=1e-6)


class TestNuWeight:
    def test_trivial_pair_is_uniform(self):
        pair = trivial_pair(G101, 3, 0.1)
        nu = nu_weight(pair)
        assert np.allclose(nu.values, 1.0 / 101, atol=1e-12)

    def test_nonnegative_and_mass_bound(self, rng):
        for _ in range(5):
            fs = random_frequency_set(G101, int(rng.integers(1, 3)), rng)
            pair = RegPair(fs, float(rng.uniform(0.1, 0.5)), 3, 0.1, "scaled", 2.0**40)
            nu = nu_weight(pair)
            assert nu.values.min() >= 0.0
            assert nu.values.sum() <= 1.0 + 8.0 * pair.eps + 1e-9

    def test_mass_equals_weighted_zero_sum_count(self, rng):
        for _ in range(5):
            fs = random_frequency_set(G101, 2, rng)
            pair = RegPair(fs, float(rng.uniform(0.1, 0.4)), 3, 0.1, "scaled", 2.0**45)
            total, t_value = nu_mass_identity(pair)
            assert abs(total - t_value) < 1e-8

    def test_matches_direct_double_loop(self, rng):
        fs = random_frequency_set(G101, 1, rng)
        pair = RegPair(fs, 0.25, 3, 0.1, "scaled", 2.0**45)
        nu = nu_weight(pair)
        s = pair.psi1.psi_sqrt.values
        p2 = np.clip(pair.psi2.psi.values, 0.0, None)
        for d in (0, 3, 50):
            direct = sum(
                s[y] * p2[(2 * (y + d)) % 101] * s[(y + 2 * d) % 101] for y in range(101)
            )
            assert nu.values[d] == pytest.approx(direct, abs=1e-12)

    def test_even_order_rejected(self):
        g = make_group([10])
        with pytest.raises(DomainMismatchError):
            nu_weight(trivial_pair(g, 3, 0.1))

    def test_aggregation_identity_over_base_points(self, rng):
        # summing the weighted count over x equals sum_d P(A;d) nu(d)
        from arithreg.groups import translate_indices
        from arithreg.harmonic import zero_sum_count

        A = random_indicator(G101, rng)
        members = np.flatnonzero(A.values > 0.5)
        neg2 = indicator(G101, [(-2 * int(m)) % 101 for m in members])
        for pair in (
            trivial_pair(G101, 3, 0.4),
            RegPair(random_frequency_set(G101, 1, rng), 0.3, 3, 0.4, "scaled", 2.0**45),
        ):
            s1 = pair.psi1.psi_sqrt.values
            p2 = pair.psi2.psi.values
            total = 0.0
            for x in range(101):
                x2 = (-2 * x) % 101
                f1 = DenseFn(G101, A.values[translate_indices(G101, x)] * s1)
                f2 = DenseFn(G101, neg2.values[translate_indices(G101, x2)] * p2)
                total += zero_sum_count([f1, f2, f1])
            agg = float(np.sum(ap3_table(A) * nu_weight(pair).values))
            assert abs(total - agg) < 1e-8

    def test_weighted_progression_lower_bound(self, rng):
        # sum_d P(A;d) nu(d) >= sum_x alpha1(x)^2 alpha2(x) - 34 eps N, for a
        # regular non-degenerate pair; degenerate draws are recorded instead
        from arithreg.groups import _multiple_index
        from arithreg.harmonic import convolve
        from arithreg.reg_general import _PairState, alpha

        eps = 0.4
        A = random_indicator(G101, rng)
        members = np.flatnonzero(A.values > 0.5)
        neg2 = indicator(G101, [(-2 * int(m)) % 101 for m in members])
        pair = trivial_pair(G101, 3, eps)
        assert not pair.degenerate
        assert _PairState([A, neg2, A], pair).regular
        a1 = alpha(A, pair.psi1).values
        halved = np.clip(pair.psi2.psi.values, 0, None)[_multiple_index(G101, 2)]
        a2 = convolve(A, DenseFn(G101, halved)).values
        lhs = float(np.sum(ap3_table(A) * nu_weight(pair).values))
        rhs = float(np.sum(a1 * a1 * a2)) - 34.0 * eps * 101
        assert lhs >= rhs - 1e-9

    def test_density_chain_lower_bound(self, rng):
        # sum_x alpha1(x)^2 alpha2(x) >= alpha^3 N for the halved smoothing
        from arithreg.groups import _multiple_index
        from arithreg.reg_general import alpha

        from arithreg.harmonic import convolve

        for _ in range(5):
            fs = random_frequency_set(G101, 1, rng)
            pair = RegPair(fs, 0.3, 3, 0.1, "scaled", 2.0**45)
            A = random_indicator(G101, rng, density=0.5)
            a1 = alpha(A, pair.psi1).values
            halved = np.clip(pair.psi2.psi.values, 0, None)[_multiple_index(G101, 2)]
            a2 = convolve(A, DenseFn(G101, halved)).values
            lhs = float(np.sum(a1 * a1 * a2))
            alpha_density = A.values.mean()
            assert lhs >= alpha_density**3 * 101 - 1e-7


class TestBhkWitness:
    def test_full_group(self):
        w = bhk_witness_group(constant(G101, 1.0), 0.1)
        assert w.d_index != 0
        assert w.count == 101.0
        assert w.bound_ok

    def test_arithmetic_progression_set(self):
        # density-1/2 progression {0,2,4,...}: some d gives ~N/2 progressions
        A = indicator(G101, range(0, 101, 2))
        w = bhk_witness_group(A, 0.05)
        assert w.bound_ok
        assert w.count >= (0.5**3 - 0.05) * 101

    def test_random_sets_meet_bound(self, rng):
        g = make_group([301])
        for density in (0.2, 0.5):
            A = random_indicator(g, rng, density=density)
            w = bhk_witness_group(A, 0.05)
            assert w.d_index != 0
            # exhaustive verification of the returned count
            assert ap3_count(A, w.d_index) == int(w.count)
            assert w.bound_ok

    def test_even_order_rejected(self):
        g = make_group([10])
        with pytest.raises(DomainMismatchError):
            bhk_witness_group(constant(g, 1.0), 0.1)

    def test_order_one_has_no_nonzero_difference(self):
        with pytest.raises(DomainMismatchError):
            bhk_witness_group(constant(make_group([1]), 1.0), 0.1)

    @pytest.mark.parametrize("eps", [0.0, -0.5])
    def test_nonpositive_eps_rejected(self, eps):
        # the witness itself names eps; the nu pair no longer has to catch it
        with pytest.raises(DomainMismatchError, match=f"got eps {eps}$"):
            bhk_witness_group(constant(G101, 1.0), eps)
        with pytest.raises(DomainMismatchError, match=f"got eps {eps}$"):
            bhk_witness_interval(IntegerSet(60, tuple(range(1, 61))), eps)


class TestBhkInterval:
    def test_full_interval(self):
        A = IntegerSet(60, tuple(range(1, 61)))
        w = bhk_witness_interval(A, 0.05)
        assert w.d == 1 and w.count == 58  # d=1 gives N-2 genuine progressions
        assert w.d_cap == 3

    def test_odd_numbers(self):
        A = IntegerSet(101, tuple(range(1, 102, 2)))
        w = bhk_witness_interval(A, 0.05)
        assert w.d == 2
        assert w.count == ap3_count(A, 2) == 49

    def test_random_set_matches_exhaustive_table(self, rng):
        A = IntegerSet(301, tuple(sorted(rng.choice(range(1, 302), 120, replace=False).tolist())))
        eps = 0.05
        w = bhk_witness_interval(A, eps)
        cap = math.floor(eps * 301)
        best = max(range(1, cap + 1), key=lambda d: ap3_count(A, d))
        assert w.count == ap3_count(A, best)
        assert abs(w.d) <= eps * 301

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 4001])
    def test_counts_match_the_set_loop(self, rng, n):
        x = rng.uniform(size=n) < 0.4
        x[[0, -1]] = True
        A = IntegerSet(n, tuple(np.flatnonzero(x) + 1))
        d_max = max(1, (n - 1) // 2)
        counts = applications._interval_ap3_counts(A, d_max)
        assert counts.tolist() == [ap3_count(A, d) for d in range(1, d_max + 1)]

    def test_no_admissible_difference(self):
        A = IntegerSet(10, (1, 5))
        w = bhk_witness_interval(A, 0.05)  # eps N < 1: no nonzero d allowed
        assert w.d is None and not w.bound_ok

    def test_huge_eps_searches_only_differences_that_fit(self, monkeypatch):
        # no progression in [1, 30] has d > 14; eps = 1e6 once meant 3e7 counts
        A = IntegerSet(30, (1, 2, 4, 7, 8, 12, 13, 15, 19, 22, 24, 28, 30))
        small = bhk_witness_interval(A, 0.5)
        asked = []

        def counted(B, d_max):
            asked.append(d_max)
            return interval_counts(B, d_max)

        interval_counts = applications._interval_ap3_counts
        monkeypatch.setattr(applications, "_interval_ap3_counts", counted)
        big = bhk_witness_interval(A, 1e6)
        assert (big.d, big.count) == (small.d, small.count)
        assert big.d_cap == 30_000_000 and asked == [14]
        for n in (1, 2):  # d = 1 still reports its count 0
            w = bhk_witness_interval(IntegerSet(n, tuple(range(1, n + 1))), 1e6)
            assert (w.d, w.count) == (1, 0)


class TestSumFree:
    def test_odd_numbers_survive(self):
        A = IntegerSet(64, tuple(range(1, 65, 2)))
        B, C, cert = sum_free_decompose(A, 0.01)
        assert B.members == A.members
        assert C.size == 0
        assert schur_triples(B) == 0

    def test_initial_segment(self):
        A = IntegerSet(16, tuple(range(1, 17)))
        B, C, cert = sum_free_decompose(A, 0.1)
        assert schur_triples(B) == 0
        assert set(B.members) | set(C.members) == set(A.members)
        assert not (set(B.members) & set(C.members))

    def test_top_half_is_already_sum_free(self):
        A = IntegerSet(100, tuple(range(51, 101)))
        assert schur_triples(A) == 0
        B, C, cert = sum_free_decompose(A, 0.01)
        assert B.members == A.members and C.size == 0

    def test_random_set_outputs_partition(self, rng):
        members = sorted(rng.choice(range(1, 129), 40, replace=False).tolist())
        A = IntegerSet(128, tuple(members))
        B, C, cert = sum_free_decompose(A, 0.05)
        assert schur_triples(B) == 0
        assert sorted(B.members + C.members) == list(A.members)


class TestTowerSequence:
    def test_growth_step_breakpoints(self):
        assert growth_step(19) == 19
        assert growth_step(20) == 5
        assert growth_step(2048) == 512

    def test_first_values_exact(self):
        assert [tower_sequence(i) for i in range(5)] == [0, 1, 2, 8, 512]

    def test_fifth_value_is_a_tower(self):
        assert tower_sequence(5) == 2**521

    def test_negative_rejected(self):
        with pytest.raises(DomainMismatchError):
            tower_sequence(-1)


class TestSpanningFamily:
    def test_small_case_returns_basis(self):
        fam = spanning_family(10, seed=0)
        assert sorted(fam.tolist()) == [1 << j for j in range(10)]

    def test_medium_family_verified_exhaustively(self):
        fam = spanning_family(40, seed=1)
        assert fam.size == 40
        # independent slow verification against every hyperplane
        need = math.ceil(0.95 * 40)
        for u in range(1, 1 << 10):
            zeros = int(np.count_nonzero(f2_parity(fam & u) == 0))
            assert zeros < need

    def test_large_family(self):
        fam = spanning_family(80, seed=2)
        assert fam.size == 80
        assert np.all(fam > 0)

    def test_budget_guard(self):
        with pytest.raises(ResourceBudgetError):
            spanning_family(2048, seed=0)  # needs 2^512 duals

    def test_determinism(self):
        a = spanning_family(40, seed=9)
        b = spanning_family(40, seed=9)
        assert np.array_equal(a, b)

    def test_retry_exhaustion_raises_with_seed_advice(self, monkeypatch):
        from arithreg import applications
        from arithreg.errors import RetryExhaustedError

        monkeypatch.setattr(applications, "_verify_spanning", lambda *a: False)
        with pytest.raises(RetryExhaustedError, match="seed"):
            applications.spanning_family(40, seed=0, retries=3)


class TestTowerConstruction:
    @staticmethod
    def _level(f, i):
        # f = (1/2) sum_j 4^-j b_j with 0/1 levels, exact in float64: read b_i back
        return np.floor(2 * f.values * 4.0**i) % 4

    def test_levels_and_sizes_at_11_3(self):
        spec, f = build_tower_function(11, 3, seed=7)
        assert spec.dims == (0, 1, 2, 8)
        assert spec.levels == (0, 1, 2)
        assert spec.level_sizes == (1024, 1024, 1024)
        assert [int(self._level(f, i).sum()) for i in spec.levels] == [1024, 1024, 1024]
        assert f.values.min() >= 0.0 and f.values.max() <= 1.0
        assert f.values.max() <= 2.0 / 3.0

    def test_single_level_instance(self):
        spec, f = build_tower_function(1, 0, seed=0)
        assert spec.levels == (0,)
        assert sorted(set(f.values.tolist())) == [0.0, 0.5]
        assert int((f.values > 0).sum()) == 1

    def test_three_coordinate_instance(self):
        spec, f = build_tower_function(3, 2, seed=1)
        assert spec.dims == (0, 1, 2)
        assert spec.levels == (0, 1)  # the third level needs 8 more coordinates
        assert spec.level_sizes == (4, 4)
        assert all(int(self._level(f, i).sum()) == 4 for i in spec.levels)

    def test_dimension_budget_enforced(self):
        with pytest.raises(DomainMismatchError):
            build_tower_function(10, 3, seed=0)  # needs 11 coordinates

    def test_degenerate_arguments_and_enumeration_guard(self, monkeypatch):
        with pytest.raises(DomainMismatchError):
            build_tower_function(5, -1, seed=0)
        with pytest.raises(DomainMismatchError):
            build_tower_function(0, 0, seed=0)
        monkeypatch.setenv("ARITHREG_MAX_N", "1024")
        with pytest.raises(ResourceBudgetError):
            build_tower_function(11, 3, seed=0)
        build_tower_function(10, 2, seed=0)

    def test_level_sets_halve_every_coset(self):
        spec, f = build_tower_function(11, 3, seed=3)
        for lvl in spec.levels:
            b = self._level(f, lvl)
            H_i = spec.chain[lvl]
            helts = H_i.elements_by_coeff()
            for rep in H_i.coset_reps()[:8]:
                inside = b[int(rep) ^ helts].sum()
                assert inside == H_i.size / 2

    @pytest.mark.parametrize("n", [1, 3, 6, 11, 12, 16])
    def test_levels_equal_the_per_element_parity(self, n):
        # the per-element form: x & full_masks[x >> (n - c_i)] over the whole group
        order = 1 << n
        for depth, seed in itertools.product(range(4), range(4)):
            try:
                spec, f = build_tower_function(n, depth, seed)
            except DomainMismatchError:
                continue
            want = np.zeros(order)
            for k, i in enumerate(spec.levels):
                full_masks = spec.xi_families[k]
                c_i = spec.cumulative(i)
                b = 1 - f2_parity((full_masks[:, None] & np.arange(order >> c_i)).reshape(-1))
                assert np.array_equal(self._level(f, i), b)
                want += 4.0**-i * b
            want *= 0.5
            assert np.array_equal(f.values, want)
            assert spec.level_sizes == (order // 2,) * len(spec.levels)

    def test_local_transform_matches_naive(self, rng):
        spec, f = build_tower_function(6, 2, seed=5)
        H = spec.chain[1]
        g = 13
        spec_fast = local_fourier(f, H, g).values
        helts = H.elements_by_coeff()
        for eta in range(H.size):
            acc = sum(
                f.values[int(helts[t]) ^ g] * (-1) ** bin(t & eta).count("1")
                for t in range(H.size)
            )
            assert spec_fast[eta].real == pytest.approx(acc, abs=1e-12)


class TestVerifyTowerStep:
    def test_inside_next_level_is_vacuous(self, rng):
        # a subgroup inside H_{i+1} annihilates every level-i block vector
        spec, f = build_tower_function(11, 3, seed=7)
        for i in spec.levels:
            inner = spec.n - spec.cumulative(i + 1)
            rows = [int(x) for x in rng.integers(1, 1 << inner, size=3)] if inner else []
            for H in (spec.chain[i + 1], f2_span([], spec.n), f2_span(rows, spec.n)):
                rep = verify_tower_step(spec, f, H, i, eps=0.04)
                assert self._oracle(spec, f, H, i) == (0, None)
                assert rep["escaping_count"] == 0
                assert rep["min_coefficient_ratio"] is None
                assert rep["coefficient_bound_ok"]

    def test_full_level_subgroup_escapes_and_meets_bound(self):
        spec, f = build_tower_function(3, 2, seed=1)
        rep = verify_tower_step(spec, f, spec.chain[0], 0, eps=0.04)
        assert rep["escaping_count"] >= 1
        assert rep["coefficient_bound_ok"]
        assert rep["min_coefficient_ratio"] >= rep["threshold"]

    def test_all_levels_with_canonical_chain(self):
        spec, f = build_tower_function(11, 3, seed=7)
        for i in spec.levels:
            rep = verify_tower_step(spec, f, spec.chain[i], i, eps=0.04)
            assert rep["coefficient_bound_ok"]

    def test_precondition_h_inside_level(self):
        spec, f = build_tower_function(11, 3, seed=7)
        with pytest.raises(DomainMismatchError):
            verify_tower_step(spec, f, spec.chain[0], 2, eps=0.04)

    def test_unbuilt_level_rejected(self):
        spec, f = build_tower_function(3, 2, seed=1)
        with pytest.raises(UsageError):
            verify_tower_step(spec, f, spec.chain[1], 2, eps=0.04)

    def test_random_subgroups_meet_bound(self, rng):
        spec, f = build_tower_function(11, 3, seed=7)
        for i in spec.levels:
            h_dim = spec.n - spec.cumulative(i)
            for _ in range(5):
                rows = [int(rng.integers(1, 1 << h_dim)) for _ in range(3)]
                H = f2_span(rows, spec.n)
                rep = verify_tower_step(spec, f, H, i, eps=0.04)
                assert rep["coefficient_bound_ok"]

    @staticmethod
    def _oracle(spec, f, H, i):
        """Escaping count and min |coefficient| / |H| from Python sets."""
        h_dim = spec.n - spec.cumulative(i)
        helts = {int(h) for h in subgroup_elements(H)}
        cosets = {frozenset(r ^ h for h in helts) for r in range(1 << h_dim)}
        family = spec.xi_families[spec.levels.index(i)]
        escaping, ratios = 0, []
        for v, xi in enumerate(int(x) for x in family):
            if all(bin(h & xi).count("1") % 2 == 0 for h in helts):
                continue
            escaping += 1
            for coset in cosets:
                g = (v << h_dim) ^ min(coset)
                coeff = sum(
                    float(f.values[g ^ h]) * (-1) ** bin(h & xi).count("1") for h in helts
                )
                ratios.append(abs(coeff) / len(helts))
        return escaping, (min(ratios) if ratios else None)

    def test_values_match_coset_oracle(self, rng):
        # tower values are dyadic, so there the fold and the oracle agree exactly
        spec, tower = build_tower_function(11, 3, seed=7)
        noisy = DenseFn(tower.group, tower.values + 1e-3 * rng.standard_normal(tower.group.order))
        escaped = below_pivots = 0
        for f in (tower, noisy):
            for i in spec.levels:
                h_dim = spec.n - spec.cumulative(i)
                for dim in (1, 2, 4, None):
                    H = f2_span([], spec.n) if dim else spec.chain[i]
                    while dim and H.dim < dim:
                        H = f2_span(H.basis + (int(rng.integers(1, 1 << h_dim)),), spec.n)
                    assert spec.chain[i].contains_subgroup(H)
                    rep = verify_tower_step(spec, f, H, i, eps=0.04)
                    count, ratio = self._oracle(spec, f, H, i)
                    assert rep["escaping_count"] == count
                    if ratio is None:
                        assert rep["min_coefficient_ratio"] is None
                    elif f is tower:
                        assert rep["min_coefficient_ratio"] == ratio
                    else:
                        assert rep["min_coefficient_ratio"] == pytest.approx(ratio, abs=1e-12)
                    escaped += count > 0
                    below_pivots += any(b ^ (1 << p) for b, p in zip(H.basis, H.pivots))
        assert escaped >= 12
        assert below_pivots >= 6
