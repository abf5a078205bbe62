import numpy as np
import pytest

from conftest import all_subspaces, gaussian_binomial, random_indicator
from oracles import constant, subgroup_elements

from arithreg.errors import DomainMismatchError
from arithreg.groups import F2Subgroup, f2_full, f2_span, make_group
from arithreg.harmonic import indicator, zero_sum_count
from arithreg.reg_f2 import (
    _CosetState,
    _refine,
    is_regular_value_f2,
    local_fourier,
    local_triangle_count,
    reduced_set_f2,
    regularize_f2,
    remove_triangles_f2,
    triangle_count_exact,
    wht_last_axis,
)

G6 = make_group([2] * 6)
G8 = make_group([2] * 8)


def hyperplane(group, xi: int, offset: int = 0):
    n = group.order
    return indicator(
        group, [x for x in range(n) if (bin(x & xi).count("1") + offset) % 2 == 0]
    )


class TestLocalFourier:
    def test_full_set_concentrates_at_zero(self):
        H = f2_span([0b111000, 0b000110], 6)
        spec = local_fourier(constant(G6, 1.0), H, 5)
        assert spec.values[0] == H.size
        assert np.all(spec.values[1:] == 0)

    def test_empty_set_is_zero(self):
        H = f2_span([0b111000], 6)
        assert np.all(local_fourier(indicator(G6, []), H, 3).values == 0)

    def test_trivial_coefficient_counts_coset_intersection(self, rng):
        A = random_indicator(G6, rng)
        H = f2_span([0b110000, 0b001100, 0b000011], 6)
        for g in (0, 7, 33):
            expected = sum(A.values[h ^ g] for h in subgroup_elements(H))
            assert local_fourier(A, H, g).values[0] == expected

    def test_matches_naive_summation_over_subgroup(self, rng):
        A = random_indicator(G6, rng)
        H = f2_span([0b101000, 0b010100, 0b000011], 6)
        helts = H.elements_by_coeff()
        g = 19
        spec = local_fourier(A, H, g).values
        for eta in range(H.size):
            acc = 0.0
            for t in range(H.size):
                sign = (-1) ** bin(t & eta).count("1")
                acc += A.values[int(helts[t]) ^ g] * sign
            assert spec[eta].real == acc

    def test_translation_covariance(self, rng):
        A = random_indicator(G8, rng)
        H = f2_span([0b11000000, 0b00110000, 0b00001100], 8)
        for h in subgroup_elements(H)[:4]:
            s1 = np.abs(local_fourier(A, H, 9).values)
            s2 = np.abs(local_fourier(A, H, 9 ^ int(h)).values)
            assert np.max(np.abs(s1 - s2)) < 1e-9


class TestRegularity:
    def test_full_set_always_regular(self):
        H = f2_span([0b110000], 6)
        assert is_regular_value_f2(constant(G6, 1.0), H, 3, 0.01)
        ok, count = _CosetState(constant(G6, 1.0), H).check(0.01)
        assert ok and count == 0

    def test_hyperplane_fails_for_every_translate(self):
        A = hyperplane(G6, 0b101000)
        H = f2_full(6)
        for g in range(0, 64, 7):
            assert not is_regular_value_f2(A, H, g, 0.4)
        ok, count = _CosetState(A, H).check(0.1)
        assert not ok and count == 64

    def test_count_matches_per_value_definition(self, rng):
        A = random_indicator(G6, rng)
        H = f2_span([0b100000, 0b010000, 0b001000], 6)
        eps = 0.3
        direct = sum(
            0 if is_regular_value_f2(A, H, g, eps) else 1 for g in range(64)
        )
        _, count = _CosetState(A, H).check(eps)
        assert count == direct

    def test_random_dense_set_is_usually_regular_at_loose_eps(self, rng):
        g10 = make_group([2] * 10)
        hits = 0
        for _ in range(10):
            A = random_indicator(g10, rng)
            H = f2_span([1 << j for j in range(9, -1, -1)][:10], 10)
            ok, _ = _CosetState(A, f2_full(10)).check(0.3)
            hits += ok
        assert hits >= 8


class TestIndex:
    def test_full_group_gives_alpha_squared(self, rng):
        A = random_indicator(G8, rng, density=0.4)
        alpha = A.values.mean()
        assert _CosetState(A, f2_full(8)).index == pytest.approx(alpha**2, abs=1e-12)

    def test_trivial_subgroup_gives_alpha(self, rng):
        A = random_indicator(G8, rng, density=0.3)
        assert _CosetState(A, F2Subgroup(8, ())).index == pytest.approx(A.values.mean(), abs=1e-12)

    def test_matches_direct_double_loop(self, rng):
        A = random_indicator(G8, rng)
        H = f2_span([0b11000000, 0b00110000, 0b00001100, 0b00000011], 8)
        total = 0.0
        for g in range(256):
            mass = sum(A.values[int(h) ^ g] for h in subgroup_elements(H))
            total += (mass / H.size) ** 2
        assert _CosetState(A, H).index == pytest.approx(total / 256, abs=1e-12)

    def test_sandwich_over_every_subgroup(self, rng):
        A = random_indicator(G6, rng, density=0.45)
        alpha = A.values.mean()
        total = 0
        for k in range(0, 7):
            for H in all_subspaces(6, k):
                total += 1
                ind = _CosetState(A, H).index
                assert alpha**2 - 1e-12 <= ind <= alpha + 1e-12
        assert total == sum(gaussian_binomial(6, k) for k in range(7))


class TestRefinement:
    def test_hyperplane_example(self):
        xi = 0b101000
        state = _CosetState(hyperplane(G6, xi), f2_full(6))
        assert state.index == pytest.approx(0.25)
        refined, _ = _refine(state, 0.1)
        assert refined.index == pytest.approx(0.5)
        assert all(bin(b & xi).count("1") % 2 == 0 for b in refined.H.basis)

    def test_two_hyperplane_instance_needs_two_steps(self):
        xi1, xi2 = 0b101000, 0b000110
        vals = [
            1.0 if (bin(x & xi1).count("1") % 2 == 0 and bin(x & xi2).count("1") % 2 == 0)
            else 0.0
            for x in range(64)
        ]
        from arithreg.harmonic import DenseFn

        A = DenseFn(G6, np.array(vals))
        rep = regularize_f2(A, 0.1)
        assert 1 <= rep.iterations <= 2
        assert rep.subgroup.contains_subgroup(
            f2_span([b for b in rep.subgroup.basis], 6)
        )
        ok, _ = _CosetState(A, rep.subgroup).check(0.1)
        assert ok

    def test_gain_at_least_eps_cubed_on_every_invocation(self, rng):
        eps = 0.2
        for _ in range(6):
            A = random_indicator(G6, rng, density=float(rng.uniform(0.2, 0.8)))
            state = _CosetState(A, f2_full(6))
            while not state.check(eps)[0]:
                refined, _ = _refine(state, eps)
                assert refined.index - state.index >= eps**3 - 1e-12
                state = refined

    def test_refine_on_regular_subgroup_rejected(self):
        with pytest.raises(DomainMismatchError, match="cannot refine a regular subgroup"):
            _refine(_CosetState(constant(G6, 1.0), f2_full(6)), 0.1)


class TestRegularize:
    def test_trivial_sets_terminate_immediately(self):
        for A in (indicator(G6, []), constant(G6, 1.0)):
            rep = regularize_f2(A, 0.2)
            assert rep.iterations == 0
            assert rep.subgroup.dim == 6

    def test_random_set_on_ten_dims(self, rng):
        g10 = make_group([2] * 10)
        A = random_indicator(g10, rng)
        rep = regularize_f2(A, 0.3)
        assert rep.iterations <= int(0.3**-3)
        ok, count = _CosetState(A, rep.subgroup).check(0.3)
        assert ok and count == rep.irregular_values

    def test_hyperplane_lands_inside_kernel(self):
        xi = 0b100100
        A = hyperplane(G6, xi)
        rep = regularize_f2(A, 0.1)
        assert rep.iterations >= 1
        assert all(bin(b & xi).count("1") % 2 == 0 for b in rep.subgroup.basis)

    def test_index_trace_strictly_increases(self, rng):
        A = hyperplane(G6, 0b110101)
        rep = regularize_f2(A, 0.15)
        gains = np.diff(rep.index_trace)
        assert np.all(gains >= 0.15**3 - 1e-12)

    @pytest.mark.parametrize("eps", [0.5, 0.7, 0.0, -0.1])
    def test_out_of_range_eps_rejected(self, eps):
        with pytest.raises(DomainMismatchError):
            regularize_f2(constant(G6, 1.0), eps)


class TestTriangleCounting:
    def test_full_set_local_count(self):
        H = f2_span([0b110000, 0b001100], 6)
        assert local_triangle_count(constant(G6, 1.0), H, 1, 2, 3) == pytest.approx(
            H.size**2
        )

    def test_empty_set_local_count(self):
        H = f2_span([0b110000], 6)
        assert local_triangle_count(indicator(G6, []), H, 0, 0, 0) == 0.0

    def test_matches_brute_force_over_subgroup_cubed(self, rng):
        A = random_indicator(G8, rng)
        H = f2_span([0b10000000, 0b01000000, 0b00100000, 0b00010000], 8)
        g1, g2, g3 = 3, 77, 130
        helts = [int(h) for h in H.elements_by_coeff()]
        brute = 0
        for x1 in helts:
            for x2 in helts:
                x3 = x1 ^ x2  # the only zero-sum completion inside H
                brute += A.values[x1 ^ g1] * A.values[x2 ^ g2] * A.values[x3 ^ g3]
        assert local_triangle_count(A, H, g1, g2, g3) == pytest.approx(brute, abs=1e-6)

    def test_counting_lemma_on_all_deep_subgroups(self, rng):
        # first-coset-regular triples obey |T - a1 a2 a3 |H|^2| <= eps |H|^2
        eps = 0.2
        for _ in range(5):
            A = random_indicator(G6, rng)
            for k in range(3, 7):
                for H in all_subspaces(6, k):
                    reps = H.coset_reps()
                    helts = H.elements_by_coeff()
                    rows = A.values[np.bitwise_xor.outer(reps, helts)]
                    spectra = wht_last_axis(rows)
                    sup = (
                        np.max(np.abs(spectra[:, 1:]), axis=1)
                        if H.size > 1
                        else np.zeros(len(reps))
                    )
                    regular = sup <= eps * H.size
                    dens = spectra[:, 0] / H.size
                    t_all = np.einsum("au,bu,cu->abc", spectra, spectra, spectra) / H.size
                    prod = np.einsum("a,b,c->abc", dens, dens, dens) * H.size**2
                    dev = np.abs(t_all - prod)
                    assert np.all(dev[regular] <= eps * H.size**2 + 1e-6)


class TestReducedSet:
    def test_full_set_survives(self):
        A = constant(G6, 1.0)
        out = reduced_set_f2(_CosetState(A, f2_full(6)), 0.1)
        assert np.array_equal(out.values, A.values)

    def test_empty_set_stays_empty(self):
        A = indicator(G6, [])
        out = reduced_set_f2(_CosetState(A, f2_full(6)), 0.1)
        assert out.values.sum() == 0

    def test_deletion_bound(self, rng):
        eps = 0.1
        for _ in range(10):
            A = random_indicator(G8, rng, density=float(rng.uniform(0.1, 0.9)))
            rep = regularize_f2(A, eps)
            assert rep.state.f is A and rep.state.H == rep.subgroup
            out = reduced_set_f2(rep.state, eps)
            removed = A.values.sum() - out.values.sum()
            assert removed <= 3.0 * eps ** (1.0 / 3.0) * 256
            assert np.all(out.values <= A.values)

    def test_matches_coset_oracle_elementwise(self, rng):
        deleted = kept = 0
        for n in (6, 7, 8):
            group = make_group([2] * n)
            for eps in (0.05, 0.2):
                A = random_indicator(group, rng, density=float(rng.uniform(0.3, 0.8)))
                rows = [int(rng.integers(1, 1 << n)) for _ in range(int(rng.integers(1, n)))]
                H = f2_span(rows, n)
                helts = [int(h) for h in subgroup_elements(H)]
                outside_perp = [
                    u for u in range(1 << n)
                    if any(bin(h & u).count("1") % 2 for h in helts)
                ]
                expected = np.zeros(1 << n)
                for x in range(1 << n):
                    coset = [x ^ h for h in helts]
                    irregular = any(
                        abs(sum(A.values[y] * (-1) ** bin(y & u).count("1") for y in coset))
                        > eps * H.size
                        for u in outside_perp
                    )
                    low = A.values[coset].sum() <= (2.0 * eps) ** (1.0 / 3.0) * H.size
                    expected[x] = A.values[x] if not (irregular or low) else 0.0
                out = reduced_set_f2(_CosetState(A, H), eps)
                assert np.array_equal(out.values, expected)
                deleted += int(A.values.sum() - out.values.sum())
                kept += int(out.values.sum())
        assert deleted > 0 and kept > 0


class TestRemoval:
    def test_triangle_free_input_stays_triangle_free(self):
        g4 = make_group([2] * 4)
        # an affine hyperplane misses zero sums entirely
        A = hyperplane(g4, 0b1000, offset=1)
        assert triangle_count_exact(A) == 0
        out, removed, cert = remove_triangles_f2(A)
        assert triangle_count_exact(out) == 0

    def test_full_group_ends_triangle_free(self):
        g4 = make_group([2] * 4)
        out, removed, cert = remove_triangles_f2(constant(g4, 1.0))
        assert triangle_count_exact(out) == 0
        assert abs(zero_sum_count([out] * 3)) < 1e-6

    def test_planted_coset_union_instance(self, rng):
        # union of cosets of a medium subgroup, triangle-free by quotient choice,
        # dented by deleting a few elements
        K = f2_span([1 << j for j in range(4)], 8)  # dim 4
        quotient_cosets = [0b10000000 ^ (v << 4) for v in (0, 1, 2, 4)]
        members = []
        for c in quotient_cosets:
            members.extend(c ^ int(h) for h in subgroup_elements(K))
        members = sorted(set(members))
        dropped = set(rng.choice(members, size=5, replace=False).tolist())
        A = indicator(G8, [m for m in members if m not in dropped])
        assert triangle_count_exact(A) == 0
        out, removed, cert = remove_triangles_f2(A)
        assert triangle_count_exact(out) == 0
        eps = cert["eps"]
        assert removed <= 3.0 * eps ** (1.0 / 3.0) * 256

    def test_certificate_reports_attempts(self, rng):
        A = random_indicator(G8, rng, density=0.3)
        out, removed, cert = remove_triangles_f2(A)
        assert triangle_count_exact(out) == 0
        assert cert["attempts"]
        assert cert["pipeline"] in ("reduced-set", "reduced-set+participant-deletion")
