import json
import math
import warnings

import numpy as np
import pytest

from arithreg import bohr, groups
from arithreg.bohr import (
    bohr_set,
    check_bohr_growth,
    check_cutoff_property,
    fine_width,
    make_cutoff,
    make_frequency_set,
    norm_values,
    random_frequency_set,
    tail_bound,
    tail_mass,
    tail_sum,
)
from arithreg.cli import main as cli_main
from arithreg.errors import DomainMismatchError, UsageError
from arithreg.groups import make_group, neg_index, parse_group
from arithreg.harmonic import DenseFn, convolve


def simpson_smoothed_value(norm_x: float, delta: float, n_points: int = 10001) -> float:
    """Quadrature oracle for the defining integral of the smoothed indicator.

    The plain-neighbourhood indicator at x switches on at t = ||x||, so the
    integral reduces to the exponential tail from ||x||; composite Simpson
    with 10^4 points on a 60-delta window.
    """
    a, b = norm_x, norm_x + 60.0 * delta
    xs = np.linspace(a, b, n_points)
    ys = np.exp(-xs / delta) / delta
    h = (b - a) / (n_points - 1)
    return float((ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()) * h / 3)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=200),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.01, max_value=0.6),
    st.integers(0, 2**31),
)
def test_bohr_set_contains_zero_and_is_symmetric(n, d, delta, seed):
    g = make_group([n])
    rng = np.random.default_rng(seed)
    fs = random_frequency_set(g, min(d, n - 1), rng)
    ball = set(bohr_set(fs, delta).tolist())
    assert 0 in ball
    assert all((n - x) % n in ball for x in ball)


class TestBohrSet:
    def test_empty_set_gives_whole_group(self):
        g = make_group([12])
        fs = make_frequency_set(g)
        assert bohr_set(fs, 0.01).size == 12

    def test_wide_radius_gives_whole_group(self, rng):
        g = make_group([30])
        fs = random_frequency_set(g, 2, rng)
        assert bohr_set(fs, 0.5).size == 30

    def test_z5_example(self):
        g = make_group([5])
        fs = make_frequency_set(g, [g.character([1])])
        assert bohr_set(fs, 0.2).tolist() == [0, 1, 4]

    def test_contains_identity_and_symmetric(self, rng):
        g = make_group([101])
        for _ in range(10):
            fs = random_frequency_set(g, 3, rng)
            ball = set(bohr_set(fs, 0.13).tolist())
            assert 0 in ball
            negs = neg_index(g)
            assert all(int(negs[x]) in ball for x in ball)


def smoothed_beta(fs, delta):
    """beta_{Gamma,delta} as the cutoff stores it."""
    return make_cutoff(fs, delta).beta


def smoothed_indicator(fs, delta):
    """exp(-||x||_Gamma / delta) for every x, from the cutoff's own helper."""
    return DenseFn(fs.group, bohr._smoothed_indicator(fs, delta))


class TestSmoothedBeta:
    def test_empty_frequencies_give_uniform(self):
        g = make_group([10])
        beta = smoothed_beta(make_frequency_set(g), 0.2)
        assert np.allclose(beta.values, 0.1)

    def test_maximum_at_identity(self, rng):
        g = make_group([64])
        for _ in range(5):
            fs = random_frequency_set(g, 2, rng)
            beta = smoothed_beta(fs, 0.07)
            assert beta.values[0] == beta.values.max()

    def test_z8_closed_form_value(self):
        g = make_group([8])
        fs = make_frequency_set(g, [g.character([1])])
        raw = smoothed_indicator(fs, 0.1)
        # ||4||= 1/2, so the unnormalized value is e^{-5}
        assert abs(raw.values[4] - math.exp(-5.0)) < 1e-15

    def test_underflowed_width_is_a_point_mass(self):
        # ||x|| / delta is past the float range off the identity; exp(-inf) = 0, no warning
        g = make_group([8])
        fs = make_frequency_set(g, [g.character([1])])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            raw = smoothed_indicator(fs, 5e-324)
        assert raw.values.tolist() == [1.0] + [0.0] * 7

    def test_unit_mass(self, rng):
        g = make_group([5, 5, 3])
        fs = random_frequency_set(g, 3, rng)
        assert abs(smoothed_beta(fs, 0.11).values.sum() - 1.0) < 1e-12

    def test_closed_form_matches_quadrature(self, rng):
        # 20 draws: closed form vs 10^4-point Simpson of the defining integral
        for _ in range(20):
            n = int(rng.integers(16, 300))
            g = make_group([n])
            d = int(rng.integers(1, 4))
            fs = random_frequency_set(g, d, rng)
            delta = float(rng.uniform(0.02, 0.4))
            raw = smoothed_indicator(fs, delta)
            norms = norm_values(fs)
            x = int(rng.integers(n))
            assert abs(raw.values[x] - simpson_smoothed_value(norms[x], delta)) < 1e-6


class TestCutoffBasics:
    def test_empty_frequencies_give_uniform_psi(self):
        g = make_group([9])
        c = make_cutoff(make_frequency_set(g), 0.3)
        assert np.allclose(c.psi.values, 1.0 / 9)

    def test_masses_and_nonnegative_spectrum(self, rng):
        g = make_group([25])
        for _ in range(8):
            fs = random_frequency_set(g, int(rng.integers(1, 4)), rng)
            c = make_cutoff(fs, float(rng.uniform(0.03, 0.45)))
            assert abs(c.beta.values.sum() - 1.0) < 1e-12
            assert abs(c.psi.values.sum() - 1.0) < 1e-12
            assert c.psi_hat.values.real.min() >= -1e-9
            assert np.abs(c.psi_hat.values.imag).max() < 1e-9

    def test_psi_peaks_at_identity_and_symmetric(self, rng):
        g = make_group([49])
        for _ in range(8):
            fs = random_frequency_set(g, 2, rng)
            c = make_cutoff(fs, float(rng.uniform(0.05, 0.3)))
            vals = c.psi.values
            assert vals[0] >= vals.max() - 1e-12
            assert np.max(np.abs(vals - vals[neg_index(g)])) < 1e-12

    def test_psi_hat_is_square_of_beta_hat(self, rng):
        from arithreg.harmonic import dft

        g = make_group([25])
        for _ in range(5):
            fs = random_frequency_set(g, 2, rng)
            c = make_cutoff(fs, float(rng.uniform(0.05, 0.4)))
            beta_hat = dft(c.beta).values
            assert np.max(np.abs(c.psi_hat.values - beta_hat**2)) < 1e-9

    @pytest.mark.parametrize(
        "factors", [[101], [1001], [2] * 10, [5, 5, 3], [2] * 6 + [35], [4096]]
    )
    def test_psi_is_bitwise_the_convolution_of_beta(self, factors, rng):
        # psi squares beta's transform once; convolve transforms beta twice
        g = make_group(factors)
        for d in (0, 1, 2):
            fs = random_frequency_set(g, d, rng)
            for delta in (0.5, 0.05, 1e-3):
                c = make_cutoff(fs, delta)
                assert np.array_equal(c.psi.values, convolve(c.beta, c.beta).values)

    def test_sup_norm_bound(self, rng):
        g = make_group([101])
        for _ in range(10):
            d = int(rng.integers(0, 4))
            fs = random_frequency_set(g, d, rng)
            delta = float(rng.uniform(0.02, 0.9))
            c = make_cutoff(fs, delta)
            assert c.psi.values.max() <= 3.0 / (delta**d * 101) * (1 + 1e-9)

    def test_plain_indicator_below_e_times_smoothed(self, rng):
        g = make_group([64])
        for _ in range(10):
            fs = random_frequency_set(g, 2, rng)
            delta = float(rng.uniform(0.05, 0.45))
            raw = smoothed_indicator(fs, delta).values
            ball = np.zeros(64)
            ball[bohr_set(fs, delta)] = 1.0
            assert np.all(ball <= math.e * raw + 1e-12)


class TestBetaInequalities:
    # the beta-level analogues: mass/sup/shift-stability/tails
    def test_beta_sup_bound(self, rng):
        g = make_group([128])
        for _ in range(10):
            d = int(rng.integers(1, 4))
            fs = random_frequency_set(g, d, rng)
            delta = float(rng.uniform(0.03, 0.5))
            beta = smoothed_beta(fs, delta)
            assert beta.values.max() <= 3.0 / (delta**d * 128) * (1 + 1e-9)

    def test_beta_shift_stability(self, rng):
        from arithreg.groups import translate_indices

        g = make_group([60])
        for _ in range(5):
            fs = random_frequency_set(g, 2, rng)
            delta = float(rng.uniform(0.05, 0.3))
            beta = smoothed_beta(fs, delta).values
            norms = norm_values(fs)
            negs = neg_index(g)
            for y in range(60):
                row = translate_indices(g, int(negs[y]))
                diff = np.abs(beta - beta[row])
                with np.errstate(over="ignore"):
                    coeff = 5.0 * math.sinh(norms[y] / delta)
                assert np.all(diff <= coeff * beta + 1e-12)

    def test_beta_tail_bound_on_eta_grid(self, rng):
        g = make_group([101])
        for _ in range(5):
            d = int(rng.integers(1, 4))
            fs = random_frequency_set(g, d, rng)
            delta = float(rng.uniform(0.03, 0.25))
            beta = smoothed_beta(fs, delta)
            for k in range(1, 11):
                eta = 0.05 * k
                bound = 2.0 * 5.0**d * math.exp(-eta / (2.0 * delta))
                assert tail_sum(fs, beta, eta) <= bound + 1e-12


class TestTailMass:
    def test_eta_zero_gives_total_mass(self, rng):
        g = make_group([33])
        fs = random_frequency_set(g, 2, rng)
        c = make_cutoff(fs, 0.1)
        assert abs(tail_mass(c, 0.0) - 1.0) < 1e-12

    def test_eta_beyond_half_is_empty(self, rng):
        g = make_group([33])
        fs = random_frequency_set(g, 2, rng)
        c = make_cutoff(fs, 0.1)
        assert tail_mass(c, 0.51) == 0.0

    def test_exponential_tail_bound(self, rng):
        g = make_group([101])
        for _ in range(10):
            d = int(rng.integers(1, 4))
            fs = random_frequency_set(g, d, rng)
            delta = float(rng.uniform(0.02, 0.3))
            c = make_cutoff(fs, delta)
            eta = float(rng.uniform(0.0, 0.5))
            assert tail_mass(c, eta) <= tail_bound(c, eta) + 1e-12

    def test_tail_bound_power_past_the_largest_float_is_a_domain_error(self, rng):
        c = make_cutoff(random_frequency_set(make_group([1009]), 450, rng), 0.1)
        with pytest.raises(DomainMismatchError, match="5\\^450 overflows"):
            tail_bound(c, 0.4)
        with pytest.raises(DomainMismatchError, match="5\\^450 overflows"):
            check_bohr_growth(c.gamma, 0.1)

    def test_bound_product_past_the_largest_float_is_a_domain_error(self, rng):
        # 5^441 = 1.8e308 is finite, but 4 * 5^441 and 5^441 |B_delta| are not
        c = make_cutoff(random_frequency_set(make_group([1009]), 441, rng), 0.1)
        with pytest.raises(DomainMismatchError, match=r"^tail bound 4 \* 5\^441 \* exp"):
            tail_bound(c, 0.4)
        with pytest.raises(DomainMismatchError, match=r"^doubling bound 5\^441 \|B_delta\|"):
            check_bohr_growth(c.gamma, 0.5)
        with pytest.raises(DomainMismatchError, match=r"^size bound delta\^1 N overflows"):
            check_bohr_growth(make_frequency_set(c.group, c.gamma.chars[:1]), 1e307)


class TestBohrGrowth:
    def test_empty_frequencies(self):
        g = make_group([17])
        rep = check_bohr_growth(make_frequency_set(g), 0.3)
        assert rep.holds and rep.lhs == 17.0

    def test_z101_single_frequency(self):
        g = make_group([101])
        fs = make_frequency_set(g, [g.character([1])])
        rep = check_bohr_growth(fs, 0.1)
        assert rep.details["size"] == 21
        assert rep.rhs == pytest.approx(10.1)
        assert rep.holds

    def test_random_draws_on_z64(self, rng):
        g = make_group([64])
        for _ in range(20):
            fs = random_frequency_set(g, int(rng.integers(1, 4)), rng)
            assert check_bohr_growth(fs, float(rng.uniform(0.02, 0.45))).holds


class TestCutoffPropertySuite:
    def _fs(self, rng, n=64, d=2):
        return random_frequency_set(make_group([n]), d, rng)

    def test_part_ii_is_exact(self, rng):
        rep = check_cutoff_property("ii", self._fs(rng), 0.17)
        assert rep.holds and rep.lhs < 1e-12

    def test_part_v_with_zero_shift_is_trivial_and_holds(self, rng):
        rep = check_cutoff_property("v", self._fs(rng), 0.12)
        assert rep.holds  # includes the y = 0 row where both sides vanish

    def test_part_iv_conforming(self, rng):
        fs = self._fs(rng)
        tau = 0.2
        delta = 2.0**-12 * tau**2 / fs.d * 0.9
        rep = check_cutoff_property("iv", fs, delta, tau=tau, chi=fs.chars[0])
        assert rep.hypothesis_ok and rep.holds
        assert rep.details["consequent_holds"]

    def test_part_iv_violated_hypothesis_reported_not_raised(self, rng):
        fs = self._fs(rng)
        rep = check_cutoff_property("iv", fs, 0.3, tau=0.2, chi=fs.chars[0])
        assert not rep.hypothesis_ok

    def test_parts_vi_vii_viii_conforming(self, rng):
        g = make_group([64])
        fs = random_frequency_set(g, 2, rng)
        gamma2 = fs.extend(random_frequency_set(g, 1, rng).chars)
        tau = 0.2
        d2 = 2.0**-13 * 0.15 * tau**2 / gamma2.d * 0.9
        for part in ("vi", "vii"):
            rep = check_cutoff_property(
                part, fs, 0.15, gamma2=gamma2, delta2=d2, tau=tau, m=2
            )
            assert rep.hypothesis_ok and rep.holds, part
        f = DenseFn(g, np.random.default_rng(5).uniform(-1, 1, 64))
        rep = check_cutoff_property(
            "viii", fs, 0.15, gamma2=gamma2, delta2=d2, tau=tau, f=f
        )
        assert rep.hypothesis_ok and rep.holds

    def test_part_ix_conforming(self, rng):
        g = make_group([64])
        fs = random_frequency_set(g, 2, rng)
        cutoff = make_cutoff(fs, 0.15)
        hat = cutoff.psi_hat.values.real.copy()
        hat[0] = -1.0
        best = int(np.argmax(hat))
        kappa = float(hat[best]) * 0.9
        omega = 0.2
        gamma2 = fs.extend(random_frequency_set(g, 1, rng).chars)
        d2 = omega**2 * kappa**2 * 0.15 / (2.0**13 * gamma2.d) * 0.9
        rep = check_cutoff_property(
            "ix", fs, 0.15, gamma2=gamma2, delta2=d2,
            chi=g.character_at(best), kappa=kappa, omega=omega,
        )
        assert rep.hypothesis_ok and rep.holds
        assert rep.details["consequent_holds"]

    def test_unknown_part_rejected(self, rng):
        with pytest.raises(UsageError):
            check_cutoff_property("x", self._fs(rng), 0.1)

    def test_missing_parameters_rejected(self, rng):
        # the error names every missing argument
        fs = self._fs(rng)
        gamma2 = fs.extend(random_frequency_set(fs.group, 1, rng).chars)
        with pytest.raises(UsageError, match=r"^part iv needs tau, chi$"):
            check_cutoff_property("iv", fs, 0.1)
        with pytest.raises(UsageError, match=r"^part viii needs f$"):
            check_cutoff_property("viii", fs, 0.1, gamma2=gamma2, delta2=1e-6, tau=0.2)
        with pytest.raises(UsageError, match=r"^part ix needs chi, kappa$"):
            check_cutoff_property("ix", fs, 0.1, gamma2=gamma2, delta2=1e-6, omega=0.2)

    def test_extra_keywords_are_ignored(self, rng):
        fs = self._fs(rng)
        gamma2 = fs.extend(random_frequency_set(fs.group, 1, rng).chars)
        kw = {"gamma2": gamma2, "delta2": fine_width(0.15, 0.2, gamma2.d), "tau": 0.2}
        plain = check_cutoff_property("vii", fs, 0.15, **kw)
        assert check_cutoff_property("vii", fs, 0.15, m=2, chi=fs.chars[0], **kw) == plain
        assert check_cutoff_property(" VII", fs, 0.15, **kw) == plain

    @pytest.mark.parametrize("factors", [[101], [5, 5, 3]])
    def test_part_vi_lhs_is_the_formula(self, factors, rng):
        # lhs = max(|psi'^(*m) * s - s| - (2^m - 1) tau s) with s = psi^(1/2), bit for bit
        g = make_group(factors)
        fs = random_frequency_set(g, 2, rng)
        gamma2 = fs.extend(random_frequency_set(g, 1, rng).chars)
        tau, delta = 0.2, 0.15
        d2 = fine_width(delta, tau, gamma2.d) * 0.9
        root, fine = make_cutoff(fs, delta).psi_sqrt, make_cutoff(gamma2, d2).psi
        kw = {"gamma2": gamma2, "delta2": d2, "tau": tau}
        smoothed = root
        for m in (1, 2, 3):
            smoothed = convolve(smoothed, fine)
            excess = np.abs(smoothed.values - root.values) - (2.0**m - 1.0) * tau * root.values
            rep = check_cutoff_property("vi", fs, delta, m=m, **kw)
            assert rep.lhs.hex() == float(np.max(excess)).hex(), m
        # a coefficient past the largest float is a domain error, not inf or nan
        with pytest.raises(DomainMismatchError, match="2\\^1100 overflows"):
            check_cutoff_property("vi", fs, delta, m=1100, **kw)
        with pytest.raises(DomainMismatchError, match="tau is inf"):
            check_cutoff_property("vi", fs, delta, m=1023, **{**kw, "tau": 4.0})


class TestSqrtShiftStability:
    def test_sqrt_lipschitz_bound(self, rng):
        from arithreg.groups import translate_indices

        g = make_group([49])
        for _ in range(5):
            fs = random_frequency_set(g, 2, rng)
            delta = float(rng.uniform(0.05, 0.3))
            c = make_cutoff(fs, delta)
            root = c.psi_sqrt.values
            norms = norm_values(fs)
            negs = neg_index(g)
            for y in range(49):
                row = translate_indices(g, int(negs[y]))
                with np.errstate(over="ignore"):
                    coeff = 5.0 * math.sinh(norms[y] / delta)
                assert np.all(np.abs(root - root[row]) <= coeff * root + 1e-10)


class TestCutoffCache:
    @pytest.fixture
    def built(self, monkeypatch):
        """[(gamma, delta) of every cutoff constructed], from an empty cache on."""
        keys = []
        init = bohr.BohrCutoff.__init__

        def counted(self, gamma, delta, *held):
            keys.append((gamma, delta))
            init(self, gamma, delta, *held)

        bohr.make_cutoff.cache_clear()
        monkeypatch.setattr(bohr.BohrCutoff, "__init__", counted)
        yield keys
        bohr.make_cutoff.cache_clear()

    def test_nine_part_check_builds_each_cutoff_once(self, built, capsys):
        parts = ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix"]
        assert cli_main(["bohr-check", "--group", "101", "--parts", *parts]) == 0
        assert len(json.loads(capsys.readouterr().out)["report"]["checks"]) == 11
        # the main cutoff, part iv's narrower one and one finer cutoff per part vi-ix
        assert len(built) == len(set(built)) == 6

    def test_survey_draw_builds_two_cutoffs(self, built, rng):
        # one draw of `arithreg sweep cutoff-slack`
        g = make_group([101])
        fs = random_frequency_set(g, 2, rng)
        delta = 0.2
        cutoff = make_cutoff(fs, delta)
        check_cutoff_property("iii", fs, delta)
        gamma2 = fs.extend(random_frequency_set(g, 1, rng).chars)
        d2 = fine_width(delta, 0.2, gamma2.d) * 0.9
        check_cutoff_property("vii", fs, delta, gamma2=gamma2, delta2=d2, tau=0.2)
        tail_mass(cutoff, 0.3)
        assert built == [(fs, delta), (gamma2, d2)]

    def test_norm_numerators_keeps_few_frequency_sets(self):
        # an entry is N int64s, 8 MiB at 2^20: cutoffs on 40 distinct sets keep 4
        g = make_group([101])
        bohr.norm_numerators.cache_clear()
        for c in range(1, 41):
            make_cutoff(make_frequency_set(g, [g.character_at(c)]), 0.1)
        assert bohr.norm_numerators.cache_info().currsize <= 4

    def test_character_rows_stay_within_their_byte_budget(self):
        # a row is N int64s, 8 MiB at 2^20: rows of five characters keep what the budget holds
        g = make_group([2] * 20)
        rows = groups._norm_rows
        rows.clear()
        try:
            for c in range(1, 6):
                assert not groups.char_norm_numerators(g, g.character_at(c)).flags.writeable
            assert rows.nbytes == sum(r.nbytes for r in rows.rows.values())
            assert rows.nbytes <= groups.CHARACTER_ROW_BYTES
            assert len(rows.rows) == groups.CHARACTER_ROW_BYTES // (8 << 20)
            assert list(rows.rows) == [g.character_at(c) for c in range(6 - len(rows.rows), 6)]
        finally:
            rows.clear()

    def test_cached_arrays_reject_writes(self, rng):
        fs = random_frequency_set(make_group([64]), 2, rng)
        cutoff = make_cutoff(fs, 0.1)
        assert make_cutoff(fs, 0.1) is cutoff
        for arr in (cutoff.beta.values, cutoff.psi.values, cutoff.psi_hat.values,
                    cutoff.psi_sqrt.values):
            with pytest.raises(ValueError):
                arr[0] = 0.0


CORE = ("beta", "psi", "psi_hat", "psi_sqrt")


def _bits(cutoff):
    return [(getattr(cutoff, name).values.dtype, getattr(cutoff, name).values.tobytes())
            for name in CORE]


class TestSharedCores:
    # point-mass widths (Bohr set {0}), R = {} (uniform at any width) and ordinary widths;
    # Z/8 and (Z/2)^3 have the same order and the same point mass but never share
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["8", "2^3", "101", "2^3x7", "2^6"]),
                              st.integers(0, 2), st.sampled_from([1e-9, 1e-4, 0.05, 0.3, 1.0])),
                    min_size=2, max_size=6),
           st.integers(0, 2**31))
    def test_a_shared_core_is_the_fresh_build_bit_for_bit(self, draws, seed):
        rng = np.random.default_rng(seed)
        bohr.make_cutoff.cache_clear()
        for spec, d, delta in draws:
            fs = random_frequency_set(parse_group(spec), d, rng)
            held = [c for key, c in bohr._held.items() if key != (fs, delta)]
            cutoff = make_cutoff(fs, delta)
            fresh = bohr.BohrCutoff(fs, delta)
            assert _bits(cutoff) == _bits(fresh)
            assert (cutoff.gamma, cutoff.delta) == (fs, delta)
            twins = [c for c in held if c.psi is cutoff.psi]
            same = [c for c in held if c.group == fs.group
                    and c.beta.values.tobytes() == cutoff.beta.values.tobytes()]
            assert bool(twins) == bool(same)
            for c in twins:
                assert c.group.factors == fs.group.factors
                assert all(getattr(c, name) is getattr(cutoff, name) for name in CORE)
        bohr.make_cutoff.cache_clear()

    @pytest.mark.parametrize("width", [1e-9, 1.0])
    def test_z8_and_z2_cubed_never_share(self, width):
        # 1e-9: both point masses; 1.0 on R = {}: both uniform; their betas are bitwise equal
        bohr.make_cutoff.cache_clear()
        cyclic, cube = make_group([8]), make_group([2, 2, 2])
        chars = {cyclic: [cyclic.character([1])],
                 cube: [cube.character(f) for f in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]}
        if width == 1.0:
            chars = {cyclic: [], cube: []}
        first = make_cutoff(make_frequency_set(cyclic, chars[cyclic]), width)
        second = make_cutoff(make_frequency_set(cube, chars[cube]), width)
        assert first.beta.values.tobytes() == second.beta.values.tobytes()
        assert all(getattr(first, name) is not getattr(second, name) for name in CORE)
        assert _bits(second) == _bits(bohr.BohrCutoff(second.gamma, width))
        bohr.make_cutoff.cache_clear()

    def test_a_shared_core_runs_its_own_checks(self, monkeypatch):
        # the sup-norm bound of _validate depends on delta and d, not on the arrays alone
        checked = []
        validate = bohr.BohrCutoff._validate

        def counted(self):
            checked.append((self.gamma, self.delta))
            validate(self)

        monkeypatch.setattr(bohr.BohrCutoff, "_validate", counted)
        bohr.make_cutoff.cache_clear()
        g = make_group([101])
        first = make_cutoff(make_frequency_set(g, [g.character_at(1)]), 1e-9)
        second = make_cutoff(make_frequency_set(g, [g.character_at(2), g.character_at(3)]), 1e-8)
        assert second.psi is first.psi
        assert checked == [(first.gamma, 1e-9), (second.gamma, 1e-8)]
        bohr.make_cutoff.cache_clear()

    def test_clearing_the_cache_drops_every_shared_core(self, monkeypatch):
        g = make_group([101])
        bohr.make_cutoff.cache_clear()
        first = make_cutoff(make_frequency_set(g, [g.character_at(1)]), 1e-9)
        second = make_cutoff(make_frequency_set(g, [g.character_at(2)]), 1e-9)
        assert second.psi is first.psi
        bohr.make_cutoff.cache_clear()
        assert bohr._held == {}
        built = []
        transform = bohr._transform

        def counted(*args, **kwargs):
            built.append(args)
            return transform(*args, **kwargs)

        monkeypatch.setattr(bohr, "_transform", counted)
        third = make_cutoff(make_frequency_set(g, [g.character_at(3)]), 1e-9)
        assert len(built) == 3 and third.psi is not first.psi
        assert _bits(third) == _bits(first)
        bohr.make_cutoff.cache_clear()
