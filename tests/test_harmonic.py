import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import naive_convolve, naive_dft, random_indicator, recursive_wht
from oracles import constant, element_at, line_loop_outcome, load_outcome, set_file_text

from arithreg import harmonic
from arithreg.errors import DomainMismatchError, InvalidSpecError, ResourceBudgetError
from arithreg.groups import DEFAULT_MAX_ORDER, make_group, parse_group
from arithreg.harmonic import (
    DenseFn,
    Spectrum,
    _transform,
    brute_force_zero_sum,
    convolve,
    dft,
    idft,
    indicator,
    load_set,
    parseval_gap,
    save_set,
    zero_sum_count,
)


class TestDft:
    def test_point_mass_transforms_to_ones(self):
        g = make_group([4, 3])
        F = dft(indicator(g, [0]))
        assert np.allclose(F.values, 1.0)

    def test_constant_transforms_to_point_mass(self):
        g = make_group([12])
        F = dft(constant(g, 1.0))
        expected = np.zeros(12, dtype=complex)
        expected[0] = 12
        assert np.max(np.abs(F.values - expected)) < 1e-10

    def test_indicator_on_z5_matches_naive(self):
        g = make_group([5])
        f = indicator(g, [1, 2])
        assert np.max(np.abs(dft(f).values - naive_dft(f))) < 1e-10

    @pytest.mark.parametrize("factors", [(2,) * 8, (3, 3, 3), (12,), (101,), (5, 5, 3)])
    def test_matches_naive_oracle(self, factors, rng):
        g = make_group(list(factors))
        for _ in range(5):
            f = DenseFn(g, rng.standard_normal(g.order))
            assert np.max(np.abs(dft(f).values - naive_dft(f))) < 1e-9

    def test_wht_is_exact_on_integers(self, rng):
        g = make_group([2] * 8)
        f = DenseFn(g, rng.integers(-50, 50, g.order).astype(float))
        fast = dft(f).values
        oracle = recursive_wht(list(f.values))
        assert np.all(fast.imag == 0.0)
        assert all(fast[i].real == oracle[i] for i in range(g.order))

    def test_round_trip(self, rng):
        for factors in [(7,), (4, 3), (2, 2, 5)]:
            g = make_group(list(factors))
            f = DenseFn(g, rng.standard_normal(g.order))
            back = idft(dft(f))
            assert np.max(np.abs(back.values - f.values)) < 1e-9

    def test_idft_examples(self):
        g = make_group([6])
        ones = Spectrum(g, np.ones(6, dtype=complex))
        assert np.allclose(idft(ones).values, indicator(g, [0]).values, atol=1e-12)
        point = np.zeros(6, dtype=complex)
        point[0] = 6.0
        assert np.allclose(idft(Spectrum(g, point)).values, 1.0)

    def test_idft_reports_imaginary_residue(self):
        g = make_group([5])
        skew = np.zeros(5, dtype=complex)
        skew[1] = 1.0  # no conjugate partner: inverse is genuinely complex
        residue = np.max(np.abs(_transform(g, skew, inverse=True).imag))
        assert residue > 1e-3

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3), st.integers(0, 2**31))
    def test_parseval_property(self, factors, seed):
        g = make_group(factors)
        f = DenseFn(g, np.random.default_rng(seed).standard_normal(g.order))
        assert parseval_gap(f) < 1e-9


class TestConvolve:
    def test_identity_element(self, rng):
        g = make_group([4, 3])
        f = DenseFn(g, rng.standard_normal(12))
        out = convolve(f, indicator(g, [0]))
        assert np.max(np.abs(out.values - f.values)) < 1e-10

    def test_matches_direct_sum_on_z12(self, rng):
        g = make_group([12])
        f = DenseFn(g, rng.standard_normal(12))
        h = DenseFn(g, rng.standard_normal(12))
        assert np.max(np.abs(convolve(f, h).values - naive_convolve(f, h))) < 1e-9

    def test_spectral_identity(self, rng):
        g = make_group([5, 4])
        f = DenseFn(g, rng.standard_normal(20))
        h = DenseFn(g, rng.standard_normal(20))
        lhs = dft(convolve(f, h)).values
        rhs = dft(f).values * dft(h).values
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_young_inequalities(self, rng):
        g = make_group([30])
        for _ in range(20):
            f = DenseFn(g, rng.uniform(0, 1, 30))
            h = DenseFn(g, rng.uniform(0, 1, 30))
            out = convolve(f, h).values
            assert out.sum() <= f.values.sum() * h.values.sum() + 1e-9
            assert out.max() <= f.values.max() * h.values.sum() + 1e-9

    def test_group_mismatch(self):
        with pytest.raises(DomainMismatchError):
            convolve(constant(make_group([3]), 1.0), constant(make_group([4]), 1.0))


class TestZeroSum:
    def test_all_ones_k3(self):
        g = make_group([7])
        ones = constant(g, 1.0)
        assert abs(zero_sum_count([ones] * 3) - 49.0) < 1e-9

    def test_point_masses(self):
        g = make_group([3, 3])
        d0 = indicator(g, [0])
        assert abs(zero_sum_count([d0] * 3) - 1.0) < 1e-10
        assert abs(brute_force_zero_sum([d0] * 3) - 1.0) < 1e-12

    def test_spectral_equals_brute_force(self, rng):
        g = make_group([11])
        for _ in range(10):
            fs = [random_indicator(g, rng) for _ in range(3)]
            assert abs(zero_sum_count(fs) - brute_force_zero_sum(fs)) < 1e-6

    def test_brute_force_on_z7_is_oracle_for_spectral(self, rng):
        g = make_group([7])
        for k in (3, 4, 5):
            fs = [random_indicator(g, rng) for _ in range(k)]
            assert abs(zero_sum_count(fs) - brute_force_zero_sum(fs)) < 1e-6

    def test_literal_sum_against_python_loops(self, rng):
        g = make_group([2, 3])
        fs = [DenseFn(g, rng.standard_normal(6)) for _ in range(3)]
        total = 0.0
        for x in range(6):
            for y in range(6):
                for z in range(6):
                    ex, ey, ez = (element_at(g, i) for i in (x, y, z))
                    s = tuple(
                        (a + b + c) % m
                        for a, b, c, m in zip(ex.coords, ey.coords, ez.coords, g.factors)
                    )
                    if all(v == 0 for v in s):
                        total += fs[0].values[x] * fs[1].values[y] * fs[2].values[z]
        assert abs(brute_force_zero_sum(fs) - total) < 1e-9

    def test_needs_two_functions(self):
        g = make_group([5])
        with pytest.raises(DomainMismatchError):
            zero_sum_count([constant(g, 1.0)])
        with pytest.raises(DomainMismatchError):
            brute_force_zero_sum([constant(g, 1.0)])

    def test_budget_guard(self):
        g = make_group([101])
        ones = constant(g, 1.0)
        with pytest.raises(ResourceBudgetError):
            brute_force_zero_sum([ones] * 3, budget=100)


class TestSerialization:
    def test_set_round_trip(self, tmp_path):
        g = make_group([2, 2, 2])
        path = tmp_path / "set.txt"
        save_set(g, [0, 3, 5], path)
        assert load_set(g, path).tolist() == [0, 3, 5]

    def test_set_round_trip_past_64_factors(self, tmp_path):
        # numpy's unravel_index stops at 64 dimensions; the writer does not
        g = parse_group("1^70x3")
        path = tmp_path / "set.txt"
        save_set(g, [0, 1, 2, 2], path)
        assert path.read_text().splitlines() == [",".join(["0"] * 70 + [r]) for r in "0122"]
        assert load_set(g, path).tolist() == [0, 1, 2, 2]

    def test_set_members_outside_the_group_are_refused(self, tmp_path):
        g = make_group([2, 3])
        for members in ([0, 6], [-1]):
            with pytest.raises(DomainMismatchError):
                save_set(g, members, tmp_path / "set.txt")

    def test_set_file_lines_are_read_leniently(self, tmp_path):
        # blank and whitespace-only lines are skipped, spaces around fields and
        # a trailing comma are accepted, and any integer reduces mod m
        g = make_group([5, 3])
        path = tmp_path / "set.txt"
        path.write_text(f"\n 1 , 2 \n   \n\t\n3,0,\n-1,-1\n{2**64 + 1},{2**70}\n")
        expected = indicator(g, [1 * 3 + 2, 3 * 3 + 0, 4 * 3 + 2, 2 * 3 + 1])
        assert np.array_equal(indicator(g, load_set(g, path)).values, expected.values)

    def test_saved_set_parses_without_the_line_loop(self, tmp_path, monkeypatch, rng):
        # one-digit fields on (Z/2)^12, wider ones up to the seven digits of Z/1000003
        def no_loop(group, lines):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(harmonic, "parse_indices", no_loop)
        path = tmp_path / "set.txt"
        for spec in ("2^12", "4097", "2^6x35", "12x18", "1000003"):
            g = parse_group(spec)
            members = rng.choice(g.order, min(1500, g.order), replace=False).tolist()
            save_set(g, members, path)
            assert load_set(g, path).tolist() == members

    @pytest.mark.parametrize("spec", ["4097", "2^6x35", "2^16", "5x5x5"])
    def test_benchmark_writer_writes_the_saved_bytes(self, spec, tmp_path, rng):
        # the benchmark writes its own set files; while they match save_set's,
        # every one of them takes the byte reader of load_set
        source = Path(__file__).parents[1] / "perfbench" / "inputs.py"
        module_spec = importlib.util.spec_from_file_location("perfbench_inputs", source)
        inputs = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(inputs)
        g = parse_group(spec)
        members = np.sort(rng.choice(g.order, g.order // 3, replace=False))
        inputs.write_group_set(tmp_path / "bench.txt", g.factors, members)
        save_set(g, members, tmp_path / "saved.txt")
        assert (tmp_path / "bench.txt").read_bytes() == (tmp_path / "saved.txt").read_bytes()

    @pytest.mark.parametrize("spec", ["2^3x7", "5x5x3", "1x4", "2^6"])
    def test_saved_bytes_match_the_reference_writer(self, spec, tmp_path, rng):
        # every element in order, then random members with repeats, as a list
        # and as an index array
        g = parse_group(spec)
        members = list(range(g.order)) + rng.integers(0, g.order, 2 * g.order).tolist()
        for arg, path in ((members, tmp_path / "a.txt"), (np.array(members), tmp_path / "b.txt")):
            save_set(g, arg, path)
            assert path.read_bytes() == set_file_text(g, members).encode()
            assert load_set(g, path).tolist() == members


@st.composite
def saved_groups(draw):
    """Up to four factors, one-digit ones often, the order inside the enumeration guard."""
    factors: list[int] = []
    for _ in range(draw(st.integers(1, 4))):
        room = DEFAULT_MAX_ORDER // math.prod(factors)
        factors.append(draw(st.integers(1, min(10, room)) | st.integers(1, min(10**6, room))))
    return make_group(factors)


# hand-written fields: one digit, or 1-20 digits with leading zeros and values >= m
written_fields = st.integers(0, 9).map(str) | st.integers(1, 20).flatmap(
    lambda width: st.text("0123456789", min_size=width, max_size=width))

G25 = make_group([2, 5])


class TestOneDigitReader:
    """The byte reader of the layout `save_set` writes: one-digit fields and wider."""

    @given(st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_digit_files_read_as_the_line_loop(self, tmp_path, data):
        # saved members, and hand-written rows; fields past 18 digits go to the loop
        g = data.draw(saved_groups())
        members = data.draw(st.lists(st.integers(0, g.order - 1), max_size=40))
        field_rows = data.draw(st.lists(
            st.lists(written_fields, min_size=g.rank, max_size=g.rank), max_size=40))
        saved, written = tmp_path / "saved.txt", tmp_path / "written.txt"
        save_set(g, members, saved)
        written.write_text("".join(",".join(row) + "\n" for row in field_rows))
        assert (harmonic._saved_indices(g, saved.read_bytes()) is None) == (not members)
        fits = all(len(field) <= 18 for row in field_rows for field in row)
        assert (harmonic._saved_indices(g, written.read_bytes()) is None) == (
            not field_rows or not fits)
        for path in (saved, written):
            assert load_outcome(g, path) == line_loop_outcome(g, path)
        assert load_set(g, saved).tolist() == members

    def test_digits_at_or_above_the_factor_are_reduced(self, tmp_path):
        g = make_group([5, 2, 1])
        path = tmp_path / "set.txt"
        path.write_bytes(b"7,3,9\n5,1,0\n9,9,1\n4,0,0\n")
        assert harmonic._saved_indices(g, path.read_bytes()).tolist() == [5, 1, 9, 8]
        assert load_set(g, path).tolist() == line_loop_outcome(g, path)

    @pytest.mark.parametrize("data, accepted", [
        (b"1,0\n0,4", None),
        (b"1,0\r\n0,4\r\n1,1\r\n0,0\r\n", None),
        (b"1,0\r0,4\r", None),
        (b"1,0\n\n\n\n\n0,4\n", None),
        (b"1,0,\n1,0,\n0,4,\n1,1,\n", None),
        (b"+1,0\n0,4\n1,1\n", None),
        (b" 1,0\n0,4\n1,1\n", None),
        (b"12,0\n0,4\n1,1\n", [0, 4, 6]),
        ("\u0661,0\n0,4\n".encode(), None),
        (b"\xef\xbb\xbf1,0\n0,4\n", None),
        (b"1,0\n\xff,4\n", None),
        (b"1,0\n0,4\n\xe2\x82", None),
        (b"1\n0\n", None),
        (b"1,0,1,0\n", None),
        (b"", None),
        (b"1234567890123456789,0\n0,4\n", None),
        (b"12,0\n,4\n", None),
        (b"12,0\n\n0,4\n", None),
        (b"12,0\n+0,14\n", None),
    ], ids=["no-final-newline", "crlf", "cr", "blank-lines", "trailing-comma", "plus-sign",
            "space", "two-digits", "arabic-indic-digit", "bom", "invalid-utf8",
            "truncated-utf8", "rank-1-lines", "rank-4-line", "empty", "19-digits",
            "empty-field", "wide-blank-line", "wide-plus-sign"])
    def test_near_layout_files_fall_back_to_the_line_loop(self, data, accepted, tmp_path):
        path = tmp_path / "set.txt"
        path.write_bytes(data)
        got = harmonic._saved_indices(G25, data)
        assert (None if got is None else got.tolist()) == accepted
        assert load_outcome(G25, path) == line_loop_outcome(G25, path)

    def test_enumeration_guard_holds_on_the_byte_path(self, tmp_path, monkeypatch):
        # one-digit fields on (Z/2)^7, wider ones on Z/101
        monkeypatch.setenv("ARITHREG_MAX_N", "100")
        path = tmp_path / "set.txt"
        for g in (make_group([2] * 7), make_group([101])):
            save_set(g, [0, 5, g.order - 1], path)
            with pytest.raises(ResourceBudgetError):
                harmonic._saved_indices(g, path.read_bytes())
            with pytest.raises(ResourceBudgetError):
                load_set(g, path)

    def test_saved_f2_set_loads_as_bytes_in_little_memory(self, tmp_path, monkeypatch, rng):
        # neither text decoding nor the text parser runs, and the peak stays
        # near the file's size (the text path peaks near 11 times it)
        def refuse(*args):
            raise AssertionError("the text path ran")

        g = make_group([2] * 16)
        members = rng.permutation(g.order)[: 1 << 15].tolist()
        path = tmp_path / "set.txt"
        save_set(g, members, path)
        for name in ("read_lines", "_text_lines", "parse_indices"):
            monkeypatch.setattr(harmonic, name, refuse)
        tracemalloc.start()
        try:
            got = load_set(g, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == members
        assert peak < 3 * path.stat().st_size

    def test_saved_cyclic_set_loads_as_bytes_in_little_memory(self, tmp_path, monkeypatch, rng):
        # five-digit fields: one scan and a vector pass per digit place, no text
        def refuse(*args):
            raise AssertionError("the text path ran")

        g = parse_group("65537")
        members = rng.permutation(g.order)[: 1 << 15].tolist()
        path = tmp_path / "set.txt"
        save_set(g, members, path)
        for name in ("read_lines", "_text_lines", "parse_indices"):
            monkeypatch.setattr(harmonic, name, refuse)
        tracemalloc.start()
        try:
            got = load_set(g, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == members
        assert peak < 12 * path.stat().st_size
