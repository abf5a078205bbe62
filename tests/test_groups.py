import math
from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    add,
    char_arg_norm,
    char_eval,
    element,
    element_at,
    elements,
    identity,
    line_loop_outcome,
    load_outcome,
    neg,
    scalar_mul,
    subgroup_elements,
)

from arithreg.errors import DomainMismatchError, InvalidSpecError, ResourceBudgetError
from arithreg.groups import (
    F2Subgroup,
    _multiple_index,
    char_values,
    character_table,
    check_enumerable,
    f2_full,
    f2_nullspace,
    f2_parity,
    f2_span,
    make_group,
    neg_index,
    parse_group,
    parse_indices,
)

small_factors = st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=3)

# fields the line loop accepts or rejects, including what numpy's integer
# parser reads differently from `int` (separators, non-ASCII digits and text)
reader_fields = st.one_of(
    st.integers(-20, 20).map(str),
    st.integers(-(2**65), 2**65).map(str),
    st.sampled_from([
        "", " ", "\t", " 4", "2 ", "\t6\t", "+5", "-0", "007", "+-1", "- 1",
        "1_0", str(2**63), str(-(2**63)), str(-(2**63) - 1), "\u0663", "\uff11",
        "\u01fe1\u01fe", "\x1c1", "1\x1f", "\xa01", "1.0", "1e3", "#", "1 #2", "x",
        "\r\n", "1\r\n2", "\x0b3\x0c",
    ]),
)


@st.composite
def reader_input(draw):
    """A group and lines that are mostly rows of its rank, some ragged or blank."""
    factors = draw(small_factors)
    row = st.lists(reader_fields, min_size=len(factors), max_size=len(factors))
    line = st.one_of(
        row.map(",".join),
        row.map(",".join),
        st.lists(reader_fields, max_size=4).map(",".join),
        st.sampled_from(["", "  ", "\t", "\r\n", "\n", ",", "1,2,", "1,2\r\n"]),
    )
    return make_group(factors), draw(st.lists(line, max_size=6))


def parse_outcome(parse, group, lines):
    try:
        return parse(group, lines).tolist()
    except InvalidSpecError as exc:
        return type(exc), str(exc)


class TestMakeGroup:
    def test_order_is_product(self):
        assert make_group([2, 2, 2]).order == 8
        assert make_group([5]).order == 5

    @pytest.mark.parametrize("bad", [[], [0], [-3], [2, 0]])
    def test_rejects_bad_factors(self, bad):
        with pytest.raises(InvalidSpecError):
            make_group(bad)

    def test_mixed_group_element_orders_match_z12(self):
        # (4,3) is cyclic of order 12: brute-force the order of each element
        g = make_group([4, 3])
        orders = []
        for x in elements(g):
            acc = x
            k = 1
            while acc != identity(g):
                acc = add(acc, x)
                k += 1
            orders.append(k)
        assert max(orders) == 12
        assert sorted(orders) == sorted(
            12 // math.gcd(12, k) for k in range(12)
        )

    def test_parse_group_syntax(self):
        assert parse_group("2^10").factors == (2,) * 10
        assert parse_group("5x5x3").factors == (5, 5, 3)
        assert parse_group("101").order == 101
        with pytest.raises(InvalidSpecError):
            parse_group("2^")
        with pytest.raises(InvalidSpecError):
            parse_group("abc")

    def test_element_round_trip_serialization(self):
        g = make_group([4, 3])
        x = element(g, [3, 2])
        assert parse_indices(g, [str(x)]).tolist() == [x.index]

    def test_parse_indices_keeps_order_and_duplicates(self):
        g = make_group([4, 3])
        lines = ["3,2\n", "0,1", "\n", "3,2", "1,0,"]
        assert parse_indices(g, lines).tolist() == [11, 1, 11, 3]
        assert parse_indices(g, []).tolist() == []

    @given(
        small_factors,
        st.lists(st.lists(st.integers(-(2**70), 2**70), min_size=3, max_size=3), max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_parse_indices_matches_element_index(self, factors, rows):
        # reference: one GroupElement per line, reduced by oracles.element
        g = make_group(factors)
        rows = [r[: g.rank] for r in rows]
        lines = [",".join(map(str, r)) + "\n" for r in rows]
        assert parse_indices(g, lines).tolist() == [element(g, r).index for r in rows]

    @given(reader_input(), st.sampled_from(["", "\n"]))
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_parse_indices_matches_the_line_loop(self, tmp_path, case, end):
        # load_set reads the lines as a file: whatever path it takes, it returns
        # what the loop returns and raises what it raises
        g, lines = case
        path = tmp_path / "set.txt"
        path.write_text("\n".join(lines) + end, encoding="utf-8", newline="")
        assert load_outcome(g, path) == line_loop_outcome(g, path)

    @pytest.mark.parametrize("lines", [[",", "1"], ["1", " ,, "], ["1,\n2,"], ["1,,\r,2"]])
    def test_lines_the_text_pass_leaves_to_the_loop(self, lines):
        # a comma-only line is an error, not a blank line; a line break inside
        # a line stays one line
        g = make_group([5])
        assert parse_outcome(parse_indices, g, lines)[0] is InvalidSpecError

    def test_enumeration_guard(self, monkeypatch):
        monkeypatch.setenv("ARITHREG_MAX_N", "100")
        with pytest.raises(ResourceBudgetError):
            check_enumerable(make_group([101]))
        check_enumerable(make_group([100]))

    @pytest.mark.parametrize("spec", ["101", "2^7"])
    def test_index_maps_keep_the_enumeration_guard(self, spec, monkeypatch):
        g = parse_group(spec)
        neg_index.cache_clear()
        monkeypatch.setenv("ARITHREG_MAX_N", "100")
        maps = [
            (neg_index, ()),
            (_multiple_index, (2,)),  # the doubling map
            (char_values, (g.character_at(1),)),
        ]
        for build, args in maps:
            with pytest.raises(ResourceBudgetError):
                build(g, *args)


class TestGroupLaw:
    def test_z5_addition(self):
        g = make_group([5])
        assert add(element(g, [3]), element(g, [4])) == element(g, [2])

    def test_identity(self):
        g = make_group([4, 3])
        for x in elements(g):
            assert add(x, identity(g)) == x
            assert add(x, neg(x)) == identity(g)

    def test_scalar_mul_matches_repeated_addition(self):
        g = make_group([7])
        x = element(g, [3])
        # oracle: -2 * 3 = -(3 + 3)
        assert scalar_mul(-2, x) == neg(add(x, x))
        assert scalar_mul(-2, x) == element(g, [1])

    def test_mismatched_groups_rejected(self):
        a = element(make_group([5]), [1])
        b = element(make_group([7]), [1])
        with pytest.raises(DomainMismatchError):
            add(a, b)

    @settings(max_examples=40, deadline=None)
    @given(small_factors, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(-9, 9))
    def test_group_law_properties(self, factors, i, j, k):
        g = make_group(factors)
        x = element_at(g, i % g.order)
        y = element_at(g, j % g.order)
        assert add(x, y) == add(y, x)
        assert scalar_mul(k, add(x, y)) == add(scalar_mul(k, x), scalar_mul(k, y))


class TestCharacters:
    def test_trivial_character(self):
        g = make_group([6, 5])
        triv = g.character([0, 0])
        for x in elements(g):
            assert char_eval(triv, x) == 1.0

    def test_z8_frequency_one_at_four(self):
        g = make_group([8])
        assert char_eval(g.character([1]), element(g, [4])) == -1.0

    def test_f2_sign_character(self):
        g = make_group([2, 2, 2])
        xi = g.character([1, 0, 1])
        for x in elements(g):
            parity = sum(a * b for a, b in zip(x.coords, xi.freqs)) % 2
            assert char_eval(xi, x) == (-1.0) ** parity

    def test_unit_modulus_and_bilinearity(self, rng):
        g = make_group([4, 3, 5])
        for _ in range(50):
            gamma = g.character_at(int(rng.integers(g.order)))
            x = element_at(g, int(rng.integers(g.order)))
            y = element_at(g, int(rng.integers(g.order)))
            assert abs(abs(char_eval(gamma, x)) - 1.0) < 1e-12
            assert abs(
                char_eval(gamma, add(x, y)) - char_eval(gamma, x) * char_eval(gamma, y)
            ) < 1e-12

    @pytest.mark.parametrize("factors", [(2, 2, 2), (5,), (4, 3), (8, 8, 8), (7, 73)])
    def test_orthogonality(self, factors):
        g = make_group(list(factors))
        assert g.order <= 512
        table = character_table(g)
        col_sums = table.sum(axis=0)
        expected = np.zeros(g.order)
        expected[0] = g.order
        assert np.max(np.abs(col_sums - expected)) < 1e-9


class TestArgNorm:
    def test_identity_is_zero(self):
        g = make_group([4, 3])
        gamma = g.character([1, 2])
        assert char_arg_norm([gamma], identity(g)) == 0.0

    def test_z8_half(self):
        g = make_group([8])
        assert char_arg_norm([g.character([1])], element(g, [4])) == 0.5

    def test_empty_set_is_zero(self):
        g = make_group([8])
        assert char_arg_norm([], element(g, [5])) == 0.0

    def test_matches_complex_argument(self, rng):
        g = make_group([12])
        for _ in range(30):
            gamma = g.character_at(int(rng.integers(g.order)))
            x = element_at(g, int(rng.integers(g.order)))
            expected = abs(np.angle(char_eval(gamma, x))) / (2 * np.pi)
            assert abs(char_arg_norm([gamma], x) - expected) < 1e-12


class TestF2Subgroups:
    def test_annihilator_of_empty_is_full(self):
        H = f2_nullspace([], 3)
        assert H.dim == 3

    def test_single_character_rank_nullity(self):
        H = f2_nullspace([0b110], 3)
        assert H.dim == 2

    def test_two_characters_span_example(self):
        # {110, 011} in (Z/2)^3 -> exhaustive membership gives span{111}
        H = f2_nullspace([0b110, 0b011], 3)
        members = {
            x for x in range(8)
            if bin(x & 0b110).count("1") % 2 == 0 and bin(x & 0b011).count("1") % 2 == 0
        }
        assert set(subgroup_elements(H).tolist()) == members == {0, 0b111}

    def test_double_annihilator(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            rows = [int(rng.integers(0, 1 << n)) for _ in range(int(rng.integers(0, n + 1)))]
            H = f2_span(rows, n)
            assert H.annihilator().annihilator() == H

    def test_annihilator_size_product(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            chars = [int(rng.integers(0, 1 << n)) for _ in range(int(rng.integers(0, 4)))]
            H = f2_nullspace(chars, n)
            assert H.size * f2_span(chars, n).size == 1 << n

    def test_coset_reps_examples(self):
        assert f2_full(3).coset_reps().tolist() == [0]
        assert sorted(F2Subgroup(2, ()).coset_reps().tolist()) == [0, 1, 2, 3]
        # H = span{11} in (Z/2)^2 -> {00, 01}
        assert f2_span([0b11], 2).coset_reps().tolist() == [0b00, 0b01]

    def test_coset_reps_tile_group(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            rows = [int(rng.integers(0, 1 << n)) for _ in range(int(rng.integers(0, n + 1)))]
            H = f2_span(rows, n)
            reps = H.coset_reps()
            seen = set()
            for r in reps:
                coset = {int(r) ^ int(h) for h in subgroup_elements(H)}
                assert not (coset & seen)
                seen |= coset
            assert seen == set(range(1 << n))

    def test_reps_are_lexicographically_least(self, rng):
        n = 6
        H = f2_span([0b110010, 0b001011], n)
        for r in H.coset_reps():
            coset = [int(r) ^ int(h) for h in subgroup_elements(H)]
            assert int(r) == min(coset)

    def test_basis_independence(self):
        H = f2_span([0b110, 0b011, 0b101], 3)
        assert H.dim == 2
        assert H.size == 4

    def test_cosets_match_set_oracle(self, rng):
        # row i is {r_i + h : h in H} in coefficient order, and the rows
        # partition (Z/2)^n; dimension 0 and the full group included
        for n in range(6, 10):
            subgroups = [F2Subgroup(n, ()), f2_full(n)]
            for _ in range(4):
                rows = [int(rng.integers(0, 1 << n)) for _ in range(int(rng.integers(1, n)))]
                subgroups.append(f2_span(rows, n))
            for H in subgroups:
                reps = H.coset_reps()
                grid = H.cosets(reps)
                assert grid.shape == (reps.size, H.size)
                # member t combines the basis rows selected by the bits of t
                helts = [
                    reduce(xor, [b for j, b in enumerate(H.basis) if t >> j & 1], 0)
                    for t in range(H.size)
                ]
                seen: set[int] = set()
                for r, row in zip(reps.tolist(), grid.tolist()):
                    assert row == [r ^ h for h in helts]
                    assert not (set(row) & seen)
                    seen |= set(row)
                assert seen == set(range(1 << n))


class TestF2Parity:
    def test_matches_bit_count_up_to_2_62(self, rng):
        masks = [0, 1, 3, 1 << 31, 1 << 32, (1 << 40) | 1, (1 << 62) - 1, 1 << 62]
        masks += [int(m) for m in rng.integers(0, 1 << 62, size=2000, dtype=np.int64)]
        for shift in range(0, 63, 7):
            masks += [int(m) for m in rng.integers(0, 1 << 62, size=50, dtype=np.int64) >> shift]
        got = f2_parity(np.array(masks, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [m.bit_count() & 1 for m in masks]
