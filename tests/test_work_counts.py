"""Work done per regularity step: one profile per set, one coset-spectra pass per subgroup.

Each visited pair is evaluated once (one profile per distinct set object) and
each visited subgroup once (one coset-spectra pass); the regularity test, the
refinement, the trace, the index and the reduction all read that one evaluation.
A profile sends through the cond2 kernel only the rows its coset screen
leaves undecided: none for a random set at the trivial pair or at a faithful
pair, where psi2 is uniform on ker R, and every row once psi2 is far from
that, as at a seeded scaled pair.  A refinement step adds the rows of its
cover centers, whose worst characters become witnesses.  The progression
table on a cyclic group takes no translate row at all, and the witness
search one, for the recount at its chosen difference.
"""

import hashlib

import numpy as np
import pytest

from conftest import random_indicator

from arithreg import applications, cli, harmonic, reg_f2, reg_general
from arithreg.applications import IntegerSet, sum_free_decompose
from arithreg.bohr import norm_numerators
from arithreg.groups import f2_parity, make_group
from arithreg.harmonic import indicator


@pytest.fixture
def calls(monkeypatch):
    counts = {"profile": 0, "coset_spectra": 0, "refine": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        reg_general, "_screened_profile", counted("profile", reg_general._screened_profile)
    )
    monkeypatch.setattr(
        reg_general, "_refine_pair_detailed",
        counted("refine", reg_general._refine_pair_detailed),
    )
    monkeypatch.setattr(
        reg_f2, "_coset_spectra", counted("coset_spectra", reg_f2._coset_spectra)
    )
    return counts


def bohr_interval(n: int, a: int):
    """{x in Z/n : ||a x / n|| <= 1/6}."""
    g = make_group([n])
    return indicator(g, [x for x in range(n) if min(a * x % n, n - a * x % n) * 6 <= n])


def coset_union(n: int, codim: int, count: int, seed: int):
    """Union of `count` cosets of the subgroup cut out by `codim` random characters."""
    g = make_group([2] * n)
    rng = np.random.default_rng(seed)
    masks = np.arange(g.order)
    chars = rng.integers(1, g.order, size=codim)
    labels = sum(f2_parity(masks & int(c)) << j for j, c in enumerate(chars))
    chosen = rng.choice(1 << codim, size=count, replace=False)
    return indicator(g, list(np.flatnonzero(np.isin(labels, chosen))))


def test_regularize_one_step_on_z2049(calls):
    pair, trace = reg_general.regularize([bohr_interval(2049, 2)], 0.1, 64)
    assert trace["converged"] and len(trace["iterations"]) == 1
    assert calls["profile"] == 1 * (1 + 1)


@pytest.mark.parametrize("spec", [[4096], [2] * 11, [2] * 6 + [35]])
def test_trivial_pair_of_a_random_set_takes_no_kernel_row(calls, kernel_rows, rng, spec):
    g = make_group(spec)
    A = random_indicator(g, rng, density=0.3)
    state = reg_general._PairState([A], reg_general.trivial_pair(g, 3, 0.1))
    assert state.regular
    assert calls["profile"] == 1 and kernel_rows[0] == 0


def test_seeded_pair_takes_every_row_through_the_kernel(kernel_rows, rng):
    g = make_group([4096])
    pair = reg_general.trivial_pair(g, 3, 0.1, "scaled", 2.0**60, [g.character_at(1)])
    reg_general._PairState([random_indicator(g, rng, density=0.3)], pair)
    assert kernel_rows[0] == g.order


def test_irregular_trivial_pair_of_an_interval_takes_only_the_centers(kernel_rows, monkeypatch):
    covers = []

    def cover(*args):
        covers.append(cover_by_translates(*args))
        return covers[-1]

    cover_by_translates = reg_general.cover_by_translates
    monkeypatch.setattr(reg_general, "cover_by_translates", cover)
    A = bohr_interval(2049, 2)
    state = reg_general._PairState([A], reg_general.trivial_pair(A.group, 1, 0.1))
    assert not state.regular and state.counts == [2049]
    assert kernel_rows[0] == 0
    refined, info = reg_general._refine_pair_detailed(state)
    (_, centers), = covers
    assert info["branch"] == "new-characters" and info["witnesses"]
    # the centers' rows; the refined pair is a faithful point mass, where
    # the screen decides every row with no transform
    assert refined.pair.psi2.is_point_mass
    assert kernel_rows[0] == len(centers)


@pytest.mark.parametrize("spec", [[2] * 12, [2] * 6 + [35]])
def test_faithful_path_of_an_interval_takes_only_the_centers(kernel_rows, monkeypatch, spec):
    # each refined pair's psi2 is uniform on a nontrivial subgroup ker R, and
    # the screen decides every row from one transform per coset
    centers = []

    def cover(*args):
        out = cover_by_translates(*args)
        centers.extend(out[1])
        return out

    cover_by_translates = reg_general.cover_by_translates
    monkeypatch.setattr(reg_general, "cover_by_translates", cover)
    g = make_group(spec)
    pair, trace = reg_general.regularize([indicator(g, range(g.order // 3))], 0.1, 3)
    assert [step["branch"] for step in trace["iterations"]] == ["new-characters"] * 3
    assert 1 < np.count_nonzero(norm_numerators(pair.chars) == 0) < g.order
    assert centers and kernel_rows[0] == len(centers)


def test_a_fixed_point_reuses_its_state(monkeypatch, tmp_path, capsys):
    # from the second step on every refinement is a width-shrink to the same
    # pair (eta2 = eta at scale 2^60, gain 0): the loop builds the start state
    # and the first refined one, where each of the 32 steps built its own
    states = [0]

    class Counted(reg_general._PairState):
        def __init__(self, *args):
            states[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(reg_general, "_PairState", Counted)
    monkeypatch.chdir(tmp_path)
    A = bohr_interval(2049, 2)
    harmonic.save_set(A.group, np.flatnonzero(A.values), "interval.txt")
    argv = ["regularize", "--group", "2049", "--sets", "interval.txt", "--eps", "0.2",
            "--mode", "scaled", "--scale", str(2**60), "--budget", "32"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert states[0] <= 3
    # the report's bytes as the loop printed them when it built all 33 states
    assert len(out) == 19169
    assert hashlib.sha256(out).hexdigest() == (
        "f01dc8a6fd0c798646d9508f59958df9079b56e87dcd2fbaffcf841a89b36b43")


def test_regularize_counts_k_times_steps_plus_one(calls, rng):
    g = make_group([101])
    As = [random_indicator(g, rng, density=0.4) for _ in range(2)]
    for eps, budget in ((0.05, 64), (0.05, 2), (0.3, 8)):
        calls["profile"] = 0
        _, trace = reg_general.regularize(As, eps, budget, mode="scaled", scale=2.0**40)
        assert calls["profile"] == len(As) * (len(trace["iterations"]) + 1)


def test_zero_sum_removal_counts_include_the_reduce(calls, rng):
    g = make_group([101])
    As = [random_indicator(g, rng, density=0.4) for _ in range(3)]
    _, _, cert = reg_general.zero_sum_removal(As, 0.1, budget=8)
    attempts = len(cert["attempts"])
    assert calls["refine"] > 0
    assert calls["profile"] == len(As) * (calls["refine"] + attempts)


@pytest.fixture
def single_transforms(monkeypatch):
    """Count transforms of one function: [dft and idft, dft only]; row blocks are not counted."""
    count = [0, 0]
    transform = harmonic._transform

    def counted(group, values, inverse, *args, **kwargs):
        count[0] += np.ndim(values) == 1
        count[1] += np.ndim(values) == 1 and not inverse
        return transform(group, values, inverse, *args, **kwargs)

    monkeypatch.setattr(harmonic, "_transform", counted)
    return count


def test_a_repeated_set_adds_no_transform_and_reduce_makes_none(single_transforms, rng):
    g = make_group([101])
    A, B = (random_indicator(g, rng, density=0.4) for _ in range(2))
    pair = reg_general.trivial_pair(g, 3, 0.1, "scaled", 2.0**40, [g.character_at(5)])
    single_transforms[0] = 0
    reg_general._PairState([A, B], pair)
    two = single_transforms[0]
    single_transforms[0] = 0
    state = reg_general._PairState([A, A, B], pair)
    assert single_transforms[0] == two
    single_transforms[0] = 0
    reg_general._reduce(state)
    assert single_transforms[0] == 0


def test_weighted_count_transforms_each_set_once(single_transforms, rng):
    # one forward transform per set for both conditions and the alpha product,
    # and one per weighted function in the count: 12 when each slot smoothed again
    g = make_group([101])
    As = [random_indicator(g, rng, density=0.4) for _ in range(3)]
    pair = reg_general.trivial_pair(g, 3, 0.1, "scaled", 2.0**40, [g.character_at(5)])
    single_transforms[1] = 0
    reg_general.weighted_T(As, pair, [3, 4, 94])
    assert single_transforms[1] == 6


def test_remove_triangles_f2_one_pass_per_visited_subgroup(calls, rng):
    A = random_indicator(make_group([2] * 10), rng, density=0.3)
    _, _, cert = reg_f2.remove_triangles_f2(A)
    assert calls["coset_spectra"] == sum(a["iterations"] + 1 for a in cert["attempts"])


def test_regularize_f2_one_pass_per_subgroup(calls):
    rep = reg_f2.regularize_f2(coset_union(14, 4, 6, seed=1), 0.1)
    assert rep.iterations == 4
    assert calls["coset_spectra"] == rep.iterations + 1


def test_a_repeated_set_is_profiled_once_per_state(calls, rng):
    g = make_group([101])
    A, B = (random_indicator(g, rng, density=0.4) for _ in range(2))
    _, _, cert = reg_general.zero_sum_removal([A, A, B], 0.05, budget=8)
    assert calls["refine"] > 0
    assert calls["profile"] == 2 * (calls["refine"] + len(cert["attempts"]))


def test_sum_free_decompose_profiles_two_distinct_sets(calls, rng):
    members = (np.flatnonzero(rng.uniform(size=256) < 0.3) + 1).tolist()
    _, _, cert = sum_free_decompose(IntegerSet(256, tuple(members)), 0.05)
    states = calls["refine"] + len(cert["attempts"])
    assert calls["profile"] == 2 * states


@pytest.fixture
def translate_calls(monkeypatch):
    """(layer, rows) per call that applications makes to the translate rows."""
    calls = []
    blocks, indices = applications.translate_blocks, applications.translate_indices

    def counted_blocks(group, values, xs):
        calls.append(("translate_blocks", len(xs)))
        return blocks(group, values, xs)

    def counted_indices(group, x):
        calls.append(("translate_indices", 1))
        return indices(group, x)

    monkeypatch.setattr(applications, "translate_blocks", counted_blocks)
    monkeypatch.setattr(applications, "translate_indices", counted_indices)
    return calls


@pytest.mark.parametrize("n", [2001, 4097])
def test_cyclic_progression_table_takes_no_translate_row(translate_calls, rng, n):
    A = random_indicator(make_group([n]), rng, density=0.3)
    applications.ap3_table(A)
    assert translate_calls == []
    applications.bhk_witness_group(A, 0.05)
    assert translate_calls == [("translate_indices", 1)]
