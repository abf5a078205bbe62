"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np

from conftest import all_subspaces, naive_dft, random_indicator
from oracles import _shift_violation, subgroup_elements
from test_bohr import simpson_smoothed_value, smoothed_beta, smoothed_indicator

from arithreg.applications import (
    IntegerSet,
    bhk_witness_group,
    bhk_witness_interval,
    build_tower_function,
    nu_mass_identity,
    schur_triples,
    spanning_family,
    sum_free_decompose,
    tower_sequence,
    verify_tower_step,
)
from arithreg.bohr import (
    check_bohr_growth,
    check_cutoff_property,
    fine_width,
    make_cutoff,
    make_frequency_set,
    norm_values,
    part_iv_width,
    part_ix_width,
    random_frequency_set,
    tail_bound,
    tail_mass,
    tail_sum,
)
from arithreg.cli import main as cli_main
from arithreg.groups import f2_span, make_group
from arithreg.harmonic import (
    DenseFn,
    brute_force_zero_sum,
    indicator,
    parseval_gap,
    save_set,
    zero_sum_count,
    dft,
)
from arithreg.reg_f2 import (
    _CosetState,
    regularize_f2,
    remove_triangles_f2,
    triangle_count_exact,
    wht_last_axis,
)
from arithreg.reg_general import (
    RegPair,
    check_energy_difference,
    check_uniform_weight_count,
    cover_by_translates,
    exact_zero_sum_tuples,
    trivial_pair,
    weighted_T,
    zero_sum_removal,
    _weighted_functions,
)

SEED = 31337


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_dft_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    groups = (
        [make_group([2] * k) for k in range(1, 11)]
        + [make_group([3] * k) for k in range(1, 7)]
        + [make_group([12]), make_group([101]), make_group([5, 5, 3])]
    )
    worst_sup = 0.0
    worst_parseval = 0.0
    for g in groups:
        for _ in range(50):
            f = DenseFn(g, rng.standard_normal(g.order))
            F = dft(f)
            worst_sup = max(worst_sup, float(np.max(np.abs(F.values - naive_dft(f)))))
            worst_parseval = max(worst_parseval, parseval_gap(f, F))
    elapsed = time.monotonic() - t0
    ok = worst_sup < 1e-9 and worst_parseval < 1e-9 and elapsed < 30.0
    _report(1, "transform oracle equivalence",
            ok, f"sup {worst_sup:.2e}, parseval {worst_parseval:.2e}, {elapsed:.1f}s")


def test_criterion_2_zero_sum_operator():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    ranges = {3: (20, 200), 4: (15, 110), 5: (8, 30)}
    for i in range(100):
        k = (3, 4, 5)[i % 3]
        lo, hi = ranges[k]
        n = int(rng.integers(lo, hi + 1))
        g = make_group([n])
        fs = [random_indicator(g, rng, density=float(rng.uniform(0.2, 0.8))) for _ in range(k)]
        worst = max(worst, abs(zero_sum_count(fs) - brute_force_zero_sum(fs)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    _report(2, "zero-sum spectral vs exhaustive", ok, f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_bohr_inequality_suite():
    rng = np.random.default_rng(SEED + 2)
    pool = [mk for mk in ([n] for n in (64, 101, 128, 243, 512, 625, 729, 1024))]
    pool += [[4, 3, 5], [8, 8], [5, 5, 3], [2, 2, 2, 2, 2, 3, 3]]
    violations = []

    for draw in range(50):
        g = make_group(pool[draw % len(pool)])
        d = int(rng.integers(1, 4))
        fs = random_frequency_set(g, d, rng)
        delta = float(rng.uniform(0.02, 0.45))
        n = g.order

        # plain neighbourhood growth
        if not check_bohr_growth(fs, delta).holds:
            violations.append(("bohr-growth", draw))

        # smoothed cutoff beta: mass / sup / shift stability / tails
        beta = smoothed_beta(fs, delta)
        if abs(beta.values.sum() - 1.0) > 1e-12:
            violations.append(("beta-mass", draw))
        if beta.values.max() > 3.0 / (delta**d * n) * (1 + 1e-9):
            violations.append(("beta-sup", draw))
        with np.errstate(over="ignore"):
            coeffs = 5.0 * np.sinh(norm_values(fs) / delta)
        if _shift_violation(g, beta.values, coeffs) > 1e-12:
            violations.append(("beta-shift", draw))
        for k in range(1, 11):
            eta = 0.05 * k
            if tail_sum(fs, beta, eta) > 2.0 * 5.0**d * math.exp(-eta / (2 * delta)) + 1e-12:
                violations.append(("beta-tail", draw, k))

        # psi tail bound
        cutoff = make_cutoff(fs, delta)
        eta = float(rng.uniform(0.0, 0.5))
        if tail_mass(cutoff, eta) > tail_bound(cutoff, eta) + 1e-12:
            violations.append(("psi-tail", draw))

        # cutoff property parts i/ii/iii/v at the drawn width
        for part in ("i", "ii", "iii"):
            if not check_cutoff_property(part, fs, delta).holds:
                violations.append((part, draw))
        if _shift_violation(g, cutoff.psi.values, coeffs) > 1e-12:
            violations.append(("v", draw))

        # parts iv and vi-ix under their stated hypotheses
        tau = float(rng.uniform(0.05, 0.24))
        delta_iv = min(delta, part_iv_width(tau, d)) * 0.9
        rep = check_cutoff_property("iv", fs, delta_iv, tau=tau,
                                    chi=fs.chars[int(rng.integers(d))])
        if not (rep.hypothesis_ok and rep.holds and rep.details["consequent_holds"]):
            violations.append(("iv", draw))

        gamma2 = fs.extend(random_frequency_set(g, 1, rng).chars)
        d2 = fine_width(delta, tau, gamma2.d) * 0.9
        for part, kwargs in (
            ("vi", {"m": int(rng.integers(1, 4))}),
            ("vii", {}),
            ("viii", {"f": DenseFn(g, rng.uniform(-1, 1, n))}),
        ):
            rep = check_cutoff_property(
                part, fs, delta, gamma2=gamma2, delta2=d2, tau=tau, **kwargs
            )
            if not (rep.hypothesis_ok and rep.holds):
                violations.append((part, draw))

        hat = cutoff.psi_hat.values.real.copy()
        hat[0] = -1.0
        best = int(np.argmax(hat))
        kappa = max(float(hat[best]) * 0.9, 1e-9)
        omega = float(rng.uniform(0.05, 0.5))
        d2_ix = part_ix_width(delta, kappa, omega, gamma2.d) * 0.9
        rep = check_cutoff_property(
            "ix", fs, delta, gamma2=gamma2, delta2=d2_ix,
            chi=g.character_at(best), kappa=kappa, omega=omega,
        )
        if not (rep.hypothesis_ok and rep.holds):
            violations.append(("ix", draw))

    # closed form equals quadrature of the defining integral (20 draws)
    worst_quad = 0.0
    for _ in range(20):
        n = int(rng.integers(16, 600))
        g = make_group([n])
        fs = random_frequency_set(g, int(rng.integers(1, 4)), rng)
        delta = float(rng.uniform(0.02, 0.4))
        raw = smoothed_indicator(fs, delta)
        norms = norm_values(fs)
        x = int(rng.integers(n))
        worst_quad = max(
            worst_quad, abs(raw.values[x] - simpson_smoothed_value(norms[x], delta))
        )
    ok = not violations and worst_quad < 1e-6
    _report(3, "Bohr inequality suite", ok,
            f"violations {violations[:4]}, quadrature {worst_quad:.2e}")


def test_criterion_4_f2_regularity():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 3)
    g = make_group([2] * 10)
    n = g.order
    sets = [random_indicator(g, rng, density=float(rng.uniform(0.15, 0.85)))
            for _ in range(20)]
    # structured: two hyperplanes, two-plane intersections, one affine plane
    for xi in (0b1000000001, 0b0010010000):
        sets.append(indicator(g, [x for x in range(n) if bin(x & xi).count("1") % 2 == 0]))
    for xi1, xi2 in ((0b1100000000, 0b0000000011), (0b1010101010, 0b0101010101)):
        sets.append(indicator(g, [
            x for x in range(n)
            if bin(x & xi1).count("1") % 2 == 0 and bin(x & xi2).count("1") % 2 == 0
        ]))
    sets.append(indicator(g, [x for x in range(n) if bin(x & 0b1111).count("1") % 2 == 1]))

    failures = []
    for eps in (0.3, 0.2, 0.1):
        cap = math.floor(eps**-3)
        for i, A in enumerate(sets):
            rep = regularize_f2(A, eps)
            if rep.iterations > cap:
                failures.append(("iterations", eps, i))
            gains = np.diff(rep.index_trace)
            if rep.iterations and gains.min() < eps**3 - 1e-12:
                failures.append(("gain", eps, i))
            ok, count = _CosetState(A, rep.subgroup).check(eps)
            if not ok or count != rep.irregular_values:
                failures.append(("recheck", eps, i))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _report(4, "subgroup regularization on (Z/2)^10", ok,
            f"failures {failures[:4]}, {elapsed:.1f}s")


def test_criterion_5_counting_lemma_exhaustive():
    rng = np.random.default_rng(SEED + 4)
    eps = 0.2
    subgroups = [H for k in range(3, 7) for H in all_subspaces(6, k)]
    assert len(subgroups) == 1395 + 651 + 63 + 1
    g6 = make_group([2] * 6)
    worst = -math.inf
    violations = 0
    for _ in range(25):
        A = random_indicator(g6, rng, density=float(rng.uniform(0.2, 0.8)))
        for H in subgroups:
            reps = H.coset_reps()
            helts = H.elements_by_coeff()
            spectra = wht_last_axis(A.values[np.bitwise_xor.outer(reps, helts)])
            sup = np.max(np.abs(spectra[:, 1:]), axis=1) if H.size > 1 else np.zeros(len(reps))
            first_regular = sup <= eps * H.size
            if not first_regular.any():
                continue
            dens = spectra[:, 0] / H.size
            t_all = np.einsum("au,bu,cu->abc", spectra, spectra, spectra) / H.size
            prod = np.einsum("a,b,c->abc", dens, dens, dens) * H.size**2
            dev = np.abs(t_all - prod)[first_regular] - eps * H.size**2
            worst = max(worst, float(dev.max()))
            violations += int(np.count_nonzero(dev > 1e-6))
    _report(5, "counting bound over all deep subgroups of (Z/2)^6",
            violations == 0, f"worst excess {worst:.2e}")


def test_criterion_6_removal_suite():
    rng = np.random.default_rng(SEED + 5)
    g8 = make_group([2] * 8)
    n8 = g8.order
    failures = []

    # triangle removal on (Z/2)^8: sparse random, planted coset unions, affine planes
    instances = [random_indicator(g8, rng, density=float(rng.uniform(0.1, 0.35)))
                 for _ in range(8)]
    K = f2_span([1 << j for j in range(4)], 8)
    for t in range(6):
        quotient = [0b10000000 ^ (v << 4) for v in (0, 1, 2, 4)]
        members = sorted({c ^ int(h) for c in quotient for h in subgroup_elements(K)})
        drop = set(rng.choice(members, size=3 + t, replace=False).tolist())
        instances.append(indicator(g8, [m for m in members if m not in drop]))
    for xi in (0b10000000, 0b00110000, 0b10101010):
        instances.append(
            indicator(g8, [x for x in range(n8) if bin(x & xi).count("1") % 2 == 1])
        )
    for xi in (0b11000011, 0b00011000, 0b01100110):
        plane = [x for x in range(n8) if bin(x & xi).count("1") % 2 == 1]
        keep = rng.uniform(size=len(plane)) < 0.8
        instances.append(indicator(g8, [m for m, k in zip(plane, keep) if k]))
    assert len(instances) == 20
    for i, A in enumerate(instances):
        survivor, removed, cert = remove_triangles_f2(A)
        if triangle_count_exact(survivor) != 0:
            failures.append(("triangles", i))
        if removed > 3.0 * cert["eps"] ** (1 / 3) * n8:
            failures.append(("bound", i))

    # zero-sum removal on Z/101, planted interval instances plus noise
    g101 = make_group([101])
    for t in range(20):
        w = int(rng.integers(8, 20))
        a1 = indicator(g101, range(1, w + 1))
        a2 = indicator(g101, range(1, w + 1))
        noise = rng.integers(0, 101, size=int(rng.integers(0, 4))).tolist()
        a3 = indicator(g101, list(range(40, 61)) + noise)
        out, removed, cert = zero_sum_removal([a1, a2, a3], 0.1)
        if exact_zero_sum_tuples(out) != 0:
            failures.append(("zero-sum", t))

    # sum-free decomposition on [N], N <= 256
    for t in range(20):
        n = (64, 128, 200, 256)[t % 4]
        members = sorted(
            rng.choice(range(1, n + 1), size=int(rng.integers(8, n // 2)), replace=False).tolist()
        )
        B, C, cert = sum_free_decompose(IntegerSet(n, tuple(members)), 0.05)
        if schur_triples(B) != 0:
            failures.append(("schur", t))
        if sorted(B.members + C.members) != members:
            failures.append(("partition", t))
    _report(6, "triangle / zero-sum / sum-free removal", not failures,
            f"failures {failures[:4]}")


def test_criterion_7_general_checkers():
    rng = np.random.default_rng(SEED + 6)
    failures = []

    # local variance identity and energy inequality, 50 draws
    for t in range(50):
        g = make_group([int(rng.choice([49, 64, 101]))])
        fs = random_frequency_set(g, int(rng.integers(1, 3)), rng)
        phi1 = make_cutoff(fs, float(rng.uniform(0.08, 0.3))).psi
        phi2 = make_cutoff(fs, float(rng.uniform(0.02, 0.08))).psi
        f = DenseFn(g, rng.uniform(-1, 1, g.order))
        rep = check_energy_difference(phi1, phi2, f)
        if rep.details["identity_residue"] > 1e-8 or not rep.holds:
            failures.append(("energy", t))

    # covering postconditions, 100 draws (also asserted internally)
    g101 = make_group([101])
    for t in range(100):
        fs = random_frequency_set(g101, int(rng.integers(1, 4)), rng)
        size = int(rng.integers(3, 90))
        u = sorted(rng.choice(101, size=size, replace=False).tolist())
        kappa = float(rng.uniform(0.03, 0.4))
        pieces, centers = cover_by_translates(g101, u, kappa, fs)
        flat = np.concatenate(pieces)
        if (
            len(set(flat.tolist())) != flat.size
            or flat.size < size / 2
            or not set(centers) <= set(u)
            or len(pieces) > (2.0 / kappa) ** fs.d
        ):
            failures.append(("cover", t))

    # uniform-weight and product-count bounds, 50 conforming draws;
    # the trivial faithful pair keeps uniform (non-degenerate) cutoffs,
    # nonempty-R faithful pairs degenerate to point masses (mode recorded)
    modes = []
    worst_oracle_gap = 0.0
    for t in range(50):
        k = (3, 4, 5)[t % 3]
        n = {3: 101, 4: 49, 5: 21}[k]
        g = make_group([n])
        eps = float(rng.uniform(0.2, 0.4))
        if t % 2 == 0:
            pair = trivial_pair(g, k, eps)
        else:
            fs = random_frequency_set(g, 1, rng)
            pair = RegPair(fs, float(rng.uniform(0.2, 0.5)), k, eps, "faithful")
        modes.append((pair.mode, pair.degenerate))
        f = DenseFn(g, rng.uniform(-1, 1, n))
        rep = check_uniform_weight_count(pair, f, k)
        if not rep.holds:
            failures.append(("uniform-weight", t))

        As = [random_indicator(g, rng) for _ in range(k)]
        xs = [int(rng.integers(n)) for _ in range(k - 1)]
        xs.append((-sum(xs)) % n)
        wrep = weighted_T(As, pair, xs)
        brute = brute_force_zero_sum(_weighted_functions(As, pair, xs))
        worst_oracle_gap = max(worst_oracle_gap, abs(wrep.details["value"] - brute))
        if wrep.hypothesis_ok and not wrep.holds:
            failures.append(("product-count", t))
    ok = not failures and worst_oracle_gap < 1e-6
    _report(7, "general-group checkers", ok,
            f"failures {failures[:4]}, oracle gap {worst_oracle_gap:.2e}, "
            f"degenerate draws {sum(1 for _, d in modes if d)}/50")


def test_criterion_8_progression_witnesses():
    rng = np.random.default_rng(SEED + 7)
    failures = []
    eps = 0.05
    sizes = [101] * 20 + [501] * 16 + [1001] * 14
    densities = [0.2, 0.3, 0.5]
    for t, n in enumerate(sizes):
        g = make_group([n])
        dens = densities[t % 3]
        A = random_indicator(g, rng, density=dens)
        w = bhk_witness_group(A, eps)
        if w.d_index == 0:
            failures.append(("zero-d", t))
        members = set(np.flatnonzero(A.values > 0.5).tolist())
        recount = sum(
            1 for x in members
            if (x + w.d_index) % n in members and (x + 2 * w.d_index) % n in members
        )
        if recount != int(w.count):
            failures.append(("recount", t))
        if w.count < (A.values.mean() ** 3 - eps) * n:
            failures.append(("bound", t))

    for t in range(15):
        n = (101, 501, 1001)[t % 3]
        members = sorted(
            rng.choice(range(1, n + 1), size=int(0.4 * n), replace=False).tolist()
        )
        I = IntegerSet(n, tuple(members))
        w = bhk_witness_interval(I, eps)
        if w.d is None or abs(w.d) > eps * n:
            failures.append(("interval-cap", t))
        else:
            mem = set(members)
            genuine = sum(
                1 for x in members if x + w.d in mem and x + 2 * w.d in mem
            )
            if genuine != w.count:
                failures.append(("interval-count", t))

    worst_gap = 0.0
    g101 = make_group([101])
    for t in range(20):
        d = int(rng.integers(0, 3))
        fs = random_frequency_set(g101, d, rng) if d else make_frequency_set(g101)
        pair = RegPair(fs, float(rng.uniform(0.1, 0.5)), 3, 0.1, "scaled", 2.0**45)
        total, t_val = nu_mass_identity(pair)
        worst_gap = max(worst_gap, abs(total - t_val))
        if total > 1.0 + 8.0 * pair.eps + 1e-9:
            failures.append(("nu-mass", t))
    ok = not failures and worst_gap < 1e-8
    _report(8, "progression-density witnesses", ok,
            f"failures {failures[:4]}, nu identity gap {worst_gap:.2e}")


def test_criterion_9_tower_construction():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 8)
    failures = []
    if [tower_sequence(i) for i in range(5)] != [0, 1, 2, 8, 512]:
        failures.append("dims")
    for m, f_dim in ((10, 10), (40, 10), (80, 20)):
        fam = spanning_family(m, seed=SEED)
        if fam.size != m:
            failures.append(("family-size", m))
        need = math.ceil(0.95 * m)
        counts = np.zeros(1 << f_dim)
        np.add.at(counts, fam, 1.0)
        zero_counts = (m + wht_last_axis(counts)) / 2.0
        if int(zero_counts[1:].max()) >= need:
            failures.append(("hyperplane", m))

    spec, f = build_tower_function(11, 3, seed=7)
    # level i of f = (1/2) sum_j 4^-j b_j, read back exactly from f
    levels = [np.floor(2 * f.values * 4.0**i) % 4 for i in spec.levels]
    if [int(b.sum()) for b in levels] != [1024, 1024, 1024] or spec.level_sizes != (1024,) * 3:
        failures.append("level-sizes")
    if f.values.min() < 0 or f.values.max() > 1:
        failures.append("range")

    for i in spec.levels:
        rep = verify_tower_step(spec, f, spec.chain[i], i, eps=0.04)
        if not rep["coefficient_bound_ok"]:
            failures.append(("chain-bound", i))

    checked = 0
    while checked < 50:
        i = int(rng.integers(0, 3))
        h_dim = spec.n - spec.cumulative(i)
        block = spec.cumulative(i + 1) - spec.cumulative(i)
        # force one basis vector with a bit in the level block: H escapes H_{i+1}
        lead = int(rng.integers(1, 1 << block)) << (h_dim - block)
        rows = [lead] + [int(rng.integers(1, 1 << h_dim)) for _ in range(2)]
        H = f2_span(rows, spec.n)
        if spec.chain[i + 1].contains_subgroup(H):
            continue
        rep = verify_tower_step(spec, f, H, i, eps=0.04)
        if rep["escaping_count"] == 0:
            continue
        if not rep["coefficient_bound_ok"]:
            failures.append(("random-subgroup", i, rows))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _report(9, "tower construction and inductive bound", ok,
            f"failures {failures[:3]}, {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    g5 = make_group([5])
    save_set(g5, range(5), tmp_path / "full5.txt")
    g6 = make_group([2] * 6)
    save_set(
        g6,
        [x for x in range(64) if bin(x & 0b101000).count("1") % 2 == 0],
        tmp_path / "hyper6.txt",
    )
    commands = [
        ["count", "--group", "5", "--sets", str(tmp_path / "full5.txt"),
         str(tmp_path / "full5.txt"), str(tmp_path / "full5.txt")],
        ["regularize-f2", "--group", "2^6", "--set", str(tmp_path / "hyper6.txt"),
         "--eps", "0.1"],
        ["bohr-check", "--group", "101", "--d", "2", "--delta", "0.1", "--seed", "11",
         "--parts", "i", "ii", "iii", "v", "vii"],
        ["tower", "--n", "11", "--depth", "3", "--seed", "5"],
    ]
    ok = True
    for idx, cmd in enumerate(commands):
        a = tmp_path / f"a{idx}.json"
        b = tmp_path / f"b{idx}.json"
        assert cli_main(cmd + ["--out", str(a)]) == 0
        assert cli_main(cmd + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            ok = False
    _report(10, "seeded CLI reports are byte-identical", ok)
