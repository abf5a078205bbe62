"""Batch experiment driver.

One command per process; every report embeds the parsed config, the seed and
the library version, and is serialized with sorted keys so a fixed config
reproduces identical bytes.  A failed inequality is report data; nonzero
exit codes are reserved for usage errors (2), resource budgets (3) and
internal invariant failures (4).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .applications import (
    IntegerSet,
    bhk_witness_group,
    bhk_witness_interval,
    build_tower_function,
    nu_mass_spectral,
    nu_weight,
    sum_free_decompose,
    tower_sequence,
    verify_tower_step,
)
from .bohr import (
    check_bohr_growth,
    check_cutoff_property,
    make_cutoff,
    random_frequency_set,
    tail_bound,
    tail_mass,
)
from .errors import (
    DomainMismatchError,
    InternalCheckError,
    InvalidSpecError,
    ResourceBudgetError,
    RetryExhaustedError,
    UsageError,
)
from .groups import COUNT_CROSSCHECK_BUDGET, GroupSpec, f2_span, parse_element, parse_group
from .harmonic import (
    DenseFn,
    brute_force_zero_sum,
    indicator,
    load_set,
    zero_sum_count,
)
from .reg_f2 import regularize_f2, remove_triangles_f2, triangle_count_exact
from .reg_general import regularize, trivial_pair, zero_sum_removal


def _load_indicator(group: GroupSpec, path: str) -> DenseFn:
    return indicator(group, load_set(group, path))


def _load_integer_set(n: int, path: str) -> IntegerSet:
    members = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    members.append(int(line))
                except ValueError as exc:
                    raise InvalidSpecError(f"bad integer {line!r} in {path}") from exc
    return IntegerSet(n, tuple(members))


def _emit(report: dict, args: argparse.Namespace) -> None:
    # the output path is not part of the experiment: identical configs must
    # produce identical bytes wherever the report lands
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    payload = {
        "command": args.command,
        "config": config,
        "version": __version__,
        "report": report,
    }
    if getattr(args, "format", "json") == "csv":
        text = _flatten_csv(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _flatten_csv(payload: dict) -> str:
    rows: list[tuple[str, str]] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, (list, tuple, np.ndarray)):
            rows.append((prefix, json.dumps(list(value), default=_jsonable)))
        else:
            rows.append((prefix, json.dumps(value, default=_jsonable)))

    walk("", payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_regularize_f2(args) -> dict:
    group = parse_group(args.group)
    if not group.is_f2:
        raise InvalidSpecError("regularize-f2 needs a group of the form 2^n")
    A = _load_indicator(group, args.set)
    rep = regularize_f2(A, args.eps)
    trace = rep.to_dict()
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(trace, fh, sort_keys=True, indent=2, default=_jsonable)
    return {
        "group": str(group),
        "set_size": int(A.values.sum()),
        "subgroup_dim": rep.subgroup.dim,
        "subgroup_basis": [int(b) for b in rep.subgroup.basis],
        "trace": trace,
    }


def cmd_regularize(args) -> dict:
    group = parse_group(args.group)
    sets = [_load_indicator(group, p) for p in args.sets]
    seed_chars = []
    if args.seed_characters == "interval":
        if group.rank != 1 or group.order % 2 == 0:
            raise InvalidSpecError("interval seeding needs a cyclic group of odd order")
        n = group.order
        seed_chars = [group.character((1,)), group.character((pow(2, -1, n),))]
    pair, trace = regularize(
        sets, args.eps, args.budget, mode=args.mode, scale=args.scale,
        seed_chars=seed_chars,
    )
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(trace, fh, sort_keys=True, indent=2, default=_jsonable)
    return {
        "group": str(group),
        "set_sizes": [int(A.values.sum()) for A in sets],
        "pair": pair.describe() | {"chars": [list(c.freqs) for c in pair.chars.chars]},
        "trace": trace,
    }


def cmd_count(args) -> dict:
    group = parse_group(args.group)
    sets = [_load_indicator(group, p) for p in args.sets]
    value = zero_sum_count(sets)
    out = {"group": str(group), "value": value}
    k = len(sets)
    if group.order ** (k - 1) <= COUNT_CROSSCHECK_BUDGET:
        out["brute_force"] = brute_force_zero_sum(sets)
    return out


def cmd_remove(args) -> dict:
    group = parse_group(args.group)
    sets = [_load_indicator(group, p) for p in args.sets]
    if group.is_f2 and len(sets) == 1:
        survivor, removed, cert = remove_triangles_f2(
            sets[0], args.eps if args.eps else None
        )
        return {
            "group": str(group),
            "mode": "triangles-f2",
            "removed": removed,
            "certificate": cert,
            "survivor_size": int(survivor.values.sum()),
            "residual_triangles": triangle_count_exact(survivor),
        }
    survivors, removed, cert = zero_sum_removal(
        sets, args.eps or 0.1, mode=args.mode, scale=args.scale, budget=args.budget
    )
    return {
        "group": str(group),
        "mode": "zero-sum",
        "removed": removed,
        "certificate": cert,
        "survivor_sizes": [int(s.values.sum()) for s in survivors],
    }


def cmd_bhk(args) -> dict:
    if not args.interval and not args.group:
        raise InvalidSpecError("bhk needs either --group or --interval")
    if args.interval:
        A = _load_integer_set(args.interval, args.set)
        w = bhk_witness_interval(A, args.eps)
        return {
            "interval": args.interval,
            "set_size": A.size,
            "alpha": w.alpha,
            "d": w.d,
            "count": w.count,
            "bound": w.bound,
            "bound_ok": w.bound_ok,
            "d_cap": w.d_cap,
        }
    group = parse_group(args.group)
    A = _load_indicator(group, args.set)
    w = bhk_witness_group(A, args.eps)
    out = {
        "group": str(group),
        "set_size": int(A.values.sum()),
        "alpha": w.alpha,
        "d_index": w.d_index,
        "count": w.count,
        "bound": w.bound,
        "bound_ok": w.bound_ok,
    }
    pair = trivial_pair(group, 3, args.eps)
    nu = nu_weight(pair)
    out["nu_path"] = {
        "sum_p_nu": float(np.sum(w.table * nu.values)),
        "alpha_cubed_n": w.alpha**3 * group.order,
        "nu_mass": float(nu.values.sum()),
        "nu_mass_spectral": nu_mass_spectral(pair),
        "nu_mass_bound": 1.0 + 8.0 * args.eps,
    }
    return out


def cmd_sumfree(args) -> dict:
    A = _load_integer_set(args.n, args.set)
    B, C, cert = sum_free_decompose(
        A, args.eps, mode=args.mode, scale=args.scale, budget=args.budget
    )
    return {
        "n": args.n,
        "set_size": A.size,
        "b": list(B.members),
        "c": list(C.members),
        "certificate": cert,
    }


def cmd_tower(args) -> dict:
    spec, f = build_tower_function(args.n, args.depth, args.seed)
    level_checks = []
    for i in spec.levels:
        h_dim = spec.n - spec.cumulative(i)
        h_level = f2_span([1 << j for j in range(h_dim)], spec.n)
        chk = verify_tower_step(spec, f, h_level, i, args.eps)
        level_checks.append(
            {
                "i": i,
                "escaping_fraction": chk["escaping_fraction"],
                "min_coefficient_ratio": chk["min_coefficient_ratio"],
                "threshold": chk["threshold"],
                "coefficient_bound_ok": chk["coefficient_bound_ok"],
            }
        )
    report = {
        "n": args.n,
        "depth": args.depth,
        "dims": list(spec.dims),
        "levels_built": list(spec.levels),
        "level_sizes": [int(b.values.sum()) for b in spec.b_sets],
        "sup_f": float(f.values.max()),
        "level_checks": level_checks,
    }
    if args.verify:
        group = GroupSpec((2,) * spec.n)
        with open(args.verify) as fh:
            masks = [parse_element(group, line).index for line in fh if line.strip()]
        H = f2_span(masks, spec.n)
        report["verify"] = [
            verify_tower_step(spec, f, H, i, args.eps)
            for i in spec.levels
            if _inside_level(spec, H, i)
        ]
    return report


def _inside_level(spec, H, i) -> bool:
    h_dim = spec.n - spec.cumulative(i)
    return f2_span([1 << j for j in range(h_dim)], spec.n).contains_subgroup(H)


def cmd_bohr_check(args) -> dict:
    group = parse_group(args.group)
    rng = np.random.default_rng(args.seed)
    fs = random_frequency_set(group, args.d, rng)
    reports = [check_bohr_growth(fs, args.delta).to_dict()]
    cutoff = make_cutoff(fs, args.delta)
    eta = args.eta if args.eta is not None else 4.0 * args.delta
    reports.append(
        {
            "part": "tail",
            "eta": eta,
            "lhs": tail_mass(cutoff, eta),
            "rhs": tail_bound(cutoff, eta),
            "holds": tail_mass(cutoff, eta) <= tail_bound(cutoff, eta),
        }
    )
    for part in args.parts:
        kwargs = {}
        part_delta = args.delta
        if part in ("iv",):
            # run at a width satisfying the part's narrowness hypothesis
            part_delta = min(args.delta, 2.0**-12 * args.tau**2 / max(args.d, 1)) * 0.9
            kwargs = {"tau": args.tau, "chi": fs.chars[0]}
        elif part in ("vi", "vii", "viii", "ix"):
            extra = random_frequency_set(group, 1, rng)
            gamma2 = fs.extend(extra.chars)
            d2 = args.delta2
            if d2 is None:
                d2 = 2.0**-13 * args.delta * args.tau**2 / max(gamma2.d, 1)
            kwargs = {"gamma2": gamma2, "delta2": d2, "tau": args.tau}
            if part == "viii":
                kwargs["f"] = DenseFn(
                    group, rng.uniform(-1.0, 1.0, group.order)
                )
            if part == "ix":
                hat = cutoff.psi_hat.values.real.copy()
                hat[0] = -1.0
                best = int(np.argmax(hat))
                kwargs |= {
                    "chi": group.character_at(best),
                    "kappa": max(float(hat[best]) * 0.9, 1e-6),
                    "omega": args.tau,
                }
                kwargs["delta2"] = (
                    kwargs["omega"] ** 2 * kwargs["kappa"] ** 2 * args.delta
                    / (2.0**13 * max(gamma2.d, 1))
                )
        reports.append(check_cutoff_property(part, fs, part_delta, **kwargs).to_dict())
    return {"group": str(group), "chars": [list(c.freqs) for c in fs.chars], "checks": reports}


def cmd_selfcheck(args) -> dict:
    from .groups import character_table

    suites = {}

    def run(name, fn):
        try:
            fn()
            suites[name] = "pass"
        except Exception as exc:  # noqa: BLE001 - report any failure per suite
            suites[name] = f"fail: {exc}"

    def dft_oracle():
        rng = np.random.default_rng(7)
        for spec in ("2^6", "3^3", "12", "101"):
            g = parse_group(spec)
            f = DenseFn(g, rng.standard_normal(g.order))
            from .harmonic import dft

            fast = dft(f).values
            naive = character_table(g) @ f.values.astype(complex)
            if float(np.max(np.abs(fast - naive))) > 1e-9:
                raise InternalCheckError(f"transform mismatch on {spec}")

    def parseval():
        rng = np.random.default_rng(8)
        from .harmonic import parseval_gap

        for spec in ("2^8", "5x5x3"):
            g = parse_group(spec)
            f = DenseFn(g, rng.standard_normal(g.order))
            if parseval_gap(f) > 1e-9:
                raise InternalCheckError(f"energy identity drift on {spec}")

    def zero_sum():
        rng = np.random.default_rng(9)
        g = parse_group("11")
        fs = [DenseFn(g, (rng.uniform(size=11) < 0.5).astype(float)) for _ in range(3)]
        if abs(zero_sum_count(fs) - brute_force_zero_sum(fs)) > 1e-6:
            raise InternalCheckError("spectral vs literal zero-sum mismatch")

    def cutoff_mass():
        rng = np.random.default_rng(10)
        g = parse_group("101")
        fs = random_frequency_set(g, 2, rng)
        c = make_cutoff(fs, 0.1)
        if abs(float(c.psi.values.sum()) - 1.0) > 1e-10:
            raise InternalCheckError("cutoff mass drifted")
        if tail_mass(c, 0.3) > tail_bound(c, 0.3):
            raise InternalCheckError("tail bound violated")

    def f2_gain():
        g = parse_group("2^6")
        hyper = indicator(g, [x for x in range(64) if bin(x & 0b101).count("1") % 2 == 0])
        rep = regularize_f2(hyper, 0.1)
        gains = np.diff(rep.index_trace)
        if rep.iterations and gains.min() < 0.1**3 - 1e-12:
            raise InternalCheckError("refinement gain below eps^3")

    def tower_dims():
        expected = [0, 1, 2, 8, 512]
        got = [tower_sequence(i) for i in range(5)]
        if got != expected:
            raise InternalCheckError(f"chain dims {got} != {expected}")

    def pair_constants():
        # faithful-mode width and compatibility bookkeeping, recomputed here
        g = parse_group("101")
        rng = np.random.default_rng(11)
        for d, k, eps, eta in ((0, 1, 0.5, 1.0), (2, 3, 0.2, 0.4)):
            chars = random_frequency_set(g, d, rng)
            from .reg_general import RegPair

            pair = RegPair(chars, eta, k, eps, "faithful")
            expected = min(2.0**-40 * eps**6 * eta / (max(d, 1) * k**4), eta)
            if abs(pair.eta2 - expected) > 1e-18 * max(expected, 1.0):
                raise InternalCheckError(
                    f"narrow width {pair.eta2} deviates from formula {expected}"
                )
            if not pair.degenerate and pair.compat_l1 > pair.compat_bound:
                raise InternalCheckError("cutoff compatibility bound violated")

    run("dft-oracle", dft_oracle)
    run("parseval", parseval)
    run("zero-sum", zero_sum)
    run("cutoff", cutoff_mass)
    run("f2-regularity-gain", f2_gain)
    run("tower-dims", tower_dims)
    run("pair-constants", pair_constants)
    for name, status in suites.items():
        print(f"{name}: {status}", file=sys.stderr)
    failed = [n for n, s in suites.items() if s != "pass"]
    return {"suites": suites, "failed": failed, "exit_code": 1 if failed else 0}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="arithreg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the report to this path instead of stdout")
        sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = sub.add_parser("regularize-f2", help="subgroup regularization on (Z/2)^n")
    sp.add_argument("--group", required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--eps", type=finite_float, required=True)
    sp.add_argument("--trace")
    common(sp)
    sp.set_defaults(func=cmd_regularize_f2)

    sp = sub.add_parser("regularize", help="pair regularization on a general group")
    sp.add_argument("--group", required=True)
    sp.add_argument("--sets", nargs="+", required=True)
    sp.add_argument("--eps", type=finite_float, required=True)
    sp.add_argument("--mode", choices=["faithful", "scaled"], default="faithful")
    sp.add_argument("--scale", type=finite_float, default=1.0)
    sp.add_argument("--budget", type=int, default=64)
    sp.add_argument("--trace")
    sp.add_argument("--seed-characters", choices=["none", "interval"], default="none")
    common(sp)
    sp.set_defaults(func=cmd_regularize)

    sp = sub.add_parser("count", help="zero-sum tuple count across sets")
    sp.add_argument("--group", required=True)
    sp.add_argument("--sets", nargs="+", required=True)
    common(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("remove", help="triangle / zero-sum removal")
    sp.add_argument("--group", required=True)
    sp.add_argument("--sets", nargs="+", required=True)
    sp.add_argument("--eps", type=finite_float, default=0.0)
    sp.add_argument("--mode", choices=["faithful", "scaled"], default="scaled")
    sp.add_argument("--scale", type=finite_float, default=1.0)
    sp.add_argument("--budget", type=int, default=64)
    common(sp)
    sp.set_defaults(func=cmd_remove)

    sp = sub.add_parser("bhk", help="three-term progression density witness")
    sp.add_argument("--group")
    sp.add_argument("--interval", type=int)
    sp.add_argument("--set", required=True)
    sp.add_argument("--eps", type=finite_float, required=True)
    common(sp)
    sp.set_defaults(func=cmd_bhk)

    sp = sub.add_parser("sumfree", help="sum-free decomposition over [1, N]")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--eps", type=finite_float, required=True)
    sp.add_argument("--mode", choices=["faithful", "scaled"], default="scaled")
    sp.add_argument("--scale", type=finite_float, default=1.0)
    sp.add_argument("--budget", type=int, default=64)
    common(sp)
    sp.set_defaults(func=cmd_sumfree)

    sp = sub.add_parser("tower", help="tower-type hard instance construction")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--eps", type=finite_float, default=0.04)
    sp.add_argument("--verify", help="file of subgroup basis elements to check")
    common(sp)
    sp.set_defaults(func=cmd_tower)

    sp = sub.add_parser("bohr-check", help="Bohr cutoff inequality suite")
    sp.add_argument("--group", required=True)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--delta", type=finite_float, default=0.1)
    sp.add_argument("--delta2", type=finite_float)
    sp.add_argument("--eta", type=finite_float)
    sp.add_argument("--tau", type=finite_float, default=0.2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--parts", nargs="*", default=["i", "ii", "iii", "v", "vii"])
    common(sp)
    sp.set_defaults(func=cmd_bohr_check)

    sp = sub.add_parser("selfcheck", help="run the pinned oracle suites")
    common(sp)
    sp.set_defaults(func=cmd_selfcheck)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = args.func(args)
    except (InvalidSpecError, DomainMismatchError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceBudgetError, RetryExhaustedError) as exc:
        print(f"resource budget: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    _emit(report, args)
    return int(report.get("exit_code", 0)) if isinstance(report, dict) else 0


if __name__ == "__main__":
    sys.exit(main())
