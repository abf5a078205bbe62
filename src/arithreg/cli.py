"""Batch experiment driver.

One command per process, and a process builds the parser of its own command
only (with the top level); every report embeds the parsed config, the seed and
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
from dataclasses import fields

import numpy as np

from . import __version__
from .applications import (
    IntegerSet,
    bhk_witness_group,
    bhk_witness_interval,
    build_tower_function,
    nu_mass_identity,
    nu_mass_spectral,
    nu_weight,
    sum_free_decompose,
    tower_sequence,
    verify_tower_step,
)
from .bohr import (
    check_bohr_growth,
    check_cutoff_property,
    check_drawn_part,
    fine_width,
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
from .groups import BRUTE_FORCE_BUDGET, GroupSpec, f2_span, parse_group
from .harmonic import (
    DenseFn,
    brute_force_zero_sum,
    dft,
    indicator,
    load_set,
    parseval_gap,
    read_lines,
    zero_sum_count,
)
from .reg_f2 import (_require_f2, regularize_f2, removal_bound, remove_triangles_f2,
                     triangle_count_exact)
from .reg_general import RegPair, regularize, trivial_pair, zero_sum_removal


def _load_indicator(group: GroupSpec, path: str) -> DenseFn:
    return indicator(group, load_set(group, path))


def _load_integer_set(n: int, path: str) -> IntegerSet:
    members = []
    for line in read_lines(path):
        if line:
            try:
                members.append(int(line))
            except ValueError as exc:
                raise InvalidSpecError(f"bad integer {line!r} in {path}") from exc
    return IntegerSet(n, tuple(members))


def _seeded_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InvalidSpecError("--seed must be >= 0")
    return np.random.default_rng(seed)


def _emit(report: dict, args: argparse.Namespace) -> None:
    # --trace of the regularize commands writes the report's trace first
    if getattr(args, "trace", None):
        _write(args.trace, json.dumps(report["trace"], sort_keys=True, indent=2, default=_jsonable))
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
    _write(getattr(args, "out", None), text)


def _write(path: str | None, text: str) -> None:
    """Write a report or a trace to path, or to stdout without one; main exits 2 on an OSError."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


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
    return {
        "group": str(group),
        "set_size": int(A.values.sum()),
        "subgroup_dim": rep.subgroup.dim,
        "subgroup_basis": [int(b) for b in rep.subgroup.basis],
        "trace": rep.to_dict(),
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
    if group.order ** (k - 1) <= BRUTE_FORCE_BUDGET:
        out["brute_force"] = brute_force_zero_sum(sets)
    return out


def cmd_remove(args) -> dict:
    group = parse_group(args.group)
    sets = [_load_indicator(group, p) for p in args.sets]
    if group.is_f2 and len(sets) == 1:
        survivor, removed, cert = remove_triangles_f2(sets[0], [args.eps] if args.eps else None)
        return {
            "group": str(group),
            "mode": "triangles-f2",
            "removed": removed,
            "certificate": cert,
            "survivor_size": int(survivor.values.sum()),
            "residual_triangles": cert["exact_triangles"],
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


def _shown(witness) -> dict:
    """A witness dataclass's shown fields (repr=True) by name; the ap3 table is not shown."""
    return {f.name: getattr(witness, f.name) for f in fields(witness) if f.repr}


def cmd_bhk(args) -> dict:
    if not args.interval and not args.group:
        raise InvalidSpecError("bhk needs either --group or --interval")
    if args.interval and args.group:
        raise InvalidSpecError("bhk takes either --group or --interval, not both")
    if args.interval:
        A = _load_integer_set(args.interval, args.set)
        w = bhk_witness_interval(A, args.eps)
        return {"interval": args.interval, "set_size": A.size} | _shown(w)
    group = parse_group(args.group)
    A = _load_indicator(group, args.set)
    w = bhk_witness_group(A, args.eps)
    out = {"group": str(group), "set_size": int(A.values.sum())} | _shown(w)
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
    kept = ("escaping_fraction", "min_coefficient_ratio", "threshold", "coefficient_bound_ok")
    level_checks = []
    for i in spec.levels:
        chk = verify_tower_step(spec, f, spec.chain[i], i, args.eps)
        level_checks.append({"i": i} | {k: chk[k] for k in kept})
    report = {
        "n": args.n,
        "depth": args.depth,
        "dims": list(spec.dims),
        "levels_built": list(spec.levels),
        "level_sizes": list(spec.level_sizes),
        "sup_f": float(f.values.max()),
        "level_checks": level_checks,
    }
    if args.verify:
        H = f2_span(load_set(GroupSpec((2,) * spec.n), args.verify), spec.n)
        report["verify"] = [
            verify_tower_step(spec, f, H, i, args.eps)
            for i in spec.levels
            if spec.chain[i].contains_subgroup(H)
        ]
    return report


def cmd_bohr_check(args) -> dict:
    group = parse_group(args.group)
    rng = _seeded_rng(args.seed)
    fs = random_frequency_set(group, args.d, rng)
    reports = [check_bohr_growth(fs, args.delta).to_dict()]
    cutoff = make_cutoff(fs, args.delta)
    eta = args.eta if args.eta is not None else 4.0 * args.delta
    mass, bound = tail_mass(cutoff, eta), tail_bound(cutoff, eta)
    reports.append({"part": "tail", "eta": eta, "lhs": mass, "rhs": bound, "holds": mass <= bound})
    for part in args.parts:
        reports.append(check_drawn_part(part, fs, args.delta, args.tau, args.delta2, rng).to_dict())
    return {"group": str(group), "chars": [list(c.freqs) for c in fs.chars], "checks": reports}


# Each sweep kind is one seeded loop over draws or densities.  A fixed config
# makes the same rng draws in the same order, so its rows are reproducible.

def _cutoff_slack_rows(group: GroupSpec, args, rng: np.random.Generator) -> dict:
    """lhs/rhs of the tail bound and cutoff parts iii and vii at random Gamma and widths"""
    if args.draws < 0:
        raise InvalidSpecError("--draws must be >= 0")
    rows = []
    for _ in range(args.draws):
        d = int(rng.integers(1, 4))
        delta = float(rng.uniform(0.02, 0.45))
        eta = float(rng.uniform(0.05, 0.5))
        fs = random_frequency_set(group, d, rng)
        cutoff = make_cutoff(fs, delta)
        sup_rep = check_cutoff_property("iii", fs, delta)
        gamma2 = fs.extend(random_frequency_set(group, 1, rng).chars)
        tau = 0.2
        d2 = fine_width(delta, tau, gamma2.d) * 0.9
        smooth_rep = check_cutoff_property(
            "vii", fs, delta, gamma2=gamma2, delta2=d2, tau=tau
        )
        rows.append(
            {
                "d": d,
                "delta": delta,
                "eta": eta,
                "tail": {"lhs": tail_mass(cutoff, eta), "rhs": tail_bound(cutoff, eta)},
                "sup": {"lhs": sup_rep.lhs, "rhs": sup_rep.rhs},
                "smoothing": {"lhs": smooth_rep.lhs, "rhs": smooth_rep.rhs},
            }
        )
    return {"rows": rows}


def _progression_rows(group: GroupSpec, args, rng: np.random.Generator) -> dict:
    """best common difference of random sets on a group of odd order, and the nu mass"""
    rows = []
    for density in args.densities:
        A = DenseFn(group, (rng.uniform(size=group.order) < density).astype(float))
        w = bhk_witness_group(A, args.eps)
        rows.append(
            {
                "density": density,
                "alpha": w.alpha,
                "best_d": w.d_index,
                "best_count": w.count,
                "target": w.bound,
                "target_met": w.bound_ok,
                "mean_over_d": float(w.table[1:].mean()),
            }
        )
    nu_total, t_value = nu_mass_identity(trivial_pair(group, 3, args.eps))
    return {"rows": rows, "nu_mass": nu_total, "nu_mass_spectral": t_value}


def _removal_rows(group: GroupSpec, args, rng: np.random.Generator) -> dict:
    """triangle removal on random sets of (Z/2)^n against the 3 eps^(1/3) N bound"""
    _require_f2(group)
    order = group.order
    rows = []
    for density in args.densities:
        A = DenseFn(group, (rng.uniform(size=order) < density).astype(float))
        before = triangle_count_exact(A)
        _, removed, cert = remove_triangles_f2(A)
        rows.append(
            {
                "density": density,
                "size": int(A.values.sum()),
                "triangles_before": before,
                "removed": removed,
                "pipeline": cert["pipeline"],
                "eps": cert["eps"],
                "bound": removal_bound(cert["eps"], order),
                "bound_ok": cert["removal_bound_ok"],
            }
        )
    return {"rows": rows}


_SWEEPS = {
    "cutoff-slack": _cutoff_slack_rows,
    "progression": _progression_rows,
    "removal": _removal_rows,
}


def cmd_sweep(args) -> dict:
    group = parse_group(args.group)
    return {"group": str(group)} | _SWEEPS[args.kind](group, args, _seeded_rng(args.seed))


def cmd_selfcheck(args) -> dict:
    from .groups import character_table, f2_parity

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
            fast = dft(f).values
            naive = character_table(g) @ f.values.astype(complex)
            if float(np.max(np.abs(fast - naive))) > 1e-9:
                raise InternalCheckError(f"transform mismatch on {spec}")

    def parseval():
        rng = np.random.default_rng(8)
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
        hyper = indicator(g, np.flatnonzero(f2_parity(np.arange(64) & 0b101) == 0))
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


def _common(sp):
    sp.add_argument("--out", help="write the report to this path instead of stdout")
    sp.add_argument("--format", choices=["json", "csv"], default="json")


def _regularize_f2_args(sp):
    sp.add_argument("--group", required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--eps", type=finite_float, required=True)
    sp.add_argument("--trace")


def _regularize_args(sp):
    sp.add_argument("--group", required=True)
    sp.add_argument("--sets", nargs="+", required=True)
    sp.add_argument("--eps", type=finite_float, required=True)
    sp.add_argument("--mode", choices=["faithful", "scaled"], default="faithful")
    sp.add_argument("--scale", type=finite_float, default=1.0)
    sp.add_argument("--budget", type=int, default=64)
    sp.add_argument("--trace")
    sp.add_argument("--seed-characters", choices=["none", "interval"], default="none")


def _count_args(sp):
    sp.add_argument("--group", required=True)
    sp.add_argument("--sets", nargs="+", required=True)


def _remove_args(sp):
    sp.add_argument("--group", required=True)
    sp.add_argument("--sets", nargs="+", required=True)
    sp.add_argument("--eps", type=finite_float, default=0.0)
    sp.add_argument("--mode", choices=["faithful", "scaled"], default="scaled")
    sp.add_argument("--scale", type=finite_float, default=1.0)
    sp.add_argument("--budget", type=int, default=64)


def _bhk_args(sp):
    sp.add_argument("--group")
    sp.add_argument("--interval", type=int)
    sp.add_argument("--set", required=True)
    sp.add_argument("--eps", type=finite_float, required=True)


def _sumfree_args(sp):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--eps", type=finite_float, required=True)
    sp.add_argument("--mode", choices=["faithful", "scaled"], default="scaled")
    sp.add_argument("--scale", type=finite_float, default=1.0)
    sp.add_argument("--budget", type=int, default=64)


def _tower_args(sp):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument(
        "--seed", type=int, default=0,
        help="draws the spanning families of levels with 2^c_i >= 20; the first "
        "needs n >= 523, so no enumerable tower depends on it",
    )
    sp.add_argument("--eps", type=finite_float, default=0.04)
    sp.add_argument("--verify", help="file of subgroup basis elements to check")


def _bohr_check_args(sp):
    sp.add_argument("--group", required=True)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--delta", type=finite_float, default=0.1)
    sp.add_argument("--delta2", type=finite_float, help="width of the finer cutoff of parts "
                    "vi-viii (default: fine_width); part ix always runs at part_ix_width")
    sp.add_argument("--eta", type=finite_float)
    sp.add_argument("--tau", type=finite_float, default=0.2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--parts", nargs="*", default=["i", "ii", "iii", "v", "vii"],
                    help="cutoff parts i-ix, in any case; parts vi-ix each draw one "
                    "extra character in this order, and viii then its f")


def _sweep_args(sp):
    kinds = sp.add_subparsers(dest="kind", required=True)

    def kind(name, group):
        kp = kinds.add_parser(name, help=_SWEEPS[name].__doc__)
        kp.add_argument("--group", default=group)
        kp.add_argument("--seed", type=int, default=0)
        _common(kp)
        kp.set_defaults(func=cmd_sweep)
        return kp

    kind("cutoff-slack", "101").add_argument("--draws", type=int, default=40)
    kp = kind("progression", "501")
    kp.add_argument("--eps", type=finite_float, default=0.05)
    kp.add_argument("--densities", type=finite_float, nargs="*", default=[0.2, 0.3, 0.5])
    kind("removal", "2^8").add_argument("--densities", type=finite_float, nargs="*",
                                        default=[0.1, 0.2, 0.3, 0.5, 0.7])


# name -> (help, add-arguments function, func); sweep's func is None because
# each of its kinds is a command of its own, with its own func and output flags
_COMMANDS = {
    "regularize-f2": ("subgroup regularization on (Z/2)^n", _regularize_f2_args,
                      cmd_regularize_f2),
    "regularize": ("pair regularization on a general group", _regularize_args, cmd_regularize),
    "count": ("zero-sum tuple count across sets", _count_args, cmd_count),
    "remove": ("triangle / zero-sum removal", _remove_args, cmd_remove),
    "bhk": ("three-term progression density witness", _bhk_args, cmd_bhk),
    "sumfree": ("sum-free decomposition over [1, N]", _sumfree_args, cmd_sumfree),
    "tower": ("tower-type hard instance construction", _tower_args, cmd_tower),
    "bohr-check": ("Bohr cutoff inequality suite", _bohr_check_args, cmd_bohr_check),
    "sweep": ("seeded experiment sweeps, one report row per draw or density", _sweep_args, None),
    "selfcheck": ("run the pinned oracle suites", lambda sp: None, cmd_selfcheck),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or the top level and one sub-parser when command names a command."""
    p = argparse.ArgumentParser(prog="arithreg", description=__doc__)
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # a one-command build still lists every command, so its usage and errors stay the same
    every = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = p.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        help_, add_arguments, func = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_)
        add_arguments(sp)
        if func:
            _common(sp)
            sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = args.func(args)
        _emit(report, args)
    except (InvalidSpecError, DomainMismatchError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceBudgetError, RetryExhaustedError) as exc:
        print(f"resource budget: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    return int(report.get("exit_code", 0)) if isinstance(report, dict) else 0


if __name__ == "__main__":
    sys.exit(main())
