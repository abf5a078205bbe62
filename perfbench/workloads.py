"""Job lists of the three workloads, and the checks every job's output must pass.

A job is one CLI invocation (cold workloads) or one library call (warm
workload).  Its inputs are generated slots; which of ``VARIANTS`` generated
inputs a job gets is drawn from the workload seed, so any seed maps onto
inputs whose outputs were captured in ``reference.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

VARIANTS = 4
OPS = ("regularize", "regularize_f2", "remove", "sumfree", "bhk", "count", "tower", "bohr_check")
ALL_PARTS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")


def parse_group(spec: str) -> tuple[int, ...]:
    """The toolkit's group syntax: factors joined by 'x', powers by '^'."""
    factors: list[int] = []
    for token in spec.split("x"):
        base, _, exp = token.partition("^")
        factors.extend([int(base)] * (int(exp) if exp else 1))
    return tuple(factors)


@dataclass(frozen=True)
class In:
    """A generated input: a set on ``group``, or a subset of [1, N] for group 'int:N'."""

    family: str
    group: str

    def make(self, rng: np.random.Generator) -> np.ndarray:
        if self.group.startswith("int:"):
            return np.asarray(inputs.integer_set(self.family, int(self.group[4:]), rng))
        return inputs.group_set(self.family, parse_group(self.group), rng)

    def write(self, path: Path, members: np.ndarray) -> None:
        if self.group.startswith("int:"):
            inputs.write_integer_set(path, [int(m) for m in members])
        else:
            inputs.write_group_set(path, parse_group(self.group), members)


@dataclass(frozen=True)
class Job:
    """``argv`` is a CLI template: In slots become set-file paths and
    "{variant}" becomes the job's variant.  Library jobs set ``call`` instead."""

    name: str
    op: str
    argv: tuple = ()
    slots: tuple[In, ...] = ()
    call: Callable | None = None
    params: dict = field(default_factory=dict)

    def cli_argv(self, paths: list[str], variant: int) -> list[str]:
        it = iter(paths)
        out = []
        for tok in self.argv:
            if isinstance(tok, In):
                out.append(next(it))
            else:
                out.append(str(tok).replace("{variant}", str(variant)))
        return out


def cli(name: str, op: str, *argv) -> Job:
    return Job(name, op, tuple(argv), tuple(t for t in argv if isinstance(t, In)))


def variant_of(seed: int, workload: str, job: Job) -> int:
    return int(inputs.rng_for("variant", seed, workload, job.name).integers(VARIANTS))


def make_inputs(workload: str, job: Job, variant: int) -> list[np.ndarray]:
    return [
        slot.make(inputs.rng_for(workload, job.name, k, variant))
        for k, slot in enumerate(job.slots)
    ]


# ---------------------------------------------------------------------------
# cold CLI workloads
# ---------------------------------------------------------------------------

def _reg(name, group, family, eps, *extra):
    return cli(name, "regularize", "regularize", "--group", group,
               "--sets", In(family, group), "--eps", eps, *extra)


def _zero_sum(name, group, family):
    slots = [In(family, group) for _ in range(3)]
    return cli(name, "remove", "remove", "--group", group, "--sets", *slots, "--eps", "0.1")


def _triangles(name, group, family):
    return cli(name, "remove", "remove", "--group", group, "--sets", In(family, group))


def _sumfree(name, n, family):
    return cli(name, "sumfree", "sumfree", "--n", n, "--set", In(family, f"int:{n}"),
               "--eps", "0.01")


def _rf2(name, group, family, eps="0.1"):
    return cli(name, "regularize_f2", "regularize-f2", "--group", group,
               "--set", In(family, group), "--eps", eps)


def _bhk(name, group, family):
    return cli(name, "bhk", "bhk", "--group", group, "--set", In(family, group), "--eps", "0.05")


def _bhk_interval(name, n, family):
    return cli(name, "bhk", "bhk", "--interval", n, "--set", In(family, f"int:{n}"),
               "--eps", "0.05")


def _count(name, group, *families):
    return cli(name, "count", "count", "--group", group, "--sets",
               *[In(f, group) for f in families])


def _tower(name, n):
    return cli(name, "tower", "tower", "--n", n, "--depth", "3", "--seed", "{variant}")


def _bohr(name, group):
    return cli(name, "bohr_check", "bohr-check", "--group", group, "--seed", "{variant}",
               "--parts", *ALL_PARTS)


def general_regularity(size: str) -> list[Job]:
    if size == "tiny":
        return [
            _reg("reg-101-interval", "101", "interval", "0.1"),
            _reg("reg-2^3x7-quadratic", "2^3x7", "quadratic", "0.1", "--mode", "scaled",
                 "--scale", "1e12", "--budget", "8"),
            _zero_sum("rm-101-quadratic", "101", "quadratic"),
            _sumfree("sf-32-odd", 32, "odd"),
            _rf2("rf2-2^6-interval", "2^6", "interval"),
            _bhk("bhk-101-random", "101", "random"),
            _count("count-101", "101", "random", "interval", "quadratic"),
            _tower("tower-11", 11),
            _bohr("bohr-101", "101"),
        ]
    return [
        _reg("reg-2049-interval", "2049", "interval", "0.1"),
        _reg("reg-4096-random", "4096", "random", "0.1"),
        _reg("reg-2^11-quadratic", "2^11", "quadratic", "0.1"),
        _reg("reg-2^6x35-random", "2^6x35", "random", "0.1"),
        _reg("reg-2^8x3-quadratic-scaled", "2^8x3", "quadratic", "0.1", "--mode", "scaled",
             "--scale", "1e12", "--budget", "8"),
        _zero_sum("rm-1009-quadratic", "1009", "quadratic"),
        _zero_sum("rm-2^8x3-random", "2^8x3", "random"),
        _sumfree("sf-256-random", 256, "random"),
        _sumfree("sf-512-interval", 512, "interval"),
        _rf2("rf2-2^15-quadratic", "2^15", "quadratic"),
        _rf2("rf2-2^16-random", "2^16", "random"),
        _bhk("bhk-2001-random", "2001", "random"),
        _count("count-2^10", "2^10", "random", "random", "quadratic"),
        _count("count-1001", "1001", "random", "interval", "quadratic"),
        _tower("tower-19", 19),
        _bohr("bohr-1001", "1001"),
        _bohr("bohr-2001", "2001"),
    ]


def f2_and_witnesses(size: str) -> list[Job]:
    if size == "tiny":
        return [
            _rf2("rf2-2^8-quadratic", "2^8", "quadratic"),
            _triangles("rm-2^6-cosets", "2^6", "cosets-3-3"),
            _tower("tower-11", 11),
            _bhk("bhk-101-interval", "101", "interval"),
            _bhk_interval("bhk-int-201", 201, "random"),
            _count("count-2^6", "2^6", "random", "random", "quadratic"),
            _bohr("bohr-5x5x3", "5x5x3"),
            _reg("reg-101-quadratic", "101", "quadratic", "0.05"),
            _sumfree("sf-32-random", 32, "random"),
        ]
    return [
        _rf2("rf2-2^14-interval", "2^14", "interval"),
        _rf2("rf2-2^14-cosets", "2^14", "cosets-4-6"),
        _rf2("rf2-2^15-quadratic", "2^15", "quadratic"),
        _rf2("rf2-2^16-random", "2^16", "random"),
        _rf2("rf2-2^16-interval", "2^16", "interval", "0.05"),
        _triangles("rm-2^10-cosets", "2^10", "cosets-3-3"),
        _triangles("rm-2^11-quadratic", "2^11", "quadratic"),
        _triangles("rm-2^12-random", "2^12", "random"),
        _triangles("rm-2^12-quadratic", "2^12", "quadratic"),
        _triangles("rm-2^12-cosets", "2^12", "cosets-3-5"),
        _tower("tower-16", 16),
        _tower("tower-18", 18),
        _tower("tower-20", 20),
        _bhk("bhk-2001-random", "2001", "random"),
        _bhk("bhk-4097-interval", "4097", "interval"),
        _bhk_interval("bhk-int-4001", 4001, "random"),
        _count("count-2^10", "2^10", "random", "random", "quadratic"),
        _count("count-1001", "1001", "random", "interval", "quadratic"),
        _count("count-5x5x5-k4", "5x5x5", "random", "random", "interval", "quadratic"),
        _bohr("bohr-1001", "1001"),
        _bohr("bohr-5x5x3", "5x5x3"),
        _bohr("bohr-2001", "2001"),
        _reg("reg-1009-quadratic", "1009", "quadratic", "0.05"),
        _reg("reg-1009-interval", "1009", "interval", "0.1"),
        _sumfree("sf-128-odd", 128, "odd"),
        _sumfree("sf-256-random", 256, "random"),
    ]


# ---------------------------------------------------------------------------
# warm library workload: each call returns a report shaped like the CLI's
# ---------------------------------------------------------------------------

def _fn(mods, group: str, members: np.ndarray):
    g = mods.groups.make_group(parse_group(group))
    values = np.zeros(g.order)
    values[members] = 1.0
    return mods.harmonic.DenseFn(g, values)


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def payload(job: Job, report: dict) -> dict:
    """Normalize a library result the way the CLI's JSON output would."""
    body = {"command": job.op, "config": dict(job.params), "report": report}
    return json.loads(json.dumps(body, sort_keys=True, default=_jsonable))


def call_regularize(mods, job, data, variant):
    p = job.params
    As = [_fn(mods, p["group"], d) for d in data]
    pair, trace = mods.reg_general.regularize(As, p["eps"], p["budget"])
    return {"group": p["group"], "set_sizes": [int(d.size) for d in data],
            "pair": pair.describe() | {"chars": [list(c.freqs) for c in pair.chars.chars]},
            "trace": trace}


def call_regularize_f2(mods, job, data, variant):
    p = job.params
    rep = mods.reg_f2.regularize_f2(_fn(mods, p["group"], data[0]), p["eps"])
    return {"group": p["group"], "subgroup_dim": rep.subgroup.dim,
            "subgroup_basis": [int(b) for b in rep.subgroup.basis], "trace": rep.to_dict()}


def call_remove_triangles(mods, job, data, variant):
    A = _fn(mods, job.params["group"], data[0])
    survivor, removed, cert = mods.reg_f2.remove_triangles_f2(A)
    return {"group": job.params["group"], "mode": "triangles-f2", "removed": removed,
            "certificate": cert, "survivor_size": int(survivor.values.sum()),
            "residual_triangles": mods.reg_f2.triangle_count_exact(survivor)}


def call_sumfree(mods, job, data, variant):
    n = job.params["n"]
    A = mods.applications.IntegerSet(n, tuple(int(m) for m in data[0]))
    B, C, cert = mods.applications.sum_free_decompose(A, job.params["eps"])
    return {"n": n, "set_size": A.size, "b": list(B.members), "c": list(C.members),
            "certificate": cert}


def call_bhk(mods, job, data, variant):
    p = job.params
    A = _fn(mods, p["group"], data[0])
    app = mods.applications
    w = app.bhk_witness_group(A, p["eps"])
    table = app.ap3_table(A)
    pair = mods.reg_general.trivial_pair(A.group, 3, p["eps"])
    total, t_value = app.nu_mass_identity(pair)
    return {"group": p["group"], "d_index": w.d_index, "count": w.count, "alpha": w.alpha,
            "bound_ok": w.bound_ok, "table_sum": float(table.sum()),
            "nu_mass": total, "nu_mass_spectral": t_value}


def call_count(mods, job, data, variant):
    fs = [_fn(mods, job.params["group"], d) for d in data]
    return {"group": job.params["group"], "value": mods.harmonic.zero_sum_count(fs),
            "brute_force": mods.harmonic.brute_force_zero_sum(fs)}


def call_tower(mods, job, data, variant):
    n = job.params["n"]
    spec, f = mods.applications.build_tower_function(n, 3, variant)
    checks = []
    for i in spec.levels:
        h_dim = spec.n - spec.cumulative(i)
        h_level = mods.groups.f2_span([1 << j for j in range(h_dim)], spec.n)
        checks.append(mods.applications.verify_tower_step(spec, f, h_level, i, 0.04))
    return {"n": n, "dims": list(spec.dims), "levels_built": list(spec.levels),
            "sup_f": float(f.values.max()), "level_checks": checks}


def call_cutoff_survey(mods, job, data, variant):
    """Widths and frequency-set sizes swept as in scripts/cutoff_slack_survey.py.

    The report keeps every draw's verdicts and the summed sides of each
    inequality, which keeps the reference small.
    """
    bohr = mods.bohr
    group = mods.groups.parse_group(job.params["group"])
    rng = np.random.default_rng([variant, 101])
    sums = np.zeros(6)
    holds = []
    for _ in range(job.params["draws"]):
        d = int(rng.integers(1, 4))
        delta = float(rng.uniform(0.02, 0.45))
        eta = float(rng.uniform(0.05, 0.5))
        fs = bohr.random_frequency_set(group, d, rng)
        cutoff = bohr.make_cutoff(fs, delta)
        sup = bohr.check_cutoff_property("iii", fs, delta)
        gamma2 = fs.extend(bohr.random_frequency_set(group, 1, rng).chars)
        d2 = 2.0**-13 * delta * 0.2**2 / gamma2.d * 0.9
        smooth = bohr.check_cutoff_property("vii", fs, delta, gamma2=gamma2, delta2=d2, tau=0.2)
        tail = (bohr.tail_mass(cutoff, eta), bohr.tail_bound(cutoff, eta))
        sums += (tail[0], tail[1], sup.lhs, sup.rhs, smooth.lhs, smooth.rhs)
        holds.append([d, tail[0] <= tail[1], sup.holds, smooth.holds])
    return {"group": job.params["group"], "holds": holds, "sums": sums.tolist()}


def lib(name, op, call, slots=(), **params) -> Job:
    return Job(name, op, (), tuple(slots), call, params)


def warm_sweep(size: str) -> list[Job]:
    if size == "tiny":
        return [
            lib("reg-101-interval", "regularize", call_regularize, [In("interval", "101")],
                group="101", eps=0.1, budget=64),
            lib("rm-2^6-random", "remove", call_remove_triangles, [In("random-0.3", "2^6")],
                group="2^6"),
            lib("bhk-101-random", "bhk", call_bhk, [In("random", "101")], group="101", eps=0.05),
            lib("cutoff-101", "bohr_check", call_cutoff_survey, group="101", draws=3),
            lib("rf2-2^8-interval", "regularize_f2", call_regularize_f2,
                [In("interval", "2^8")], group="2^8", eps=0.1),
            lib("sf-32-odd", "sumfree", call_sumfree, [In("odd", "int:32")], n=32, eps=0.01),
            lib("count-101", "count", call_count, [In("random", "101")] * 3, group="101"),
            lib("tower-11", "tower", call_tower, n=11),
        ]
    return [
        lib("reg-2049-interval", "regularize", call_regularize, [In("interval", "2049")],
            group="2049", eps=0.1, budget=64),
        lib("reg-2^11-quadratic", "regularize", call_regularize, [In("quadratic", "2^11")],
            group="2^11", eps=0.1, budget=64),
        *(lib(f"rm-2^12-d{p}", "remove", call_remove_triangles, [In(f"random-{p}", "2^12")],
              group="2^12")
          for p in ("0.1", "0.2", "0.3", "0.4", "0.5")),
        lib("rm-2^12-cosets", "remove", call_remove_triangles, [In("cosets-3-5", "2^12")],
            group="2^12"),
        lib("bhk-1001-random", "bhk", call_bhk, [In("random", "1001")], group="1001", eps=0.05),
        lib("bhk-1001-interval", "bhk", call_bhk, [In("interval", "1001")], group="1001",
            eps=0.05),
        lib("bhk-2001-random", "bhk", call_bhk, [In("random", "2001")], group="2001", eps=0.05),
        lib("cutoff-101", "bohr_check", call_cutoff_survey, group="101", draws=300),
        lib("rf2-2^16-interval", "regularize_f2", call_regularize_f2,
            [In("interval", "2^16")], group="2^16", eps=0.05),
        lib("rf2-2^17-cosets", "regularize_f2", call_regularize_f2,
            [In("cosets-5-12", "2^17")], group="2^17", eps=0.1),
        lib("sf-256-random", "sumfree", call_sumfree, [In("random", "int:256")], n=256,
            eps=0.01),
        lib("sf-256-odd", "sumfree", call_sumfree, [In("odd", "int:256")], n=256, eps=0.01),
        lib("count-4095", "count", call_count,
            [In("random", "4095"), In("interval", "4095"), In("quadratic", "4095")],
            group="4095"),
        lib("count-3^5-k4", "count", call_count, [In("random", "3^5")] * 4, group="3^5"),
        lib("count-2^10", "count", call_count,
            [In("random", "2^10"), In("random", "2^10"), In("quadratic", "2^10")],
            group="2^10"),
        lib("tower-19", "tower", call_tower, n=19),
    ]


WORKLOADS = {
    "general-regularity": general_regularity,
    "f2-and-witnesses": f2_and_witnesses,
    "warm-sweep": warm_sweep,
}
COLD = {"general-regularity", "f2-and-witnesses"}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _option(argv: list[str], flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _schur_free(members: list[int]) -> bool:
    """No x, y, z in the set (x = y allowed) with x + y = z."""
    arr = np.asarray(sorted(members), dtype=np.int64)
    if arr.size == 0:
        return True
    sums = arr[:, None] + arr[None, :]
    return not np.isin(sums, arr).any()


def check_semantics(job: Job, payload: dict, data: list[np.ndarray], eps: float | None,
                    order: int | None) -> list[str]:
    """Invariants each subcommand's output must satisfy, independent of the reference."""
    rep = payload["report"]
    problems = []
    if job.op == "count":
        if "brute_force" not in rep:
            problems.append("count report lacks its brute_force field")
        elif not math.isclose(rep["value"], rep["brute_force"], rel_tol=1e-6, abs_tol=1e-6):
            problems.append(f"count {rep['value']} != brute force {rep['brute_force']}")
    if job.op == "remove":
        if rep["mode"] == "triangles-f2" and rep["residual_triangles"] != 0:
            problems.append(f"residual_triangles = {rep['residual_triangles']}")
        if rep["mode"] == "zero-sum" and abs(rep["certificate"]["spectral_tuples"]) > 0.5:
            problems.append("zero-sum survivors still count tuples")
    if job.op == "sumfree":
        a = {int(m) for m in data[0]}
        b, c = set(rep["b"]), set(rep["c"])
        if not _schur_free(rep["b"]):
            problems.append("B contains a Schur triple")
        if b | c != a or b & c:
            problems.append("B and C do not partition A")
    if job.op == "regularize":
        trace = rep["trace"]
        if trace["converged"] and not all(
            c < eps * order for c in trace["final"]["per_set_irregular"]
        ):
            problems.append("converged pair has too many irregular values")
    if job.op == "regularize_f2":
        if not rep["trace"]["final_irregular_values"] < eps * order:
            problems.append("final subgroup is not regular")
    return problems


def job_eps_order(job: Job, argv: list[str] | None) -> tuple[float | None, int | None]:
    if argv is not None:
        eps, group = _option(argv, "--eps"), _option(argv, "--group")
    else:
        eps, group = job.params.get("eps"), job.params.get("group")
    order = math.prod(parse_group(group)) if group else None
    return (float(eps) if eps is not None else None), order
