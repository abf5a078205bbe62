#!/usr/bin/env python3
"""Benchmark of the arithreg toolkit: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload general-regularity --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the toolkit is imported from ./src).  Each
run sets up three times (fresh import, input generation, file writes and, for
warm-sweep, one untimed warm-up pass) and reports the median as setup_s, then
repeats the workload's fixed job list until --seconds have passed.  Every
job's output is checked in every repetition.  All timings are scaled by
machine-speed factors (see runner.probe).  The last line
of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics (from
spans recorded by wrappers around the toolkit's public functions) for
--trace 1.  End-to-end numbers always come from untraced repetitions.
"""

from __future__ import annotations

import os

# single-threaded BLAS / OpenMP, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import runner  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 3
MIN_REPS = 3  # untraced repetitions; a traced run makes at least 2 of each kind
WORK_DIR = Path(".perfbench_work")

END_TO_END = (
    [("setup_s", "s"), ("batch_s", "s")]
    + [(f"{op}_s", "s") for op in wl.OPS]
    + [("peak_rss_mb", "MB")]
)

_SPAN_METRICS = (
    "harmonic.dft_many.calls", "harmonic.dft_many.rows", "harmonic.dft_many.self_s",
    "harmonic.dft_many.f2.self_s", "harmonic.dft_many.cyclic.self_s",
    "harmonic.dft_many.mixed.self_s",
    "groups.translate_indices.calls", "groups.translate_indices.self_s",
    "groups.add_index_table.calls", "groups.add_index_table.self_s",
    "reg_general.regular_value_profile.calls", "reg_general.regular_value_profile.self_s",
    "reg_general.regularize.calls", "reg_general.regularize.steps",
    "reg_general.RegPair.calls", "reg_general.RegPair.self_s", "reg_general.alpha.calls",
    "reg_general.reduced_sets.self_s", "reg_general.exact_zero_sum_tuples.self_s",
    "reg_general.cover_by_translates.self_s",
    "bohr.make_cutoff.calls", "bohr.make_cutoff.self_s", "bohr.check_cutoff_property.self_s",
    "reg_f2.wht_last_axis.calls", "reg_f2.wht_last_axis.rows", "reg_f2.wht_last_axis.self_s",
    "reg_f2.regularize_f2.calls", "reg_f2.regularize_f2.iterations",
    "reg_f2.is_regular_subgroup_f2.self_s", "reg_f2.index_f2.self_s",
    "reg_f2.reduced_set_f2.self_s", "reg_f2.triangle_count_exact.self_s",
    *(f"harmonic.{fn}.{field}"
      for fn in ("dft", "idft", "convolve", "zero_sum_count", "brute_force_zero_sum")
      for field in ("calls", "self_s")),
    *(f"applications.{fn}.self_s"
      for fn in ("ap3_table", "nu_weight", "bhk_witness_interval", "spanning_family",
                 "verify_tower_step", "schur_triples")),
    "harmonic.load_set.calls", "harmonic.load_set.self_s", "harmonic.load_set.total_s",
    "groups.parse_element.calls", "groups.parse_element.self_s", "cli.main.self_s",
    *(f"{layer}.self_s" for layer in tr.LAYERS),
)
_FIELD = {"calls": "calls", "self_s": "self_s", "total_s": "total_s", "rows": "work",
          "steps": "work", "iterations": "work"}

PER_LAYER = (
    [(name, "s" if name.endswith("_s") else "count") for name in _SPAN_METRICS]
    + [("reg_general.profile_waste_ratio", "ratio"), ("trace_overhead_s", "s"),
       ("failed_frac", "ratio")]
)


def layer_metrics(summary: dict) -> dict[str, float]:
    out = {}
    for name in _SPAN_METRICS:
        prefix, _, field = name.rpartition(".")
        out[name] = tr.rollup(summary, prefix, _FIELD[field])
    steps = out["reg_general.regularize.steps"] + out["reg_general.regularize.calls"]
    out["reg_general.profile_waste_ratio"] = (
        out["reg_general.regular_value_profile.calls"] / steps if steps else 0.0
    )
    return out


class Run:
    """One workload at one seed: set-up, repetitions, checks and metrics."""

    def __init__(self, workload: str, seed: int, size: str, reference: dict, prober):
        self.workload = workload
        self.size = size
        self.jobs = wl.WORKLOADS[workload](size)
        self.variants = [wl.variant_of(seed, workload, job) for job in self.jobs]
        self.keys = [runner.reference_key(size, workload, j, v)
                     for j, v in zip(self.jobs, self.variants)]
        self.reference = reference
        self.cold = workload in wl.COLD
        self.prober = prober
        self.attempted = 0
        self.failures: list[str] = []
        self.maxrss_kb = 0
        self.probes: list[float] = []
        self.mods = self.prepared = None

    def set_up(self, workdir: Path) -> float:
        t0 = time.perf_counter()
        self.mods = runner.import_toolkit()
        self.prepared = runner.prepare(self.workload, self.jobs, self.variants, workdir)
        if not self.cold:
            self.batch(workdir, check=False)
        return time.perf_counter() - t0

    def batch(self, workdir: Path, tracer=None, check: bool = True) -> list[runner.Outcome]:
        """Run every job once.  A checked pass also probes the machine between
        jobs, sets each job's speed factor and checks the outputs."""
        outcomes, probes = [], []
        for prep in self.prepared:
            if check:
                probes.append(self.prober())
            if self.cold:
                outcome = runner.run_cold(self.mods, prep, workdir, tracer)
                self.maxrss_kb = max(self.maxrss_kb, outcome.maxrss_kb)
            else:
                outcome = runner.run_warm(self.mods, prep, tracer)
            outcomes.append(outcome)
        if check:
            probes.append(self.prober())
            self.probes += probes
            for outcome, before, after in zip(outcomes, probes, probes[1:]):
                outcome.factor = runner.speed_factor(before, after)
            for prep, outcome, key in zip(self.prepared, outcomes, self.keys):
                self.attempted += 1
                problems = runner.check(prep, outcome, self.reference, key)
                if problems:
                    self.failures.append(f"{prep.job.name} (variant {prep.variant}): "
                                         + "; ".join(problems))
        return outcomes

    def scaled(self, set_up) -> float:
        """The time ``set_up()`` returns, scaled by the probes on either side of it."""
        before = self.prober()
        seconds = set_up()
        return seconds * runner.speed_factor(before, self.prober())

    def speed_factor(self) -> float:
        """The reference probe time over the run's median probe time."""
        return runner.PROBE_REFERENCE_S / statistics.median(self.probes)

    def end_to_end(self, setup: list[float], walls: list[float], job_times: list[list[float]]):
        """Metrics from the scaled times of every untraced repetition."""
        per_job = np.median(np.asarray(job_times), axis=0)
        metrics = {"setup_s": statistics.median(setup), "batch_s": statistics.median(walls)}
        for op in wl.OPS:
            metrics[f"{op}_s"] = float(sum(t for t, j in zip(per_job, self.jobs) if j.op == op))
        if self.cold:
            rss_kb = self.maxrss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = rss_kb / 1024.0
        return metrics


def measure(run: Run, seconds: float, trace: bool, workdir: Path, spans_out: Path) -> dict:
    # all but the last set-up run in throwaway children, so the measured
    # process holds one generation of modules and caches (and one peak RSS)
    setup = [run.scaled(lambda: set_up_in_child(run, workdir)) for _ in range(SETUP_REPEATS - 1)]
    for p in workdir.iterdir():
        p.unlink()
    setup.append(run.scaled(lambda: run.set_up(workdir)))

    # walls and job times are scaled job by job; raw_walls are not
    walls, raw_walls, job_times, traced_walls, layer_rows, span_parts = [], [], [], [], [], []
    tracer = tr.Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        outcomes = run.batch(workdir)
        walls.append(sum(o.wall * o.factor for o in outcomes))
        raw_walls.append(sum(o.wall for o in outcomes))
        job_times.append([o.seconds * o.factor for o in outcomes])
        if trace:
            tracer.install()
            try:
                outcomes = run.batch(workdir, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(sum(o.wall * o.factor for o in outcomes))
            spans = collect_spans(run, tracer, workdir)
            span_parts.append(spans)
            layer_rows.append(layer_metrics(tr.summarize(spans, tracer.names)))
        last = time.perf_counter() - started
        enough = len(walls) >= (2 if trace else MIN_REPS)
        if enough and time.perf_counter() + last > deadline:
            break

    print(f"machine probe: median {statistics.median(run.probes) * 1e3:.2f} ms over "
          f"{len(run.probes)} probes, reference {runner.PROBE_REFERENCE_S * 1e3:.2f} ms; "
          f"median factor {run.speed_factor():.4f}; raw batch_s "
          f"{statistics.median(raw_walls):.4f} s", file=sys.stderr)
    if not trace:
        return run.end_to_end(setup, walls, job_times)
    spans_out.parent.mkdir(exist_ok=True)
    np.savez_compressed(spans_out, spans=tr.concat(span_parts), names=np.array(tracer.names),
                        jobs=np.array([j.name for j in run.jobs]), reps=len(span_parts))
    scale = run.speed_factor()
    metrics = {name: statistics.median(row[name] for row in layer_rows)
               * (scale if name.endswith("_s") else 1.0)
               for name in layer_rows[0]}
    metrics["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    metrics["failed_frac"] = len(run.failures) / max(run.attempted, 1)
    return metrics


def set_up_in_child(run: Run, workdir: Path) -> float:
    """Time one set-up in a forked child; the parent stays un-set-up."""
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:  # child: never returns into the parent's code
        code = 1
        try:
            os.close(read_end)
            os.write(write_end, struct.pack("d", run.set_up(workdir)))
            code = 0
        except BaseException:  # noqa: BLE001 - report anything, then exit the child
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or len(data) != 8:
        raise RuntimeError("set-up failed in a child process")
    return struct.unpack("d", data)[0]


def collect_spans(run: Run, tracer, workdir: Path) -> np.ndarray:
    """Spans of one traced batch: from the job children's files, or in memory."""
    if not run.cold:
        return tracer.take()
    parts = []
    for prep in run.prepared:
        path = workdir / f"job{prep.index}-spans.npy"
        if path.exists():
            parts.append(np.load(path))
    return tr.concat(parts)


def load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same job kinds on small groups (smoke test)")
    args = ap.parse_args(argv)

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    spans_out = WORK_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.npz"
    cpu = runner.pin_to_fastest_cpu()
    print(f"running on CPU {cpu}", file=sys.stderr)
    try:
        # the prober forks its helper here, before anything imports the toolkit
        with runner.Prober() as prober:
            run = Run(args.workload, args.seed, args.size, load_reference(), prober)
            values = measure(run, args.seconds, bool(args.trace), workdir, spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
