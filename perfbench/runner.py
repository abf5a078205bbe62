"""Running one job: inputs on disk, a forked CLI child or a library call, checks.

Cold jobs fork a child from a parent that has imported the toolkit but never
called it, so every job starts with empty caches, as a CLI user's does.
Only one child is alive at a time and the parent waits for it.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import hashlib
import importlib
import json
import math
import os
import statistics
import struct
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.fft  # noqa: F401 - numpy loads it lazily; the probe helper forks with it loaded

import workloads as wl

MODULES = ("groups", "harmonic", "bohr", "reg_f2", "reg_general", "applications", "cli")


def import_toolkit() -> SimpleNamespace:
    """Import the toolkit afresh (module code runs again, caches start empty)."""
    for name in [n for n in sys.modules if n == "arithreg" or n.startswith("arithreg.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"arithreg.{m}") for m in MODULES})


@dataclass
class Prepared:
    index: int
    job: wl.Job
    variant: int
    data: list[np.ndarray]
    argv: list[str] | None  # CLI argv without --out; None for library jobs


def prepare(workload: str, jobs: list[wl.Job], variants: list[int], workdir: Path) -> list[Prepared]:
    """Generate every job's inputs and write the CLI jobs' set files."""
    out = []
    for index, (job, variant) in enumerate(zip(jobs, variants)):
        data = wl.make_inputs(workload, job, variant)
        argv = None
        if job.call is None:
            paths = []
            for k, (slot, members) in enumerate(zip(job.slots, data)):
                path = workdir / f"job{index}-in{k}.txt"
                slot.write(path, members)
                paths.append(str(path))
            argv = job.cli_argv(paths, variant)
        out.append(Prepared(index, job, variant, data, argv))
    return out


@dataclass
class Outcome:
    seconds: float  # the job's own time: its cli.main call, or the library call
    wall: float  # the job's time seen from the parent: fork and teardown in
    payload: dict | None
    error: str
    maxrss_kb: int = 0
    factor: float = 1.0  # machine-speed factor for this job (run.py sets it)


# Machine-speed probe: a fixed slice of FFT, gather and interpreter work.  The
# machine is shared: a CPU's speed can halve and recover within seconds.  run.py
# times the probe before and after every job and set-up, on the CPU they run
# on, and scales their times by PROBE_REFERENCE_S / (the mean of the two).  The
# reference is about the probe's median on the 2-vCPU machine where the
# baseline was taken, so scaled figures stay close to raw seconds.
PROBE_REFERENCE_S = 0.0085


def speed_factor(before: float, after: float) -> float:
    """The factor for a stretch of work bracketed by two probe times."""
    return PROBE_REFERENCE_S / ((before + after) / 2)
_PROBE_ROWS = np.random.default_rng(0).standard_normal((32, 1024))
_PROBE_INDEX = (np.arange(200_000) * 7919) % 200_000


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.abs(np.fft.fft(_PROBE_ROWS, axis=1)).max()
    acc = 0
    for i in range(30_000):
        acc += (i * i) % 7
    np.take(_PROBE_INDEX, _PROBE_INDEX).sum()
    return time.perf_counter() - t0


class Prober:
    """Times the probe in a helper process forked before the toolkit is imported.

    Each probe runs in a fresh child of the helper, so it pays first-touch page
    faults as a cold job does, and its time never depends on the toolkit's
    imports, caches or heap.  A toolkit change therefore cannot move the
    scaling factor.  Use as a context manager; leaving it stops the helper.
    """

    def __init__(self):
        req_read, self._req = os.pipe()
        self._res, res_write = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:  # helper: serves one probe per request byte until EOF
            code = 1
            try:
                os.close(self._req)
                os.close(self._res)
                while os.read(req_read, 1):
                    child = os.fork()
                    if child == 0:
                        try:
                            seconds = probe()
                        except BaseException:  # noqa: BLE001 - report NaN, never hang
                            seconds = math.nan
                        os.write(res_write, struct.pack("d", seconds))
                        os._exit(0)
                    os.waitpid(child, 0)
                code = 0
            except BaseException:  # noqa: BLE001 - report anything, then exit the helper
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(req_read)
        os.close(res_write)

    def __call__(self) -> float:
        os.write(self._req, b"p")
        data = os.read(self._res, 8)
        seconds = struct.unpack("d", data)[0] if len(data) == 8 else math.nan
        if math.isnan(seconds):
            raise RuntimeError("machine-speed probe failed")
        return seconds

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        os.close(self._req)
        os.close(self._res)
        os.waitpid(self.pid, 0)


def pin_to_fastest_cpu() -> int | None:
    """Pin this process, and so every process it forks, to one CPU: the fastest now.

    The CPUs of a shared VM change speed independently of each other.  With
    every job and every probe on one CPU, a probe times the CPU its job runs
    on.  Returns the CPU, or None where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    speed = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        with Prober() as prober:
            speed[cpu] = statistics.median(prober() for _ in range(9))
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return best


def run_cold(mods, prep: Prepared, workdir: Path, tracer=None) -> Outcome:
    """Run one CLI job in a forked child; the job's time is its ``cli.main`` call.

    Timing inside the child leaves out fork and process teardown, which are
    the benchmark's cost, not the subcommand's (batch_s still includes them).
    """
    out_path = workdir / f"job{prep.index}-out.json"
    err_path = workdir / f"job{prep.index}-err.txt"
    span_path = workdir / f"job{prep.index}-spans.npy"
    for p in (out_path, span_path):
        p.unlink(missing_ok=True)
    argv = prep.argv + ["--out", str(out_path)]
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns into the parent's code
        code = 70
        try:
            os.close(read_end)
            fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(fd, 2)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            if tracer is not None:
                tracer.job = prep.index
            t0 = time.perf_counter()
            code = mods.cli.main(argv)
            os.write(write_end, struct.pack("d", time.perf_counter() - t0))
            if tracer is not None:
                tracer.dump(span_path)
        except BaseException:  # noqa: BLE001 - report anything, then exit the child
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        timing = fh.read()
    _, status, usage = os.wait4(pid, 0)
    rc = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - started
    # a child that died before reporting is timed from the parent
    seconds = struct.unpack("d", timing)[0] if len(timing) == 8 else wall
    if rc != 0:
        return Outcome(seconds, wall, None, f"exit code {rc}: {err_path.read_text()[-400:]}",
                       usage.ru_maxrss)
    try:
        payload = json.loads(out_path.read_text())
    except (OSError, ValueError) as exc:
        return Outcome(seconds, wall, None, f"report does not parse: {exc}", usage.ru_maxrss)
    return Outcome(seconds, wall, payload, "", usage.ru_maxrss)


try:
    _LIBC = ctypes.CDLL(ctypes.util.find_library("c"))
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc
    _LIBC = None


def _trim_heap() -> None:
    """Hand freed heap pages back to the OS, so each call starts from a lean heap.

    Without this the warm process's peak RSS depends on the heap history left
    by earlier calls and varies from seed to seed.
    """
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def run_warm(mods, prep: Prepared, tracer=None) -> Outcome:
    _trim_heap()
    if tracer is not None:
        tracer.job = prep.index
    t0 = time.perf_counter()
    try:
        report = prep.job.call(mods, prep.job, prep.data, prep.variant)
    except Exception:  # noqa: BLE001 - a failing call is a failed job
        seconds = time.perf_counter() - t0
        return Outcome(seconds, seconds, None, traceback.format_exc(limit=3))
    seconds = time.perf_counter() - t0
    return Outcome(seconds, seconds, wl.payload(prep.job, report), "")


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

def _leaves(obj, path: str = ""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def fingerprint(report: dict) -> dict:
    """Digest of every discrete field and of the float paths, plus the floats."""
    discrete, float_paths, floats = [], [], []
    for path, value in _leaves(report):
        if isinstance(value, float):
            float_paths.append(path)
            floats.append(value)
        else:
            discrete.append([path, value])
    blob = json.dumps([discrete, float_paths], sort_keys=True).encode()
    return {"digest": hashlib.sha256(blob).hexdigest()[:32], "floats": floats}


def compare(report: dict, expected: dict) -> list[str]:
    got = fingerprint(report)
    if got["digest"] != expected["digest"]:
        return ["discrete report fields differ from the reference"]
    for i, (a, b) in enumerate(zip(got["floats"], expected["floats"])):
        same = (a == b or (math.isnan(a) and math.isnan(b))
                or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12))
        if not same:
            return [f"float #{i} is {a!r}, reference {b!r}"]
    return []


def reference_key(size: str, workload: str, job: wl.Job, variant: int) -> str:
    return f"{size}/{workload}/{job.name}/{variant}"


def check(prep: Prepared, outcome: Outcome, reference: dict, key: str) -> list[str]:
    """Every problem with one job's output; an empty list means the job passed."""
    if outcome.payload is None:
        return [outcome.error]
    try:
        eps, order = wl.job_eps_order(prep.job, prep.argv)
        problems = wl.check_semantics(prep.job, outcome.payload, prep.data, eps, order)
        if key not in reference:
            problems.append(f"no reference output for {key}")
        else:
            problems += compare(outcome.payload["report"], reference[key])
    except Exception as exc:  # noqa: BLE001 - a report of another shape is a failed job
        return [f"report cannot be checked: {exc!r}"]
    return problems
