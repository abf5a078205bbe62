#!/usr/bin/env python3
"""Capture reference.json: the fingerprint of every job's output, for every variant.

    python3 perfbench/reference.py

Run from the root of a checkout.  Each (size, workload, job, variant) gets the
digest of its discrete report fields and its float fields; run.py compares
every job's output against it.  Regenerate only when a change is meant to
alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench  # sets thread limits and sys.path before numpy loads

import runner
import workloads as wl


def capture(size: str, workload: str, workdir: Path) -> dict:
    jobs = wl.WORKLOADS[workload](size)
    mods = runner.import_toolkit()
    out = {}
    for variant in range(wl.VARIANTS):
        preps = runner.prepare(workload, jobs, [variant] * len(jobs), workdir)
        for prep in preps:
            if prep.argv is not None:
                outcome = runner.run_cold(mods, prep, workdir)
            else:
                outcome = runner.run_warm(mods, prep)
            if outcome.payload is None:
                raise SystemExit(f"{workload}/{prep.job.name}/{variant}: {outcome.error}")
            problems = wl.check_semantics(prep.job, outcome.payload, prep.data,
                                          *wl.job_eps_order(prep.job, prep.argv))
            if problems:
                raise SystemExit(f"{workload}/{prep.job.name}/{variant}: {problems}")
            key = runner.reference_key(size, workload, prep.job, variant)
            out[key] = runner.fingerprint(outcome.payload["report"])
            print(f"{key}: {outcome.seconds:.3f}s", file=sys.stderr)
    return out


def main() -> int:
    reference = {}
    bench.WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="capture-", dir=bench.WORK_DIR))
    try:
        for size in ("full", "tiny"):
            for workload in sorted(wl.WORKLOADS):
                reference.update(capture(size, workload, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = bench.HERE / "reference.json"
    path.write_text(json.dumps(reference, sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
