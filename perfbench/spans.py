#!/usr/bin/env python3
"""Per-job breakdown of a traced run's spans.

    python3 perfbench/spans.py .perfbench_work/spans-<workload>-full-seed<n>.npz

A traced run (--trace 1) writes every span it recorded to that file.  This
prints, for each job, the eight span names with the largest self time, their
call counts per repetition and the mean self and inclusive time per call.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tr  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("path")
    args = ap.parse_args()
    data = np.load(args.path)
    spans, names, jobs = data["spans"], list(data["names"]), list(data["jobs"])
    reps = int(data["reps"])
    for job_id, job_name in enumerate(jobs):
        sel = spans[spans["job"] == job_id]
        if not sel.size:
            continue
        # parents index the full array; re-base them onto this job's slice
        index = np.flatnonzero(spans["job"] == job_id)
        remap = np.full(spans.size, -1)
        remap[index] = np.arange(index.size)
        sel = sel.copy()
        sel["parent"] = np.where(sel["parent"] >= 0, remap[sel["parent"]], -1)
        summary = tr.summarize(sel, names)
        print(f"{job_name}  ({reps} traced repetitions)")
        ranked = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:8]
        for name, stats in ranked:
            if stats["calls"]:
                calls = stats["calls"]
                print(f"  {name:42s} self {stats['self_s'] / reps:8.4f} s  "
                      f"calls {calls / reps:7.0f}  per call: self "
                      f"{stats['self_s'] / calls * 1e3:9.3f} ms, "
                      f"inclusive {stats['total_s'] / calls * 1e3:9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
