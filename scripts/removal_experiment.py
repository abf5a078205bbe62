#!/usr/bin/env python3
"""Triangle removal on (Z/2)^n across densities: deletions vs the bound.

For each density, plants a random set, runs the removal pipeline and reports
how many elements were deleted, which route succeeded and how the deletion
count compares with 3 eps^(1/3) N.

Example:
    python3 scripts/removal_experiment.py --n 8 --seed 3
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from arithreg.groups import make_group  # noqa: E402
from arithreg.harmonic import DenseFn  # noqa: E402
from arithreg.reg_f2 import remove_triangles_f2, triangle_count_exact  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--densities", type=float, nargs="*",
                    default=[0.1, 0.2, 0.3, 0.5, 0.7])
    args = ap.parse_args()

    group = make_group([2] * args.n)
    order = group.order
    rng = np.random.default_rng(args.seed)
    rows = []
    for density in args.densities:
        A = DenseFn(group, (rng.uniform(size=order) < density).astype(float))
        before = triangle_count_exact(A)
        survivor, removed, cert = remove_triangles_f2(A)
        rows.append(
            {
                "density": density,
                "size": int(A.values.sum()),
                "triangles_before": before,
                "removed": removed,
                "pipeline": cert["pipeline"],
                "eps": cert["eps"],
                "bound": 3.0 * cert["eps"] ** (1.0 / 3.0) * order,
                "bound_ok": cert["removal_bound_ok"],
            }
        )
    json.dump({"n": args.n, "seed": args.seed, "rows": rows},
              sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
