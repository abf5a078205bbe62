#!/usr/bin/env python3
"""How good is the best common difference, as density varies?

Exhaustively tabulates P(A; d) for random sets on Z/N, comparing the best
nonzero difference against the (alpha^3 - eps) N target and against the mean
over d, and cross-reports the cutoff-weighted kernel mass.

Example:
    python3 scripts/progression_witness_sweep.py --n 501 --seed 1
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from arithreg.applications import ap3_table, bhk_witness_group, nu_mass_identity  # noqa: E402
from arithreg.groups import make_group  # noqa: E402
from arithreg.harmonic import DenseFn  # noqa: E402
from arithreg.reg_general import trivial_pair  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=501)
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--densities", type=float, nargs="*", default=[0.2, 0.3, 0.5])
    args = ap.parse_args()

    if args.n % 2 == 0:
        ap.error("need odd N")
    group = make_group([args.n])
    rng = np.random.default_rng(args.seed)
    rows = []
    for density in args.densities:
        A = DenseFn(group, (rng.uniform(size=args.n) < density).astype(float))
        w = bhk_witness_group(A, args.eps)
        table = ap3_table(A)
        rows.append(
            {
                "density": density,
                "alpha": w.alpha,
                "best_d": w.d_index,
                "best_count": w.count,
                "target": w.bound,
                "target_met": w.bound_ok,
                "mean_over_d": float(table[1:].mean()),
            }
        )
    nu_total, t_value = nu_mass_identity(trivial_pair(group, 3, args.eps))
    json.dump(
        {
            "n": args.n,
            "eps": args.eps,
            "seed": args.seed,
            "rows": rows,
            "nu_mass": nu_total,
            "nu_mass_spectral": t_value,
        },
        sys.stdout, indent=2, sort_keys=True,
    )
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
