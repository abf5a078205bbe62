#!/usr/bin/env python3
"""Survey how much slack the cutoff inequalities carry at desk scale.

Sweeps widths and frequency-set sizes on a chosen group and records measured
lhs/rhs pairs for the tail bound, the sup-norm bound and the smoothing
compatibility, as JSON on stdout.

Example:
    python3 scripts/cutoff_slack_survey.py --group 101 --seed 7 --draws 40
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from arithreg.bohr import (  # noqa: E402
    check_cutoff_property,
    fine_width,
    make_cutoff,
    random_frequency_set,
    tail_bound,
    tail_mass,
)
from arithreg.groups import parse_group  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", default="101")
    ap.add_argument("--draws", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    group = parse_group(args.group)
    rng = np.random.default_rng(args.seed)
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
    json.dump({"group": str(group), "seed": args.seed, "rows": rows},
              sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
