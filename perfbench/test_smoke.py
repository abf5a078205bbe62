"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced on small groups, and
checks that every metric named in BENCHMARK.json is emitted with its unit
and that no job failed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0


def test_same_seed_same_inputs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as wl

    for name, jobs in wl.WORKLOADS.items():
        for job in jobs("tiny"):
            v = wl.variant_of(5, name, job)
            assert v == wl.variant_of(5, name, job)
            for a, b in zip(wl.make_inputs(name, job, v), wl.make_inputs(name, job, v)):
                assert (a == b).all()
