"""The benchmark's own jobs, run in process against its captured reference outputs.

Each tiny job of every workload runs at variant 0: the library jobs through
perfbench's warm call, the CLI jobs through `cli.main` with `--out`.  Every
full-size `bohr-check` job of the cold workloads runs at every variant, so
the exhaustive part v is pinned at the sizes the benchmark times.  Each
output must pass `runner.check` against `perfbench/reference.json`, so a
rename that breaks the benchmark's calls, or a report that drifts from the
captured one, fails here.  The full-size warm `cutoff-101` survey and
`reg-2049-interval` run at every variant too, so the cutoffs they build, with
their shared arrays, are pinned at the sizes the benchmark times.  Every
full-size CLI argv must parse.  The toolkit is imported once, as the other
tests import it; perfbench's own `import_toolkit` would empty `sys.modules`.
"""

import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from arithreg import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))

import runner  # noqa: E402
import workloads as wl  # noqa: E402

MODS = SimpleNamespace(**{m: importlib.import_module(f"arithreg.{m}") for m in runner.MODULES})
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
TINY = [(w, job) for w, jobs in wl.WORKLOADS.items() for job in jobs("tiny")]
FULL_BOHR = [(w, job, v) for w in sorted(wl.COLD) for job in wl.WORKLOADS[w]("full")
             if job.op == "bohr_check" for v in range(wl.VARIANTS)]
FULL_CUTOFFS = [("warm-sweep", job, v) for job in wl.WORKLOADS["warm-sweep"]("full")
                if job.name in ("cutoff-101", "reg-2049-interval") for v in range(wl.VARIANTS)]


def check_job(size, workload, job, variant, tmp_path):
    """The problems runner.check finds in one job's output at one variant."""
    (prep,) = runner.prepare(workload, [job], [variant], tmp_path)
    if prep.argv is None:
        outcome = runner.run_warm(MODS, prep)
    else:
        out = tmp_path / "report.json"
        code = cli.main(prep.argv + ["--out", str(out)])
        payload = json.loads(out.read_text()) if code == 0 else None
        outcome = runner.Outcome(0.0, 0.0, payload, f"exit code {code}")
    return runner.check(prep, outcome, REFERENCE, runner.reference_key(size, workload, job, variant))


@pytest.mark.parametrize("workload, job", TINY, ids=[f"{w}/{j.name}" for w, j in TINY])
def test_tiny_job_matches_reference(workload, job, tmp_path):
    assert check_job("tiny", workload, job, 0, tmp_path) == []


# part v's paired translate rows on Z/1001 and Z/2001, where the last block is
# partial, and on 5x5x3; about 0.5 s for all 20 reference entries
@pytest.mark.parametrize("workload, job, variant", FULL_BOHR,
                         ids=[f"{w}/{j.name}/{v}" for w, j, v in FULL_BOHR])
def test_full_bohr_check_job_matches_reference(workload, job, variant, tmp_path):
    assert check_job("full", workload, job, variant, tmp_path) == []


# 300 survey draws on Z/101 and a faithful regularization on Z/2049; about 1 s for all 8
@pytest.mark.parametrize("workload, job, variant", FULL_CUTOFFS,
                         ids=[f"{w}/{j.name}/{v}" for w, j, v in FULL_CUTOFFS])
def test_full_cutoff_job_matches_reference(workload, job, variant, tmp_path):
    assert check_job("full", workload, job, variant, tmp_path) == []


@pytest.mark.parametrize("workload", sorted(wl.COLD))
def test_full_size_argvs_parse(workload):
    for job in wl.WORKLOADS[workload]("full"):
        argv = job.cli_argv([f"in{k}.txt" for k in range(len(job.slots))], 0)
        args = cli._build_parser(argv[0]).parse_args(argv + ["--out", "out.json"])
        assert args.command == argv[0] and args.func is not None
