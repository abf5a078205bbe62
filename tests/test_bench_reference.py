"""The benchmark's own jobs, run in process against its captured reference outputs.

Each tiny job of every workload runs at variant 0: the library jobs through
perfbench's warm call, the CLI jobs through `cli.main` with `--out`.  Each
output must pass `runner.check` against `perfbench/reference.json`, so a
rename that breaks the benchmark's calls, or a report that drifts from the
captured one, fails here.  Every full-size CLI argv must parse.  The toolkit
is imported once, as the other tests import it; perfbench's own
`import_toolkit` would empty `sys.modules`.
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


@pytest.mark.parametrize("workload, job", TINY, ids=[f"{w}/{j.name}" for w, j in TINY])
def test_tiny_job_matches_reference(workload, job, tmp_path):
    (prep,) = runner.prepare(workload, [job], [0], tmp_path)
    if prep.argv is None:
        outcome = runner.run_warm(MODS, prep)
    else:
        out = tmp_path / "report.json"
        code = cli.main(prep.argv + ["--out", str(out)])
        payload = json.loads(out.read_text()) if code == 0 else None
        outcome = runner.Outcome(0.0, 0.0, payload, f"exit code {code}")
    key = runner.reference_key("tiny", workload, job, 0)
    assert runner.check(prep, outcome, REFERENCE, key) == []


@pytest.mark.parametrize("workload", sorted(wl.COLD))
def test_full_size_argvs_parse(workload):
    for job in wl.WORKLOADS[workload]("full"):
        argv = job.cli_argv([f"in{k}.txt" for k in range(len(job.slots))], 0)
        args = cli._build_parser(argv[0]).parse_args(argv + ["--out", "out.json"])
        assert args.command == argv[0] and args.func is not None
