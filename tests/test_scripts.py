"""The experiment scripts run at tiny sizes and print one parseable JSON report."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd: Path = ROOT, env: dict | None = None) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_removal_experiment_names_a_known_pipeline():
    report = run_script("removal_experiment.py", "--n", "6", "--seed", "3")
    assert report["n"] == 6 and len(report["rows"]) == 5
    for row in report["rows"]:
        assert row["pipeline"] in ("reduced-set", "reduced-set+participant-deletion")
        assert row["removed"] <= row["size"]


@pytest.mark.parametrize(
    "name, args, rows",
    [
        ("cutoff_slack_survey.py", ("--group", "31", "--draws", "2"), 2),
        ("progression_witness_sweep.py", ("--n", "31", "--densities", "0.3"), 1),
    ],
)
def test_survey_scripts_report_rows(name, args, rows):
    assert len(run_script(name, *args)["rows"]) == rows


def test_scripts_find_the_package_from_any_directory(tmp_path):
    # the scripts put the repository's src/ on the path themselves
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    report = run_script("progression_witness_sweep.py", "--n", "31", "--densities", "0.3",
                        cwd=tmp_path, env=env)
    assert len(report["rows"]) == 1
