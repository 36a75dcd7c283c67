"""Smoke runs of the experiment scripts in scripts/ on tiny designs."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args, cwd):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_holdout_2d_runs(tmp_path):
    out = tmp_path / "results_2d"
    stdout = _run(
        "run_holdout_2d.py", "--replicates", "1", "--n", "20", "--k", "2",
        "--out", str(out), cwd=tmp_path,
    )
    assert "wins:" in stdout
    lines = (out / "holdout.csv").read_text().splitlines()
    assert lines[0] == "replicate,sse_regularized,sse_pca,tau1,gamma,win"
    assert len(lines) == 2


def test_experiment_1d_runs(tmp_path):
    out = tmp_path / "results_1d"
    _run(
        "run_experiment_1d.py", "--replicates", "1", "--methods", "pca",
        "--out", str(out), cwd=tmp_path,
    )
    assert (out / "records.csv").is_file()
    assert (out / "summary.json").is_file()
