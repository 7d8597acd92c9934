"""The scripts under scripts/ run from a plain checkout, without an install."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tree_family_report_runs_from_a_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_tree_family_report.py"),
         "--out", str(tmp_path / "family")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sum(line.startswith("z=") for line in proc.stdout.splitlines()) == 9


def test_snapshot_reports_runs_from_a_checkout(tmp_path):
    """The pinned reports are byte-identical to the committed manifest.

    Measured on one machine's CPU and BLAS; a report that moves on another
    is a finding to report, not a reason to round the reports.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "snap"
    manifest = tmp_path / "manifest.sha256"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "snapshot_reports.py"), str(out),
         "--manifest", str(manifest)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    log = (out / "commands.txt").read_text().splitlines()
    assert sum(line.startswith("$ mdlab ") for line in log) == 17
    assert log.count("exit 0") == 17
    for name in ("ball-sl2z/ball.csv", "extension-d3/extension_convergence.csv",
                 "bracket-ind01/brackets.csv", "fejer-f2/fejer_convergence.csv",
                 "report-R5/family_report.json", "schur/witness_x.csv"):
        assert (out / name).is_file(), name
    pinned = (ROOT / "tests" / "snapshot_reports.sha256").read_text().splitlines()
    fresh = manifest.read_text().splitlines()
    assert fresh == pinned
