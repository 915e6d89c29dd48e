"""Smoke runs of the scripts under scripts/, so they keep up with the package API."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_calibrate_scans_every_candidate():
    proc = run_script("calibrate.py", "--seeds", "1", "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    candidates = [line for line in lines if not line.startswith(" ")]
    assert candidates[0] == "chosen:" and len(candidates) > 1
    assert sum("blackout" in line for line in lines) == 2 * len(candidates)
    # the scan counts live-link dark runs at the base budgets and at K=(4, 5)
    assert sum("% at K=4-5 |" in line for line in lines) == 2 * len(candidates)


def test_run_experiments_help():
    proc = run_script("run_experiments.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--axis" in proc.stdout
