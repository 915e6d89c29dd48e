"""Smoke runs of the scripts under scripts/, so they keep up with the package API."""

import importlib.util
import os
import subprocess
import sys

from conftest import recording_pool

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


def test_calibrate_pool_bounded_by_jobs_and_cpus(monkeypatch, capsys):
    # 10,000 workers on 3 seeds ask for a pool of 3, and of 2 on a 2-CPU
    # host; the pool is a stand-in, so no process starts
    spec = importlib.util.spec_from_file_location("calibrate", os.path.join(ROOT, "scripts", "calibrate.py"))
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    sizes = []
    monkeypatch.setattr(calibrate, "ProcessPoolExecutor", recording_pool(sizes))
    monkeypatch.setattr(sys, "argv", ["calibrate.py", "chosen", "--seeds", "3", "--workers", "10000"])
    for cpus in (64, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        calibrate.main()
    assert sizes == [3, 3, 2, 2]
    assert capsys.readouterr().out.count("blackout") == 4


def test_run_experiments_help():
    proc = run_script("run_experiments.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--axis" in proc.stdout
