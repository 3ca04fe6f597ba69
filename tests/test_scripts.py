"""Smoke tests: the scripts under `scripts/` run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_run_tiger_horizon_1():
    proc = run_script("run_tiger.py", "--max-horizon", "1")
    assert proc.returncode == 0, proc.stderr
    assert "horizon 1: 16 answer sets, checks all pass" in proc.stdout
    assert "value 10 from 2 answer sets" in proc.stdout


def test_run_fuzz_small_sweep():
    proc = run_script("run_fuzz.py", "--seeds", "10", "--deep-seeds", "2",
                      "--horizon", "1")
    assert proc.returncode == 0, proc.stderr
    assert "10 theories (2 with answer-set checks) passed" in proc.stdout
