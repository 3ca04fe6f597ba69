"""Smoke tests: the scripts under `scripts/` run to completion on small inputs."""

import json
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


def test_run_fuzz_small_sweep():
    proc = run_script("run_fuzz.py", "--seeds", "10", "--deep-seeds", "2",
                      "--horizon", "1")
    assert proc.returncode == 0, proc.stderr
    assert "10 theories (2 with answer-set checks) passed" in proc.stdout


def test_measure_cli_one_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "measure_cli.py"), "--runs", "1",
         "--label", "smoke", "--side", "after", "--",
         "policy", str(REPO / "domains" / "tiger.apo"), "--horizon", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["side"] == "after" and result["exit_codes"] == [0]
    assert result["wall_s"] > 0 and result["max_rss_mb"] > 0
    assert result["cpu_s"] > 0 and result["cpu_s_each"] == [round(result["cpu_s"], 4)]
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["measurements"] == [result]


def test_count_work_counts_the_answer_sets_firings_and_layers(tmp_path):
    tiger = str(REPO / "domains" / "tiger.apo")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "count_work.py"), "--label", "smoke",
         "--side", "after", "--", "policy", tiger, "--horizon", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert 0 < result.pop("search_s") <= result.pop("answer_sets_s")
    # 16 answer sets; the first derives both layers, each later one its second
    assert result == {"side": "after", "command": ["policy", tiger, "--horizon", "1"],
                      "exit_code": 0, "models": 16, "firings": 28, "layers": 32}
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert [{k: v for k, v in r.items() if not k.endswith("_s")}
            for r in record["counts"]] == [result]
