"""Smoke tests: the scripts under `scripts/` run to completion on small inputs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


TIGER = str(REPO / "domains" / "tiger.apo")


def measure_tiger(tmp_path):
    """The result of one timed and one counted run of a horizon-1 tiger policy,
    also appended to `BENCH_smoke.json` in `tmp_path`."""
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "measure_cli.py"), "--runs", "1",
         "--label", "smoke", "--side", "after", "--", "policy", TIGER, "--horizon", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_measure_cli_one_run(tmp_path):
    result = measure_tiger(tmp_path)
    assert result["side"] == "after" and result["exit_codes"] == [0]
    assert result["wall_s"] > 0 and result["max_rss_mb"] > 0
    assert result["cpu_s"] > 0 and result["cpu_s_each"] == [round(result["cpu_s"], 4)]
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["measurements"] == [result]
    assert "models" in record["description"] and record["host"]


def test_count_work_counts_the_answer_sets_firings_and_layers(tmp_path):
    result = measure_tiger(tmp_path)
    assert 0 < result["search_s"] <= result["answer_sets_s"]
    # 16 answer sets; layer 0 is decided first, so it is derived once per
    # initial state (2) and layer 1 once per answer set (16); layer 0 is
    # searched once and layer 1 once per initial state
    assert {k: result[k] for k in ("command", "count_exit_code", "models", "searches",
                                   "firings", "layers")} == {
        "command": ["policy", TIGER, "--horizon", "1"], "count_exit_code": 0,
        "models": 16, "searches": 3, "firings": 28, "layers": 18}


def _measure_cli():
    spec = importlib.util.spec_from_file_location(
        "measure_cli", REPO / "scripts" / "measure_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("count_exit_code, exit_code", [(0, 0), (2, 1)])
def test_measure_cli_counts_after_the_last_timed_run(monkeypatch, capsys,
                                                     count_exit_code, exit_code):
    measure_cli = _measure_cli()
    calls = []

    def run_once(args):
        calls.append("run")
        return 0, 0.5, 16.0, 0.25

    def count(args):
        calls.append("count")
        return {"count_exit_code": count_exit_code, "models": 1}

    monkeypatch.setattr(measure_cli, "run_once", run_once)
    monkeypatch.setattr(measure_cli, "count", count)
    assert measure_cli.main(["--runs", "3", "--", "validate", "x.apo"]) == exit_code
    assert calls == ["run", "run", "run", "count"]
    result = json.loads(capsys.readouterr().out)
    assert result["exit_codes"] == [0, 0, 0] and result["models"] == 1


# what the parent's own measure_cli.py prints: one timed run, which is left
# out, and its counts
_PARENT_MEASURE_CLI = (
    "import json, sys\n"
    "assert sys.argv[1:] == ['--runs', '1', '--', 'solve', 'x.apo'], sys.argv\n"
    "print(json.dumps({'command': sys.argv[4:], 'runs': 1, 'wall_s': 9.0, 'cpu_s': 9.0,\n"
    "                  'max_rss_mb': 9.0, 'exit_codes': [0], 'wall_s_each': [9.0],\n"
    "                  'cpu_s_each': [9.0], 'rss_mb_each': [9.0],\n"
    "                  'count_exit_code': CODE, 'models': 7}))\n")


@pytest.mark.parametrize("parent_count_exit_code, exit_code", [(0, 0), (2, 1)])
def test_measure_cli_against_alternates_the_sides_and_takes_ratios(
        monkeypatch, capsys, tmp_path, parent_count_exit_code, exit_code):
    measure_cli = _measure_cli()
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "measure_cli.py").write_text(
        _PARENT_MEASURE_CLI.replace("CODE", str(parent_count_exit_code)))
    parent_src = str(tmp_path / "src")
    # (wall, rss, cpu) of each side's runs, in order
    figures = {measure_cli.SRC: [(1.0, 10.0, 1.0), (2.0, 10.0, 3.0), (3.0, 30.0, 2.0),
                                 (1.0, 10.0, 1.0)],
               parent_src: [(2.0, 20.0, 1.0), (2.0, 10.0, 1.0), (1.0, 10.0, 4.0),
                            (4.0, 10.0, 1.0)]}
    calls = []

    def run_once(args, src):
        assert args == ["solve", "x.apo"]
        calls.append("change" if src == measure_cli.SRC else "parent")
        wall, rss, cpu = figures[src][calls.count(calls[-1]) - 1]
        return 0, wall, rss, cpu

    def count(args):
        calls.append("count")
        return {"count_exit_code": 0, "models": 7}

    monkeypatch.setattr(measure_cli, "run_once", run_once)
    monkeypatch.setattr(measure_cli, "count", count)
    argv = ["--runs", "4", "--against", str(tmp_path), "--", "solve", "x.apo"]
    assert measure_cli.main(argv) == exit_code
    # the side that goes first swaps on each pair; this side counts last
    assert calls == ["change", "parent", "parent", "change",
                     "change", "parent", "parent", "change", "count"]
    result = json.loads(capsys.readouterr().out)
    assert result["against"] == str(tmp_path) and result["runs"] == 4
    change, parent = result["change"], result["parent"]
    assert change["cpu_s_each"] == [1.0, 3.0, 2.0, 1.0] and change["max_rss_mb"] == 30.0
    assert parent["wall_s_each"] == [2.0, 2.0, 1.0, 4.0] and parent["wall_s"] == 2.0
    assert parent["models"] == change["models"] == 7
    assert parent["count_exit_code"] == parent_count_exit_code
    # wall ratios 1/2, 2/2, 3/1 and 1/4; sorted 0.25, 0.5, 1, 3, whose
    # quartiles lie 0.75, 1.5 and 2.25 places in
    assert result["ratios"]["wall_s"] == {
        "median": 0.75, "quartiles": [0.4375, 1.5], "each": [0.5, 1.0, 3.0, 0.25]}
    assert result["ratios"]["cpu_s"] == {
        "median": 1.0, "quartiles": [0.875, 1.5], "each": [1.0, 3.0, 0.5, 1.0]}
    assert result["ratios"]["max_rss_mb"] == {
        "median": 1.0, "quartiles": [0.875, 1.5], "each": [0.5, 1.0, 3.0, 1.0]}
