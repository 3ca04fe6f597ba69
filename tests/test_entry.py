"""The process entry, `apoplan.cli.entry`: the same output and exit code as
`main`, an exit that skips the interpreter's teardown only in a process of
its own, and a standard output that cannot be written reported in one line."""

import errno
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from apoplan import cli

REPO = Path(__file__).resolve().parent.parent
TIGER = str(REPO / "domains" / "tiger.apo")
NO_SPACE = (f"error: cannot write standard output: "
            f"{OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n")


def _process(argv, stdout=subprocess.PIPE, buffered=False,
             script=None) -> subprocess.CompletedProcess:
    """A fresh `python -m apoplan.cli ARGV` with `src` on the path, or
    `python -c SCRIPT ARGV` if `script` is given.  Standard output is
    unbuffered, as `PYTHONUNBUFFERED=1` makes it, unless `buffered`: then
    a short output is first written by the flush in `entry`."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    start = ["-m", "apoplan.cli"] if script is None else ["-c", script]
    return subprocess.run([sys.executable, *start, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=60)


def _main_cases(tmp_path, tiger_text) -> list:
    """`(argv, code)` for every command on tiger, for help, for a usage error,
    for a missing file and for an invalid theory."""
    (tmp_path / "bad.apo").write_text(tiger_text.replace("17/20", "4/5", 1))
    values = {"input": TIGER, "--horizon": "1", "--seed": "0"}
    cases = [([command] + [arg for name in names if name in values
                           for arg in ((values[name],) if name == "input"
                                       else (name, values[name]))], 0)
             for command, (_, names) in cli._COMMANDS.items()]
    return cases + [(["--help"], 0), (["solve", TIGER], 1),
                    (["solve", str(tmp_path / "missing.apo"), "--horizon", "1"], 1),
                    (["solve", str(tmp_path / "bad.apo"), "--horizon", "1"], 2)]


def test_main_returns_the_code_and_leaves_the_exit_to_entry(
        capsys, monkeypatch, tmp_path, tiger_text):
    def refuse(*args):
        raise AssertionError(f"main exited with {args}")

    monkeypatch.setattr(os, "_exit", refuse)
    monkeypatch.setattr(sys, "exit", refuse)
    for argv, code in _main_cases(tmp_path, tiger_text):
        returned = cli.main(argv)
        assert type(returned) is int and returned == code, argv
    capsys.readouterr()


# Runs the CLI as `-m` does, with an exit hook that the interpreter's own exit
# would run and `os._exit` skips.
_EXIT_HOOK_SCRIPT = ("import atexit, runpy, sys\n"
                     "atexit.register(lambda: print('exit hook ran', file=sys.stderr))\n"
                     "runpy.run_module('apoplan.cli', run_name='__main__', alter_sys=True)\n")


def test_the_process_runs_no_exit_hook_yet_prints_what_main_prints(capsys, tmp_path):
    for argv in (["validate", TIGER], ["solve", TIGER, "--horizon", "2"],
                 ["validate", str(tmp_path / "missing.apo")]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        # buffered: the output reaches the pipe only through the flush in `entry`
        proc = _process(argv, buffered=True, script=_EXIT_HOOK_SCRIPT)
        assert proc.returncode == code, argv
        assert proc.stdout == captured.out.encode(), argv
        assert proc.stderr == captured.err.encode(), argv


@pytest.mark.parametrize("case,code", [("valid", 0), ("missing", 1), ("invalid", 2)])
def test_the_process_prints_what_main_prints(capsys, tmp_path, tiger_text, case, code):
    path = {"valid": TIGER, "missing": str(tmp_path / "missing.apo"),
            "invalid": str(tmp_path / "bad.apo")}[case]
    (tmp_path / "bad.apo").write_text(tiger_text.replace("17/20", "4/5", 1))
    assert cli.main(["validate", path]) == code
    captured = capsys.readouterr()
    proc = _process(["validate", path])
    assert proc.returncode == code
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["validate", TIGER],
    ["policy", TIGER, "--horizon", "1"],
    ["solve", TIGER, "--horizon", "2"],  # more than the stream buffers
    ["--help"],
], ids=lambda argv: argv[0].lstrip("-"))
def test_a_full_standard_output_exits_1_with_one_line(argv, buffered):
    with open("/dev/full", "wb") as full:
        proc = _process(argv, stdout=full, buffered=buffered)
    assert (proc.returncode, proc.stderr.decode()) == (1, NO_SPACE)


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["validate", TIGER], ["solve", TIGER, "--horizon", "2"]],
                         ids=lambda argv: argv[0])
def test_a_closed_pipe_exits_0_with_nothing_on_stderr(argv, buffered):
    read, write = os.pipe()
    os.close(read)  # every write fails with EPIPE
    try:
        proc = _process(argv, stdout=write, buffered=buffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_the_apoplan_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["apoplan"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.entry
