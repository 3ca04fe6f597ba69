#!/usr/bin/env python3
"""Wall time, CPU time and peak memory of one apoplan command, each run in a fresh process.

    python3 scripts/measure_cli.py --runs 5 -- policy domains/tiger.apo --horizon 3

Runs `python -m apoplan.cli ARGS` with the `src` directory of the checkout
that holds this script on the path, `--runs` times one after another, with
its output discarded.  Prints one JSON object: the median wall time, the
median CPU time (`ru_utime + ru_stime` from `os.wait4`), the largest resident
set size of any run (`ru_maxrss`), and each run's figures.  CPU time waits
for no other process on the host, so it varies less between runs than wall
time.  Exits 1 if any run exits non-zero.

With `--label L`, the object, tagged with `--side`, is also appended to the
`measurements` of `BENCH_L.json` in the current directory, which is created
if it does not exist.  Run the copy of this script in another checkout, with
the same label, to add that checkout's figures to the same record.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_once(args: list[str]) -> tuple[int, float, float, float]:
    """(exit code, wall seconds, peak resident set in MB, CPU seconds) of one
    fresh run."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "apoplan.cli", *args], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return (proc.returncode, wall, usage.ru_maxrss / 1024,  # ru_maxrss is in KB
            usage.ru_utime + usage.ru_stime)


def measure(args: list[str], runs: int) -> dict:
    results = [run_once(args) for _ in range(runs)]
    return {
        "command": args,
        "runs": runs,
        "wall_s": statistics.median(r[1] for r in results),
        "cpu_s": statistics.median(r[3] for r in results),
        "max_rss_mb": max(r[2] for r in results),
        "exit_codes": [r[0] for r in results],
        "wall_s_each": [round(r[1], 4) for r in results],
        "cpu_s_each": [round(r[3], 4) for r in results],
        "rss_mb_each": [r[2] for r in results],
    }


def append_record(path: str, result: dict):
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    else:
        record = {
            "description": "Figures of scripts/measure_cli.py: the median wall time, the "
                           "median CPU time (ru_utime + ru_stime) and the largest "
                           "ru_maxrss of fresh `python -m apoplan.cli` runs, output "
                           "discarded, one run after another.",
            "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                    f"Python {platform.python_version()}",
            "measurements": [],
        }
    record["measurements"].append(result)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="fresh processes (>= 1)")
    parser.add_argument("--label", default=None,
                        help="also append the result to BENCH_<label>.json")
    parser.add_argument("--side", default=None,
                        help="tag stored with the result, such as before or after")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the apoplan arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.runs < 1:
        parser.error("need an apoplan command and --runs >= 1")
    result = measure(command, args.runs)
    if args.side is not None:
        result = {"side": args.side, **result}
    print(json.dumps(result))
    if args.label:
        append_record(f"BENCH_{args.label}.json", result)
    return 0 if not any(result["exit_codes"]) else 1


if __name__ == "__main__":
    sys.exit(main())
