#!/usr/bin/env python3
"""Wall time, CPU time, peak memory and work counts of one apoplan command.

    python3 scripts/measure_cli.py --runs 5 -- policy domains/tiger.apo --horizon 3
    python3 scripts/measure_cli.py --runs 10 --against ../parent -- solve domains/tiger.apo

Runs `python -m apoplan.cli ARGS` with the `src` directory of the checkout
that holds this script on the path, `--runs` times one after another, with
its output discarded, and then counts the work of one more run of the same
arguments in this process.  Prints one JSON object: the median wall time,
the median CPU time (`ru_utime + ru_stime` from `os.wait4`), the largest
resident set size of any timed run (`ru_maxrss`), each timed run's figures,
and the counts.  CPU time waits for no other process on the host, so it
varies less between runs than wall time.  Exits 1 if any run, timed or
counted, exits non-zero; `exit_codes` holds the timed runs' codes and
`count_exit_code` the counted run's.

The counts do not depend on the host, so a change can be judged by them
without timing noise.  `models` counts the answer sets that
`compiler.iter_answer_set_layers` yields, `searches` the calls of
`sat.enumerate_models` (one per layer and value of its frontier for `solve`,
`policy` and `check`), `firings` the calls of `nplp.iter_rule_firings`, and
`layers` the layers of each answer set that it does not share with the one
before.  `search_s` is the CPU time spent inside `sat.enumerate_models`, and
`answer_sets_s` that spent inside `compiler.iter_answer_set_layers`, search
included: their difference is the walk, decoding and firing.

The counted run comes last, and nothing of apoplan is imported before it: a
child process's `ru_maxrss` starts at its parent's peak, so a timed run
started after an in-process `solve` would read that run's memory.

With `--against DIR`, the runs are pairs: one run of this checkout's `src`
(the change) and one of `DIR/src` (the parent), which goes first on every
other pair, so that both sides see the same drift of the host's speed.  The
object then holds each side's figures, DIR's counts taken from one run of
DIR's own copy of this script with `--runs 1`, and, under `ratios`, each
pair's change/parent ratio of wall time, CPU time and `ru_maxrss`, with the
median and quartiles of each.

With `--label L`, the object, tagged with `--side`, is also appended to the
`measurements` of `BENCH_L.json` in the current directory, which is created
if it does not exist.  Run the copy of this script in another checkout, with
the same label, to add that checkout's figures to the same record.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_once(args: list[str], src: str = SRC) -> tuple[int, float, float, float]:
    """(exit code, wall seconds, peak resident set in MB, CPU seconds) of one
    fresh run of the `apoplan` package under `src`."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "apoplan.cli", *args], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return (proc.returncode, wall, usage.ru_maxrss / 1024,  # ru_maxrss is in KB
            usage.ru_utime + usage.ru_stime)


def count(args: list[str]) -> dict:
    """The exit code and work counts of one run of `apoplan.cli.main` in this
    process, with its output discarded."""
    sys.path.insert(0, SRC)
    from apoplan import cli, compiler, nplp, policies, sat  # noqa: F401 (loads the pipeline)

    def replace(original, wrapper):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("apoplan"):
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    fire, models = nplp.iter_rule_firings, sat.enumerate_models
    answer_sets = compiler.iter_answer_set_layers
    counts = {"models": 0, "searches": 0, "firings": 0, "layers": 0, "search_s": 0.0,
              "answer_sets_s": 0.0}

    def timed(items, key):
        """`items`, with the CPU time spent making each added to `counts[key]`."""
        items = iter(items)
        while True:
            start = time.process_time()
            item = next(items, counts)
            counts[key] += time.process_time() - start
            if item is counts:
                return
            yield item

    def counted_firings(*args, **kwargs):
        counts["firings"] += 1
        return fire(*args, **kwargs)

    def counted_models(*args, **kwargs):
        counts["searches"] += 1
        return timed(models(*args, **kwargs), "search_s")

    def counted_answer_sets(*args, **kwargs):
        before: tuple = ()
        for layers in timed(answer_sets(*args, **kwargs), "answer_sets_s"):
            counts["models"] += 1
            counts["layers"] += sum(k >= len(before) or layer is not before[k]
                                    for k, layer in enumerate(layers))
            before = layers
            yield layers

    replace(fire, counted_firings)
    replace(models, counted_models)
    replace(answer_sets, counted_answer_sets)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    return {"count_exit_code": code, **counts,
            "search_s": round(counts["search_s"], 4),
            "answer_sets_s": round(counts["answer_sets_s"], 4)}


def summary(results: list[tuple]) -> dict:
    """The figures of the `run_once` `results` of one side."""
    return {
        "wall_s": statistics.median(r[1] for r in results),
        "cpu_s": statistics.median(r[3] for r in results),
        "max_rss_mb": max(r[2] for r in results),
        "exit_codes": [r[0] for r in results],
        "wall_s_each": [round(r[1], 4) for r in results],
        "cpu_s_each": [round(r[3], 4) for r in results],
        "rss_mb_each": [r[2] for r in results],
    }


# the keys of a `measure` result that are not counts
_NOT_COUNTS = ("command", "runs", "wall_s", "cpu_s", "max_rss_mb", "exit_codes",
               "wall_s_each", "cpu_s_each", "rss_mb_each")


def measure(args: list[str], runs: int) -> dict:
    results = [run_once(args) for _ in range(runs)]
    return {"command": args, "runs": runs, **summary(results),
            **count(args)}  # after the last timed run


def counts_in(checkout: str, args: list[str]) -> dict:
    """The counts of `args` in `checkout`, from one run of its own copy of
    this script, whose one timed run is left out."""
    proc = subprocess.run([sys.executable, os.path.join(checkout, "scripts", "measure_cli.py"),
                           "--runs", "1", "--", *args], capture_output=True, text=True)
    if not proc.stdout:
        sys.exit(f"{checkout}: measure_cli.py failed: {proc.stderr}")
    return {k: v for k, v in json.loads(proc.stdout).items() if k not in _NOT_COUNTS}


def measure_against(args: list[str], runs: int, checkout: str) -> dict:
    """`runs` pairs of runs of this checkout (the change) and `checkout` (the
    parent), the parent first in every odd pair, and each pair's ratios."""
    src = {"change": SRC, "parent": os.path.join(os.path.abspath(checkout), "src")}
    results: dict[str, list] = {"change": [], "parent": []}
    for i in range(runs):
        for side in ("change", "parent") if i % 2 == 0 else ("parent", "change"):
            results[side].append(run_once(args, src[side]))
    ratios = {}
    for key, k in (("wall_s", 1), ("cpu_s", 3), ("max_rss_mb", 2)):
        each = [c[k] / p[k] for c, p in zip(results["change"], results["parent"])]
        q1, median, q3 = statistics.quantiles(each, n=4, method="inclusive")
        ratios[key] = {"median": round(median, 4), "quartiles": [round(q1, 4), round(q3, 4)],
                       "each": [round(r, 4) for r in each]}
    parent = {**summary(results["parent"]), **counts_in(checkout, args)}
    change = {**summary(results["change"]), **count(args)}  # after every other run
    return {"command": args, "runs": runs, "against": checkout,
            "change": change, "parent": parent, "ratios": ratios}


def append_record(path: str, result: dict):
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    else:
        record = {
            "description": "Figures of scripts/measure_cli.py: the median wall time, the "
                           "median CPU time (ru_utime + ru_stime) and the largest "
                           "ru_maxrss of fresh `python -m apoplan.cli` runs, output "
                           "discarded, one run after another; then the work of one "
                           "in-process run of the same command, which does not depend "
                           "on the host: `models`, the answer sets yielded by "
                           "compiler.iter_answer_set_layers, `searches` (calls of "
                           "sat.enumerate_models), `firings` (calls of "
                           "nplp.iter_rule_firings) and `layers` derived by "
                           "compiler.iter_answer_set_layers, and the CPU "
                           "time inside the search (`search_s`) and inside the "
                           "answer-set layers, search included (`answer_sets_s`). "
                           "A measurement with `against` holds both sides of runs made "
                           "in pairs, alternately, under `change` and `parent`, and "
                           "under `ratios` each pair's change/parent ratio of wall "
                           "time, CPU time and ru_maxrss, with their median and "
                           "quartiles.",
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
    parser.add_argument("--against", metavar="DIR", default=None,
                        help="alternate the runs with those of the checkout DIR")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the apoplan arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.runs < 1:
        parser.error("need an apoplan command and --runs >= 1")
    if args.against:
        if args.runs < 2:
            parser.error("--against needs --runs >= 2")
        result = measure_against(command, args.runs, args.against)
        sides = [result["change"], result["parent"]]
    else:
        result = measure(command, args.runs)
        sides = [result]
    if args.side is not None:
        result = {"side": args.side, **result}
    print(json.dumps(result))
    if args.label:
        append_record(f"BENCH_{args.label}.json", result)
    return 0 if not any(any(s["exit_codes"]) or s["count_exit_code"] for s in sides) else 1


if __name__ == "__main__":
    sys.exit(main())
