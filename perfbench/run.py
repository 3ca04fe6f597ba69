"""Benchmark of the apoplan command line: planning, SAT export and cross-checking.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tiger-plan --seed 1 --seconds 40 --trace 0

One client runs the workload's jobs one after another (a closed loop), each
as a fresh `python -m apoplan.cli ...` process with `src` on the path.  The
job list is repeated in whole rounds while another round of median length
still fits in `--seconds`.  Job times are scaled to the host's speed when
no other tenant loads it, by probes timed around each job (spawner.py).
Every job's output is checked, and repeated executions of a job must give
byte-identical output.  With `--trace 0` the last line of standard output is
the JSON result with the end-to-end metrics; with `--trace 1` the jobs run
once in this process with spans around each layer, and the result holds the
per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(HERE, "inputs")
WORK = os.path.join(HERE, "work")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import gen_theory  # noqa: E402
from checks import CheckFailure, Result  # noqa: E402

TIGER = os.path.join(INPUTS, "tiger.apo")
ENUM_SCRIPT = os.path.join(HERE, "enum_models.py")
SETUP_SAMPLES = 4  # set-ups before the first round; one more precedes each round
# Timings are reported in seconds of the host when no other tenant loads it:
# a job's wall time is divided by the median of the host-speed probes
# (probe.py) taken within PROBE_WINDOW_S of the job, and multiplied by
# the probe's time on the quiet host.
REFERENCE_PROBE_S = 0.055
PROBE_WINDOW_S = 10.0
# Stderr of the schema-14 fault: `check` and `sat` on the cross-sensing
# theory exit 3 with it every time.
SCHEMA14_FAULT = "positive dependency cycle"


@dataclass
class Job:
    name: str
    argv: list[str]                      # arguments after the interpreter
    check: Callable[[Result], None]
    outputs: list[str] = field(default_factory=list)
    known_fault: str | None = None       # stderr text of a fault it always hits


def _cli(*args: str) -> list[str]:
    return ["-m", "apoplan.cli", *args]


def tiger_plan(seed: int) -> tuple[list[str], list[Job]]:
    jobs = []
    for n in (1, 2):
        jobs.append(Job(f"solve-h{n}", _cli("solve", TIGER, "--horizon", str(n)),
                        checks.check_tiger_solve(n)))
        jobs.append(Job(f"policy-h{n}", _cli("policy", TIGER, "--horizon", str(n)),
                        checks.check_tiger_value(n)))
    for n in (1, 2, 3):
        jobs.append(Job(f"oracle-h{n}", _cli("oracle", TIGER, "--horizon", str(n)),
                        checks.check_tiger_value(n)))
    random.Random(seed).shuffle(jobs)
    return [TIGER], jobs


def tiger_sat(seed: int) -> tuple[list[str], list[Job]]:
    jobs = []
    for n in (3, 4, 5):
        out = os.path.join(WORK, f"tiger-h{n}.cnf")
        jobs.append(Job(f"sat-h{n}", _cli("sat", TIGER, "--horizon", str(n), "--out", out),
                        checks.check_sat_export(out), [out, out + ".atoms.json"]))
    random.Random(seed).shuffle(jobs)
    cnf = os.path.join(WORK, "tiger-h3.cnf")
    jobs.append(Job("models-h3", [ENUM_SCRIPT, cnf], checks.check_models(cnf, 1024)))
    return [TIGER], jobs


def check_mix(seed: int) -> tuple[list[str], list[Job]]:
    theories = [TIGER]
    for i in range(2):
        path = os.path.join(WORK, f"gen-{i}.apo")
        with open(path, "w", encoding="utf-8") as f:
            f.write(gen_theory.theory_text(1000 * seed + i))
        theories.append(path)
    jobs = [Job(f"check-{os.path.basename(t)}", _cli("check", t, "--horizon", "2"),
                checks.check_cross) for t in theories]
    cross = os.path.join(INPUTS, "cross_sensing.apo")
    out = os.path.join(WORK, "cross.cnf")
    jobs.append(Job("check-cross_sensing", _cli("check", cross, "--horizon", "2"),
                    checks.check_cross, known_fault=SCHEMA14_FAULT))
    jobs.append(Job("sat-cross_sensing", _cli("sat", cross, "--horizon", "2", "--out", out),
                    checks.check_sat_export(out), [out, out + ".atoms.json"],
                    known_fault=SCHEMA14_FAULT))
    random.Random(seed).shuffle(jobs)
    return theories + [cross], jobs


WORKLOADS = {"tiger-plan": tiger_plan, "tiger-sat": tiger_sat, "check-mix": check_mix}


# ---------------------------------------------------------------------------
# running jobs


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


@dataclass
class Execution:
    start: float      # time.perf_counter() in the spawner
    elapsed: float    # wall seconds


class Spawner:
    """Runs job processes through `spawner.py`, started while this process is
    still small, so each job's peak RSS is its own; the helper also times the
    host-speed probe around each job."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")], cwd=ROOT, env=_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.probes: list[tuple[float, float]] = []   # (time, seconds)

    def run(self, argv: list[str], tag: str) -> tuple[Result, Execution, float]:
        """Run one process to its end; return its result, its timing and its
        peak RSS (MB)."""
        out_path = os.path.join(WORK, tag + ".stdout")
        err_path = os.path.join(WORK, tag + ".stderr")
        self.proc.stdin.write(json.dumps([[sys.executable, *argv], out_path, err_path]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("the job spawner exited early")
        returncode, start, elapsed, rss_kb, probes = json.loads(reply)
        self.probes.extend(probes)
        with open(out_path, "rb") as f:
            stdout = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        return Result(returncode, stdout, stderr, {}), Execution(start, elapsed), rss_kb / 1024

    def scaled(self, execution: Execution) -> float:
        """The execution's wall time in seconds of the quiet host."""
        middle = execution.start + execution.elapsed / 2
        reach = PROBE_WINDOW_S + execution.elapsed / 2   # always holds its own probes
        near = [s for t, s in self.probes if abs(t - middle) <= reach]
        return execution.elapsed * REFERENCE_PROBE_S / statistics.median(near)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def _read_outputs(job: Job, result: Result):
    for path in job.outputs:
        if os.path.exists(path):
            with open(path, "rb") as f:
                result.files[path] = f.read()


def _digest(result: Result) -> str:
    h = hashlib.sha256()
    h.update(b"%d\0" % result.returncode)
    h.update(result.stdout)
    for path in sorted(result.files):
        h.update(path.encode() + b"\0")
        h.update(result.files[path])
    return h.hexdigest()


class Verifier:
    """Checks each job's output the first time and requires every later
    execution of the job to be byte-identical to it."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, job: Job, result: Result):
        self.attempted += 1
        if result.returncode != 0:
            self.failed += 1
        digest = _digest(result)
        first = self.digests.get(job.name)
        if first is not None:
            if first != digest:
                self.errors.append(f"{job.name}: output differs between executions")
            return
        self.digests[job.name] = digest
        try:
            if result.returncode != 0 and job.known_fault:
                if job.known_fault not in result.stderr:
                    raise CheckFailure(f"exit {result.returncode}: {result.stderr.strip()[-300:]}")
            else:
                job.check(result)
        except CheckFailure as e:
            self.errors.append(f"{job.name}: {e}")


def _reset_outputs(job: Job):
    """Remove what an earlier execution wrote, so a failing job shows no stale file."""
    for path in job.outputs:
        if os.path.exists(path):
            os.remove(path)


def measure(jobs: list[Job], theories: list[str], seconds: float, spawner: Spawner) -> dict:
    setup: list[Execution] = []

    def set_up():
        theory = theories[len(setup) % len(theories)]
        result, execution, _ = spawner.run(_cli("validate", theory), "validate")
        if result.returncode != 0:
            raise SystemExit(f"set-up: validate {theory} failed: {result.stderr.strip()}")
        setup.append(execution)

    for _ in range(SETUP_SAMPLES):
        set_up()
    verifier = Verifier()
    per_job: dict[str, list[Execution]] = {job.name: [] for job in jobs}
    rounds: list[float] = []
    peak_rss = 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        set_up()  # one more sample per round spreads them over the run
        for job in jobs:
            _reset_outputs(job)
        round_start = time.perf_counter()
        results = []
        for job in jobs:
            result, execution, rss = spawner.run(job.argv, job.name)
            results.append(result)
            per_job[job.name].append(execution)
            peak_rss = max(peak_rss, rss)
        rounds.append(time.perf_counter() - round_start)
        # every job writes its own files, so all of the round's outputs are
        # still there to be checked once the round is timed
        for job, result in zip(jobs, results):
            _read_outputs(job, result)
            verifier.record(job, result)

    job_medians = []
    for name, executions in per_job.items():
        times = [spawner.scaled(e) for e in executions]
        job_medians.append(statistics.median(times))
        print(f"  {name:24s} median {job_medians[-1]:.4f} s "
              f"(unscaled {statistics.median(e.elapsed for e in executions):.4f} s) "
              f"over {len(times)}: {' '.join(f'{t:.3f}' for t in times)}", file=sys.stderr)
    setup_s = [spawner.scaled(e) for e in setup]
    print(f"  setup:  {' '.join(f'{t:.3f}' for t in setup_s)}", file=sys.stderr)
    print(f"  rounds (unscaled wall seconds): {' '.join(f'{t:.3f}' for t in rounds)}",
          file=sys.stderr)
    return {
        "correct": not verifier.errors,
        "errors": verifier.errors,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (sum(job_medians), "s"),
            "max_job_s": (max(job_medians), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        },
    }


# ---------------------------------------------------------------------------
# traced run


def _run_in_process(job: Job) -> Result:
    from apoplan import cli
    import enum_models
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if job.argv[:2] == ["-m", "apoplan.cli"]:
            code = cli.main(job.argv[2:])
        else:
            code = enum_models.main(job.argv[1:])
    result = Result(code, out.getvalue().encode(), err.getvalue(), {})
    _read_outputs(job, result)
    return result


def _round_in_process(jobs: list[Job], tracer=None) -> tuple[float, list[Result]]:
    results = []
    start = time.perf_counter()
    for job in jobs:
        _reset_outputs(job)
        if tracer is not None:
            tracer.job = job.name
        results.append(_run_in_process(job))
    return time.perf_counter() - start, results


def measure_traced(jobs: list[Job], workload: str, seed: int) -> dict:
    import spans
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import apoplan.cli  # noqa: F401  (first import: part of the CLI's start-up)
    import_s = time.perf_counter() - start
    import enum_models  # noqa: F401

    untraced_s, _ = _round_in_process(jobs)
    tracer = spans.Tracer()
    tracer.install()
    traced_s, results = _round_in_process(jobs, tracer)
    tracer.dump(os.path.join(WORK, f"trace-{workload}-{seed}.json"))

    verifier = Verifier()
    output_bytes = 0
    for job, result in zip(jobs, results):
        verifier.record(job, result)
        output_bytes += len(result.stdout) + sum(len(b) for b in result.files.values())

    t = tracer.totals()

    def self_s(*names):
        return sum(t.get(n, {}).get("self_s", 0.0) for n in names)

    def count(name, key):
        return t.get(name, {}).get(key, 0)

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    answer_sets = count("nplp.enumerate", "answer_sets")
    models = count("sat.enumerate_models", "items")
    reported = count("policies.reports", "answer_sets")
    metrics = {
        "cli.start_s": (import_s + self_s("cli.start"), "s"),
        "cli.render_s": (self_s("cli.render"), "s"),
        "cli.output_mb": (output_bytes / 1e6, "MB"),
        "theory.load_s": (self_s("theory.load"), "s"),
        "compiler.compile_s": (self_s("compiler.compile"), "s"),
        "compiler.compile_calls": (count("compiler.compile", "calls"), "count"),
        "compiler.rules": (count("compiler.compile", "rules"), "count"),
        "compiler.normalize_s": (self_s("compiler.normalize"), "s"),
        "compiler.normal_rules": (count("compiler.normalize", "normal_rules"), "count"),
        "compiler.normal_answer_sets_calls": (count("compiler.normal_answer_sets", "calls"), "count"),
        "compiler.to_sat_s": (self_s("compiler.to_sat"), "s"),
        "compiler.cnf_vars": (count("compiler.to_sat", "cnf_vars"), "count"),
        "compiler.cnf_clauses": (count("compiler.to_sat", "cnf_clauses"), "count"),
        "compiler.to_dimacs_s": (self_s("compiler.to_dimacs"), "s"),
        "nplp.enumerate_s": (self_s("nplp.enumerate"), "s"),
        "nplp.enumerate_calls": (count("nplp.enumerate", "calls"), "count"),
        "nplp.answer_sets": (answer_sets, "count"),
        "nplp.answer_sets_per_s": (rate(answer_sets, self_s("nplp.enumerate")), "1/s"),
        "policies.reports_s": (self_s("policies.reports"), "s"),
        "policies.valid_share": (rate(count("policies.reports", "valid"), reported), "ratio"),
        "policies.group_s": (self_s("policies.group"), "s"),
        "policies.check_trajectories_s": (self_s("policies.check_trajectories"), "s"),
        "policies.check_policy_values_s": (self_s("policies.check_policy_values"), "s"),
        "policies.check_normal_projection_s": (self_s("policies.check_normal_projection"), "s"),
        "policies.check_sat_models_s": (self_s("policies.check_sat_models"), "s"),
        "sat.parse_dimacs_s": (self_s("sat.parse_dimacs"), "s"),
        "sat.enumerate_models_s": (self_s("sat.enumerate_models"), "s"),
        "sat.models": (models, "count"),
        "sat.models_per_s": (rate(models, self_s("sat.enumerate_models")), "1/s"),
        "oracle.optimal_policy_s": (self_s("oracle.optimal_policy"), "s"),
        "oracle.policies": (count("oracle.enumerate", "policies"), "count"),
        "oracle.trajectories": (count("oracle.enumerate", "trajectories"), "count"),
        "trace.wall_s": (traced_s, "s"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.overhead_share": (traced_s / untraced_s - 1, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return {"correct": not verifier.errors, "errors": verifier.errors,
            "attempted": verifier.attempted, "failed": verifier.failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "apoplan", "cli.py")):
        print(f"error: no apoplan sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    theories, jobs = WORKLOADS[args.workload](args.seed)
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs per round", file=sys.stderr)
    if args.trace:
        report = measure_traced(jobs, args.workload, args.seed)
    else:
        spawner = Spawner()
        try:
            report = measure(jobs, theories, args.seconds, spawner)
        finally:
            spawner.close()
    for error in report["errors"]:
        print(f"WRONG OUTPUT: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
