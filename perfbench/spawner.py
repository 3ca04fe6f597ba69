"""Helper process that runs the benchmark's job processes.

A child's maximum resident set size starts from its parent's peak, because
the child shares or copies the parent's memory until it executes the job.
Jobs spawned straight from the benchmark, which holds and checks outputs of
tens of MB, would report the benchmark's peak instead of their own; this
helper stays small.

The helper also measures how fast the processor runs the interpreter at the
time of each job.  On a host shared with other tenants the same job runs up
to twice as long while they load the machine, for seconds to minutes at a
time.  The helper pins itself, and so every job it starts, to one
processor, and times a fixed piece of pure-Python work (`probe.py`, independent
of apoplan) on that processor right before and right after each job.  A job's
time divided by the probes taken in the seconds around it no longer depends
on the host's load; see "Host speed" in README.md.

Reads one JSON request per line, `[argv, stdout_path, stderr_path]`, runs
`argv` with the helper's working directory and environment, and answers
with one JSON line `[exit_code, start, wall_seconds, max_rss_kb, probes]`:
`start` on the `time.perf_counter` clock, and `probes` the probes taken for
this job that no earlier answer reported, each `[time, seconds]`.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# A probe taken less than this long before a job stands for the probe
# before it, so back-to-back jobs share one probe between them.
PROBE_REUSE_S = 0.1


class Prober:
    """`probe.py` in a process of its own, so the memory the probe takes does
    not raise this helper's resident set size and with it every job's."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def probe(self) -> list[float]:
        """One probe as `[time at its middle, seconds]`."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main():
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    prober = Prober()
    try:
        serve(prober)
    finally:
        prober.close()


def serve(prober: Prober):
    last_probe_end = 0.0
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        probes = []
        if time.perf_counter() - last_probe_end >= PROBE_REUSE_S:
            probes.append(prober.probe())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        probes.append(prober.probe())
        last_probe_end = time.perf_counter()
        print(json.dumps([proc.returncode, start, elapsed, usage.ru_maxrss, probes]), flush=True)


if __name__ == "__main__":
    main()
