"""The benchmark's host-speed probe: a fixed piece of pure-Python work whose
time shows how fast the processor runs the interpreter at the moment.

Run by `spawner.py` as a process of its own: for each line read on standard
input it runs `probe()` once and answers with one JSON line
`[time at its middle, seconds]`, on the `time.perf_counter` clock.
"""

import json
import sys
import time


def _step(a, b):
    return (a * 31 + b) & 0xFFFF


def probe() -> float:
    """Time a fixed piece of the kind of work apoplan does, without apoplan:
    interpreter work (calls, arithmetic, dict and set updates), then building,
    indexing and dropping some 10 MB of tuples and strings.  It takes about
    0.055 s on the reference host when no other tenant loads it.  Never
    change it: every scaled time is a multiple of it."""
    start = time.perf_counter()
    table, seen, x = {}, set(), 0
    for i in range(60000):
        x = _step(x, i)
        table[(i & 511, x & 7)] = x
        if x & 1:
            seen.add(x)
    rows = [(i, i * 7, str(i)) for i in range(60000)]
    index = {row[2]: row for row in rows}
    total = 0
    for k in range(0, 60000, 7):
        total += index[str(k * 7919 % 60000)][1]
    return time.perf_counter() - start


def main():
    for _ in sys.stdin:
        start = time.perf_counter()
        seconds = probe()
        print(json.dumps([start + seconds / 2, seconds]), flush=True)


if __name__ == "__main__":
    main()
