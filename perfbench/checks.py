"""Output checks for the benchmark's jobs.

Each check is computed apart from the program: from closed-form counts and
values of the tiger domain, from properties every correct output must have,
or by re-checking the program's result itself (every SAT model against every
clause).  None compares against a stored copy of earlier output.

A check takes a finished job's `Result` and raises `CheckFailure` when the
output is wrong.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass


class CheckFailure(Exception):
    pass


@dataclass
class Result:
    returncode: int
    stdout: bytes
    stderr: str
    files: dict[str, bytes]     # output file path -> contents


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailure(message)


def _json(result: Result) -> dict:
    _require(result.returncode == 0,
             f"exit {result.returncode}: {result.stderr.strip()[-300:]}")
    try:
        return json.loads(result.stdout)
    except ValueError as e:
        raise CheckFailure(f"output is not JSON: {e}") from None


def tiger_value(horizon: int) -> float:
    """Optimal tiger value: with the state known, open the safe door (+10)
    at every step, discounted by 9/10."""
    return sum(10 * 0.9 ** t for t in range(horizon))


_ATOM = re.compile(r"^(\w+)\((.*)\)$")
_TIGER_FLUENTS = {"tl", "htl"}


def check_tiger_solve(horizon: int):
    """Answer sets of tiger at `horizon`: 2 initial states times 8 sub-outcomes
    per step; the 2·4^n valid ones are those whose chosen sub-outcome's
    condition held at every step, and their horizon state probabilities sum to
    3^n (for each of the 3^n action sequences the outcome probabilities,
    weighted by the initial belief, sum to one)."""
    def check(result: Result):
        payload = _json(result)
        sets = payload["answer_sets"]
        _require(payload["count"] == len(sets) == 2 * 8 ** horizon,
                 f"{payload['count']} answer sets, expected {2 * 8 ** horizon}")
        valid = 0
        mass = 0.0
        for h in sets:
            occ = [0] * horizon
            state: dict[int, float] = {}
            holds: dict[int, set[str]] = {}
            value_at_horizon = False
            for key, weight in h.items():
                m = _ATOM.match(key)
                _require(m is not None, f"unreadable atom {key!r}")
                pred, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
                if pred == "occ" and weight >= 1:
                    occ[int(args[1])] += 1
                elif pred == "state":
                    state[int(args[0])] = weight
                elif pred == "holds" and weight >= 1:
                    holds.setdefault(int(args[1]), set()).add(args[0])
                elif pred == "value" and weight >= 1 and int(args[-1]) == horizon:
                    value_at_horizon = True
            _require(occ == [1] * horizon, f"occ atoms per step {occ}, expected one each")
            if value_at_horizon and all(state.get(t, 0) > 0 for t in range(horizon + 1)):
                valid += 1
                mass += state[horizon]
                for t in range(horizon + 1):
                    lits = holds.get(t, set())
                    _require({l.lstrip("-") for l in lits} == _TIGER_FLUENTS
                             and len(lits) == len(_TIGER_FLUENTS),
                             f"valid answer set with state {sorted(lits)} at time {t}")
        _require(valid == 2 * 4 ** horizon,
                 f"{valid} valid answer sets, expected {2 * 4 ** horizon}")
        _require(abs(mass - 3 ** horizon) < 1e-9,
                 f"horizon state probabilities sum to {mass}, expected {3 ** horizon}")
    return check


def check_tiger_value(horizon: int):
    """`policy` and `oracle` both report the optimal tiger value."""
    def check(result: Result):
        value = _json(result)["value"]
        _require(abs(value - tiger_value(horizon)) < 1e-9,
                 f"value {value}, expected {tiger_value(horizon)}")
    return check


def check_cross(result: Result):
    """`check` reports all four equivalence checks and each one holds."""
    payload = _json(result)
    names = [c["check"] for c in payload["checks"]]
    _require(len(names) == 4, f"{len(names)} checks reported, expected 4")
    failed = [c["check"] for c in payload["checks"] if not c["ok"]]
    _require(payload["ok"] and not failed, f"checks failed: {failed}")


def _dimacs(text: str) -> tuple[int, list[str]]:
    """Check a DIMACS file's shape; return its variable count and clause lines."""
    header, _, body = text.partition("\n")
    fields = header.split()
    _require(len(fields) == 4 and fields[:2] == ["p", "cnf"], "missing DIMACS header")
    nvars, nclauses = int(fields[2]), int(fields[3])
    lines = [l for l in body.splitlines() if not l.startswith("c")]
    _require(len(lines) == nclauses,
             f"header announces {nclauses} clauses, file has {len(lines)} clause lines")
    _require(all(l.endswith(" 0") or l == "0" for l in lines), "a clause line does not end in 0")
    lits = list(map(int, " ".join(lines).split()))
    _require(lits.count(0) == nclauses, "a clause line holds a 0 before its end")
    _require(max(map(abs, lits), default=0) <= nvars,
             "literal outside the announced variable range")
    return nvars, lines


def check_sat_export(cnf_path: str):
    """The DIMACS header matches the clause lines, and the atom map names
    each announced variable once, in order."""
    def check(result: Result):
        _require(result.returncode == 0,
                 f"exit {result.returncode}: {result.stderr.strip()[-300:]}")
        nvars, _ = _dimacs(result.files[cnf_path].decode())
        atom_map = json.loads(result.files[cnf_path + ".atoms.json"])
        _require([e["var"] for e in atom_map] == list(range(1, nvars + 1)),
                 f"atom map does not list variables 1..{nvars}")
        _require(len({e["atom"] for e in atom_map}) == nvars, "atom map repeats an atom")
    return check


def check_models(cnf_path: str, expected: int):
    """Every model printed by the enumerator satisfies every clause of the
    CNF, no model repeats, and there are `expected` of them.

    Clauses are checked against all models at once: bit i of `true_in[v]` is
    set when model i makes variable v true, so a clause holds in every model
    exactly when the OR of its literals' masks has all bits set."""
    def check(result: Result):
        _require(result.returncode == 0,
                 f"exit {result.returncode}: {result.stderr.strip()[-300:]}")
        with open(cnf_path, encoding="utf-8") as f:
            nvars, lines = _dimacs(f.read())
        clauses = [[int(x) for x in line.split()[:-1]] for line in lines]
        models = result.stdout.decode().split("\n")[:-1]
        _require(len(models) == expected, f"{len(models)} models, expected {expected}")
        _require(len(set(models)) == len(models), "a model is printed twice")
        true_in = [0] * (nvars + 1)
        for i, line in enumerate(models):
            lits = [int(x) for x in line.split()]
            _require(sorted(map(abs, lits)) == list(range(1, nvars + 1)),
                     f"model {i} is not a total assignment")
            for lit in lits:
                if lit > 0:
                    true_in[lit] |= 1 << i
        every = (1 << len(models)) - 1
        for clause in clauses:
            sat = 0
            for lit in clause:
                sat |= true_in[lit] if lit > 0 else every ^ true_in[-lit]
            _require(sat == every, f"clause {clause} fails in some model")
    return check
