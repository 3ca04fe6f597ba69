"""Spans around apoplan's public functions, installed from outside the program.

`Tracer.install` replaces each function listed in `SPANS` by a wrapper at every
apoplan module that holds it, so a call through `policies.compile_theory` is
traced as well as one through `compiler.compile_theory`.  A wrapped generator
keeps its span open for the whole iteration.  Spans stay in memory until
`Tracer.dump` writes them out.

A span's self time is its duration minus the durations of its direct child
spans.  Counts and sizes are taken from return values.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


def _len_ret(key):
    return lambda args, ret: {key: len(ret)}


def _rules(key):
    return lambda args, ret: {key: len(ret.rules)}


def _cnf(args, ret):
    return {"cnf_vars": ret.variable_count, "cnf_clauses": len(ret.clauses)}


def _reports(args, ret):
    return {"valid": len(ret), "answer_sets": len(args[1])}


# (module, attribute, span name, counts taken from (args, return value))
SPANS = [
    ("apoplan.cli", "main", "cli.start", None),
    ("apoplan.cli", "_emit", "cli.render", None),
    ("apoplan.cli", "_emit_json", "cli.render", None),
    ("apoplan.cli", "_load_theory", "theory.load", None),
    ("apoplan.theory", "parse_theory", "theory.load", None),
    ("apoplan.theory", "ground_theory", "theory.load", None),
    ("apoplan.theory", "validate_theory", "theory.load", None),
    ("apoplan.compiler", "compile_theory", "compiler.compile", _rules("rules")),
    ("apoplan.compiler", "normalize", "compiler.normalize", _rules("normal_rules")),
    ("apoplan.compiler", "normal_answer_sets", "compiler.normal_answer_sets", None),
    ("apoplan.compiler", "to_sat", "compiler.to_sat", _cnf),
    ("apoplan.compiler", "CnfFormula.to_dimacs", "compiler.to_dimacs", None),
    ("apoplan.nplp", "enumerate_answer_sets", "nplp.enumerate", _len_ret("answer_sets")),
    ("apoplan.policies", "valid_reports", "policies.reports", _reports),
    ("apoplan.policies", "group_policies", "policies.group", None),
    ("apoplan.policies", "check_trajectories", "policies.check_trajectories", None),
    ("apoplan.policies", "check_policy_values", "policies.check_policy_values", None),
    ("apoplan.policies", "check_normal_projection", "policies.check_normal_projection", None),
    ("apoplan.policies", "check_sat_models", "policies.check_sat_models", None),
    ("apoplan.sat", "parse_dimacs", "sat.parse_dimacs", None),
    ("apoplan.sat", "enumerate_models", "sat.enumerate_models", None),
    ("apoplan.oracle", "optimal_policy", "oracle.optimal_policy", None),
    ("apoplan.oracle", "enumerate_policies", "oracle.enumerate", _len_ret("policies")),
    ("apoplan.oracle", "enumerate_trajectories", "oracle.enumerate", _len_ret("trajectories")),
]


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name, job, parent, start):
        self.name, self.job, self.parent, self.start = name, job, parent, start
        self.end = None
        self.child_s = 0.0
        self.counts = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job = None

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.job, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, counts: dict | None = None):
        span = self.spans[index]
        span.end = time.perf_counter()
        span.counts = counts
        self._open.remove(index)
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def totals(self) -> dict[str, dict]:
        """Per span name: summed self time, number of calls, summed counts."""
        out: dict[str, dict] = {}
        for span in self.spans:
            agg = out.setdefault(span.name, {"self_s": 0.0, "calls": 0})
            agg["self_s"] += span.self_s
            agg["calls"] += 1
            for key, value in (span.counts or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            json.dump([{"name": s.name, "job": s.job, "parent": s.parent,
                        "start": s.start, "end": s.end, "self_s": s.self_s,
                        "counts": s.counts} for s in self.spans], f)
            f.write("\n")

    def _wrap(self, fn, name: str, measure):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                index = self.open(name)
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    self.close(index, {"items": n})
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            counts = None
            try:
                ret = fn(*args, **kwargs)
                if measure is not None:
                    counts = measure(args, ret)
                return ret
            finally:
                self.close(index, counts)
        return wrapper

    def install(self):
        """Wrap every function in `SPANS` and every `cli.cmd_*` handler (whose
        self time is building and writing the command's output)."""
        cli = sys.modules["apoplan.cli"]
        targets = SPANS + [("apoplan.cli", n, "cli.render", None)
                           for n in dir(cli) if n.startswith("cmd_")]
        modules = [m for n, m in sys.modules.items()
                   if n == "apoplan" or n.startswith("apoplan.")]
        for modname, attr, name, measure in targets:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name, measure))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
