import itertools
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from apoplan import compiler
from apoplan.policies import PolicyValue, stationary_action_map
from apoplan.nplp import answer_set_sort_key, iter_rule_firings, render_atom, satisfies
from apoplan.theory import ActionTheory, parse_theory

REPO = Path(__file__).resolve().parent.parent
TIGER_PATH = REPO / "domains" / "tiger.apo"
CROSS_SENSING_PATH = REPO / "domains" / "cross_sensing.apo"
SPANS_PATH = REPO / "perfbench" / "spans.py"


def satisfies_program(h, program) -> bool:
    """h satisfies every rule of `program`: no firing's head value exceeds h
    of its head, which under max composition bounds the composed
    contribution too."""
    return all(satisfies(h, head, value)
               for rule in program.rules
               for head, value in iter_rule_firings(rule, h))


def group_policies_reference(theory, reports, policies) -> list:
    """The value of each of `policies`, summed as one loop over the valid
    `reports` per policy, each report matched against the policy on its own:
    the reference for the map sums of `policies.group_policies`."""
    choices = [(report, stationary_action_map(theory, report)) for report in reports]
    out = []
    for policy in policies:
        total = Fraction(0)
        per_initial: dict = {}
        contributors = 0
        for report, chosen in choices:
            if chosen is None or any(policy.get(s) != a for s, a in chosen.items()):
                continue
            contributors += 1
            total += report.value
            s0 = report.states[0]
            per_initial[s0] = per_initial.get(s0, Fraction(0)) + report.value
        out.append(PolicyValue(policy=policy, value=total,
                               contributors=contributors, per_initial=per_initial))
    return out


def fresh_python(script: str, *argv, env_vars=None) -> str:
    """Standard output of `python -c script argv...` in a fresh interpreter
    with `src` on the path (the test process has imported every module
    already) and `env_vars` added to the environment."""
    env = dict(os.environ, **(env_vars or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def interpretation(layers) -> dict:
    """The answer set whose layers are `layers`, as one dict: the normal atoms
    at 1, the derived atoms at their values, in the order `apoplan solve`
    reads them."""
    h = dict.fromkeys(itertools.chain.from_iterable(l.atoms for l in layers), Fraction(1))
    h.update(layers[-1].values)
    return h


def interpretations(run) -> list:
    """The answer sets of a `policies.Run`, in search order, each as one dict."""
    return [interpretation(layers) for layers in run.iter_layers()]


def answer_sets_of(program) -> list:
    """The answer sets of a hand-built annotated `program`, from its
    probability rules and the completion of its normal program as
    `policies.Run` computes them, in `nplp.answer_set_sort_key` order."""
    return sorted(map(interpretation, compiler.iter_answer_set_layers(
        compiler.probability_rules(program),
        compiler.to_sat(compiler.normalize(program)))), key=answer_set_sort_key)


def model_key(model) -> int:
    """The key of a model as `sat.enumerate_models` yields it: bit v - 1 for
    each true variable v, as `compiler.atoms_of_key` reads it."""
    return sum(1 << i for i, value in enumerate(model[1:]) if value)


def model_atoms(model, cnf) -> frozenset:
    """The true atoms of a model of `cnf` as `sat.enumerate_models` yields it
    (item v the value of variable v), read through the DIMACS numbering of
    `cnf.atoms` as an external solver's model would be."""
    assert len(model) == cnf.variable_count + 1
    return frozenset(itertools.compress(cnf.atoms, model[1:]))


def answer_set_key(layers) -> int:
    """The key of the completion model of a layered answer set."""
    return sum(layer.key for layer in layers)


def normal_sets_of(program) -> list:
    """The answer sets of a normal `program`, from `compiler.normal_answer_sets`,
    as sets of atoms."""
    atoms = sorted(program.atoms(), key=render_atom)
    return [compiler.atoms_of_key(k, atoms) for k in compiler.normal_answer_sets(program)]


@pytest.fixture(scope="session")
def tiger_text() -> str:
    return TIGER_PATH.read_text()


@pytest.fixture(scope="session")
def tiger(tiger_text) -> ActionTheory:
    return parse_theory(tiger_text)


@pytest.fixture(scope="session")
def cross_sensing() -> ActionTheory:
    return parse_theory(CROSS_SENSING_PATH.read_text())


@pytest.fixture(scope="session")
def spans() -> types.ModuleType:
    """`perfbench/spans.py`, executed from its source so that nothing is
    written under perfbench/."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module
