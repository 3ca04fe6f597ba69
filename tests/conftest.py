import types
from pathlib import Path

import pytest

from apoplan.nplp import iter_rule_firings, satisfies
from apoplan.theory import ActionTheory, parse_theory

REPO = Path(__file__).resolve().parent.parent
TIGER_PATH = REPO / "domains" / "tiger.apo"
CROSS_SENSING_PATH = REPO / "domains" / "cross_sensing.apo"
SPANS_PATH = REPO / "perfbench" / "spans.py"


def satisfies_program(h, program) -> bool:
    """h satisfies every rule of `program`: no firing's head value exceeds h
    of its head, which under max composition bounds the composed
    contribution too."""
    atoms_by_pred: dict = {}
    for atom in h:
        atoms_by_pred.setdefault(atom[0], []).append(atom)
    return all(satisfies(h, head, value)
               for rule in program.rules
               for head, value in iter_rule_firings(rule, h, atoms_by_pred))


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
