"""Value semantics of the package's immutable value classes (`apoplan.Record`),
which must behave like the frozen dataclasses they replaced."""

import dataclasses
from fractions import Fraction

import pytest

from apoplan import Record
from apoplan.compiler import CnfFormula, NormalProgram
from apoplan.nplp import (
    Add, BLit, Mul, NpProgram, NpRule, Num, ONE, Ref,
)
from apoplan.oracle import OracleError, Trajectory
from apoplan.policies import AnswerSetReport, CheckReport, PolicyValue
from apoplan.theory import (
    ActionDecl, ActionTheory, InitialEntry, SubOutcome, ValidationReport,
    Violation, _Token,
)

S0 = frozenset({"tl", "htl"})
S1 = frozenset({"-tl", "htl"})


def _sub_fields():
    return {"id": "listen_1", "effect": frozenset({"htl"}),
            "prob": Fraction(17, 20), "reward": Fraction(-1),
            "condition": frozenset({"tl"})}


def _sub():
    return SubOutcome(**_sub_fields())


def _action():
    return ActionDecl(name="listen", kind="sensing", outcomes=(_sub(),),
                      executability=frozenset())


# One entry per value class: the class and a function that builds its fields
# afresh, in the order of its `__init__` parameters.
FIELDS = [
    (InitialEntry, lambda: {"formula": frozenset({"tl"}), "prob": Fraction(1, 2)}),
    (SubOutcome, _sub_fields),
    (ActionDecl, lambda: {"name": "listen", "kind": "sensing",
                          "outcomes": (_sub(),), "executability": frozenset()}),
    (ActionTheory, lambda: {
        "fluents": ("tl", "htl"), "domains": (("Door", ("l", "r")),),
        "initial": (InitialEntry(S0, Fraction(1)),), "actions": (_action(),),
        "discount": Fraction(9, 10), "goal": frozenset({"tl"})}),
    (Violation, lambda: {"decl": "action listen", "rule": "r", "message": "m"}),
    (ValidationReport, lambda: {"violations": (Violation("d", "r", "m"),),
                                "theory": None}),
    (_Token, lambda: {"kind": "ident", "text": "fluent", "line": 1, "column": 2}),
    (Ref, lambda: {"name": "N"}),
    (Num, lambda: {"value": Fraction(-3, 4)}),
    (Add, lambda: {"parts": (Ref("V"), Num(Fraction(1)))}),
    (Mul, lambda: {"parts": (Ref("V"), Num(Fraction(1)))}),
    (BLit, lambda: {"atom": ("holds", "tl", 0), "ann": Ref("U"), "neg": True}),
    (NpRule, lambda: {"head": ("state", 1), "head_ann": Mul((Ref("U"),)),
                      "body": (BLit(("state", 0), Ref("U")),), "schema": "15"}),
    (NpProgram, lambda: {"rules": (NpRule(("fluent", "tl"), schema="fluent"),)}),
    (NormalProgram, lambda: {"rules": ((("a",), (("b",),), ()),)}),
    (CnfFormula, lambda: {"clauses": ((1, -2),), "atoms": (("a",), ("b",))}),
    (Trajectory, lambda: {"states": (S0, S1), "subs": ("listen_2",),
                          "probs": (Fraction(3, 20),), "rewards": (Fraction(-1),)}),
    (AnswerSetReport, lambda: {
        "states": (S0,), "occ": (), "state_probs": (Fraction(1, 2),),
        "value": None, "valid": False}),
    (PolicyValue, lambda: {"policy": {S0: "listen"}, "value": Fraction(-1),
                           "contributors": 2, "per_initial": {S0: Fraction(-1)}}),
    (CheckReport, lambda: {"name": "sat-model-equivalence", "ok": True,
                           "detail": "1 models = 1 answer sets",
                           "counterexamples": ("x",)}),
]
CASES = pytest.mark.parametrize(
    "cls, fields", FIELDS, ids=[cls.__name__ for cls, _ in FIELDS])


def test_every_value_class_is_covered():
    assert set(Record.__subclasses__()) == {cls for cls, _ in FIELDS}


@CASES
def test_equal_fields_give_equal_records(cls, fields):
    a, b = cls(**fields()), cls(*fields().values())
    assert a == b and not a != b
    assert [getattr(a, name) for name in cls.__slots__] == list(fields().values())
    if cls is PolicyValue:  # its dict fields are unhashable, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@CASES
def test_records_are_immutable(cls, fields):
    record = cls(**fields())
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(**fields())


@CASES
def test_repr_matches_the_dataclass_format(cls, fields):
    # compiler.check_tight sorts atoms by repr, and errors print {expr!r}
    values = fields()
    reference = dataclasses.make_dataclass(cls.__name__, list(values), frozen=True)
    assert repr(cls(**values)) == repr(reference(**values))


@CASES
def test_replace_changes_one_field(cls, fields):
    record = cls(**fields())
    assert record.replace() == record
    name = cls.__slots__[-1]
    if cls is Trajectory:  # replace runs __init__, which checks the lengths
        with pytest.raises(OracleError):
            record.replace(**{name: ()})
        return
    changed = record.replace(**{name: "other"})
    assert getattr(changed, name) == "other" and changed != record
    assert record == cls(**fields())


@pytest.mark.parametrize("a, b", [
    (Add((Ref("N"),)), Mul((Ref("N"),))),
])
def test_same_fields_on_another_class_are_unequal(a, b):
    assert a != b and b != a
    assert not a == b


def test_repr_reads_as_before():
    assert repr(Ref("N")) == "Ref(name='N')"
    assert repr(BLit(("holds", "tl", 0))) == (
        "BLit(atom=('holds', 'tl', 0), ann=Num(value=Fraction(1, 1)), neg=False)")


def test_defaults():
    assert BLit(("a",)) == BLit(("a",), ONE, False)
    assert NpRule(("a",)) == NpRule(("a",), ONE, (), None)
    assert ActionTheory((), (), (), (), Fraction(0)).goal is None
    assert CheckReport("c", True) == CheckReport("c", True, "", ())
    first, second = PolicyValue({}, Fraction(0), 0), PolicyValue({}, Fraction(0), 0)
    assert first.per_initial == {} and first.per_initial is not second.per_initial


@pytest.mark.parametrize("fields", [
    ((S0,), ("listen_1",), (Fraction(1),), (Fraction(0),)),   # one state short
    ((S0, S1), ("listen_1",), (), (Fraction(0),)),            # no probability
    ((S0, S1), ("listen_1",), (Fraction(1),), ()),            # no reward
])
def test_trajectory_checks_its_lengths(fields):
    with pytest.raises(OracleError, match="inconsistent trajectory lengths"):
        Trajectory(*fields)
