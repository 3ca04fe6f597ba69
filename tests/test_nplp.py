import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apoplan.nplp import (
    Add, BLit, Mul, NplpError, NpProgram, NpRule, Num, ONE, Ref,
    answer_set_sort_key, enumerate_answer_sets, format_program, iter_rule_firings,
    least_model, reduct, render_atom, satisfies, sort_answer_sets,
)

from conftest import satisfies_program


def rule(head, body=(), head_ann=ONE):
    return NpRule(head=head, head_ann=head_ann,
                  body=tuple(BLit(atom=a) if isinstance(a, tuple) else a
                             for a in body))


def test_least_model_facts_and_chain():
    prog = NpProgram(rules=(
        rule(("a",), head_ann=Num(Fraction(1, 2))),
        NpRule(head=("b",),
               body=(BLit(atom=("a",), ann=Num(Fraction(1, 2))),)),
        NpRule(head=("c",), body=(BLit(atom=("a",)),)),  # needs h(a) >= 1
    ))
    h = least_model(prog)
    assert h == {("a",): Fraction(1, 2), ("b",): Fraction(1)}


def test_least_model_max_strategy_combines():
    prog = NpProgram(rules=(
        rule(("a",), head_ann=Num(Fraction(1, 2))),
        rule(("a",), head_ann=Num(Fraction(1, 4))),
    ))
    assert least_model(prog)[("a",)] == Fraction(1, 2)


def test_annotation_variable_binds_exactly():
    # U is bound to h(state(0)) itself, so the head annotation is 1/2 * 1/2
    prog = NpProgram(rules=(
        rule(("state", 0), head_ann=Num(Fraction(1, 2))),
        NpRule(head=("state", 1), head_ann=Mul((Num(Fraction(1, 2)), Ref("U"))),
               body=(BLit(atom=("state", 0), ann=Ref("U")),)),
    ))
    assert least_model(prog)[("state", 1)] == Fraction(1, 4)


def test_body_annotation_threshold():
    prog = NpProgram(rules=(
        rule(("a",), head_ann=Num(Fraction(1, 2))),
        NpRule(head=("b",), body=(BLit(atom=("a",), ann=Num(Fraction(3, 4))),)),
    ))
    assert ("b",) not in least_model(prog)


def test_annotation_out_of_range_rejected():
    prog = NpProgram(rules=(
        rule(("a",), head_ann=Num(Fraction(3, 2))),
    ))
    with pytest.raises(NplpError, match="outside"):
        least_model(prog)


@pytest.mark.parametrize("head_ann, body_ann", [
    (Ref("L"), ONE),   # a : L <- holds(L, 0)
    (ONE, Ref("L")),   # a <- holds(L, 0) : L
], ids=["head", "body"])
def test_annotation_naming_a_constant_is_rejected(head_ann, body_ann):
    # L binds to the constant x, which no annotation can take as its value
    prog = NpProgram(rules=(
        rule(("holds", "x", 0)),
        NpRule(head=("a",), head_ann=head_ann,
               body=(BLit(atom=("holds", Ref("L"), 0), ann=body_ann),)),
    ))
    with pytest.raises(NplpError, match="variable L bound to non-numeric 'x'"):
        least_model(prog)


def test_least_model_refuses_a_program_that_never_settles():
    # n(N + 1) <- n(N) with the fact n(0) derives n(1), n(2), ... without end
    prog = NpProgram(rules=(
        rule(("n", 0)),
        NpRule(head=("n", Add((Ref("N"), Num(Fraction(1))))),
               body=(BLit(atom=("n", Ref("N"))),)),
    ))
    with pytest.raises(NplpError, match="non-terminating"):
        least_model(prog)


def test_rule_firing_refuses_a_negated_literal():
    # not b holds in {a: 1}, but a firing never reads negation
    negated = NpRule(head=("c",), body=(BLit(atom=("a",)), BLit(atom=("b",), neg=True)))
    with pytest.raises(NplpError, match="negation-free"):
        list(iter_rule_firings(negated, {("a",): Fraction(1)}, {}))


def test_satisfies_semantics():
    h = {("a",): Fraction(1, 2)}
    assert satisfies(h, ("a",), Fraction(1, 2))
    assert not satisfies(h, ("a",), Fraction(3, 4))
    assert satisfies(h, ("a",), Fraction(3, 4), negated=True)
    assert not satisfies(h, ("a",), Fraction(1, 2), negated=True)


def test_reduct_strips_negation():
    prog = NpProgram(rules=(
        NpRule(head=("a",), body=(BLit(atom=("b",), neg=True),)),
        rule(("b",), [("c",)]),
    ))
    red = reduct(prog, {})
    assert all(not b.neg for r in red.rules for b in r.body)
    assert len(red.rules) == 2
    # with b fully true, the negated rule is deleted
    assert len(reduct(prog, {("b",): Fraction(1)}).rules) == 1


def test_even_negative_loop_two_answer_sets():
    prog = NpProgram(rules=(
        NpRule(head=("a",), body=(BLit(atom=("b",), neg=True),)),
        NpRule(head=("b",), body=(BLit(atom=("a",), neg=True),)),
    ))
    models = enumerate_answer_sets(prog)
    assert [sorted(map(render_atom, h)) for h in models] == [["a"], ["b"]]


def test_odd_negative_loop_no_answer_set():
    prog = NpProgram(rules=(
        NpRule(head=("a",), body=(BLit(atom=("a",), neg=True),)),
    ))
    assert enumerate_answer_sets(prog) == []


def test_stratified_negation_single_answer_set():
    prog = NpProgram(rules=(
        rule(("a",)),
        NpRule(head=("b",), body=(BLit(atom=("a",), neg=True),)),
        NpRule(head=("c",), body=(BLit(atom=("b",), neg=True),)),
    ))
    models = enumerate_answer_sets(prog)
    assert len(models) == 1
    assert sorted(map(render_atom, models[0])) == ["a", "c"]


def test_non_boolean_negation_rejected():
    prog = NpProgram(rules=(
        NpRule(head=("a",),
               body=(BLit(atom=("b",), ann=Num(Fraction(1, 2)), neg=True),)),
    ))
    with pytest.raises(NplpError, match="boolean-negation"):
        enumerate_answer_sets(prog)


def test_enumerate_answer_sets_refuses_17_negated_atoms():
    prog = NpProgram(rules=tuple(
        NpRule(head=("a", i), body=(BLit(atom=("b", i), neg=True),))
        for i in range(17)))
    with pytest.raises(NplpError, match="^17 negated atoms"):
        enumerate_answer_sets(prog)


# ("v", 1) and ("v", Fraction(1)) are equal atoms; ("v", "1") is another atom
# that renders alike
_SORT_POOL = [("v", 1), ("b", 10), ("v", "1"), ("a",), ("b", 2)]


@pytest.mark.parametrize("as_set", [
    frozenset, lambda atoms: {a: Fraction(len(a), 3) for a in atoms}])
def test_sort_answer_sets_is_the_sort_key_order(as_set):
    subsets = [as_set(c) for n in range(len(_SORT_POOL) + 1)
               for c in itertools.combinations(_SORT_POOL, n)]
    subsets += [as_set({("v", Fraction(1)), atom}) for atom in _SORT_POOL]
    for xs in (subsets, subsets[::-1], subsets[1::2] + subsets[::2]):
        assert sort_answer_sets(xs) == sorted(xs, key=answer_set_sort_key)


def test_answer_sets_satisfy_program():
    prog = NpProgram(rules=(
        rule(("p",), head_ann=Num(Fraction(1, 2))),
        NpRule(head=("a",), body=(BLit(atom=("b",), neg=True),)),
        NpRule(head=("b",), body=(BLit(atom=("a",), neg=True),)),
        rule(("q",), [("a",), ("p",)], head_ann=Num(Fraction(1, 3))),
    ))
    models = enumerate_answer_sets(prog)
    assert len(models) == 2
    for h in models:
        assert satisfies_program(h, reduct(prog, h))


# ---------------------------------------------------------------------------
# property tests


_VALUES = [Fraction(0), Fraction(1, 2), Fraction(1)]
_ATOMS = [("a",), ("b",), ("c",), ("d",)]


@st.composite
def positive_programs(draw):
    n_rules = draw(st.integers(min_value=1, max_value=6))
    rules = []
    for _ in range(n_rules):
        head = draw(st.sampled_from(_ATOMS))
        ann = Num(draw(st.sampled_from(_VALUES[1:])))
        body_atoms = draw(st.lists(st.sampled_from(_ATOMS), max_size=2, unique=True))
        body = tuple(
            BLit(atom=a, ann=Num(draw(st.sampled_from(_VALUES[1:]))))
            for a in body_atoms)
        rules.append(NpRule(head=head, head_ann=ann, body=body))
    return NpProgram(rules=tuple(rules))


@settings(max_examples=60, deadline=None)
@given(positive_programs())
def test_least_model_is_minimal_model(prog):
    h = least_model(prog)
    assert satisfies_program(h, prog)
    # exhaustive lattice search: every satisfying assignment dominates h
    for combo in itertools.product(_VALUES, repeat=len(_ATOMS)):
        g = {a: v for a, v in zip(_ATOMS, combo) if v > 0}
        if satisfies_program(g, prog):
            for atom, v in h.items():
                assert g.get(atom, Fraction(0)) >= v


@settings(max_examples=40, deadline=None)
@given(positive_programs())
def test_reduct_identity_on_negation_free(prog):
    assert reduct(prog, {}) == prog
    h = least_model(prog)
    assert reduct(prog, h) == prog


# ---------------------------------------------------------------------------
# textual format


def test_format_is_deterministic(tiger):
    from apoplan.compiler import compile_theory
    from apoplan.theory import validate_theory
    assert format_program(compile_theory(validate_theory(tiger), 1)) == \
        format_program(compile_theory(validate_theory(tiger), 1))
