import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apoplan.sat import SatError, enumerate_models


def count_models(clauses, nvars):
    return sum(1 for _ in enumerate_models(clauses, nvars))


def truth_table_models(clauses, nvars):
    """Every satisfying assignment, in lexicographic order (variable 1 most
    significant, false before true), each as a list indexed by variable with
    None at the unused index 0."""
    out = []
    for bits in itertools.product((False, True), repeat=nvars):
        model = [None, *bits]
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            out.append(model)
    return out


@st.composite
def cnfs(draw):
    """Random CNFs over up to 10 variables.  Clauses may be empty, repeat a
    literal, contain both polarities of a variable, and leave variables out."""
    nvars = draw(st.integers(min_value=0, max_value=10))
    if nvars == 0:
        clauses = draw(st.lists(st.just(()), max_size=1))
        return clauses, nvars
    lit = st.integers(min_value=1, max_value=nvars).flatmap(
        lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, max_size=4).map(tuple), max_size=20))
    return clauses, nvars


@settings(max_examples=300, deadline=None)
@given(cnfs())
def test_models_equal_truth_table_in_lexicographic_order(cnf):
    clauses, nvars = cnf
    assert list(enumerate_models(clauses, nvars)) == truth_table_models(clauses, nvars)


def test_empty_clause_is_unsatisfiable():
    assert list(enumerate_models([(1, 2), ()], 2)) == []
    assert list(enumerate_models([()], 0)) == []


def test_no_clauses_enumerates_every_assignment():
    assert list(enumerate_models([], 0)) == [[None]]
    models = list(enumerate_models([], 3))
    assert len(models) == 8
    assert models[0] == [None, False, False, False]
    assert models[1] == [None, False, False, True]
    assert models[-1] == [None, True, True, True]
    assert all(type(v) is bool for m in models for v in m[1:])


def test_duplicate_and_tautological_literals():
    # (1 v 1) forces 1; (2 v -2 v 3) holds always; variable 4 is in no clause
    models = list(enumerate_models([(1, 1), (2, -2, 3)], 4))
    assert models == truth_table_models([(1,)], 4)
    assert count_models([(1, 1), (2, -2, 3)], 4) == 8


def test_contradicting_units():
    assert list(enumerate_models([(1,), (-1,)], 1)) == []
    assert list(enumerate_models([(1,), (-1, 2), (-2,)], 2)) == []


@pytest.mark.parametrize("clause", [(0,), (3,), (-3,), (1, 4)])
def test_out_of_range_literal(clause):
    with pytest.raises(SatError, match="out of range"):
        list(enumerate_models([(1, 2), clause], 2))



@st.composite
def mostly_binary_cnfs(draw):
    """Random CNFs over 1 to 12 variables, most of whose clauses have two
    literals (implication lists) and some three to five (watch lists), with
    a few units."""
    nvars = draw(st.integers(min_value=1, max_value=12))
    lit = st.integers(min_value=1, max_value=nvars).flatmap(
        lambda v: st.sampled_from((v, -v)))
    clause = st.sampled_from((1, 2, 2, 2, 2, 2, 3, 4, 5)).flatmap(
        lambda k: st.lists(lit, min_size=k, max_size=k).map(tuple))
    return draw(st.lists(clause, max_size=24)), nvars


@settings(max_examples=200, deadline=None)
@given(mostly_binary_cnfs())
def test_mostly_binary_models_equal_truth_table(cnf):
    clauses, nvars = cnf
    assert list(enumerate_models(clauses, nvars)) == truth_table_models(clauses, nvars)


@pytest.mark.parametrize("clauses, nvars", [
    # a repeated binary clause, also with its literals swapped
    ([(1, 2), (1, 2), (2, 1), (-2, 3)], 3),
    # binary clauses over two unit literals: satisfied, and violated
    ([(1,), (2,), (1, 2), (-1, 3)], 3),
    ([(1,), (2,), (-1, -2)], 2),
    # deciding 1 false implies 2 and -2 from one implication list
    ([(1, 2), (1, -2), (-1, 3, 4)], 4),
    # deciding 1 false implies -2 and -3, moves the watch of (1, 4, 5) to 5
    # and then finds (1, 2, 3) false, in one propagation call; the watch
    # lists must still be right for the branches after it
    ([(1, -2), (1, -3), (1, 4, 5), (1, 2, 3), (-4, -5, 6), (4, -6, 2)], 6),
])
def test_implication_and_watch_list_cases(clauses, nvars):
    assert list(enumerate_models(clauses, nvars)) == truth_table_models(clauses, nvars)


@st.composite
def reducible_cnfs(draw):
    """Random CNFs that the level-0 reduction rewrites: a chain of
    implications from a unit clause fixes literals of distinct variables,
    some clauses contain another clause, some clauses hold literals the
    chain makes false (only those, so level 0 empties the clause, or with
    literals of variables outside the chain), and the variables above
    `used` occur in no clause."""
    nvars = draw(st.integers(min_value=1, max_value=10))
    used = draw(st.integers(min_value=1, max_value=nvars))
    lit = st.integers(min_value=1, max_value=used).flatmap(
        lambda v: st.sampled_from((v, -v)))
    chain = draw(st.lists(lit, max_size=4, unique_by=abs))
    clauses = [(chain[0],)] if chain else []
    clauses += [(-a, b) for a, b in zip(chain, chain[1:])]
    base = draw(st.lists(st.lists(lit, min_size=2, max_size=3).map(tuple),
                         max_size=10))
    for clause in draw(st.lists(st.sampled_from(base), max_size=5)) if base else ():
        clauses.append(clause + tuple(draw(st.lists(lit, min_size=1, max_size=2))))
    free = [v for v in range(1, used + 1) if v not in {abs(l) for l in chain}]
    free_lit = st.sampled_from(free or [1]).flatmap(lambda v: st.sampled_from((v, -v)))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if chain else 0):
        falsified = draw(st.lists(st.sampled_from(chain), min_size=1, max_size=2))
        k = min(draw(st.sampled_from((0, 2, 2, 3))), len(free))
        extra = draw(st.lists(free_lit, min_size=k, max_size=k, unique_by=abs))
        clauses.append(tuple(-l for l in falsified) + tuple(extra))
    return draw(st.permutations(clauses + base)), nvars


@settings(max_examples=300, deadline=None)
@given(reducible_cnfs())
def test_reduced_models_equal_truth_table(cnf):
    clauses, nvars = cnf
    assert list(enumerate_models(clauses, nvars)) == truth_table_models(clauses, nvars)


@pytest.mark.parametrize("clauses, nvars", [
    # 1 fixes 2 and -3 at level 0; (-2, 4, 5) loses -2 and then subsumes
    # (4, 5, 6), and (3, 5, 6) loses 3
    ([(1,), (-1, 2), (-2, -3), (4, 5, 6), (-2, 4, 5), (3, 5, 6)], 6),
    # level 0 makes every literal of (-2, -3) false: unsatisfiable
    ([(1,), (-1, 2), (-1, 3), (-2, -3, 4), (-4, 5), (-2, -3)], 5),
    # a clause, a copy of it in another order and a longer clause holding
    # both; variable 5 is in no clause
    ([(2, 3, 4), (4, 3, 2), (2, 3, 4, -1), (-2, -3)], 5),
])
def test_reduction_cases(clauses, nvars):
    assert list(enumerate_models(clauses, nvars)) == truth_table_models(clauses, nvars)
