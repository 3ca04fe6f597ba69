import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apoplan.sat import SatError, enumerate_models


def count_models(clauses, nvars):
    return sum(1 for _ in enumerate_models(clauses, nvars))


def truth_table_models(clauses, nvars):
    """Every satisfying assignment, in lexicographic order (variable 1 most
    significant, false before true)."""
    out = []
    for bits in itertools.product((False, True), repeat=nvars):
        model = {v: bits[v - 1] for v in range(1, nvars + 1)}
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
    assert list(enumerate_models([], 0)) == [{}]
    models = list(enumerate_models([], 3))
    assert len(models) == 8
    assert models[0] == {1: False, 2: False, 3: False}
    assert models[1] == {1: False, 2: False, 3: True}
    assert models[-1] == {1: True, 2: True, 3: True}


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

