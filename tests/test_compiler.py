import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from apoplan import compiler, sat
from apoplan.compiler import (
    CompileError, NonTightError, NormalProgram, check_tight, compile_theory,
    decode_model, iter_annotated_answer_sets, normal_answer_sets, normalize,
    to_sat,
)
from apoplan.fuzz import generate_theory
from apoplan.nplp import (
    Add, BLit, Mul, NplpError, NpProgram, NpRule, Num, ONE, Ref,
    answer_set_sort_key, enumerate_answer_sets, format_rule, iter_rule_firings,
    least_model, reduct, render_atom, sort_answer_sets,
)
from apoplan.policies import Run
from apoplan.theory import ground_theory, parse_theory, validate_theory

from conftest import answer_sets_of

DROPPED = {"15", "18", "21", "22", "23", "24", "value-base", "factor"}


def schema_counts(program) -> Counter:
    return Counter(r.schema for r in program.rules)


def test_tiger_horizon1_schema_counts(tiger):
    counts = schema_counts(compile_theory(validate_theory(tiger), 1))
    assert counts["6"] == 8            # one fact per sub-action
    assert counts["7"] == counts["8"] == 2
    assert counts["9"] == counts["10"] == 2
    # initial state: choice pair on the reading fluent, two sensing derivations
    assert counts["11"] == 0
    assert counts["12"] + counts["13"] == 2
    assert counts["14"] == 2
    assert counts["15"] == 2           # state(0) : 1/2
    assert counts["16"] == 8
    assert counts["17"] == 4           # open effects
    assert counts["19"] == 4 and counts["20"] == 4   # listen observation chain
    assert counts["18"] + counts["21"] == 8          # state chains
    assert counts["22"] == 8
    assert counts["23"] + counts["24"] == 8
    assert counts["25"] == 4           # inertia per literal
    assert counts["26"] == 4           # consistency at t in {0, 1}
    assert counts["27"] == 8
    assert counts["28"] == 56          # ordered sub-action pairs
    assert counts["value-base"] == counts["factor"] == 1


def test_tiger_horizon2_scales_time_indexed_schemas(tiger):
    c1 = schema_counts(compile_theory(validate_theory(tiger), 1))
    c2 = schema_counts(compile_theory(validate_theory(tiger), 2))
    per_step = ["16", "17", "18", "19", "20", "21", "22", "23", "24",
                "25", "27", "28"]
    for schema in per_step:
        assert c2[schema] == 2 * c1[schema], schema
    for schema in ["6", "7", "8", "9", "10", "12", "13", "14", "15"]:
        assert c2[schema] == c1[schema], schema
    assert c2["26"] == 6  # t in {0, 1, 2}


def test_state_chain_annotations(tiger):
    prog = compile_theory(validate_theory(tiger), 1)
    listen_states = [r for r in prog.rules
                     if r.schema == "21" and r.body[1].atom[1].startswith("listen")]
    anns = sorted(r.head_ann.parts[0].value for r in listen_states
                  if isinstance(r.head_ann, Mul))
    assert anns == [Fraction(3, 20), Fraction(3, 20),
                    Fraction(17, 20), Fraction(17, 20)]


def test_no_sensing_theory_has_no_observation_schemas():
    theory = parse_theory(
        "fluent a.\ninitially {a}: 1.\nexecutable b if {}.\n"
        "action b causes {-a}: 1: 0 if {a} ; {a}: 1: 0 if {-a}.\n"
        "discount 1/2.\n")
    counts = schema_counts(compile_theory(validate_theory(theory), 2))
    for schema in ("19", "20", "21", "24"):
        assert counts[schema] == 0


def test_goal_rules():
    theory = parse_theory(
        "fluent a.\ninitially {-a}: 1.\nexecutable b if {}.\n"
        "action b causes {a}: 1: 1 if {-a} ; {}: 1: 0 if {a}.\n"
        "discount 1/2.\ngoal {a}.\n")
    counts = schema_counts(compile_theory(validate_theory(theory), 2))
    assert counts["29"] == 3


def test_compile_rejects_invalid_theory(tiger_text):
    theory = parse_theory(tiger_text.replace("17/20", "4/5", 1))
    with pytest.raises(CompileError, match="invalid theory"):
        compile_theory(validate_theory(theory), 1)


def test_compile_grounds_the_theory():
    theory = parse_theory("""
        domain D = {l, r}.
        fluent at(D).
        initially {at(l), -at(r)}: 1.
        action go(D) causes {at(D)}: 1: 0 if {}.
        discount 1/2.
    """)
    program = compile_theory(validate_theory(theory), 1)
    assert program == compile_theory(validate_theory(ground_theory(theory)), 1)
    assert ("fluent", "at(r)") in {r.head for r in program.rules}


def test_compile_rejects_zero_horizon(tiger):
    with pytest.raises(CompileError):
        compile_theory(validate_theory(tiger), 0)


def test_normalize_drops_probability_schemas(tiger):
    prog = compile_theory(validate_theory(tiger), 1)
    normal = normalize(prog)
    kept = sum(1 for r in prog.rules if r.schema not in DROPPED)
    assert len(normal.rules) == kept
    # annotations outside the dropped schemas are all 1
    for r in prog.rules:
        if r.schema not in DROPPED:
            assert r.head_ann == ONE
            assert all(b.ann == ONE for b in r.body)


def test_normalize_requires_provenance():
    with pytest.raises(CompileError, match="provenance"):
        normalize(NpProgram(rules=(NpRule(head=("a",)),)))


def test_tightness_check(tiger):
    check_tight(normalize(compile_theory(validate_theory(tiger), 2)))
    cyclic = NormalProgram(rules=(
        (("a",), (("b",),), ()),
        (("b",), (("a",),), ()),
    ))
    with pytest.raises(NonTightError, match="^positive dependency cycle: a -> b -> a$"):
        to_sat(cyclic)
    with pytest.raises(NonTightError, match="^positive dependency cycle: a -> b -> a$"):
        normal_answer_sets(cyclic)


def test_compiled_programs_are_tight(cross_sensing):
    # solve and policy go through the completion, which needs tightness
    theories = [cross_sensing] + [generate_theory(s) for s in range(200)]
    for theory in theories:
        check_tight(normalize(compile_theory(validate_theory(theory), 2)))


def _normal_projection(program, h):
    """The atoms of h outside the predicates the probability families head."""
    derived = {r.head[0] for r in program.rules if r.schema in DROPPED}
    return frozenset(a for a in h if a[0] not in derived)


def test_annotated_answer_sets_are_least_models_of_their_reducts(tiger, cross_sensing):
    cases = [(tiger, 1), (tiger, 2), (cross_sensing, 2)]
    cases += [(generate_theory(s), n) for s in range(12) for n in (1, 2)]
    for theory, horizon in cases:
        run = Run(theory, horizon)
        got = run.answer_sets
        for h in got:
            assert least_model(reduct(run.program, h)) == h, horizon
        assert all(type(v) is Fraction for h in got for v in h.values())
        assert sort_answer_sets(got) == sorted(got, key=answer_set_sort_key)
        # an answer set is fixed by its values on the negated atoms, which are
        # normal atoms, so one answer set per normal answer set is all of them
        assert sort_answer_sets([_normal_projection(run.program, h) for h in got]) \
            == sort_answer_sets(run.normal_sets), horizon


def _least_models_per_completion_model(program):
    """The answer sets built with `nplp.least_model`: for each completion
    model, the least model of the family rules whose other body atoms the
    model holds, joined to the model at 1, sorted by `answer_set_sort_key`."""
    family = [r for r in program.rules if r.schema in DROPPED]
    derived = {r.head[0] for r in family}
    cnf = to_sat(normalize(program))
    out = []
    for model in sat.enumerate_models(cnf.clauses, cnf.variable_count):
        atoms = decode_model(model, cnf)
        enabled = tuple(
            NpRule(head=r.head, head_ann=r.head_ann,
                   body=tuple(b for b in r.body if b.atom[0] in derived))
            for r in family
            if all(b.atom in atoms for b in r.body if b.atom[0] not in derived))
        h = dict.fromkeys(atoms, Fraction(1))
        h.update(least_model(NpProgram(rules=enabled)))
        out.append(h)
    return sorted(out, key=answer_set_sort_key)


def test_annotated_answer_sets_match_least_models(tiger, cross_sensing):
    cases = [(tiger, n) for n in (1, 2, 3)] + [(cross_sensing, 2)]
    cases += [(generate_theory(s), n) for s in range(12) for n in (1, 2)]
    for theory, horizon in cases:
        run = Run(theory, horizon)
        got = run.answer_sets
        # same list once sorted, with equal exact values
        assert sort_answer_sets(got) == _least_models_per_completion_model(run.program), \
            horizon
        assert all(type(v) is Fraction for h in got for v in h.values())


# a probability-family rule `state(1) : U <- state(0) : U, occ(a, 0)`
_STATE_BODY = (BLit(atom=("state", 0), ann=Ref("U")),
               BLit(atom=("occ", "a", 0)))


def _program(*rules):
    return NpProgram(rules=(
        NpRule(head=("occ", "a", 0), schema="27"),
        NpRule(head=("state", 0), head_ann=Num(Fraction(1, 2)), schema="15"),
    ) + rules)


@pytest.mark.parametrize("rule, message", [
    (NpRule(head=("occ", "b", 0)), "has no schema tag"),
    (NpRule(head=("state", 1), head_ann=Ref("U"), schema="18",
            body=_STATE_BODY + (BLit(atom=("holds", "f", 0), neg=True),)),
     "negated literal not holds[(]f, 0[)]"),
    (NpRule(head=("state", 1), head_ann=Ref("U"), schema="18",
            body=_STATE_BODY + (BLit(atom=("holds", Ref("L"), 0)),)),
     "guard holds[(]L, 0[)]"),
    (NpRule(head=("occ", "b", 0), schema="27",
            body=(BLit(atom=("state", 0)),)),
     "uses atoms of the probability families"),
])
def test_annotated_answer_sets_errors_name_the_stage(rule, message):
    program = _program(rule)
    with pytest.raises(CompileError, match="^annotated answer sets: .*" + message):
        answer_sets_of(program)


def test_annotated_answer_sets_keep_the_max_of_several_firings():
    program = _program(*(
        NpRule(head=("state", 1), head_ann=Mul((Num(p), Ref("U"))),
               body=_STATE_BODY, schema="18")
        for p in (Fraction(3, 4), Fraction(1, 4))))
    got = answer_sets_of(program)
    assert got == _least_models_per_completion_model(program)
    assert [h[("state", 1)] for h in got] == [Fraction(3, 8)]


def test_annotated_answer_sets_refuse_annotations_outside_the_unit_interval():
    # state(0) is 1/2, so the ground rule gives state(1) the value 3/2
    program = _program(NpRule(head=("state", 1),
                              head_ann=Mul((Num(Fraction(3)), Ref("U"))),
                              body=_STATE_BODY, schema="18"))
    with pytest.raises(NplpError, match="state[(]1[)] evaluates to 3/2, outside"):
        answer_sets_of(program)


def test_annotated_answer_sets_refuse_probability_rules_that_feed_themselves():
    # state(1) reads state(2), which reads state(T) for any T
    program = _program(
        NpRule(head=("state", 1), head_ann=Ref("U"), schema="18",
               body=(BLit(atom=("state", 2), ann=Ref("U")),)),
        NpRule(head=("state", 2), head_ann=Ref("U"), schema="18",
               body=(BLit(atom=("state", Ref("T")), ann=Ref("U")),)
               + _STATE_BODY[1:]))
    with pytest.raises(CompileError, match="^annotated answer sets: .*"
                       "state[(]1[)] -> state[(]2[)] -> state[(]1[)] feed each other"):
        answer_sets_of(program)


def test_dimacs_shape(tiger):
    cnf = to_sat(normalize(compile_theory(validate_theory(tiger), 1)))
    text = cnf.to_dimacs()
    clauses, nvars = sat.parse_dimacs(text)
    assert nvars == cnf.variable_count
    assert [tuple(c) for c in clauses] == list(cnf.clauses)
    mapping = cnf.atom_map_json()
    assert [m["var"] for m in mapping] == list(range(1, nvars + 1))


def test_models_biject_with_normal_answer_sets(tiger):
    normal = normalize(compile_theory(validate_theory(tiger), 1))
    cnf = to_sat(normal)
    decoded = {decode_model(m, cnf)
               for m in sat.enumerate_models(cnf.clauses, cnf.variable_count)}
    answer_sets = set(normal_answer_sets(normal))
    assert decoded == answer_sets
    # encode/decode inverse on every answer set
    for atoms in answer_sets:
        model = [None] + [a in atoms for a in cnf.atoms]
        assert decode_model(model, cnf) == atoms


@pytest.mark.parametrize("resize", [lambda m: m[:-1], lambda m: m + [False]],
                         ids=["short", "long"])
def test_decode_model_refuses_wrong_length(tiger, resize):
    cnf = to_sat(normalize(compile_theory(validate_theory(tiger), 1)))
    model = next(sat.enumerate_models(cnf.clauses, cnf.variable_count))
    with pytest.raises(CompileError, match="model of"):
        decode_model(resize(model), cnf)


def _reduct_least_model(program, m):
    """The least model of the reduct of a normal program by the atom set m."""
    kept = [(head, pos) for head, pos, neg in program.rules
            if not m.intersection(neg)]
    least: set = set()
    while True:
        new = {head for head, pos in kept if least.issuperset(pos)} - least
        if not new:
            return frozenset(least)
        least |= new


def _brute_force_answer_sets(program):
    """Every atom set M that is the least model of the reduct of the program
    by M, in listing order."""
    atoms = sorted(program.atoms(), key=render_atom)
    found = []
    for bits in itertools.product((False, True), repeat=len(atoms)):
        m = frozenset(a for a, bit in zip(atoms, bits) if bit)
        if _reduct_least_model(program, m) == m:
            found.append(m)
    return sorted(found, key=answer_set_sort_key)


@st.composite
def tight_normal_programs(draw):
    """Up to 6 atoms; a rule's positive body holds only atoms earlier in a
    drawn order than its head, so the program is tight.  Negated atoms may be
    any atom, the head included, and bodies may repeat atoms."""
    names = draw(st.permutations("abcdef"))[:draw(st.integers(1, 6))]
    atoms = [(name,) for name in names]
    rules = []
    for _ in range(draw(st.integers(0, 8))):
        h = draw(st.integers(0, len(atoms) - 1))
        pos = draw(st.lists(st.sampled_from(atoms[:h]), max_size=3)) if h else []
        neg = draw(st.lists(st.sampled_from(atoms), max_size=3))
        rules.append((atoms[h], tuple(pos), tuple(neg)))
    return NormalProgram(rules=tuple(rules))


@settings(max_examples=300, deadline=None)
@given(tight_normal_programs())
def test_normal_answer_sets_match_the_definition(program):
    assert sort_answer_sets(normal_answer_sets(program)) == _brute_force_answer_sets(program)


_PROBABILITIES = st.sampled_from(
    [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(1)])


_STEPS = st.sampled_from([Fraction(1), Fraction(-2), Fraction(9, 10)])
_REWARDS = st.sampled_from([Fraction(-1), Fraction(10)])


def _value_rule(t: int, c: Fraction, r: Fraction, guards=()) -> NpRule:
    """`value(V + c*U, t + 1) <- value(V, t), state(t + 1) : U,
    reward(r, t + 1)`, with the body literals `guards` added."""
    return NpRule(
        head=("value", Add((Ref("V"), Mul((Num(c), Ref("U"))))), t + 1),
        body=(BLit(atom=("value", Ref("V"), t)),
              BLit(atom=("state", t + 1), ann=Ref("U")),
              BLit(atom=("reward", r, t + 1))) + guards,
        schema="23")


@st.composite
def compiled_shape_programs(draw):
    """A tight normal part over at most 6 atoms and up to two choices,
    tagged as a non-probability schema, plus `state` family rules: facts
    `state(0) : p` and steps `state(t + 1) : p*U <- state(t) : U`, each with
    ground normal guards, drawn from the normal atoms and `g`, which is none
    of them.  A head often has several rules, so the max of their firings
    matters.  Some programs add the value chain: `value(0, 0)`, and rules
    `value(V + c*U, t + 1) <- value(V, t), state(t + 1) : U, reward(r, t + 1)`,
    each with a guarded fact `reward(r, t + 1)`; the first of these rules is
    drawn twice, under guards drawn again, so that two rules have one head."""
    # up to two choices between `x_k` and `y_k`, as schemas 27 and 28 choose
    # one sub-outcome per step, so that answer sets share what they chose
    normal = NormalProgram(rules=draw(tight_normal_programs()).rules + tuple(
        rule for k in range(draw(st.integers(0, 2)))
        for rule in ((("x", k), (), (("y", k),)), (("y", k), (), (("x", k),)))))
    rules = [NpRule(head=head,
                    body=tuple(BLit(atom=a) for a in pos)
                    + tuple(BLit(atom=a, neg=True) for a in neg),
                    schema="25")
             for head, pos, neg in normal.rules]
    # `g` is never an atom of the normal part
    guards = st.lists(st.sampled_from(sorted(normal.atoms(), key=repr) + [("g",)]),
                      max_size=2, unique=True)

    def guarded():
        return tuple(BLit(atom=a) for a in draw(guards))

    steps = [(draw(st.integers(0, 1)), draw(_STEPS), draw(_REWARDS))
             for _ in range(draw(st.integers(0, 4)))]
    # a value rule reads `state` as a family atom only if some rule heads it
    for _ in range(draw(st.integers(1 if steps else 0, 3))):
        rules.append(NpRule(
            head=("state", 0), head_ann=Num(draw(_PROBABILITIES)),
            body=guarded(), schema="15"))
    for _ in range(draw(st.integers(0, 6))):
        t = draw(st.integers(0, 1))
        rules.append(NpRule(
            head=("state", t + 1),
            head_ann=Mul((Num(draw(_PROBABILITIES)), Ref("U"))),
            body=(BLit(atom=("state", t), ann=Ref("U")),) + guarded(),
            schema="18"))
    if steps:
        rules.append(NpRule(head=("value", Fraction(0), 0), schema="value-base"))
    for t, c, r in steps + steps[:1]:
        rules.append(NpRule(head=("reward", r, t + 1), body=guarded(), schema="22"))
        rules.append(_value_rule(t, c, r, guarded()))
    return NpProgram(rules=tuple(draw(st.permutations(rules))))


# the answer sets {a} and {b} read equal ground atoms at step 1 but different
# value(V, 1) atoms, so the step-1 value rule fires in each of them
_SHARED_STEP_PROGRAM = NpProgram(rules=(
    NpRule(head=("a",), body=(BLit(atom=("b",), neg=True),), schema="25"),
    NpRule(head=("b",), body=(BLit(atom=("a",), neg=True),), schema="25"),
    NpRule(head=("state", 0), head_ann=Num(Fraction(1, 2)), schema="15"),
    NpRule(head=("state", 1), head_ann=Mul((Num(Fraction(1, 2)), Ref("U"))),
           body=(BLit(atom=("state", 0), ann=Ref("U")),), schema="18"),
    NpRule(head=("value", Fraction(0), 0), schema="value-base"),
    NpRule(head=("reward", Fraction(-1), 1), schema="22"),
    NpRule(head=("reward", Fraction(-1), 2), schema="22"),
    _value_rule(0, Fraction(1), Fraction(-1), (BLit(atom=("a",)),)),
    _value_rule(0, Fraction(-2), Fraction(-1), (BLit(atom=("b",)),)),
    _value_rule(1, Fraction(1), Fraction(-1))))


@settings(max_examples=200, deadline=None)
@given(compiled_shape_programs())
@example(_SHARED_STEP_PROGRAM)
def test_annotated_answer_sets_match_the_definition(program):
    # same list in the same order, with equal exact values
    assert answer_sets_of(program) == enumerate_answer_sets(program)


@pytest.mark.parametrize("name, horizon, count, firings", [
    ("tiger", 2, 128, 116), ("tiger", 3, 1024, 396), ("cross_sensing", 2, 64, 67)])
def test_answer_sets_that_share_a_prefix_share_its_firings(
        request, monkeypatch, name, horizon, count, firings):
    calls = 0
    fire = compiler.iter_rule_firings

    def counted(*args):
        nonlocal calls
        calls += 1
        return fire(*args)
    monkeypatch.setattr(compiler, "iter_rule_firings", counted)
    assert len(Run(request.getfixturevalue(name), horizon).answer_sets) == count
    # firing every enabled rule once per answer set made 896, 9,216 and 448
    assert calls == firings


_A, _B, _C, _D, _E = (("a",), ("b",), ("c",), ("d",), ("e",))


@pytest.mark.parametrize("rules, expected", [
    # even loop
    ([(_A, (), (_B,)), (_B, (), (_A,))], [{_A}, {_B}]),
    # odd loop
    ([(_A, (), (_A,))], []),
    # stratified chain
    ([(_A, (), ()), (_B, (_A,), (_C,)), (_C, (), (_A,)), (_D, (_B,), (_E,))],
     [{_A, _B, _D}]),
])
def test_normal_answer_sets_small_programs(rules, expected):
    program = NormalProgram(rules=tuple(rules))
    assert sort_answer_sets(normal_answer_sets(program)) == [frozenset(m) for m in expected]


def test_normal_answer_sets_are_least_models_of_their_reducts(tiger, cross_sensing):
    cases = [(tiger, n) for n in (1, 2, 3)] + [(cross_sensing, 2)]
    cases += [(generate_theory(s), n) for s in range(12) for n in (1, 2)]
    for theory, horizon in cases:
        normal = normalize(compile_theory(validate_theory(theory), horizon))
        got = normal_answer_sets(normal)
        for m in got:
            assert _reduct_least_model(normal, m) == m, horizon
        # the completion models of a tight program are its answer sets
        cnf = to_sat(normal)
        decoded = [decode_model(model, cnf) for model in
                   sat.enumerate_models(cnf.clauses, cnf.variable_count)]
        assert sort_answer_sets(got) == sorted(decoded, key=answer_set_sort_key), horizon


def test_normal_projections_match_annotated(tiger):
    run = Run(tiger, 1)
    annotated = {frozenset(a for a, v in h.items() if a[0] == "occ" and v >= 1)
                 for h in run.answer_sets}
    normal = {frozenset(a for a in m if a[0] == "occ") for m in run.normal_sets}
    assert annotated == normal


def test_completion_omits_bodies_negating_their_head():
    # `a <- not a, b` kills every model with b; `z <- not z, e` is z's only
    # rule, so z gets the unit clause -z
    a, b, c, d, e, z = (("a",), ("b",), ("c",), ("d",), ("e",), ("z",))
    normal = NormalProgram(rules=(
        (b, (), (c,)),
        (c, (), (b,)),
        (a, (b,), (a,)),
        (a, (c,), ()),
        (d, (a,), (e,)),
        (e, (), (d,)),
        (z, (e,), (z,)),
    ))
    cnf = to_sat(normal)
    var = {atom: i + 1 for i, atom in enumerate(cnf.atoms)}
    assert (-var[z],) in cnf.clauses
    # the only-if clauses of a keep the body `c` and leave out `not a, b`
    assert (-var[a], var[c]) in cnf.clauses
    assert not any(-var[a] in clause and var[b] in clause for clause in cnf.clauses)
    decoded = [decode_model(m, cnf)
               for m in sat.enumerate_models(cnf.clauses, cnf.variable_count)]
    assert sorted(decoded, key=sorted) == sorted(normal_answer_sets(normal), key=sorted)
    assert decoded == [frozenset({a, c, d})]


def test_tiger_cnf_grows_linearly(tiger):
    sizes = [len(to_sat(normalize(compile_theory(validate_theory(tiger), n))).clauses)
             for n in range(1, 7)]
    steps = {later - earlier for earlier, later in zip(sizes, sizes[1:])}
    assert len(steps) == 1, sizes
    assert sizes[-1] < 1200, sizes


def test_tiger_horizon4_model_count(tiger):
    cnf = to_sat(normalize(compile_theory(validate_theory(tiger), 4)))
    models = sat.enumerate_models(cnf.clauses, cnf.variable_count)
    assert sum(1 for _ in models) == 8192


def test_no_rule_holds_its_own_head_in_its_body(tiger, cross_sensing):
    # cross_sensing reads and reports both fluents, the case in which the
    # initial-state sensing rules (schema 14) used to support themselves
    theories = [tiger, cross_sensing] + [generate_theory(s) for s in range(12)]
    for theory in theories:
        for rule in compile_theory(validate_theory(theory), 2).rules:
            assert all(b.neg or b.atom != rule.head for b in rule.body), \
                format_rule(rule)


def _fired_in_dimacs_order(rules, cnf):
    """The answer sets built from the models of `cnf` in its own numbering,
    each with every one of the probability `rules` tested against it."""
    out = []
    for model in sat.enumerate_models(cnf.clauses, cnf.variable_count):
        atoms = decode_model(model, cnf)
        h = dict.fromkeys(atoms, Fraction(1))
        by_pred = {}
        for guard, rule in rules:
            if not guard <= atoms:
                continue
            for head, value in list(iter_rule_firings(rule, h, by_pred)):
                if head not in h:
                    if value:
                        h[head] = value
                        by_pred.setdefault(head[0], []).append(head)
                elif value > h[head]:
                    h[head] = value
        out.append(h)
    return out


def test_time_major_search_finds_the_dimacs_answer_sets(tiger, cross_sensing):
    cases = [(tiger, n) for n in (1, 2, 3)] + [(cross_sensing, n) for n in (1, 2, 3)]
    cases += [(generate_theory(s), n) for s in range(40) for n in (1, 2)]
    for theory, horizon in cases:
        run = Run(theory, horizon)
        dimacs, atom_map = run.cnf.to_dimacs(), run.cnf.atom_map_json()
        got = Counter(frozenset(h.items()) for h in
                      iter_annotated_answer_sets(run.probability_rules, run.cnf))
        expected = Counter(frozenset(h.items()) for h in
                           _fired_in_dimacs_order(run.probability_rules, run.cnf))
        assert got == expected, horizon
        assert run.cnf.to_dimacs() == dimacs
        assert run.cnf.atom_map_json() == atom_map
