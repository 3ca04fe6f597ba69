import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apoplan import cli
from apoplan.fuzz import generate_theory
from apoplan.theory import (
    ApoError, GroundingError, ParseError, close_initial_formula, ground_theory,
    lit_variables, negate, parse_theory, render_formula, serialize_theory,
    substitute_lit, validate_theory,
)


def test_tiger_shape(tiger):
    assert sorted(tiger.fluents) == ["htl", "tl"]
    assert len(tiger.actions) == 3
    assert sum(len(a.outcomes) for a in tiger.actions) == 8
    assert tiger.discount == Fraction(9, 10)
    listen = tiger.action("listen")
    assert listen.kind == "sensing"
    assert [o.prob for o in listen.outcomes] == [
        Fraction(17, 20), Fraction(3, 20), Fraction(17, 20), Fraction(3, 20)]
    assert all(o.reward == -1 for o in listen.outcomes)
    openL = tiger.action("openL")
    assert openL.kind == "non-sensing"
    assert {o.reward for o in openL.outcomes} == {-100, 10}


def test_tiger_validates(tiger):
    assert validate_theory(tiger)


def test_roundtrip_tiger(tiger):
    assert parse_theory(serialize_theory(tiger)) == tiger


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_theory("fluent a\nb.")
    assert e.value.line is not None


@pytest.mark.parametrize("old, new, position", [
    ("discount 9/10.", "discount 1/0.", "25:10"),
    ("{tl, htl}: 1/2", "{tl, htl}: 1/0", "5:22"),
    ("{tl}: 1: -100 if {tl}", "{tl}: 1: -1/0 if {tl}", "12:15"),
], ids=["discount", "probability", "reward"])
def test_zero_denominator_is_a_parse_error(tiger_text, old, new, position):
    assert old in tiger_text
    with pytest.raises(ParseError, match=f"^{position}: zero denominator in 1/0$"):
        parse_theory(tiger_text.replace(old, new, 1))


def test_inconsistent_effect_rejected():
    with pytest.raises(ApoError):
        parse_theory(
            "fluent tl.\ninitially {tl}: 1.\nexecutable a if {}.\n"
            "action a causes {tl, -tl}: 1: 0 if {}.\ndiscount 1/2.\n")


def test_duplicate_declaration_rejected():
    with pytest.raises(ApoError):
        parse_theory(
            "fluent a.\nfluent a.\ninitially {a}: 1.\nexecutable b if {}.\n"
            "action b causes {}: 1: 0 if {}.\ndiscount 1/2.\n")


def test_validation_bad_probability_sum(tiger_text):
    bad = tiger_text.replace("17/20", "4/5", 1)
    report = validate_theory(parse_theory(bad))
    assert not report
    assert any("sum" in v.message for v in report.violations)


def test_validation_discount_out_of_range(tiger_text):
    bad = tiger_text.replace("discount 9/10.", "discount 1.")
    report = validate_theory(parse_theory(bad))
    assert not report
    assert any("discount" in v.message for v in report.violations)


def test_validation_report_json(tiger_text):
    bad = tiger_text.replace("discount 9/10.", "discount 2.")
    rows = validate_theory(parse_theory(bad)).to_json()
    assert rows and set(rows[0]) == {"decl", "rule", "message"}


@pytest.mark.parametrize("old, new, violations", [
    ("{-tl}: 1: 10 if {-tl}.", "{-tl}: 1: 10 if {}.",
     [("openL", "condition-mutual-exclusion",
       "conditions {tl} and {} both hold in some state")]),
    ("{-tl}: 1: 10 if {-tl}.", "{-tl}: 1: 10 if {htl}.",
     [("openL", "condition-mutual-exclusion",
       "conditions {tl} and {htl} both hold in some state"),
      ("openL", "condition-exhaustiveness",
       "no outcome condition holds in state {-htl, -tl}")]),
    ("{-tl}: 1: 10 if {-tl}.", "{-tl}: 1: 10 if {-tl, htl}.",
     [("openL", "condition-exhaustiveness",
       "no outcome condition holds in state {-htl, -tl}")]),
    ("{-tl}: 3/20: -1 sensing {htl}", "{-tl, htl}: 3/20: -1 sensing {htl}",
     [("listen", "report-exhaustiveness",
       "reports for condition {htl} do not cover {-htl, -tl}")]),
    ("executable openL if {}.\nexecutable openR if {}.\nexecutable listen if {}.",
     "executable openL if {tl}.\nexecutable openR if {tl}.\nexecutable listen if {tl}.",
     [("theory", "executability-exhaustiveness",
       "no action is executable in state {-tl, htl}")]),
], ids=["overlapping", "overlapping-with-gap", "gap", "report-gap",
        "not-executable"])
def test_validation_outcome_conditions_and_reports(tiger_text, old, new, violations):
    assert old in tiger_text
    report = validate_theory(parse_theory(tiger_text.replace(old, new, 1)))
    assert [(v.decl, v.rule, v.message) for v in report.violations] == violations


def test_theory_without_actions_is_invalid():
    report = validate_theory(parse_theory("fluent f. initially {f} : 1. discount 1/2."))
    assert [(v.decl, v.rule, v.message) for v in report.violations] == [
        ("theory", "executability-exhaustiveness",
         "no action is executable in state {f}")]


def _random_theory_text(rng: random.Random) -> str:
    """Up to 10 fluents and 3 non-sensing actions whose executability and
    outcome conditions are random literal sets, so that some states have no
    executable action or no holding condition."""
    fluents = [f"f{i}" for i in range(rng.randint(1, 10))]

    def formula(size):
        return "{" + ", ".join(rng.choice(("", "-")) + f
                               for f in rng.sample(fluents, min(size, len(fluents)))) + "}"
    lines = [f"fluent {', '.join(fluents)}.",
             f"initially {{{', '.join(fluents)}}}: 1."]
    for a in range(rng.randint(1, 3)):
        lines.append(f"executable a{a} if {formula(rng.randint(0, 2))}.")
        outcomes = [f"{{}}: 1: 0 if {formula(rng.randint(0, 3))}"
                    for _ in range(rng.randint(1, 3))]
        lines.append(f"action a{a} causes " + " ; ".join(outcomes) + ".")
    return "\n".join(lines + ["discount 1/2."]) + "\n"


def _exhaustiveness_over_every_state(ground):
    """The exhaustiveness violations found by walking all 2^|fluents|
    complete states, positive literals first in declaration order."""
    states = [frozenset(f if pos else "-" + f for f, pos in zip(ground.fluents, signs))
              for signs in itertools.product((True, False), repeat=len(ground.fluents))]
    out = []
    s = next((s for s in states
              if not any(a.executability <= s for a in ground.actions)), None)
    if s is not None:
        out.append(("theory", "executability-exhaustiveness",
                    f"no action is executable in state {render_formula(s)}"))
    for a in ground.actions:
        conds = {o.condition for o in a.outcomes}
        s = next((s for s in states if a.executability <= s
                  and not any(c <= s for c in conds)), None)
        if s is not None:
            out.append((a.name, "condition-exhaustiveness",
                        f"no outcome condition holds in state {render_formula(s)}"))
    return out


def test_exhaustiveness_checks_match_the_walk_over_every_state():
    rules = {"executability-exhaustiveness", "condition-exhaustiveness"}
    seen = set()
    for seed in range(300):
        report = validate_theory(parse_theory(_random_theory_text(random.Random(seed))))
        got = [(v.decl, v.rule, v.message) for v in report.violations if v.rule in rules]
        assert got == _exhaustiveness_over_every_state(report.theory), seed
        seen.update(rule for _, rule, _ in got)
    assert seen == rules


def test_validation_enumerates_only_the_fluents_checked_formulas_mention():
    # 2^24 complete states, of which the checks need only the 2 over f0
    fluents = ", ".join(f"f{i}" for i in range(24))
    theory = parse_theory(
        f"fluent {fluents}.\ninitially {{{fluents}}}: 1.\n"
        "executable a if {}.\n"
        "action a causes {-f0}: 1: 0 if {f0} ; {f0}: 1: 0 if {-f0}.\n"
        "discount 1/2.\n")
    t0 = time.perf_counter()
    report = validate_theory(theory)
    assert time.perf_counter() - t0 < 1.0
    assert report, report.summary()


def test_closure_completes_initial_formulas(tiger):
    for entry in tiger.initial:
        closed = close_initial_formula(tiger, entry.formula)
        assert {l.lstrip("-") for l in closed} == set(tiger.fluents)
        assert not any(negate(l) in closed for l in closed)


def test_ground_identity_on_ground_theory(tiger):
    assert ground_theory(tiger) == tiger


VARIABLE_THEORY = """
fluent open(left), open(right).
domain D = {left, right}.
initially {-open(left), -open(right)}: 1.
executable push(D) if {}.
action push(D) causes
    {open(D)}: 1: 1 if {-open(D)} ;
    {}: 1: 0 if {open(D)}.
discount 1/2.
"""


def test_grounding_expands_domains():
    grounded = ground_theory(parse_theory(VARIABLE_THEORY))
    assert sorted(a.name for a in grounded.actions) == ["push(left)", "push(right)"]
    left = grounded.action("push(left)")
    assert left.outcomes[0].effect == frozenset({"open(left)"})
    assert validate_theory(grounded)


# each variable bound to "c" + its name in lower case
@pytest.mark.parametrize("lit, variables, substituted", [
    ("tl", set(), "tl"),
    ("-tl", set(), "-tl"),
    ("at(X)", {"X"}, "at(cx)"),
    ("-at(X, Y)", {"X", "Y"}, "-at(cx, cy)"),
    ("at(l, Room2)", {"Room2"}, "at(l, croom2)"),
    ("Foo", {"Foo"}, "cfoo"),
    ("-Foo(x)", {"Foo"}, "-cfoo(x)"),
    ("aB(Cd, e_F)", {"Cd"}, "aB(ccd, e_F)"),
    ("_X(Y)", {"Y"}, "_X(cy)"),
    ("p(_Y, Z1)", {"Z1"}, "p(_Y, cz1)"),
    ("x1Y", set(), "x1Y"),
])
def test_literal_variables_and_substitution(lit, variables, substituted):
    assert lit_variables(lit) == variables
    assert substitute_lit(lit, {v: "c" + v.lower() for v in variables}) == substituted


def test_ground_prints_the_expanded_theory(capsys, tmp_path):
    path = tmp_path / "push.apo"
    path.write_text(VARIABLE_THEORY)
    assert cli.main(["ground", str(path)]) == 0
    assert capsys.readouterr().out == (
        "fluent open(left), open(right).\n"
        "domain D = {left, right}.\n"
        "initially {-open(left), -open(right)} : 1.\n"
        "executable push(left) if {}.\n"
        "executable push(right) if {}.\n"
        "action push(left) causes {open(left)} : 1 : 1 if {-open(left)} ; "
        "{} : 1 : 0 if {open(left)}.\n"
        "action push(right) causes {open(right)} : 1 : 1 if {-open(right)} ; "
        "{} : 1 : 0 if {open(right)}.\n"
        "discount 1/2.\n")


def test_grounding_undeclared_variable():
    text = ("fluent a.\ninitially {a}: 1.\nexecutable b(X) if {}.\n"
            "action b(X) causes {a}: 1: 0 if {}.\ndiscount 1/2.\n")
    with pytest.raises(GroundingError, match="no domain for X"):
        ground_theory(parse_theory(text))


def test_executability_of_an_undeclared_action_is_a_parse_error():
    text = ("fluent f.\ninitially {f}: 1.\nexecutable ghost if {}.\n"
            "action a causes {f}: 1: 0 if {}.\ndiscount 1/2.\n")
    with pytest.raises(ParseError, match="undeclared action 'ghost'") as e:
        parse_theory(text)
    assert (e.value.line, e.value.column) == (3, 1)


def test_validation_report_carries_the_ground_theory():
    theory = parse_theory(VARIABLE_THEORY)
    assert validate_theory(theory).theory == ground_theory(theory)
    text = VARIABLE_THEORY.replace("domain", "% domain")
    report = validate_theory(parse_theory(text))
    assert (report.summary(), report.theory) == ("grounding: no domain for D", None)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_roundtrip_fuzzed(seed):
    theory = generate_theory(seed)
    assert parse_theory(serialize_theory(theory)) == theory
