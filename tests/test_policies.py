import collections
import json
from fractions import Fraction
from functools import cache

import pytest

from apoplan import oracle, policies, sat
from apoplan.compiler import CompileError, decode_model
from apoplan.fuzz import generate_theory
from apoplan.nplp import sort_answer_sets
from apoplan.policies import (
    PolicyValue, Run, best_policy, check_sat_models, cross_check,
    extract_report, group_policies, stationary_action_map, valid_reports,
)
from apoplan.theory import ground_theory, negate, parse_theory
from conftest import TIGER_PATH, fresh_python, group_policies_reference


@pytest.fixture(scope="module")
def tiger_run_n1(tiger):
    return Run(tiger, 1)


@pytest.fixture(scope="module")
def tiger_sets_n1(tiger_run_n1):
    return list(tiger_run_n1.iter_answer_sets())


@pytest.fixture(scope="module")
def tiger_sets_n2(tiger):
    return list(Run(tiger, 2).iter_answer_sets())


def test_answer_set_count(tiger_sets_n1, tiger_sets_n2):
    # 2 initial completions x 8 sub-action choices (x 8 again at horizon 2)
    assert len(tiger_sets_n1) == 16
    assert len(tiger_sets_n2) == 128


def test_extract_report_listen_example(tiger, tiger_sets_n1):
    target = None
    for h in tiger_sets_n1:
        if h.get(("occ", "listen_1", 0)) and h.get(("holds", "tl", 0)):
            target = h
    report = extract_report(tiger, target, 1)
    assert report.valid
    assert report.occ == ("listen_1",)
    assert report.states[0] == frozenset({"tl", "htl"})
    assert report.state_probs == (Fraction(1, 2), Fraction(17, 40))
    assert report.value == Fraction(-17, 40)


def test_degenerate_answer_sets_are_invalid(tiger, tiger_sets_n1):
    reports = [extract_report(tiger, h, 1) for h in tiger_sets_n1]
    invalid = [r for r in reports if not r.valid]
    # per initial state, 4 of the 8 sub-action choices have failing conditions
    assert len(invalid) == 8
    for r in invalid:
        assert "state probability" in " ".join(r.reasons)


def test_valid_reports_follow_oracle_successors(tiger, tiger_sets_n2):
    # non-stationary reports included, which check 1 leaves out
    reports = valid_reports(tiger, tiger_sets_n2, 2)
    assert len(reports) == 32
    for report in reports:
        assert len(report.states) == 3
        for t, sub_id in enumerate(report.occ):
            action, _ = tiger.sub_outcome(sub_id)
            steps = {(sub.id, nxt) for sub, nxt, _, _
                     in oracle.successors(tiger, report.states[t], action)}
            assert (sub_id, report.states[t + 1]) in steps


def test_non_stationary_reports_exist_at_horizon2(tiger, tiger_sets_n2):
    reports = valid_reports(tiger, tiger_sets_n2, 2)
    non_stationary = [r for r in reports
                      if stationary_action_map(tiger, r) is None]
    # e.g. {tl,htl} openL_1 {tl,htl} listen_1 revisits with a different action
    assert non_stationary
    grouped = group_policies_reference(tiger, non_stationary,
                                       oracle.enumerate_policies(tiger, 2))
    assert grouped and all(pv.contributors == 0 for pv in grouped)
    assert group_policies(tiger, non_stationary)[1] == {}  # no map to sum


def test_group_policies_one_step_values(tiger, tiger_sets_n1):
    reports = valid_reports(tiger, tiger_sets_n1, 1)
    grouped = group_policies_reference(tiger, reports, oracle.enumerate_policies(tiger, 1))
    assert len(grouped) == 9
    by_actions = {tuple(sorted(pv.policy.values())): pv for pv in grouped}
    assert by_actions[("listen", "listen")].value == -1
    assert by_actions[("openL", "openL")].value == -45
    assert by_actions[("openR", "openR")].value == -45
    assert by_actions[("openL", "openR")].value in (10, -100)


def test_best_policy_matches_oracle(tiger, tiger_run_n1):
    best = best_policy(tiger_run_n1)
    policy, value = oracle.optimal_policy(tiger, 1)
    assert best.value == value == 10
    assert best.contributors == 2  # the safe door's answer set per initial state
    assert best.policy == policy


@cache
def _best_policy_of(name, horizon: int):
    """`best_policy` and the theory of a domain file or, for an int `name`,
    of that fuzz seed."""
    if isinstance(name, int):
        theory = generate_theory(name)
    else:
        theory = parse_theory((TIGER_PATH.parent / f"{name}.apo").read_text())
    return best_policy(Run(theory, horizon)), theory


_FUZZ_CASES = [(seed, n) for seed in range(40) for n in (1, 2)]


@pytest.mark.parametrize("name, horizon", [("tiger", n) for n in (1, 2, 3, 4)]
                         + [("cross_sensing", 1), ("cross_sensing", 2)]
                         + [("bits4", n) for n in (1, 2, 3, 4)] + _FUZZ_CASES)
def test_best_policy_decides_the_oracle_reachable_states(name, horizon):
    best, theory = _best_policy_of(name, horizon)
    # read from the answer sets, in `oracle.state_key` order
    assert list(best.policy) == oracle.reachable_states(theory, horizon)


@pytest.mark.parametrize("name, horizon", [("tiger", n) for n in (1, 2, 3)]
                         + [("cross_sensing", 1), ("cross_sensing", 2)]
                         + [("bits4", 1), ("bits4", 2)] + _FUZZ_CASES)
def test_best_policy_is_the_oracle_optimum(name, horizon):
    best, theory = _best_policy_of(name, horizon)
    assert (best.policy, best.value) == oracle.optimal_policy(theory, horizon)


def test_per_initial_breakdown_sums(tiger_run_n1):
    best = best_policy(tiger_run_n1)
    assert sum(best.per_initial.values(), Fraction(0)) == best.value


def test_cross_check_all_pass(tiger):
    for n in (1, 2):
        checks = cross_check(Run(tiger, n))
        assert [c.name for c in checks] == [
            "trajectory-equivalence", "policy-value-equivalence",
            "normal-projection-equivalence", "sat-model-equivalence"]
        assert all(c.ok for c in checks), [c.detail for c in checks]


@pytest.mark.parametrize("old, new, details", [
    ("initially {tl, htl}: 1/2 ; {-tl, -htl}: 1/2.",
     "initially {tl, htl}: 1 ; {-tl, -htl}: 0.",
     {1: ["4 trajectories on each side", "3 policies compared exactly",
          "8 occ-projections on each side", "16 models = 16 answer sets"],
      2: ["8 trajectories on each side", "9 policies compared exactly",
          "64 occ-projections on each side", "128 models = 128 answer sets"]}),
    ("{tl}: 17/20: -1 sensing {htl} ;\n    {-tl}: 3/20: -1 sensing {htl} ;",
     "{tl}: 1: -1 sensing {htl} ;\n    {-tl}: 0: -1 sensing {htl} ;",
     {1: ["7 trajectories on each side", "9 policies compared exactly",
          "8 occ-projections on each side", "16 models = 16 answer sets"],
      2: ["11 trajectories on each side", "27 policies compared exactly",
          "64 occ-projections on each side", "128 models = 128 answer sets"]}),
], ids=["initial-state", "listen-outcome"])
def test_cross_check_passes_with_zero_probabilities(tiger_text, old, new, details):
    # the oracle walk skips a step of probability 0, as `belief_value` does
    assert old in tiger_text
    theory = parse_theory(tiger_text.replace(old, new, 1))
    for n in (1, 2):
        checks = cross_check(Run(theory, n))
        assert all(c.ok for c in checks), [c.counterexamples for c in checks]
        assert [c.detail for c in checks] == details[n]


def _trajectory_key(report) -> tuple:
    return (tuple(tuple(sorted(s)) for s in report.states), report.occ)


def _cross_check_with(monkeypatch, run, change):
    """`cross_check(run)` with the list of its valid reports passed through
    `change` before checks 1 and 2 read it."""
    original = policies.valid_reports
    monkeypatch.setattr(policies, "valid_reports", lambda *args: change(original(*args)))
    return cross_check(run)


def test_checks_catch_seeded_fault(tiger, tiger_sets_n1, monkeypatch):
    # drop the answer set of one valid report: checks 1 and 2 both notice
    run = Run(tiger, 1)
    dropped = sort_answer_sets([h for h in tiger_sets_n1
                                if extract_report(tiger, h, 1).valid])[-1]
    broken = [h for h in tiger_sets_n1 if h is not dropped]
    monkeypatch.setattr(run, "iter_answer_sets", lambda: iter(broken))
    key = _trajectory_key(extract_report(tiger, dropped, 1))
    t1, t2 = cross_check(run)[:2]
    assert not (t1.ok or t2.ok)
    assert t1.counterexamples == (f"oracle-only: {key}",)
    assert t2.detail == "1 trajectories disagree"
    assert t2.counterexamples[0].startswith(f"trajectory {key}: answer sets give 0, ")


def test_value_check_names_the_trajectory_whose_value_changed(
        tiger, tiger_run_n1, tiger_sets_n1, monkeypatch):
    run = tiger_run_n1
    changed = valid_reports(tiger, tiger_sets_n1, 1)[-1]
    assert stationary_action_map(tiger, changed) is not None
    key = _trajectory_key(changed)
    assert cross_check(run)[1].detail == "9 policies compared exactly"
    trajectories, values = _cross_check_with(
        monkeypatch, run,
        lambda reports: [r.replace(value=r.value + Fraction(1, 1000)) if r == changed else r
                         for r in reports])[:2]
    assert trajectories.ok
    assert not values.ok
    assert values.detail == "1 trajectories disagree"
    assert values.counterexamples == (
        f"trajectory {key}: answer sets give {changed.value + Fraction(1, 1000)}, "
        f"oracle gives {changed.value}",)


def _break_last_step(theory, report, fault):
    """`report` with its last step altered by `fault`, or None when that
    alteration does not apply to it or leaves it non-stationary."""
    t = len(report.occ) - 1
    state, nxt = report.states[t], report.states[t + 1]
    if fault == "wrong-successor":
        lit = min(nxt)
        return report.replace(states=report.states[:-1] + (nxt - {lit} | {negate(lit)},))
    for action in theory.actions:
        executable = oracle.is_executable(theory, state, action)
        for sub in action.outcomes:
            applies = sub.condition <= state
            if fault == "not-executable":
                wanted = (not executable and applies
                          and oracle.transition(sub, state) == nxt)
            else:  # "condition-fails"
                wanted = executable and not applies
            broken = report.replace(occ=report.occ[:t] + (sub.id,))
            if wanted and stationary_action_map(theory, broken) is not None:
                return broken
    return None


@pytest.mark.parametrize("fault", ["not-executable", "condition-fails",
                                   "wrong-successor"])
def test_check_reports_a_step_that_breaks_the_dynamics(tiger_text, fault, monkeypatch):
    # tiger with a precondition, so that some step is not executable
    text = tiger_text.replace("executable openL if {}.", "executable openL if {htl}.")
    theory = parse_theory(text)
    run = Run(theory, 2)
    for report in valid_reports(theory, run.iter_answer_sets(), 2):
        if stationary_action_map(theory, report) is None:
            continue
        broken = _break_last_step(theory, report, fault)
        if broken is not None:
            break
    assert broken is not None and broken != report
    checks = _cross_check_with(
        monkeypatch, run, lambda reports: [r for r in reports if r != report] + [broken])
    assert len(checks) == 4
    trajectories = checks[0]
    assert not trajectories.ok
    assert trajectories.detail == "1 missing, 1 extra"
    assert trajectories.counterexamples[-1] == \
        f"program-only: {(tuple(tuple(sorted(s)) for s in broken.states), broken.occ)}"


def _completion_models(cnf):
    return [decode_model(m, cnf)
            for m in sat.enumerate_models(cnf.clauses, cnf.variable_count)]


def test_check_report_json(tiger_run_n1):
    payload = check_sat_models(collections.Counter(_completion_models(tiger_run_n1.cnf)),
                               tiger_run_n1.normal_sets).to_json()
    assert set(payload) == {"check", "ok", "detail", "counterexamples"}
    assert payload["ok"] is True


def test_sat_check_catches_a_repeated_model(tiger, tiger_run_n1, tiger_sets_n1, monkeypatch):
    models = _completion_models(tiger_run_n1.cnf)
    normal_sets = tiger_run_n1.normal_sets
    counted = collections.Counter(models)
    assert check_sat_models(counted, normal_sets).detail == "16 models = 16 answer sets"
    report = check_sat_models(counted + collections.Counter(models[:1]), normal_sets)
    assert not report.ok
    assert report.detail == "0 missing, 0 extra, 1 of 17 models repeated"
    # an answer set listed twice by the enumeration: check 4 counts its model twice
    run = Run(tiger, 1)
    monkeypatch.setattr(run, "iter_answer_sets", lambda: iter(tiger_sets_n1 + tiger_sets_n1[:1]))
    assert cross_check(run)[3].detail == "0 missing, 0 extra, 1 of 17 models repeated"



def _summed(theory, reports, listed) -> list:
    """The value of each of the `listed` policies, summed from the map sums
    of `group_policies` over the maps it agrees with."""
    _, sums = group_policies(theory, reports)
    out = []
    for policy in listed:
        agreeing = [entry for key, entry in sums.items()
                    if all(policy.get(s) == a for s, a in key)]
        per_initial = {}
        for _, _, by_initial in agreeing:
            for s0, v in by_initial.items():
                per_initial[s0] = per_initial.get(s0, Fraction(0)) + v
        out.append(PolicyValue(policy=policy,
                               value=sum((e[0] for e in agreeing), Fraction(0)),
                               contributors=sum(e[1] for e in agreeing),
                               per_initial=per_initial))
    return out


def test_group_policies_fold_equals_the_per_report_loop(tiger, cross_sensing):
    cases = [(tiger, n) for n in (1, 2, 3)] + [(cross_sensing, n) for n in (1, 2)]
    cases += [(generate_theory(seed), n) for seed in range(40) for n in (1, 2)]
    degenerate = non_stationary = 0
    for theory, n in cases:
        run = Run(theory, n)
        reports = [extract_report(theory, h, n) for h in run.iter_answer_sets()]
        valid = [r for r in reports if r.valid]
        degenerate += len(reports) - len(valid)
        non_stationary += sum(stationary_action_map(theory, r) is None for r in valid)
        listed = oracle.enumerate_policies(theory, n)
        expected = group_policies_reference(theory, valid, listed)
        # read once, degenerate reports included, as `best_policy` passes them
        assert _summed(theory, iter(reports), listed) == expected
        assert _summed(theory, valid, listed) == expected
    assert degenerate and non_stationary


def _policy_sort_key(policy) -> tuple:
    return tuple(sorted((oracle.state_key(s), a) for s, a in policy.items()))


def _best_of(grouped):
    return min(grouped, key=lambda pv: (-pv.value, _policy_sort_key(pv.policy)))


def test_best_policy_folds_the_enumeration_as_it_would_the_list(tiger, cross_sensing):
    cases = [(tiger, 1), (tiger, 2), (cross_sensing, 2), (generate_theory(16), 2)]
    for theory, n in cases:
        fresh = Run(theory, n)
        best = best_policy(fresh)
        assert "answer_sets" not in vars(fresh)  # folded, never listed
        listed = Run(theory, n)
        expected = _best_of(group_policies_reference(
            theory, valid_reports(theory, listed.iter_answer_sets(), n),
            oracle.enumerate_policies(theory, n)))
        assert best == expected
        assert best_policy(listed) == expected


def test_set_check_counterexamples_do_not_depend_on_string_hashing():
    # 60 of the 128 answer sets: checks 3 and 4 each find more differences
    # than they list
    script = ("import collections, itertools, json, sys\n"
              "from apoplan import policies\n"
              "from apoplan.theory import parse_theory\n"
              "with open(sys.argv[1], encoding='utf-8') as f:\n"
              "    run = policies.Run(parse_theory(f.read()), 2)\n"
              "kept = itertools.islice(run.iter_answer_sets(), 60)\n"
              "atoms = run.normal.atoms()\n"
              "models = collections.Counter(frozenset(a for a in h if a in atoms)\n"
              "                             for h in kept)\n"
              "print(json.dumps([\n"
              "    policies.check_normal_projection(models, run.normal_sets).to_json(),\n"
              "    policies.check_sat_models(models, run.normal_sets).to_json()]))\n")
    outputs = [fresh_python(script, str(TIGER_PATH), env_vars={"PYTHONHASHSEED": seed})
               for seed in ("1", "2", "3")]
    assert outputs[0] == outputs[1] == outputs[2]
    projection, models = json.loads(outputs[0])
    assert len(projection["counterexamples"]) == 3
    assert len(models["counterexamples"]) == 2


def test_run_grounds_the_theory_for_every_stage():
    theory = parse_theory("""
        domain D = {l, r}.
        fluent at(D).
        initially {at(l), -at(r)}: 1.
        action go(D) causes {at(D)}: 1: 0 if {}.
        discount 1/2.
    """)
    runs = [Run(theory, 2), Run(ground_theory(theory), 2)]
    for run in runs:
        assert [c.ok for c in cross_check(run)] == [True] * 4
    assert best_policy(runs[0]) == best_policy(runs[1])


def test_run_on_an_invalid_theory_compiles_nothing(tiger):
    run = Run(tiger.replace(discount=Fraction(1)), 1)
    assert not run.report and run.theory is not None
    with pytest.raises(CompileError, match="^invalid theory: discount-range: "):
        run.program
