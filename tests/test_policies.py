from fractions import Fraction

import pytest

from apoplan import oracle, sat
from apoplan.compiler import (
    annotated_answer_sets, compile_theory, decode_model, normal_answer_sets,
    normalize, to_sat,
)
from apoplan.policies import (
    PolicyError, best_policy, check_normal_projection, check_policy_values,
    check_sat_models, check_trajectories, consistent_with, cross_check,
    extract_report, group_policies, reconstruct_trajectory,
    stationary_action_map, valid_reports,
)


@pytest.fixture(scope="module")
def tiger_sets_n1(tiger):
    return annotated_answer_sets(compile_theory(tiger, 1))


@pytest.fixture(scope="module")
def tiger_sets_n2(tiger):
    return annotated_answer_sets(compile_theory(tiger, 2))


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
        with pytest.raises(PolicyError, match="invalid"):
            reconstruct_trajectory(tiger, r)


def test_valid_reports_reconstruct(tiger, tiger_sets_n2):
    reports = valid_reports(tiger, tiger_sets_n2, 2)
    assert len(reports) > 0
    for report in reports:
        traj = reconstruct_trajectory(tiger, report)
        assert len(traj.states) == 3


def test_non_stationary_reports_exist_at_horizon2(tiger, tiger_sets_n2):
    reports = valid_reports(tiger, tiger_sets_n2, 2)
    non_stationary = [r for r in reports
                      if stationary_action_map(tiger, r) is None]
    # e.g. {tl,htl} openL_1 {tl,htl} listen_1 revisits with a different action
    assert non_stationary
    for r in non_stationary:
        assert not any(consistent_with(tiger, r, p)
                       for p in oracle.enumerate_policies(tiger, 2))


def test_group_policies_one_step_values(tiger, tiger_sets_n1):
    reports = valid_reports(tiger, tiger_sets_n1, 1)
    grouped = group_policies(tiger, reports, oracle.enumerate_policies(tiger, 1))
    assert len(grouped) == 9
    by_actions = {tuple(sorted(pv.policy.values())): pv for pv in grouped}
    assert by_actions[("listen", "listen")].value == -1
    assert by_actions[("openL", "openL")].value == -45
    assert by_actions[("openR", "openR")].value == -45
    assert by_actions[("openL", "openR")].value in (10, -100)


def test_best_policy_matches_oracle(tiger, tiger_sets_n1):
    best = best_policy(tiger, 1, tiger_sets_n1)
    policy, value = oracle.optimal_policy(tiger, 1)
    assert best.value == value == 10
    assert best.policy == policy


def test_per_initial_breakdown_sums(tiger, tiger_sets_n1):
    best = best_policy(tiger, 1, tiger_sets_n1)
    assert sum(best.per_initial.values(), Fraction(0)) == best.value


def test_cross_check_all_pass(tiger):
    for n in (1, 2):
        program = compile_theory(tiger, n)
        checks = cross_check(tiger, n, program, annotated_answer_sets(program))
        assert [c.name for c in checks] == [
            "trajectory-equivalence", "policy-value-equivalence",
            "normal-projection-equivalence", "sat-model-equivalence"]
        assert all(c.ok for c in checks), [c.detail for c in checks]


def test_checks_catch_seeded_fault(tiger, tiger_sets_n1):
    # drop one answer set: the trajectory and value comparisons must notice
    broken = tiger_sets_n1[:-1]
    reports = valid_reports(tiger, broken, 1)
    policies = oracle.enumerate_policies(tiger, 1)
    t1 = check_trajectories(tiger, 1, reports, policies)
    t2 = check_policy_values(tiger, 1, reports, policies)
    normal_sets = normal_answer_sets(normalize(compile_theory(tiger, 1)))
    t5 = check_normal_projection(broken, normal_sets)
    assert not (t1.ok and t2.ok and t5.ok)
    assert any(c.counterexamples for c in (t1, t2, t5) if not c.ok)


def _completion_models(normal):
    cnf = to_sat(normal)
    return [decode_model(m, cnf)
            for m in sat.enumerate_models(cnf.clauses, cnf.variable_count)]


def test_check_report_json(tiger):
    normal = normalize(compile_theory(tiger, 1))
    payload = check_sat_models(_completion_models(normal),
                               normal_answer_sets(normal)).to_json()
    assert set(payload) == {"check", "ok", "detail", "counterexamples"}
    assert payload["ok"] is True


def test_sat_check_catches_a_repeated_model(tiger):
    normal = normalize(compile_theory(tiger, 1))
    models = _completion_models(normal)
    normal_sets = normal_answer_sets(normal)
    assert check_sat_models(models, normal_sets).detail == "16 models = 16 answer sets"
    report = check_sat_models(models + models[:1], normal_sets)
    assert not report.ok
    assert report.detail == "0 missing, 0 extra, 1 of 17 models repeated"

