"""Acceptance gate: one test per shipped claim, each printing a PASS line.

All probability/value comparisons are exact in rationals unless a tolerance is
stated; the only tolerance used anywhere is 1e-9 at rendered boundaries.
Runtime budgets are asserted per criterion.
"""

import collections
import itertools
import random
import time
from fractions import Fraction

from apoplan import compiler, oracle, policies, sat
from apoplan.fuzz import generate_theory
from apoplan.nplp import BLit, NpProgram, NpRule, Num, least_model, reduct

from conftest import (
    answer_set_key, group_policies_reference, interpretations, model_atoms, model_key,
    satisfies_program,
)

TOL = Fraction(1, 10**9)


def uniform_policy(theory, horizon, action):
    return {s: action for s in oracle.reachable_states(theory, horizon)}


def test_criterion_1_one_step_values_three_ways(tiger):
    t0 = time.monotonic()
    belief = oracle.initial_belief(tiger)
    reports = policies.valid_reports(tiger, policies.Run(tiger, 1).iter_layers(), 1)

    expected = {"listen": Fraction(-1), "openL": Fraction(-45),
                "openR": Fraction(-45)}
    results = {}
    for name, want in expected.items():
        policy = uniform_policy(tiger, 1, name)
        v_sum = oracle.belief_value(tiger, policy, 1, belief)
        v_rec = sum(p * oracle.recursive_value(tiger, policy, 1, s)
                    for s, p in belief.items())
        v_asp = group_policies_reference(tiger, reports, [policy])[0].value
        assert v_sum == v_rec == v_asp == want, (name, v_sum, v_rec, v_asp)
        assert abs(v_sum - want) <= TOL
        results[name] = v_sum
    best = max(results, key=results.get)
    assert best == "listen"

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, elapsed
    print(f"\nPASS criterion-1: one-step values listen=-1 openL=-45 openR=-45 "
          f"(3 computations, exact; best single action = listen; "
          f"{elapsed:.2f}s < 1s)")


def test_criterion_2_trajectory_equivalence(tiger):
    t0 = time.monotonic()
    for horizon in (1, 2):
        report = policies.cross_check(policies.Run(tiger, horizon))[0]
        assert report.name == "trajectory-equivalence"
        assert report.ok, report.counterexamples
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, elapsed
    print(f"\nPASS criterion-2: trajectory sets equal oracle enumeration at "
          f"horizons 1-2 ({elapsed:.2f}s < 10s)")


def _policy_values_disagree(run, listed) -> list:
    """The `listed` policies whose summed answer-set value
    (`group_policies_reference`) is not exactly their `oracle.belief_value`."""
    belief = oracle.initial_belief(run.theory, run.initial)
    reports = policies.valid_reports(run.theory, run.iter_layers(), run.horizon)
    return [pv.policy for pv in group_policies_reference(run.theory, reports, listed)
            if pv.value != oracle.belief_value(run.theory, pv.policy, run.horizon,
                                               belief, run.initial)]


def test_criterion_3_policy_value_equivalence(tiger):
    for horizon in (1, 2):
        run = policies.Run(tiger, horizon)
        listed = oracle.enumerate_policies(tiger, horizon)
        assert _policy_values_disagree(run, listed) == []
        assert len(listed) == 9 ** horizon
    t0 = time.monotonic()
    run = policies.Run(tiger, 3)
    listed = oracle.enumerate_policies(tiger, 3)
    assert _policy_values_disagree(run, listed) == []
    assert len(listed) == 3 ** 4
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, elapsed
    print(f"\nPASS criterion-3: every policy's summed answer-set value equals "
          f"the oracle value exactly, horizons 1-3 (horizon 3 in "
          f"{elapsed:.1f}s < 60s)")


def test_tiger_horizon_4_closed_form(tiger):
    t0 = time.monotonic()
    run = policies.Run(tiger, 4)
    answer_sets = list(run.iter_layers())
    reports = policies.valid_reports(tiger, answer_sets, 4)
    best = policies.best_policy(run)
    policy, value = oracle.optimal_policy(tiger, 4)
    elapsed = time.monotonic() - t0
    # 2 initial states x 8 sub-outcomes per step; in each state 4 of the 8
    # have a holding condition (2 of listen's 4, 1 each of openL and openR)
    assert len(answer_sets) == 2 * 8 ** 4 == 8192
    assert len(reports) == 2 * 4 ** 4 == 512
    # the horizon probabilities of each of the 3^4 action sequences sum to 1
    assert sum(r.state_probs[-1] for r in reports) == 3 ** 4 == 81
    assert best.value == value == Fraction(3439, 100)
    assert best.policy == policy
    assert elapsed < 60.0, elapsed
    print(f"\nPASS tiger horizon 4: 8192 answer sets, 512 valid, horizon "
          f"probabilities sum to 81, best value 3439/100 = oracle "
          f"({elapsed:.1f}s < 60s)")


def test_criterion_4_normal_program_equivalence(tiger):
    for horizon in (1, 2, 3):
        run = policies.Run(tiger, horizon)
        run.normal  # compile and normalize outside the timed search
        t0 = time.monotonic()
        normal_sets = run.normal_sets
        elapsed = time.monotonic() - t0
        models = [answer_set_key(layers) for layers in run.iter_layers()]
        report = policies.check_normal_projection(models, normal_sets, run.cnf.atoms)
        assert report.ok, report.counterexamples
    assert len(normal_sets) == 1024
    assert elapsed < 1.0, elapsed
    print(f"\nPASS criterion-4: occ-projections of annotated and normal "
          f"programs coincide at horizons 1-3 (1024 normal answer sets at "
          f"horizon 3 in {elapsed:.2f}s < 1s)")


def test_criterion_5_sat_equivalence(tiger):
    details = []
    for horizon in (1, 2, 3):
        run = policies.Run(tiger, horizon)
        models = [model_key(m) for m in
                  sat.enumerate_models(run.cnf.clauses, run.cnf.variable_count)]
        report = policies.check_sat_models(collections.Counter(models), run.normal_sets,
                                           run.cnf.atoms)
        assert report.ok, report.counterexamples
        details.append(f"h{horizon}: {report.detail}")
    print(f"\nPASS criterion-5: exhaustive DIMACS models decode bijectively "
          f"to normal answer sets ({'; '.join(details)})")


def test_tiger_horizon_4_normal_answer_sets(tiger):
    t0 = time.monotonic()
    run = policies.Run(tiger, 4)
    normal_sets = run.normal_sets
    elapsed = time.monotonic() - t0
    cnf = run.cnf
    models = [model_atoms(m, cnf)
              for m in sat.enumerate_models(cnf.clauses, cnf.variable_count)]
    assert len(normal_sets) == len(set(normal_sets)) == 8192
    assert {compiler.atoms_of_key(k, cnf.atoms) for k in normal_sets} == set(models)
    assert elapsed < 60.0, elapsed
    print(f"\nPASS tiger horizon 4, normal program: 8192 answer sets, equal "
          f"to the decoded completion models ({elapsed:.1f}s < 60s)")


def _lattice_minimality_suite(rng, rounds):
    values = [Fraction(0), Fraction(1, 2), Fraction(1)]
    atoms = [("a",), ("b",), ("c",), ("d",), ("e",), ("f",)]
    for _ in range(rounds):
        n_atoms = rng.randint(2, 4)
        pool = atoms[:n_atoms]
        rules = []
        for _ in range(rng.randint(1, 5)):
            head = rng.choice(pool)
            body = tuple(
                BLit(atom=a, ann=Num(rng.choice(values[1:])))
                for a in rng.sample(pool, rng.randint(0, 2)))
            rules.append(NpRule(head=head,
                                head_ann=Num(rng.choice(values[1:])),
                                body=body))
        prog = NpProgram(rules=tuple(rules))
        h = least_model(prog)
        assert satisfies_program(h, prog)
        assert reduct(prog, h) == prog  # negation-free: reduct is the identity
        for combo in itertools.product(values, repeat=n_atoms):
            g = {a: v for a, v in zip(pool, combo) if v > 0}
            if satisfies_program(g, prog):
                for atom, v in h.items():
                    assert g.get(atom, Fraction(0)) >= v


def test_criterion_6_fuzzed_invariant_suites():
    t0 = time.monotonic()
    n_theories = 500
    horizon = 2

    for seed in range(n_theories):
        theory = generate_theory(seed)
        init = oracle.initial_states(theory)
        assert sum(p for _, p in init) == 1
        belief = oracle.initial_belief(theory)
        for action in theory.actions:
            for state, _ in init:
                if not oracle.is_executable(theory, state, action):
                    continue
                succ = oracle.successors(theory, state, action)
                assert sum(p for _, _, p, _ in succ) == 1
                for _, nxt, _, _ in succ:
                    oracle.check_state(theory, nxt)
            if all(oracle.is_executable(theory, s, action) for s in belief):
                updated = oracle.belief_update(theory, belief, action.name)
                assert sum(updated.values(), Fraction(0)) == 1

    deep_seeds = 40
    for seed in range(deep_seeds):
        theory = generate_theory(seed)
        for h in interpretations(policies.Run(theory, horizon)):
            for t in range(horizon):
                occ = [a for a, v in h.items()
                       if a[0] == "occ" and a[2] == t and v >= 1]
                assert len(occ) == 1, (seed, t, occ)
            for t in range(horizon + 1):
                holds = {a[1] for a, v in h.items()
                         if a[0] == "holds" and a[2] == t and v >= 1}
                assert not any(
                    ("-" + lit if not lit.startswith("-") else lit[1:]) in holds
                    for lit in holds), (seed, t)

    _lattice_minimality_suite(random.Random(2024), rounds=120)

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, elapsed
    print(f"\nPASS criterion-6: invariant suites over {n_theories} generated "
          f"theories ({deep_seeds} through answer-set enumeration) plus "
          f"120 least-model lattice checks, zero failures ({elapsed:.1f}s < 5min)")


def test_criterion_7_documented_value_divergence(tiger):
    belief = oracle.initial_belief(tiger)
    policy = uniform_policy(tiger, 2, "listen")
    v_sum = oracle.belief_value(tiger, policy, 2, belief)
    v_rec = sum(p * oracle.recursive_value(tiger, policy, 2, s)
                for s, p in belief.items())
    assert v_sum == Fraction(-29, 10)
    assert v_rec == Fraction(-19, 10)
    assert v_sum - v_rec == -1
    print(f"\nPASS criterion-7: divergence of the two value definitions "
          f"reported, not hidden (trajectory-sum={v_sum}, recursive={v_rec}, "
          f"difference={v_sum - v_rec}: step-0 reward re-counted per extension)")
