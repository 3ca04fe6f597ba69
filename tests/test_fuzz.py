from fractions import Fraction

from apoplan import oracle
from apoplan.fuzz import generate_theory, generate_theory_text
from apoplan.policies import Run, best_policy, cross_check
from apoplan.theory import validate_theory

SEEDS = range(60)


def test_generation_is_deterministic():
    assert generate_theory_text(42) == generate_theory_text(42)
    assert generate_theory(42) == generate_theory(42)


def test_generated_theories_validate():
    for seed in SEEDS:
        assert validate_theory(generate_theory(seed)), seed


def test_transition_rows_sum_to_one():
    for seed in SEEDS:
        theory = generate_theory(seed)
        for state, _ in oracle.initial_states(theory):
            for action in theory.actions:
                if oracle.is_executable(theory, state, action):
                    row = sum(p for _, _, p, _ in
                              oracle.successors(theory, state, action))
                    assert row == 1, (seed, action.name)


def test_transitions_complete_and_consistent():
    for seed in SEEDS:
        theory = generate_theory(seed)
        for state, _ in oracle.initial_states(theory):
            for action in theory.actions:
                if oracle.is_executable(theory, state, action):
                    for _, nxt, _, _ in oracle.successors(theory, state, action):
                        oracle.check_state(theory, nxt)


def test_belief_updates_normalized():
    for seed in SEEDS:
        theory = generate_theory(seed)
        belief = oracle.initial_belief(theory)
        for action in theory.actions:
            if all(oracle.is_executable(theory, s, action) for s in belief):
                updated = oracle.belief_update(theory, belief, action.name)
                assert sum(updated.values(), Fraction(0)) == 1


def test_answer_set_structural_invariants():
    horizon = 2
    for seed in range(12):
        theory = generate_theory(seed)
        for h in Run(theory, horizon).answer_sets:
            for t in range(horizon):
                occ = [a for a, v in h.items()
                       if a[0] == "occ" and a[2] == t and v >= 1]
                assert len(occ) == 1, (seed, t, occ)
            for t in range(horizon + 1):
                holds = {a[1] for a, v in h.items()
                         if a[0] == "holds" and a[2] == t and v >= 1}
                for lit in holds:
                    comp = lit[1:] if lit.startswith("-") else "-" + lit
                    assert comp not in holds, (seed, t, lit)


def test_cross_check_on_generated_theories():
    for seed in range(200):
        theory = generate_theory(seed)
        checks = cross_check(Run(theory, 1))
        assert all(c.ok for c in checks), \
            (seed, [c.detail for c in checks if not c.ok])


def test_read_reported_varying_literal_is_guessed_at_time_0():
    # seed 128: a1 reports f3, a2 reads it, and the two initial states
    # differ on it, so no schema-14 rule derives it
    theory = generate_theory(128)
    program = Run(theory, 1).program
    guessed = {r.head for r in program.rules if r.schema in ("12", "13")}
    assert {("holds", "f3", 0), ("holds", "-f3", 0)} <= guessed
    values = {}
    for horizon in (1, 2, 3):
        run = Run(theory, horizon)
        checks = cross_check(run)
        assert all(c.ok for c in checks), (horizon, [c.detail for c in checks])
        assert len(run.answer_sets) == 32 * 8 ** (horizon - 1)
        if horizon < 3:
            values[horizon] = best_policy(run).value
            assert values[horizon] == oracle.optimal_policy(theory, horizon)[1]
    assert values == {1: Fraction(3, 2), 2: Fraction(157, 40)}
