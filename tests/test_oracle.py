from fractions import Fraction

import pytest

from apoplan import oracle
from apoplan.oracle import (
    OracleError, belief_update, belief_value, count_policies, enumerate_policies,
    enumerate_trajectories, initial_belief, initial_states, optimal_policy,
    reachable_states, recursive_value, state_key, successors, trajectory_value,
)


def uniform_policy(theory, horizon, action):
    return {s: action for s in reachable_states(theory, horizon)}


def test_initial_states(tiger):
    init = initial_states(tiger)
    assert [(sorted(s), p) for s, p in init] == [
        (["htl", "tl"], Fraction(1, 2)),
        (["-htl", "-tl"], Fraction(1, 2)),
    ]


def test_successors_listen(tiger):
    (s0, _), _ = initial_states(tiger)
    out = successors(tiger, s0, tiger.action("listen"))
    assert [(sub.id, p) for sub, _, p, _ in out] == [
        ("listen_1", Fraction(17, 20)), ("listen_2", Fraction(3, 20))]
    # the correct report keeps the state; the noisy one asserts -tl
    assert out[0][1] == s0
    assert out[1][1] == frozenset({"-tl", "htl"})


def test_transition_asserts_effect(tiger):
    (s0, _), _ = initial_states(tiger)
    out = successors(tiger, s0, tiger.action("openL"))
    assert len(out) == 1
    sub, nxt, p, r = out[0]
    assert (p, r) == (1, -100)
    assert nxt == s0


def test_one_step_values(tiger):
    belief = initial_belief(tiger)
    values = {a: belief_value(tiger, uniform_policy(tiger, 1, a), 1, belief)
              for a in ("listen", "openL", "openR")}
    assert values == {"listen": -1, "openL": -45, "openR": -45}


def test_recursive_matches_sum_at_horizon_one(tiger):
    belief = initial_belief(tiger)
    for a in ("listen", "openL", "openR"):
        policy = uniform_policy(tiger, 1, a)
        v_sum = belief_value(tiger, policy, 1, belief)
        v_rec = sum(p * recursive_value(tiger, policy, 1, s)
                    for s, p in belief.items())
        assert v_sum == v_rec


def test_value_definitions_diverge_at_horizon_two(tiger):
    # the per-trajectory sum counts a step-0 reward once per extension
    belief = initial_belief(tiger)
    policy = uniform_policy(tiger, 2, "listen")
    v_sum = belief_value(tiger, policy, 2, belief)
    v_rec = sum(p * recursive_value(tiger, policy, 2, s)
                for s, p in belief.items())
    assert v_sum == Fraction(-29, 10)
    assert v_rec == Fraction(-19, 10)
    assert v_sum - v_rec == -1


def test_trajectory_counts(tiger):
    policy = uniform_policy(tiger, 2, "listen")
    trajs = enumerate_trajectories(tiger, policy, 2)
    # 2 initial states x 2 listen outcomes x 2 listen outcomes
    assert len(trajs) == 8
    for traj in trajs:
        assert len(traj.states) == 3 and len(traj.subs) == 2
        assert all(p > 0 for p in traj.probs)


def test_trajectory_value_weights_each_reward_by_its_prefix(tiger):
    policy = uniform_policy(tiger, 2, "listen")
    traj = next(t for t in enumerate_trajectories(tiger, policy, 2)
                if t.subs == ("listen_1", "listen_2"))
    p0, p1 = traj.probs
    assert trajectory_value(tiger, traj) == p0 * -1 + Fraction(9, 10) * p0 * p1 * -1


def test_belief_value_sums_trajectory_values(tiger):
    belief = initial_belief(tiger)
    for policy in enumerate_policies(tiger, 2):
        expected = sum(belief[t.states[0]] * trajectory_value(tiger, t)
                       for t in enumerate_trajectories(tiger, policy, 2))
        assert belief_value(tiger, policy, 2, belief) == expected


def test_policy_counts(tiger):
    assert len(enumerate_policies(tiger, 1)) == 9
    # noisy listen reports reach all four complete states by time 1
    assert len(reachable_states(tiger, 2)) == 4
    assert len(enumerate_policies(tiger, 2)) == 81


def test_optimal_policy_argmax_certificate(tiger):
    policy, value = optimal_policy(tiger, 1)
    belief = initial_belief(tiger)
    for other in enumerate_policies(tiger, 1):
        assert value >= belief_value(tiger, other, 1, belief)
    # state-policies can condition on the hidden tiger position
    assert value == 10
    assert sorted(policy.values()) == ["openL", "openR"]


def test_belief_update_listen(tiger):
    belief = initial_belief(tiger)
    updated = belief_update(tiger, belief, "listen")
    assert sum(updated.values()) == 1
    assert updated[frozenset({"tl", "htl"})] == Fraction(17, 40)
    assert updated[frozenset({"-tl", "htl"})] == Fraction(3, 40)


def test_policy_undefined_state_errors(tiger):
    (s0, _), _ = initial_states(tiger)
    with pytest.raises(OracleError, match="undefined"):
        recursive_value(tiger, {}, 1, s0)


def test_unnormalized_belief_rejected(tiger):
    (s0, _), _ = initial_states(tiger)
    with pytest.raises(OracleError, match="normalized"):
        belief_value(tiger, uniform_policy(tiger, 1, "listen"), 1,
                     {s0: Fraction(1, 3)})


def test_belief_value_refuses_a_policy_that_leaves_a_visited_state_unmapped(tiger):
    belief = initial_belief(tiger)
    policy = uniform_policy(tiger, 1, "listen")  # the time-0 states only
    with pytest.raises(OracleError, match="undefined"):
        belief_value(tiger, policy, 2, belief)
    with pytest.raises(OracleError, match="undefined"):
        belief_value(tiger, {}, 1, belief)


def _keys(trajectories) -> list:
    return [(tuple(map(state_key, t.states)), t.subs) for t in trajectories]


def test_trajectories_of_the_empty_policy_are_those_of_every_policy(tiger):
    for horizon in (1, 2, 3):
        walked = _keys(enumerate_trajectories(tiger, {}, horizon))
        assert len(walked) == len(set(walked))  # each trajectory once
        expected = {k for policy in enumerate_policies(tiger, horizon)
                    for k in _keys(enumerate_trajectories(tiger, policy, horizon))}
        assert set(walked) == expected
        assert count_policies(tiger, horizon) == len(enumerate_policies(tiger, horizon))
    # a partial policy is kept where it maps and branches elsewhere
    (s0, _), (s1, _) = initial_states(tiger)
    walked = enumerate_trajectories(tiger, {s0: "openL", s1: "openL"}, 1)
    assert {t.subs for t in walked} == {("openL_1",), ("openL_2",)}
