"""Brute-force finite-horizon POMDP semantics over ground action theories.

States are complete consistent frozensets of literals.  All probability and
reward arithmetic is exact (`Fraction`); decimals appear only at serialization
boundaries.  This module is the ground truth the logic-programming pipeline is
checked against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from . import ApoError, Record, set_field
from .theory import (
    ActionDecl, ActionTheory, SubOutcome,
    close_initial_formula, fluent_of, is_consistent, negate, render_formula,
)


class OracleError(ApoError):
    pass


State = frozenset


def state_key(state: State) -> tuple[str, ...]:
    return tuple(sorted(state))


def check_state(theory: ActionTheory, state: State):
    if not is_consistent(state):
        raise OracleError(f"inconsistent state {render_formula(state)}")
    if {fluent_of(l) for l in state} != set(theory.fluents):
        raise OracleError(f"incomplete state {render_formula(state)}")


class Trajectory(Record):
    """Alternating state / sub-outcome sequence with per-step probs and rewards."""
    __slots__ = ("states", "subs", "probs", "rewards")

    def __init__(self, states: tuple[State, ...], subs: tuple[str, ...],
                 probs: tuple[Fraction, ...], rewards: tuple[Fraction, ...]):
        n = len(subs)
        if not (len(states) == n + 1 == len(probs) + 1 == len(rewards) + 1):
            raise OracleError("inconsistent trajectory lengths")
        set_field(self, "states", states)
        set_field(self, "subs", subs)
        set_field(self, "probs", probs)
        set_field(self, "rewards", rewards)


Policy = Mapping[State, str]


def policy_to_json(policy: Policy) -> list[dict]:
    return [
        {"state": sorted(s), "action": policy[s]}
        for s in sorted(policy, key=state_key)
    ]


def policy_sort_key(policy: Policy) -> tuple:
    return tuple(sorted((state_key(s), a) for s, a in policy.items()))


# ---------------------------------------------------------------------------
# initial states and transitions


Initial = Sequence[tuple[State, Fraction]]


def initial_states(theory: ActionTheory) -> list[tuple[State, Fraction]]:
    """One closed complete state per initial-belief entry, with its probability.

    The functions below that start from the initial states take them as an
    optional `initial` argument, so that a caller that evaluates many
    policies closes the initial formulas once; they call this when it is
    omitted."""
    out = []
    for entry in theory.initial:
        closed = close_initial_formula(theory, entry.formula)
        if not is_consistent(closed):
            raise OracleError(
                f"closure of {render_formula(entry.formula)} is inconsistent")
        if {fluent_of(l) for l in closed} != set(theory.fluents):
            raise OracleError(
                f"closure of {render_formula(entry.formula)} yields an incomplete state")
        out.append((frozenset(closed), entry.prob))
    return out


def is_executable(theory: ActionTheory, state: State, action: ActionDecl) -> bool:
    return action.executability <= state


def transition(sub: SubOutcome, state: State) -> State:
    """Effect literals asserted, complements removed, everything else inertial."""
    if not (sub.condition <= state):
        raise OracleError(f"condition of {sub.id} does not hold in {render_formula(state)}")
    dropped = {negate(l) for l in sub.effect}
    return frozenset((state - dropped) | sub.effect)


def successors(theory: ActionTheory, state: State, action: ActionDecl,
               ) -> list[tuple[SubOutcome, State, Fraction, Fraction]]:
    """Applicable sub-outcomes with successor state, probability, and reward."""
    if not is_executable(theory, state, action):
        raise OracleError(f"action {action.name} not executable in {render_formula(state)}")
    out = []
    for sub in action.outcomes:
        if sub.condition <= state:
            out.append((sub, transition(sub, state), sub.prob, sub.reward))
    return out


# ---------------------------------------------------------------------------
# trajectories and values


def _policy_action(theory: ActionTheory, policy: Policy, state: State) -> ActionDecl:
    try:
        name = policy[state]
    except KeyError:
        raise OracleError(f"policy undefined at state {render_formula(state)}") from None
    action = theory.action(name)
    if not is_executable(theory, state, action):
        raise OracleError(f"policy assigns non-executable {name} at {render_formula(state)}")
    return action


def _extend(theory: ActionTheory, policy: Policy, traj: Trajectory, depth: int,
            branch: bool = False) -> Iterator[Trajectory]:
    """`traj` extended by `depth` steps of `policy`, or, with `branch`, of its extensions."""
    if depth == 0:
        yield traj
        return
    state = traj.states[-1]
    if branch and state not in policy:
        for action in theory.actions:
            if is_executable(theory, state, action):
                yield from _extend(theory, {**policy, state: action.name}, traj,
                                   depth, branch)
        return
    action = _policy_action(theory, policy, state)
    for sub, nxt, p, r in successors(theory, state, action):
        if p == 0:
            continue
        yield from _extend(
            theory, policy,
            Trajectory(traj.states + (nxt,), traj.subs + (sub.id,),
                       traj.probs + (p,), traj.rewards + (r,)),
            depth - 1, branch)


def enumerate_trajectories(theory: ActionTheory, policy: Policy, horizon: int,
                           initial: Optional[Initial] = None) -> list[Trajectory]:
    """All horizon-step trajectories from every positive-probability initial state; at a
    state `policy` leaves unmapped, each executable action is tried and kept."""
    if horizon < 0:
        raise OracleError("horizon must be non-negative")
    if initial is None:
        initial = initial_states(theory)
    out = []
    for s0, p0 in initial:
        if p0 == 0:
            continue
        out.extend(_extend(theory, policy, Trajectory((s0,), (), (), ()), horizon, True))
    return out


def trajectory_value(theory: ActionTheory, traj: Trajectory) -> Fraction:
    """Discounted reward sum of `traj`, each time-t reward weighted by the
    probability of steps 0..t (not by that of the initial state)."""
    total = Fraction(0)
    prefix = Fraction(1)
    for t, (p, r) in enumerate(zip(traj.probs, traj.rewards)):
        prefix *= p
        total += theory.discount ** t * prefix * r
    return total


def recursive_value(theory: ActionTheory, policy: Policy, horizon: int,
                    s0: State) -> Fraction:
    """One-step expectation recursion, splitting sensing from non-sensing steps."""
    check_state(theory, s0)

    def value(state: State, n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        action = _policy_action(theory, policy, state)
        total = Fraction(0)
        for _, nxt, p, r in successors(theory, state, action):
            total += p * (r + theory.discount * value(nxt, n - 1))
        return total

    return value(s0, horizon)


def belief_value(theory: ActionTheory, policy: Policy, horizon: int,
                 belief: Mapping[State, Fraction],
                 initial: Optional[Initial] = None) -> Fraction:
    """Belief-weighted sum of `trajectory_value` over each state's trajectories."""
    mass = sum(belief.values(), Fraction(0))
    if mass != 1:
        raise OracleError(f"belief is not normalized (mass {mass})")
    if initial is None:
        initial = initial_states(theory)
    initial_set = {s for s, _ in initial}
    total = Fraction(0)
    for state, weight in belief.items():
        if weight == 0:
            continue
        if state not in initial_set:
            raise OracleError(f"{render_formula(state)} is not an initial state")
        for traj in _extend(theory, policy, Trajectory((state,), (), (), ()), horizon):
            total += weight * trajectory_value(theory, traj)
    return total


def initial_belief(theory: ActionTheory, initial: Optional[Initial] = None,
                   ) -> dict[State, Fraction]:
    if initial is None:
        initial = initial_states(theory)
    belief: dict[State, Fraction] = {}
    for s, p in initial:
        belief[s] = belief.get(s, Fraction(0)) + p
    return belief


def belief_update(theory: ActionTheory, belief: Mapping[State, Fraction],
                  action_name: str) -> dict[State, Fraction]:
    """Push the belief through one action's transition/observation distribution."""
    action = theory.action(action_name)
    masses: dict[State, Fraction] = {}
    for state, weight in belief.items():
        if weight == 0:
            continue
        for _, nxt, p, _ in successors(theory, state, action):
            masses[nxt] = masses.get(nxt, Fraction(0)) + p * weight
    total = sum(masses.values(), Fraction(0))
    if total == 0:
        raise OracleError(f"no successor reachable under {action_name}")
    return {s: m / total for s, m in masses.items() if m > 0}


# ---------------------------------------------------------------------------
# policy space


def reachable_states(theory: ActionTheory, horizon: int,
                     initial: Optional[Initial] = None) -> list[State]:
    """States reachable at decision times 0..horizon-1 under any action choice."""
    if initial is None:
        initial = initial_states(theory)
    frontier = {s for s, p in initial if p > 0}
    seen = set(frontier)
    for _ in range(max(horizon - 1, 0)):
        nxt = set()
        for state in frontier:
            for action in theory.actions:
                if not is_executable(theory, state, action):
                    continue
                for _, succ, p, _ in successors(theory, state, action):
                    if p > 0 and succ not in seen:
                        nxt.add(succ)
        seen |= nxt
        frontier = nxt
        if not frontier:
            break
    return sorted(seen, key=state_key)


def _policy_choices(theory: ActionTheory, horizon: int, initial: Optional[Initial],
                    ) -> dict[State, list[str]]:
    """Each reachable state's executable actions, by name."""
    choices = {}
    for state in reachable_states(theory, horizon, initial):
        names = sorted(a.name for a in theory.actions if is_executable(theory, state, a))
        if not names:
            raise OracleError(f"no executable action in {render_formula(state)}")
        choices[state] = names
    return choices


# `apoplan oracle` refuses to list and evaluate more policies than this
MAX_POLICIES = 100_000


def count_policies(theory: ActionTheory, horizon: int,
                   initial: Optional[Initial] = None) -> int:
    """`len(enumerate_policies(...))`, without listing them."""
    return math.prod(map(len, _policy_choices(theory, horizon, initial).values()))


def enumerate_policies(theory: ActionTheory, horizon: int,
                       initial: Optional[Initial] = None) -> list[dict[State, str]]:
    """All maps from reachable states to executable actions, in lexicographic order."""
    choices = _policy_choices(theory, horizon, initial)
    return [dict(zip(choices, combo)) for combo in itertools.product(*choices.values())]


def optimal_policy(theory: ActionTheory, horizon: int) -> tuple[dict[State, str], Fraction]:
    """Argmax of the belief-weighted value; ties broken lexicographically, as
    `max` keeps the first best of the policies, which come in that order."""
    initial = initial_states(theory)
    belief = initial_belief(theory, initial)
    return max(((policy, belief_value(theory, policy, horizon, belief, initial))
                for policy in enumerate_policies(theory, horizon, initial)),
               key=lambda pv: pv[1])
