"""Reading trajectories and policies out of answer sets, and cross-checking the
logic-programming pipeline against the brute-force oracle.

An answer set of the compiled program encodes one trajectory: the holds-atoms
give the state at each time, the occ-atoms the chosen sub-outcome, the state
annotation the cumulative trajectory probability (including the initial-state
weight), and value(v, n) the probability-weighted discounted reward sum.
Summing values over the answer sets consistent with a policy therefore equals
the belief-weighted oracle value of that policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import ApoError, oracle, sat
from .compiler import (
    NormalProgram, decode_model, normal_answer_sets, normalize, to_sat,
)
from .nplp import NpProgram, PInterpretation, render_atom
from .oracle import State, Trajectory
from .theory import ActionTheory, fluent_of, is_consistent, render_formula


class PolicyError(ApoError):
    pass


@dataclass(frozen=True)
class AnswerSetReport:
    """Trajectory-shaped reading of one answer set."""
    states: tuple[State, ...]            # holds-literals per time 0..n
    occ: tuple[str, ...]                 # chosen sub-outcome id per time 0..n-1
    state_probs: tuple[Fraction | None, ...]   # state(t) annotation per time
    value: Fraction | None               # value(v, n) at the horizon
    valid: bool
    reasons: tuple[str, ...] = ()


def extract_report(theory: ActionTheory, h: PInterpretation, horizon: int,
                   ) -> AnswerSetReport:
    """Read the trajectory encoded by answer set `h`.

    The report is invalid (rather than an error) when the answer set is
    degenerate: a chosen sub-outcome whose condition failed leaves no successor
    probability and no horizon value."""
    reasons: list[str] = []

    states = []
    for t in range(horizon + 1):
        state = frozenset(atom[1] for atom, v in h.items()
                          if atom[0] == "holds" and atom[2] == t and v >= 1)
        states.append(state)
        if not is_consistent(state):
            reasons.append(f"inconsistent holds-literals at time {t}")
        elif {fluent_of(l) for l in state} != set(theory.fluents):
            reasons.append(f"incomplete holds-literals at time {t}")

    occ = []
    for t in range(horizon):
        chosen = sorted(atom[1] for atom, v in h.items()
                        if atom[0] == "occ" and atom[2] == t and v >= 1)
        if len(chosen) != 1:
            raise PolicyError(
                f"expected exactly one occ atom at time {t}, found {chosen}")
        occ.append(chosen[0])

    probs = []
    for t in range(horizon + 1):
        p = h.get(("state", t))
        probs.append(p)
        if p is None or p <= 0:
            reasons.append(f"no positive state probability at time {t}")

    values = sorted(atom[1] for atom, w in h.items()
                    if atom[0] == "value" and atom[2] == horizon and w >= 1)
    if len(values) > 1:
        raise PolicyError(f"multiple horizon values {values}")
    value = values[0] if values else None
    if value is None:
        reasons.append("no value atom at the horizon")

    return AnswerSetReport(
        states=tuple(states), occ=tuple(occ), state_probs=tuple(probs),
        value=value, valid=not reasons, reasons=tuple(reasons))


def valid_reports(theory: ActionTheory, answer_sets: Sequence[PInterpretation],
                  horizon: int) -> list[AnswerSetReport]:
    reports = [extract_report(theory, h, horizon) for h in answer_sets]
    return [r for r in reports if r.valid]


def reconstruct_trajectory(theory: ActionTheory, report: AnswerSetReport,
                           ) -> Trajectory:
    """Re-derive the transition chain of a valid report, verifying every step
    against the action theory."""
    if not report.valid:
        raise PolicyError(f"cannot reconstruct an invalid report: {report.reasons}")
    probs = []
    rewards = []
    for t, sub_id in enumerate(report.occ):
        action, sub = theory.sub_outcome(sub_id)
        state = report.states[t]
        if not oracle.is_executable(theory, state, action):
            raise PolicyError(
                f"{action.name} not executable in {render_formula(state)} at time {t}")
        if not (sub.condition <= state):
            raise PolicyError(
                f"condition of {sub_id} fails in {render_formula(state)} at time {t}")
        nxt = oracle.transition(sub, state)
        if nxt != report.states[t + 1]:
            raise PolicyError(
                f"successor mismatch at time {t}: expected {render_formula(nxt)}, "
                f"answer set has {render_formula(report.states[t + 1])}")
        probs.append(sub.prob)
        rewards.append(sub.reward)
    return Trajectory(states=tuple(report.states), subs=tuple(report.occ),
                      probs=tuple(probs), rewards=tuple(rewards))


def stationary_action_map(theory: ActionTheory, report: AnswerSetReport,
                          ) -> dict[State, str] | None:
    """Action chosen at each visited state, or None if the same state is
    visited twice with different actions (a non-stationary trajectory)."""
    out: dict[State, str] = {}
    for t, sub_id in enumerate(report.occ):
        action, _ = theory.sub_outcome(sub_id)
        state = report.states[t]
        if out.get(state, action.name) != action.name:
            return None
        out[state] = action.name
    return out


def consistent_with(theory: ActionTheory, report: AnswerSetReport,
                    policy: Mapping[State, str]) -> bool:
    for t, sub_id in enumerate(report.occ):
        action, _ = theory.sub_outcome(sub_id)
        if policy.get(report.states[t]) != action.name:
            return False
    return True


@dataclass(frozen=True)
class PolicyValue:
    policy: dict[State, str]
    value: Fraction
    contributors: int            # number of answer sets summed
    per_initial: dict[State, Fraction] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "policy": oracle.policy_to_json(self.policy),
            "value": float(self.value),
            "contributors": self.contributors,
            "per_initial": [
                {"state": sorted(s), "value": float(v)}
                for s, v in sorted(self.per_initial.items(),
                                   key=lambda kv: oracle.state_key(kv[0]))
            ],
        }


def group_policies(theory: ActionTheory, reports: Sequence[AnswerSetReport],
                   horizon: int) -> list[PolicyValue]:
    """Value of every enumerable policy, summed from its consistent answer
    sets.  Each answer-set value already carries the initial-state weight, so
    the sum is the belief-weighted policy value."""
    out = []
    for policy in oracle.enumerate_policies(theory, horizon):
        total = Fraction(0)
        per_initial: dict[State, Fraction] = {}
        contributors = 0
        for report in reports:
            if not consistent_with(theory, report, policy):
                continue
            contributors += 1
            total += report.value
            s0 = report.states[0]
            per_initial[s0] = per_initial.get(s0, Fraction(0)) + report.value
        out.append(PolicyValue(policy=policy, value=total,
                               contributors=contributors, per_initial=per_initial))
    return out


def best_policy(theory: ActionTheory, horizon: int,
                answer_sets: Sequence[PInterpretation]) -> PolicyValue:
    """Optimal policy by answer-set value aggregation (ties broken
    lexicographically, matching the oracle's tie-break)."""
    reports = valid_reports(theory, answer_sets, horizon)
    grouped = group_policies(theory, reports, horizon)
    if not grouped:
        raise PolicyError("no policies to evaluate")
    return min(grouped,
               key=lambda pv: (-pv.value, oracle.policy_sort_key(pv.policy)))


# ---------------------------------------------------------------------------
# cross-checks against the oracle


def _trajectory_key(traj: Trajectory) -> tuple:
    return (tuple(oracle.state_key(s) for s in traj.states), traj.subs)


@dataclass(frozen=True)
class CheckReport:
    name: str
    ok: bool
    detail: str = ""
    counterexamples: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"check": self.name, "ok": self.ok, "detail": self.detail,
                "counterexamples": list(self.counterexamples)}


def check_trajectories(theory: ActionTheory, horizon: int,
                       answer_sets: Sequence[PInterpretation]) -> CheckReport:
    """Stationary trajectories reconstructed from valid answer sets must equal
    the oracle trajectories taken over every enumerable policy.

    Answer sets also encode non-stationary action sequences (a revisited state
    may get a different action), which no stationary policy generates; those
    are filtered out before comparing."""
    oracle_keys = set()
    for policy in oracle.enumerate_policies(theory, horizon):
        for traj in oracle.enumerate_trajectories(theory, policy, horizon):
            oracle_keys.add(_trajectory_key(traj))

    program_keys = set()
    for report in valid_reports(theory, answer_sets, horizon):
        if stationary_action_map(theory, report) is None:
            continue
        program_keys.add(_trajectory_key(reconstruct_trajectory(theory, report)))

    missing = sorted(oracle_keys - program_keys)
    extra = sorted(program_keys - oracle_keys)
    examples = [f"oracle-only: {k}" for k in missing[:3]] \
        + [f"program-only: {k}" for k in extra[:3]]
    return CheckReport(
        name="trajectory-equivalence", ok=not examples,
        detail=f"{len(program_keys)} trajectories on each side" if not examples
        else f"{len(missing)} missing, {len(extra)} extra",
        counterexamples=tuple(examples))


def check_policy_values(theory: ActionTheory, horizon: int,
                        answer_sets: Sequence[PInterpretation]) -> CheckReport:
    """Summed answer-set values per policy must equal the oracle's
    initial-weighted per-trajectory discounted sums, exactly."""
    reports = valid_reports(theory, answer_sets, horizon)
    grouped = group_policies(theory, reports, horizon)
    bad = []
    for pv in grouped:
        expected = Fraction(0)
        for s0, p0 in oracle.initial_states(theory):
            if p0 > 0:
                expected += p0 * oracle.trajectory_sum_value(
                    theory, pv.policy, horizon, s0)
        if expected != pv.value:
            bad.append(
                f"policy {oracle.policy_to_json(pv.policy)}: "
                f"answer sets give {pv.value}, oracle gives {expected}")
    return CheckReport(
        name="policy-value-equivalence", ok=not bad,
        detail=f"{len(grouped)} policies compared exactly" if not bad else
        f"{len(bad)} of {len(grouped)} policies disagree",
        counterexamples=tuple(bad[:3]))


def _occ_projection(atoms_true) -> frozenset:
    return frozenset(a for a in atoms_true if a[0] == "occ")


def check_normal_projection(answer_sets: Sequence[PInterpretation],
                            normal_sets: Sequence[frozenset]) -> CheckReport:
    """Dropping the probability/reward/value rules must preserve the set of
    occ-projections: `answer_sets` are the annotated program's answer sets,
    `normal_sets` those of its normal program."""
    annotated = {_occ_projection(a for a, v in h.items() if v >= 1)
                 for h in answer_sets}
    normal = {_occ_projection(m) for m in normal_sets}
    missing = annotated - normal
    extra = normal - annotated
    examples = [f"annotated-only: {sorted(map(render_atom, k))}" for k in list(missing)[:3]] \
        + [f"normal-only: {sorted(map(render_atom, k))}" for k in list(extra)[:3]]
    return CheckReport(
        name="normal-projection-equivalence", ok=not examples,
        detail=f"{len(annotated)} occ-projections on each side" if not examples
        else f"{len(missing)} missing, {len(extra)} extra",
        counterexamples=tuple(examples))


def check_sat_models(normal: NormalProgram,
                     normal_sets: Sequence[frozenset]) -> CheckReport:
    """Exhaustively enumerated CNF models of `normal` must decode one-to-one
    to its answer sets `normal_sets`."""
    cnf = to_sat(normal)
    decoded = set()
    for model in sat.enumerate_models(cnf.clauses, cnf.variable_count):
        decoded.add(decode_model(model, cnf))
    expected = set(normal_sets)
    missing = expected - decoded
    extra = decoded - expected
    examples = [f"answer-set-only: {sorted(map(render_atom, k))[:6]}" for k in list(missing)[:2]] \
        + [f"model-only: {sorted(map(render_atom, k))[:6]}" for k in list(extra)[:2]]
    return CheckReport(
        name="sat-model-equivalence", ok=not examples,
        detail=f"{len(decoded)} models = {len(expected)} answer sets"
        if not examples else f"{len(missing)} missing, {len(extra)} extra",
        counterexamples=tuple(examples))


def cross_check(theory: ActionTheory, horizon: int, program: NpProgram,
                answer_sets: Sequence[PInterpretation]) -> list[CheckReport]:
    """The four equivalence checks on `program` (the theory compiled at
    `horizon`) and its `answer_sets`, normalizing the program and enumerating
    the normal program once."""
    normal = normalize(program)
    normal_sets = normal_answer_sets(normal)
    return [
        check_trajectories(theory, horizon, answer_sets),
        check_policy_values(theory, horizon, answer_sets),
        check_normal_projection(answer_sets, normal_sets),
        check_sat_models(normal, normal_sets),
    ]
