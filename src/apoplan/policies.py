"""Reading trajectories and policies out of answer sets, and cross-checking the
logic-programming pipeline against the brute-force oracle.

An answer set of the compiled program encodes one trajectory: the holds-atoms
give the state at each time, the occ-atoms the chosen sub-outcome, the state
annotation the cumulative trajectory probability (including the initial-state
weight), and value(v, n) the probability-weighted discounted reward sum.
Summing values over the answer sets consistent with a policy therefore equals
the belief-weighted oracle value of that policy.

`Run` computes each stage of the pipeline once, for the commands, the checks
and the scripts alike.  `best_policy` needs only per-policy sums, which do not
depend on the order of the answer sets, so it folds each answer set into them
as it is enumerated and keeps none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from . import ApoError, Record, compiler, oracle, set_field
from .nplp import NpProgram, PInterpretation, render_atom, sort_answer_sets
from .oracle import Initial, State
from .theory import ActionTheory, fluent_of, is_consistent, validate_theory


class PolicyError(ApoError):
    pass


_ZERO = Fraction(0)


class AnswerSetReport(Record):
    """Trajectory-shaped reading of one answer set: `states` holds the
    holds-literals per time 0..n, `occ` the chosen sub-outcome id per time
    0..n-1, `state_probs` the state(t) annotation per time and `value` the
    value(v, n) at the horizon."""
    __slots__ = ("states", "occ", "state_probs", "value", "valid", "reasons")

    def __init__(self, states: tuple[State, ...], occ: tuple[str, ...],
                 state_probs: tuple[Fraction | None, ...], value: Fraction | None,
                 valid: bool, reasons: tuple[str, ...] = ()):
        set_field(self, "states", states)
        set_field(self, "occ", occ)
        set_field(self, "state_probs", state_probs)
        set_field(self, "value", value)
        set_field(self, "valid", valid)
        set_field(self, "reasons", reasons)


def extract_report(theory: ActionTheory, h: PInterpretation, horizon: int,
                   ) -> AnswerSetReport:
    """Read the trajectory encoded by answer set `h`.

    The report is invalid (rather than an error) when the answer set is
    degenerate: a chosen sub-outcome whose condition failed leaves no successor
    probability and no horizon value."""
    reasons: list[str] = []

    # one pass over h, bucketing the atoms at 1 by predicate and time
    holds: dict[int, set] = {}
    occ_at: dict[int, list] = {}
    values = []
    for atom, v in h.items():
        pred = atom[0]
        if pred == "holds":
            if v >= 1:
                holds.setdefault(atom[2], set()).add(atom[1])
        elif pred == "occ":
            if v >= 1:
                occ_at.setdefault(atom[2], []).append(atom[1])
        elif pred == "value":
            if atom[2] == horizon and v >= 1:
                values.append(atom[1])

    fluents = set(theory.fluents)
    states = []
    for t in range(horizon + 1):
        state = frozenset(holds.get(t, ()))
        states.append(state)
        if not is_consistent(state):
            reasons.append(f"inconsistent holds-literals at time {t}")
        elif {fluent_of(l) for l in state} != fluents:
            reasons.append(f"incomplete holds-literals at time {t}")

    occ = []
    for t in range(horizon):
        chosen = sorted(occ_at.get(t, ()))
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

    values.sort()
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


class PolicyValue(Record):
    __slots__ = ("policy", "value", "contributors", "per_initial")

    def __init__(self, policy: dict[State, str], value: Fraction, contributors: int,
                 per_initial: dict[State, Fraction] | None = None):
        set_field(self, "policy", policy)
        set_field(self, "value", value)
        set_field(self, "contributors", contributors)  # number of answer sets summed
        set_field(self, "per_initial", {} if per_initial is None else per_initial)

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


def group_policies(theory: ActionTheory, reports: Iterable[AnswerSetReport],
                   policies: Sequence[Mapping[State, str]]) -> list[PolicyValue]:
    """Value of each of `policies`, summed from its consistent answer sets.
    A valid report is consistent with a policy when its trajectory is
    stationary and the policy agrees with every action it takes; an invalid
    report is consistent with none.  Each answer-set value already carries
    the initial-state weight, so the sum is the belief-weighted policy value.

    `reports` is read once, so any iterable serves: each valid stationary
    report is folded into a sum, a per-initial-state sum and a count for its
    action map, and only the distinct maps are matched against the
    policies."""
    totals: dict[frozenset, Fraction] = {}
    initial_totals: dict[frozenset, dict[State, Fraction]] = {}
    counts: dict[frozenset, int] = {}
    for report in reports:
        chosen = stationary_action_map(theory, report) if report.valid else None
        if chosen is None:
            continue
        key = frozenset(chosen.items())
        totals[key] = totals.get(key, _ZERO) + report.value
        by_initial = initial_totals.setdefault(key, {})
        s0 = report.states[0]
        by_initial[s0] = by_initial.get(s0, _ZERO) + report.value
        counts[key] = counts.get(key, 0) + 1
    out = []
    for policy in policies:
        total = _ZERO
        per_initial: dict[State, Fraction] = {}
        contributors = 0
        for key, value in totals.items():
            if any(policy.get(s) != a for s, a in key):
                continue
            contributors += counts[key]
            total += value
            for s0, v in initial_totals[key].items():
                per_initial[s0] = per_initial.get(s0, _ZERO) + v
        out.append(PolicyValue(policy=policy, value=total,
                               contributors=contributors, per_initial=per_initial))
    return out


class Run:
    """The pipeline on `theory` at `horizon`: each stage reads the ground
    theory of `report` (one `validate_theory` call; the caller checks it), is
    computed on first use from the stages it needs, and kept.  It calls its
    function via the defining module, so tracers and tests see every call."""

    def __init__(self, theory: ActionTheory, horizon: int):
        self.report = validate_theory(theory)
        self.theory = self.report.theory
        self.horizon = horizon

    @cached_property
    def program(self) -> NpProgram:
        return compiler.compile_theory(self.report, self.horizon)

    @cached_property
    def probability_rules(self) -> list[tuple]:
        return compiler.probability_rules(self.program)

    @cached_property
    def normal(self) -> compiler.NormalProgram:
        return compiler.normalize(self.program)

    @cached_property
    def cnf(self) -> compiler.CnfFormula:
        return compiler.to_sat(self.normal)

    @cached_property
    def normal_sets(self) -> list[frozenset]:
        return compiler.normal_answer_sets(self.normal)

    @cached_property
    def answer_sets(self) -> list[PInterpretation]:
        # the rules before the CNF, so that a program whose probability
        # families cannot be split is refused by the stage that splits them
        return compiler.annotated_answer_sets(self.probability_rules, self.cnf)

    def iter_answer_sets(self) -> Iterable[PInterpretation]:
        """The answer sets one at a time: the `answer_sets` list when it is
        kept already, else a fresh enumeration that keeps none of them, in
        the time-major search order of `compiler.iter_annotated_answer_sets`."""
        if "answer_sets" in self.__dict__:  # where cached_property keeps it
            return self.answer_sets
        return compiler.iter_annotated_answer_sets(self.probability_rules, self.cnf)

    @cached_property
    def reports(self) -> list[AnswerSetReport]:
        return valid_reports(self.theory, self.answer_sets, self.horizon)

    @cached_property
    def initial(self) -> Initial:
        return oracle.initial_states(self.theory)

    @cached_property
    def policies(self) -> list[dict[State, str]]:
        return oracle.enumerate_policies(self.theory, self.horizon, self.initial)


def best_policy(run: Run) -> PolicyValue:
    """Optimal policy by answer-set value aggregation (ties broken
    lexicographically, matching the oracle's tie-break).  Each answer set is
    read into a report and folded into the sums as it is enumerated."""
    answer_sets = run.iter_answer_sets()  # the compiling stages first
    reports = (extract_report(run.theory, h, run.horizon) for h in answer_sets)
    grouped = group_policies(run.theory, reports, run.policies)
    if not grouped:
        raise PolicyError("no policies to evaluate")
    return min(grouped,
               key=lambda pv: (-pv.value, oracle.policy_sort_key(pv.policy)))


# ---------------------------------------------------------------------------
# cross-checks against the oracle


def _trajectory_key(states: Sequence[State], subs: tuple[str, ...]) -> tuple:
    return (tuple(oracle.state_key(s) for s in states), subs)


class CheckReport(Record):
    __slots__ = ("name", "ok", "detail", "counterexamples")

    def __init__(self, name: str, ok: bool, detail: str = "",
                 counterexamples: tuple[str, ...] = ()):
        set_field(self, "name", name)
        set_field(self, "ok", ok)
        set_field(self, "detail", detail)
        set_field(self, "counterexamples", counterexamples)

    def to_json(self) -> dict:
        return {"check": self.name, "ok": self.ok, "detail": self.detail,
                "counterexamples": list(self.counterexamples)}


def check_trajectories(theory: ActionTheory, horizon: int,
                       reports: Sequence[AnswerSetReport],
                       policies: Sequence[Mapping[State, str]],
                       initial: Optional[Initial] = None) -> CheckReport:
    """The stationary trajectories of the valid `reports` must equal the
    oracle trajectories taken over `policies`, every enumerable policy.
    `initial`, if given, is `oracle.initial_states(theory)`.

    Both sides are keyed by their states and sub-outcomes, and only the
    oracle simulates the dynamics (through `oracle.successors`): a report
    whose action is not executable, whose condition fails or whose successor
    is wrong has a key the oracle never makes, a `program-only`
    counterexample.  Answer sets also encode non-stationary action sequences
    (a revisited state may get a different action), which no stationary
    policy generates; those are filtered out before comparing."""
    oracle_keys = set()
    for policy in policies:
        for traj in oracle.enumerate_trajectories(theory, policy, horizon, initial):
            oracle_keys.add(_trajectory_key(traj.states, traj.subs))

    program_keys = {_trajectory_key(report.states, report.occ) for report in reports
                    if stationary_action_map(theory, report) is not None}

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
                        reports: Sequence[AnswerSetReport],
                        policies: Sequence[Mapping[State, str]],
                        initial: Optional[Initial] = None) -> CheckReport:
    """Summed values of the valid `reports` per policy must equal the oracle's
    belief-weighted value of that policy, exactly.  `initial`, if given, is
    `oracle.initial_states(theory)`."""
    grouped = group_policies(theory, reports, policies)
    belief = oracle.initial_belief(theory, initial)
    bad = []
    for pv in grouped:
        expected = oracle.belief_value(theory, pv.policy, horizon, belief, initial)
        if expected != pv.value:
            bad.append(
                f"policy {oracle.policy_to_json(pv.policy)}: "
                f"answer sets give {pv.value}, oracle gives {expected}")
    return CheckReport(
        name="policy-value-equivalence", ok=not bad,
        detail=f"{len(grouped)} policies compared exactly" if not bad else
        f"{len(bad)} of {len(grouped)} policies disagree",
        counterexamples=tuple(bad[:3]))


def _first(atom_sets: set[frozenset], n: int) -> list[frozenset]:
    """The first `n` of `atom_sets` in the order of their sorted rendered
    atoms, which, unlike the order of a set, does not depend on string
    hashing."""
    return sort_answer_sets(list(atom_sets))[:n]


def check_normal_projection(answer_sets: Sequence[PInterpretation],
                            normal_sets: Sequence[frozenset]) -> CheckReport:
    """Dropping the probability/reward/value rules must preserve the set of
    occ-projections: `answer_sets` are the annotated program's answer sets,
    `normal_sets` those of its normal program."""
    annotated = {frozenset(a for a, v in h.items() if a[0] == "occ" and v >= 1)
                 for h in answer_sets}
    normal = {frozenset(a for a in m if a[0] == "occ") for m in normal_sets}
    missing = annotated - normal
    extra = normal - annotated
    examples = [f"annotated-only: {sorted(map(render_atom, k))}" for k in _first(missing, 3)] \
        + [f"normal-only: {sorted(map(render_atom, k))}" for k in _first(extra, 3)]
    return CheckReport(
        name="normal-projection-equivalence", ok=not examples,
        detail=f"{len(annotated)} occ-projections on each side" if not examples
        else f"{len(missing)} missing, {len(extra)} extra",
        counterexamples=tuple(examples))


def check_sat_models(models: Sequence[frozenset],
                     normal_sets: Sequence[frozenset]) -> CheckReport:
    """The decoded CNF `models` of a normal program must be its answer sets
    `normal_sets`, one-to-one: no model listed twice, none missing, none
    extra."""
    decoded = set(models)
    expected = set(normal_sets)
    missing = expected - decoded
    extra = decoded - expected
    examples = [f"answer-set-only: {sorted(map(render_atom, k))[:6]}" for k in _first(missing, 2)] \
        + [f"model-only: {sorted(map(render_atom, k))[:6]}" for k in _first(extra, 2)]
    duplicated = len(models) - len(decoded)
    ok = not examples and not duplicated
    if ok:
        detail = f"{len(decoded)} models = {len(expected)} answer sets"
    else:
        detail = f"{len(missing)} missing, {len(extra)} extra"
        if duplicated:
            detail += f", {duplicated} of {len(models)} models repeated"
    return CheckReport(name="sat-model-equivalence", ok=ok, detail=detail,
                       counterexamples=tuple(examples))


def cross_check(run: Run) -> list[CheckReport]:
    """The four equivalence checks on the stages of `run`.  Checks 1 and 2
    share its reports, initial states and policies, checks 3 and 4 its
    normal answer sets.  The completion models that the answer sets were
    built from are their atoms of the normal program, so check 4 compares
    those very models with the normal answer sets, which a search without
    SAT finds."""
    theory, horizon = run.theory, run.horizon
    normal_atoms = run.normal.atoms()
    models = [frozenset(a for a in h if a in normal_atoms) for h in run.answer_sets]
    return [
        check_trajectories(theory, horizon, run.reports, run.policies, run.initial),
        check_policy_values(theory, horizon, run.reports, run.policies, run.initial),
        check_normal_projection(run.answer_sets, run.normal_sets),
        check_sat_models(models, run.normal_sets),
    ]
