"""Reading trajectories and policies out of answer sets, and cross-checking the
logic-programming pipeline against the brute-force oracle.

An answer set of the compiled program encodes one trajectory: the holds-atoms
give the state at each time, the occ-atoms the chosen sub-outcome, the state
annotation the cumulative trajectory probability (including the initial-state
weight), and value(v, n) the probability-weighted discounted reward sum.
Summing values over the answer sets consistent with a policy therefore equals
the belief-weighted oracle value of that policy.  The checks compare the terms
of those sums, one per trajectory, which covers every policy without listing any.

`Run` computes each stage of the pipeline once and keeps no answer set;
`extract_report` reads one from its layers as it is enumerated.
`best_policy` folds the reports into a sum per action map and searches the
maps, not a list of policies; `cross_check` reads them once for all four
checks, keying each completion model as an integer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

from . import ApoError, Record, compiler, oracle, set_field
from .compiler import Layer
from .nplp import NpProgram, answer_set_sort_key, render_atom
from .oracle import Initial, State
from .theory import ActionTheory, fluent_of, validate_theory


class PolicyError(ApoError):
    pass


_ZERO = Fraction(0)


class AnswerSetReport(Record):
    """Trajectory-shaped reading of one answer set: `states` holds the
    holds-literals per time 0..n, `occ` the chosen sub-outcome id per time
    0..n-1, `state_probs` the state(t) annotation per time and `value` the
    value(v, n) at the horizon."""
    __slots__ = ("states", "occ", "state_probs", "value", "valid")

    def __init__(self, states: tuple[State, ...], occ: tuple[str, ...],
                 state_probs: tuple[Fraction | None, ...], value: Fraction | None,
                 valid: bool):
        set_field(self, "states", states)
        set_field(self, "occ", occ)
        set_field(self, "state_probs", state_probs)
        set_field(self, "value", value)
        set_field(self, "valid", valid)


def extract_report(theory: ActionTheory, layers: Sequence[Layer], horizon: int,
                   ) -> AnswerSetReport:
    """Read the trajectory encoded by an answer set from its layers
    (`compiler.iter_answer_set_layers`).  The report is invalid (rather than
    an error) when the answer set is degenerate: a chosen sub-outcome whose
    condition failed leaves no successor probability and no horizon value."""
    fluents = set(theory.fluents)
    states = tuple(layer.state for layer in layers[:horizon + 1])

    occ = [sorted(layer.occ) for layer in layers[1:horizon + 1]]
    for t, chosen in enumerate(occ):
        if len(chosen) != 1:
            raise PolicyError(f"expected exactly one occ atom at time {t}, found {chosen}")

    # read without hashing an atom: a `value` atom holds a Fraction
    probs: list[Fraction | None] = [None] * (horizon + 1)
    values: list[Fraction] = []
    for atom, v in layers[horizon].values.items():
        if atom[0] == "state":
            probs[atom[1]] = v
        elif atom[0] == "value" and atom[2] == horizon and v >= 1:
            values.append(atom[1])

    values.sort()
    if len(values) > 1:
        raise PolicyError(f"multiple horizon values {values}")
    value = values[0] if values else None
    valid = (value is not None and all(p is not None and p > 0 for p in probs)
             # one literal of each fluent, so consistent and complete
             and all(len(s) == len(fluents) and {fluent_of(l) for l in s} == fluents
                     for s in states))

    return AnswerSetReport(
        states=states, occ=tuple(c[0] for c in occ), state_probs=tuple(probs),
        value=value, valid=valid)


def valid_reports(theory: ActionTheory, answer_sets: Iterable[Sequence[Layer]],
                  horizon: int) -> list[AnswerSetReport]:
    return [r for r in (extract_report(theory, l, horizon) for l in answer_sets) if r.valid]


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
                   ) -> tuple[set[State], dict[frozenset, list]]:
    """The decision states of the valid `reports` (those at times before the
    horizon) and, keyed by the items of each stationary action map they take,
    `[value, count, per_initial]`: their summed values, their number and their
    sums per initial state.  A policy's value is the sum over the maps it
    agrees with.  `reports` is read once, so any iterable serves."""
    states: set[State] = set()
    sums: dict[frozenset, list] = {}
    for report in (r for r in reports if r.valid):
        states.update(report.states[:-1])
        chosen = stationary_action_map(theory, report)
        if chosen is not None:
            entry = sums.setdefault(frozenset(chosen.items()), [_ZERO, 0, {}])
            entry[0] += report.value
            entry[1] += 1
            s0 = report.states[0]
            entry[2][s0] = entry[2].get(s0, _ZERO) + report.value
    return states, sums


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
    def normal_sets(self) -> list[int]:
        """The normal program's answer sets, as keys over `cnf.atoms`."""
        return compiler.normal_answer_sets(self.normal)

    def iter_layers(self) -> Iterator[tuple[Layer, ...]]:
        """The answer sets, as layers, in search order, freshly enumerated."""
        # the rules before the CNF, so that a program whose probability
        # families cannot be split is refused by the stage that splits them
        return compiler.iter_answer_set_layers(self.probability_rules, self.cnf)

    @cached_property
    def initial(self) -> Initial:
        return oracle.initial_states(self.theory)

    @cached_property
    def oracle_walk(self) -> dict[tuple, Fraction]:
        """One walk of the trajectories of every policy (under the empty one):
        each one's key and `oracle.trajectory_value` times its initial belief."""
        belief = oracle.initial_belief(self.theory, self.initial)
        walk = oracle.enumerate_trajectories(self.theory, {}, self.horizon, self.initial)
        return {_trajectory_key(t.states, t.subs):
                belief[t.states[0]] * oracle.trajectory_value(self.theory, t) for t in walk}


def best_policy(run: Run) -> PolicyValue:
    """Optimal policy by answer-set value aggregation: a depth-first search
    over the map sums of `group_policies`, folded as the answer sets are
    enumerated.  It fixes the decision states in `oracle.state_key` order to
    their executable actions in sorted order, so it meets the policies in
    lexicographic order and keeps the first best one, the oracle's tie-break.
    It branches only at a state that a map agreeing with the choices so far
    visits: elsewhere every action gives the same value, and it takes the
    first.  Finding a policy is NP-complete, so this is exponential in the
    worst case."""
    theory = run.theory
    reports = (extract_report(theory, layers, run.horizon) for layers in run.iter_layers())
    states, sums = group_policies(theory, reports)
    order = sorted(states, key=oracle.state_key)
    actions = [sorted(a.name for a in theory.actions if a.executability <= state)
               for state in order]
    policy: dict[State, str] = {}

    def leaves(i: int, live: list[tuple[dict, list]]) -> Iterator[tuple]:
        if i == len(order):
            yield sum((entry[0] for _, entry in live), _ZERO), dict(policy), live
            return
        state = order[i]
        for name in actions[i] if any(state in m for m, _ in live) else actions[i][:1]:
            policy[state] = name
            yield from leaves(i + 1, [m for m in live if m[0].get(state, name) == name])

    maps = [(dict(key), entry) for key, entry in sums.items()]
    value, best, agreeing = max(leaves(0, maps), key=lambda leaf: leaf[0])  # the first best leaf
    initial = {s0 for _, entry in agreeing for s0 in entry[2]}
    per_initial = {s0: sum(entry[2].get(s0, _ZERO) for _, entry in agreeing)
                   for s0 in initial}
    return PolicyValue(policy=best, value=value, per_initial=per_initial,
                       contributors=sum(entry[1] for _, entry in agreeing))


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


def check_trajectories(program_keys: AbstractSet[tuple],
                       oracle_keys: AbstractSet[tuple]) -> CheckReport:
    """The trajectories of the stationary valid reports must equal the oracle
    trajectories of every policy, whose keys `Run.oracle_walk` collects.

    Both sides are keyed by their states and sub-outcomes, and only the
    oracle simulates the dynamics (through `oracle.successors`): a report
    whose action is not executable, whose condition fails or whose successor
    is wrong has a key the oracle never makes, a `program-only`
    counterexample.  Non-stationary answer sets, where a revisited state gets
    a different action, are left out: no stationary policy makes them."""
    missing = sorted(oracle_keys - program_keys)
    extra = sorted(program_keys - oracle_keys)
    examples = [f"oracle-only: {k}" for k in missing[:3]] \
        + [f"program-only: {k}" for k in extra[:3]]
    return CheckReport(
        name="trajectory-equivalence", ok=not examples,
        detail=f"{len(program_keys)} trajectories on each side" if not examples
        else f"{len(missing)} missing, {len(extra)} extra",
        counterexamples=tuple(examples))


def check_policy_values(program_values: Mapping[tuple, Fraction],
                        oracle_values: Mapping[tuple, Fraction], policy_count: int) -> CheckReport:
    """Per trajectory, the summed values of the stationary valid reports must
    equal the oracle's (`Run.oracle_walk`) exactly, a missing side counting 0.
    A policy's value is a sum of these terms: this compares all `policy_count`."""
    bad = sorted(key for key in program_values.keys() | oracle_values.keys()
                 if program_values.get(key, _ZERO) != oracle_values.get(key, _ZERO))
    return CheckReport(
        name="policy-value-equivalence", ok=not bad,
        detail=f"{policy_count} policies compared exactly" if not bad else
        f"{len(bad)} trajectories disagree",
        counterexamples=tuple(
            f"trajectory {key}: answer sets give {program_values.get(key, _ZERO)}, "
            f"oracle gives {oracle_values.get(key, _ZERO)}" for key in bad[:3]))


def _first(keys: set[int], n: int, atoms: Sequence) -> list[frozenset]:
    """The atom sets of the first `n` model `keys`, in the order of their
    sorted rendered atoms, which does not depend on string hashing."""
    return sorted([compiler.atoms_of_key(k, atoms) for k in keys], key=answer_set_sort_key)[:n]


def check_normal_projection(models: Iterable[int], normal_sets: Sequence[int],
                            atoms: Sequence) -> CheckReport:
    """Dropping the probability/reward/value rules must preserve the set of
    occ-projections: `models` are the keys (`compiler.atoms_of_key` over
    `atoms`) of the completion models of the annotated answer sets,
    `normal_sets` those of the normal program's answer sets."""
    occ = sum(1 << i for i, a in enumerate(atoms) if a[0] == "occ")
    annotated = {k & occ for k in models}
    normal = {k & occ for k in normal_sets}
    missing = annotated - normal
    extra = normal - annotated
    examples = [f"annotated-only: {sorted(map(render_atom, k))}" for k in _first(missing, 3, atoms)] \
        + [f"normal-only: {sorted(map(render_atom, k))}" for k in _first(extra, 3, atoms)]
    return CheckReport(
        name="normal-projection-equivalence", ok=not examples,
        detail=f"{len(annotated)} occ-projections on each side" if not examples
        else f"{len(missing)} missing, {len(extra)} extra",
        counterexamples=tuple(examples))


def check_sat_models(models: Mapping[int, int], normal_sets: Sequence[int],
                     atoms: Sequence) -> CheckReport:
    """The keys over `atoms` of the CNF `models` of a normal program, each with
    the number of times it was listed, must be those of its answer sets
    `normal_sets`, one-to-one: none listed twice, none missing, none extra."""
    expected = set(normal_sets)
    missing = expected - models.keys()
    extra = models.keys() - expected
    examples = [f"answer-set-only: {sorted(map(render_atom, k))[:6]}" for k in _first(missing, 2, atoms)] \
        + [f"model-only: {sorted(map(render_atom, k))[:6]}" for k in _first(extra, 2, atoms)]
    duplicated = sum(models.values()) - len(models)
    ok = not examples and not duplicated
    if ok:
        detail = f"{len(models)} models = {len(expected)} answer sets"
    else:
        detail = f"{len(missing)} missing, {len(extra)} extra"
        if duplicated:
            detail += f", {duplicated} of {sum(models.values())} models repeated"
    return CheckReport(name="sat-model-equivalence", ok=ok, detail=detail,
                       counterexamples=tuple(examples))


class _Reading:
    """One reading of the layered `answer_sets` that counts, in `models`,
    each one's completion model key.  Its length is the number read, which
    `perfbench/spans.py` records."""

    def __init__(self, answer_sets: Iterable[tuple[Layer, ...]]):
        self.answer_sets, self.models = answer_sets, {}

    def __iter__(self) -> Iterator[tuple[Layer, ...]]:
        for layers in self.answer_sets:
            key = sum(layer.key for layer in layers)
            self.models[key] = self.models.get(key, 0) + 1
            yield layers

    def __len__(self) -> int:
        return sum(self.models.values())


def cross_check(run: Run) -> list[CheckReport]:
    """The four equivalence checks on the stages of `run`, from one reading of
    its answer sets, none of which it keeps: checks 1 and 2 read one sum per
    stationary valid trajectory, checks 3 and 4 the completion models."""
    theory = run.theory
    reading = _Reading(run.iter_layers())
    values: dict[tuple, Fraction] = {}
    for report in valid_reports(theory, reading, run.horizon):
        if stationary_action_map(theory, report) is not None:
            key = _trajectory_key(report.states, report.occ)
            values[key] = values.get(key, _ZERO) + report.value
    policy_count = oracle.count_policies(theory, run.horizon, run.initial)
    return [
        check_trajectories(values.keys(), run.oracle_walk.keys()),
        check_policy_values(values, run.oracle_walk, policy_count),
        check_normal_projection(reading.models, run.normal_sets, run.cnf.atoms),
        check_sat_models(reading.models, run.normal_sets, run.cnf.atoms),
    ]
