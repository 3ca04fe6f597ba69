"""Three compilation stages for ground action theories.

1. `compile_theory` emits the annotated logic program whose answer sets encode
   trajectories, state probabilities, rewards, and running values.
2. `normalize` deletes the probability/reward/value bookkeeping rules, leaving a
   classical normal program over the same trajectory skeleton.
3. `to_sat` Clark-completes the (tight) normal program into CNF; `decode_model`
   maps SAT models back to atom sets.

Every emitted rule carries a schema tag so later stages can delete exactly the
right rule families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import oracle
from .nplp import (
    Add, AProd, AVar, Atom, BLit, Const, Mul, NpProgram, NpRule, Num, ONE,
    Ref, render_atom,
)
from .theory import (
    ActionTheory, ApoError, negate, reading_literals, report_literals,
    validate_theory,
)


class CompileError(ApoError):
    pass


# schema families removed when lowering to a classical normal program
_PROBABILITY_SCHEMAS = {"15", "18", "21", "22", "23", "24", "value-base", "factor"}


def _holds(lit: str, t: int) -> Atom:
    return ("holds", lit, t)


def _body(*atoms: Atom) -> tuple[BLit, ...]:
    return tuple(BLit(atom=a) for a in atoms)


def _holds_all(formula: Iterable[str], t: int) -> tuple[BLit, ...]:
    return tuple(BLit(atom=_holds(l, t)) for l in sorted(formula))


def compile_theory(theory: ActionTheory, horizon: int) -> NpProgram:
    """Emit the annotated program for `theory` with time grounded over
    0..horizon-1 (state atoms range up to `horizon`)."""
    if horizon < 1:
        raise CompileError("horizon must be at least 1")
    report = validate_theory(theory)
    if not report:
        msgs = "; ".join(v.message for v in report.violations)
        raise CompileError(f"invalid theory: {msgs}")

    rules: list[NpRule] = []

    def emit(schema: str, head: Atom, head_ann=ONE, body: tuple[BLit, ...] = ()):
        rules.append(NpRule(head=head, head_ann=head_ann, body=body, schema=schema))

    subs = [(a, o) for a in theory.actions for o in a.outcomes]

    # (6) sub-action facts; fluent facts and literal/contrary scaffolding (7)-(10)
    for _, o in subs:
        emit("6", ("action", o.id))
    for f in theory.fluents:
        emit("fluent", ("fluent", f))
    for f in theory.fluents:
        emit("7", ("literal", f), body=_body(("fluent", f)))
        emit("8", ("literal", "-" + f), body=_body(("fluent", f)))
        emit("9", ("contrary", f, "-" + f), body=_body(("fluent", f)))
        emit("10", ("contrary", "-" + f, f), body=_body(("fluent", f)))

    # initial states (11)-(15)
    init = oracle.initial_states(theory)
    states = [s for s, _ in init]
    inter = frozenset.intersection(*states) if states else frozenset()
    union = frozenset.union(*states) if states else frozenset()
    varying = union - inter
    reports = report_literals(theory)
    readings = reading_literals(theory)
    open_lits = sorted({l for l in union
                        if l in (varying - reports) or negate(l) in (varying - reports)})
    for l in sorted(inter):
        emit("11", _holds(l, 0))
    for l in open_lits:
        emit("12" if not l.startswith("-") else "13",
             _holds(l, 0), body=(BLit(atom=_holds(negate(l), 0), neg=True),))
    seen_pairs = set()
    for s in states:
        delta = frozenset(s & readings)
        gamma = frozenset(s & reports)
        if not gamma or (delta, gamma) in seen_pairs:
            continue
        seen_pairs.add((delta, gamma))
        # a report literal that is also read would head a rule whose body
        # holds it: such a rule changes no answer set, but it is a positive
        # cycle that makes the normal program non-tight
        for l in sorted(gamma - delta):
            emit("14", _holds(l, 0), body=_holds_all(delta, 0))
    for s, p in init:
        emit("15", ("state", 0), head_ann=Const(p), body=_holds_all(s, 0))

    lam = theory.discount
    for t in range(horizon):
        # (16) executability
        for a, o in subs:
            emit("16", ("exec", o.id, t), body=_holds_all(a.executability, t))
        # effects and probability chains
        for a, o in subs:
            occ_exec = _body(("occ", o.id, t), ("exec", o.id, t))
            if a.kind == "non-sensing":
                for l in sorted(o.effect):
                    emit("17", _holds(l, t + 1),
                         body=occ_exec + _holds_all(o.condition, t))
                emit("18", ("state", t + 1),
                     head_ann=AProd((Const(o.prob), AVar("U"))),
                     body=(BLit(atom=("state", t), ann=AVar("U")),)
                     + occ_exec + _holds_all(o.condition, t)
                     + _holds_all(o.effect, t + 1))
            else:
                observed = tuple(BLit(atom=("observed", l, t))
                                 for l in sorted(o.condition))
                for l in sorted(o.condition):
                    emit("19", ("observed", l, t),
                         body=occ_exec + _holds_all(o.condition, t))
                for l in sorted(o.effect):
                    emit("20", _holds(l, t + 1), body=occ_exec + observed)
                emit("21", ("state", t + 1),
                     head_ann=AProd((Const(o.prob), AVar("U"))),
                     body=(BLit(atom=("state", t), ann=AVar("U")),)
                     + occ_exec + observed + _holds_all(o.effect, t + 1))
            # (22) rewards
            emit("22", ("reward", o.reward, t + 1), body=occ_exec)
            # (23)/(24) value chain; the discount power is folded at ground time
            step = Mul((Num(lam ** t * o.reward), Ref("U")))
            value_head = ("value", Add((Ref("V"), step)), t + 1)
            common = (
                BLit(atom=("value", Ref("V"), t)),
                BLit(atom=("factor", lam)),
                BLit(atom=("state", t + 1), ann=AVar("U")),
                BLit(atom=("reward", o.reward, t + 1)),
            ) + occ_exec
            if a.kind == "non-sensing":
                emit("23", value_head,
                     body=common + _holds_all(o.condition, t) + _holds_all(o.effect, t + 1))
            else:
                emit("24", value_head,
                     body=common + observed + _holds_all(o.effect, t + 1))
        # (25) inertia
        for lit in theory.literals:
            emit("25", _holds(lit, t + 1), body=(
                BLit(atom=_holds(lit, t)),
                BLit(atom=_holds(negate(lit), t + 1), neg=True),
                BLit(atom=("contrary", lit, negate(lit))),
            ))
        # (27)/(28) one sub-action occurrence per step
        for _, o in subs:
            emit("27", ("occ", o.id, t), body=(
                BLit(atom=("action", o.id)),
                BLit(atom=("abocc", o.id, t), neg=True),
            ))
        for (_, oi), (_, oj) in itertools.permutations(subs, 2):
            emit("28", ("abocc", oi.id, t), body=_body(
                ("action", oi.id), ("action", oj.id), ("occ", oj.id, t)))

    # (26) consistency, over every time point including the horizon
    for t in range(horizon + 1):
        for f in theory.fluents:
            emit("26", ("inconsistent",), body=(
                BLit(atom=("inconsistent",), neg=True),
                BLit(atom=_holds(f, t)),
                BLit(atom=_holds("-" + f, t)),
            ))

    # (29) goal
    if theory.goal is not None:
        for t in range(horizon + 1):
            emit("29", ("goal",), body=_holds_all(theory.goal, t))

    # value-chain base facts
    emit("value-base", ("value", Fraction(0), 0))
    emit("factor", ("factor", lam))

    return NpProgram(rules=tuple(rules))


# ---------------------------------------------------------------------------
# stage 2: classical normal program


@dataclass(frozen=True)
class NormalProgram:
    rules: tuple[tuple[Atom, tuple[Atom, ...], tuple[Atom, ...]], ...]

    def atoms(self) -> set[Atom]:
        out: set[Atom] = set()
        for head, pos, neg in self.rules:
            out.add(head)
            out.update(pos)
            out.update(neg)
        return out


def normalize(program: NpProgram) -> NormalProgram:
    """Delete the probability/reward/value rule families and strip the (then
    all-1) annotations, yielding a classical normal program."""
    out = []
    for rule in program.rules:
        if rule.schema is None:
            raise CompileError("rule without schema provenance; "
                               "normalize applies to compiler output only")
        if rule.schema in _PROBABILITY_SCHEMAS:
            continue
        if rule.head_ann != ONE or any(b.ann != ONE for b in rule.body):
            raise CompileError(
                f"non-unit annotation survives outside the deleted schemas: "
                f"{render_atom(rule.head)}")
        pos = tuple(b.atom for b in rule.body if not b.neg)
        neg = tuple(b.atom for b in rule.body if b.neg)
        out.append((rule.head, pos, neg))
    return NormalProgram(rules=tuple(out))


def normal_answer_sets(program: NormalProgram) -> list[frozenset]:
    """Classical answer sets, via the probabilistic machinery on 1-annotations."""
    from .nplp import enumerate_answer_sets
    np_rules = tuple(
        NpRule(head=head,
               body=tuple(BLit(atom=a) for a in pos)
               + tuple(BLit(atom=a, neg=True) for a in neg),
               schema="normal")
        for head, pos, neg in program.rules
    )
    models = enumerate_answer_sets(NpProgram(rules=np_rules))
    return [frozenset(a for a, v in h.items() if v >= 1) for h in models]


# ---------------------------------------------------------------------------
# stage 3: SAT via Clark completion


@dataclass(frozen=True)
class CnfFormula:
    clauses: tuple[tuple[int, ...], ...]
    atoms: tuple[Atom, ...]          # atoms[i] <-> variable i+1

    @property
    def variable_count(self) -> int:
        return len(self.atoms)

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.variable_count} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"

    def atom_map_json(self) -> list[dict]:
        return [{"var": i + 1, "atom": render_atom(a)}
                for i, a in enumerate(self.atoms)]


class NonTightError(CompileError):
    def __init__(self, cycle):
        super().__init__(
            "positive dependency cycle: " + " -> ".join(render_atom(a) for a in cycle))
        self.cycle = cycle


def check_tight(program: NormalProgram):
    """Reject programs whose positive dependency graph has a cycle."""
    edges: dict[Atom, set[Atom]] = {}
    for head, pos, _ in program.rules:
        edges.setdefault(head, set()).update(pos)
    state: dict[Atom, int] = {}  # 1 = on stack, 2 = done
    path: list[Atom] = []

    def visit(atom: Atom):
        state[atom] = 1
        path.append(atom)
        for nxt in sorted(edges.get(atom, ()), key=repr):
            mark = state.get(nxt)
            if mark == 1:
                cycle = path[path.index(nxt):] + [nxt]
                raise NonTightError(tuple(cycle))
            if mark is None:
                visit(nxt)
        path.pop()
        state[atom] = 2

    for atom in sorted(edges, key=repr):
        if atom not in state:
            visit(atom)


def to_sat(program: NormalProgram) -> CnfFormula:
    """Clark completion of a tight normal program, clausified without auxiliary
    variables so CNF models correspond one-to-one to atom sets.

    Each rule gives the forward clause `body -> head`.  The only-if direction
    `head -> body_1 v ... v body_k` is distributed into one clause per choice
    of a literal from each body, so its size is the product of the body
    lengths.  Two reductions keep that product small:

    - Atoms forced true by negation-free rules (facts and their closure) are
      pinned by unit clauses and dropped from bodies, which removes
      always-true guard atoms.
    - A body containing `not head` is false whenever the head is true, so it
      is left out of the head's only-if clauses without changing the formula.
      When every body is left out the product is empty and the head gets the
      unit clause `-head`.  This keeps constraint rules such as
      `inconsistent <- not inconsistent, holds(f, t), holds(-f, t)` from
      multiplying into 3^(bodies) clauses; the CNF grows linearly with the
      horizon."""
    check_tight(program)
    atoms = sorted(program.atoms(), key=render_atom)
    var = {a: i + 1 for i, a in enumerate(atoms)}

    # closure of the definite (negation-free) fragment
    forced: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for head, pos, neg in program.rules:
            if head not in forced and not neg and all(p in forced for p in pos):
                forced.add(head)
                changed = True

    bodies: dict[Atom, list[tuple[tuple[Atom, ...], tuple[Atom, ...]]]] = {a: [] for a in atoms}
    for head, pos, neg in program.rules:
        if any(n in forced for n in neg):
            continue  # body unsatisfiable in every model
        bodies[head].append((tuple(p for p in pos if p not in forced), neg))

    clauses: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def add(clause: Iterable[int]):
        lits = tuple(sorted(set(clause), key=abs))
        if any(-l in lits for l in lits):
            return
        if lits not in seen:
            seen.add(lits)
            clauses.append(lits)

    for atom in atoms:
        if atom in forced:
            add((var[atom],))
            continue
        defs = bodies[atom]
        a = var[atom]
        if not defs:
            add((-a,))
            continue
        # body -> atom
        for pos, neg in defs:
            add([a] + [-var[p] for p in pos] + [var[n] for n in neg])
        # atom -> some body not containing `not atom`: distribute over one
        # literal per body
        options = [[var[p] for p in pos] + [-var[n] for n in neg]
                   for pos, neg in defs if atom not in neg]
        if any(not o for o in options):
            continue  # a fact: the only-if direction is trivially true
        for combo in itertools.product(*options):
            add([-a] + list(combo))

    return CnfFormula(clauses=tuple(clauses), atoms=tuple(atoms))


def decode_model(model: Mapping[int, bool], cnf: CnfFormula) -> frozenset:
    """True-atom set of a total SAT model."""
    missing = [i + 1 for i in range(cnf.variable_count) if (i + 1) not in model]
    if missing:
        raise CompileError(f"model leaves variables unassigned: {missing[:5]}")
    return frozenset(a for i, a in enumerate(cnf.atoms) if model[i + 1])


def encode_atom_set(atoms: frozenset, cnf: CnfFormula) -> dict[int, bool]:
    return {i + 1: (a in atoms) for i, a in enumerate(cnf.atoms)}
