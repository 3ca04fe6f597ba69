"""Three compilation stages for ground action theories, and the annotated
answer sets decoded from the last one.

1. `compile_theory` emits the annotated logic program whose answer sets encode
   trajectories, state probabilities, rewards, and running values.
2. `normalize` deletes the probability/reward/value bookkeeping rules, leaving a
   classical normal program over the same trajectory skeleton.
3. `to_sat` Clark-completes the (tight) normal program into CNF.

`normal_answer_sets` lists the answer sets of the normal program by a search
of its own, so the checks can compare it with the completion.
`iter_answer_set_layers` derives the annotated answer sets one time step
(layer) at a time, each layer's completion clauses searched once per value of
the earlier variables they read.  `policies.Run` chains these stages.

Every emitted rule carries a schema tag so later stages can delete exactly the
right rule families.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import ApoError, Record, sat, set_field
from .nplp import (
    GROUND_TERMS, Add, Atom, BLit, Mul, NpProgram, NpRule, Num, ONE, Ref,
    atom_is_ground, can_match, iter_rule_firings, render_atom,
)
from .theory import (
    ValidationReport, close_initial_formula, negate, reading_literals,
    report_literals,
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


def compile_theory(report: ValidationReport, horizon: int) -> NpProgram:
    """Emit the annotated program for the ground theory of a passing
    `validate_theory` report, which it neither validates nor grounds again,
    with time grounded over 0..horizon-1 (state atoms range up to `horizon`)."""
    if horizon < 1:
        raise CompileError("horizon must be at least 1")
    if not report:
        raise CompileError(f"invalid theory: {report.summary()}")
    theory = report.theory

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

    # initial states (11)-(15); the theory is valid, so each closure is a
    # complete consistent state
    init = [(close_initial_formula(theory, e.formula), e.prob) for e in theory.initial]
    states = [s for s, _ in init]
    inter = frozenset.intersection(*states) if states else frozenset()
    union = frozenset.union(*states) if states else frozenset()
    varying = union - inter
    reports = report_literals(theory)
    readings = reading_literals(theory)
    # a varying literal is guessed unless schema 14 derives it: those are
    # the reported literals that no sensing condition reads
    open_lits = sorted(varying - (reports - readings))
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
        emit("15", ("state", 0), head_ann=Num(p), body=_holds_all(s, 0))

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
                     head_ann=Mul((Num(o.prob), Ref("U"))),
                     body=(BLit(atom=("state", t), ann=Ref("U")),)
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
                     head_ann=Mul((Num(o.prob), Ref("U"))),
                     body=(BLit(atom=("state", t), ann=Ref("U")),)
                     + occ_exec + observed + _holds_all(o.effect, t + 1))
            # (22) rewards
            emit("22", ("reward", o.reward, t + 1), body=occ_exec)
            # (23)/(24) value chain; the discount power is folded at ground time
            step = Mul((Num(lam ** t * o.reward), Ref("U")))
            value_head = ("value", Add((Ref("V"), step)), t + 1)
            common = (
                BLit(atom=("value", Ref("V"), t)),
                BLit(atom=("factor", lam)),
                BLit(atom=("state", t + 1), ann=Ref("U")),
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


class NormalProgram(Record):
    __slots__ = ("rules",)

    def __init__(self,
                 rules: tuple[tuple[Atom, tuple[Atom, ...], tuple[Atom, ...]], ...]):
        set_field(self, "rules", rules)

    def atoms(self) -> set[Atom]:
        return {a for head, pos, neg in self.rules for a in (head, *pos, *neg)}


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
        # most annotations are ONE itself, which `is` tells faster than `==`
        if any(a is not ONE and a != ONE for a in (rule.head_ann, *(b.ann for b in rule.body))):
            raise CompileError(
                f"non-unit annotation survives outside the deleted schemas: "
                f"{render_atom(rule.head)}")
        pos = tuple(b.atom for b in rule.body if not b.neg)
        neg = tuple(b.atom for b in rule.body if b.neg)
        out.append((rule.head, pos, neg))
    return NormalProgram(rules=tuple(out))


def normal_answer_sets(program: NormalProgram) -> list[int]:
    """All answer sets of a tight normal program, in search order, each as a
    key whose bit i is atom i in `render_atom` order, as `to_sat` numbers
    them (`atoms_of_key`).

    A boolean search over the negated atoms that uses neither the completion
    nor the annotated least models, so the checks that compare its result with
    theirs compare independent computations.  Each node keeps two bounds on
    the answer sets below it (Simons, Niemelä and Soininen 2002): the lower
    bound, the least model of the rules whose negated atoms are all false,
    with a count per rule of the body literals it still needs; and the upper
    bound, the least model of the rules none of whose negated atoms is true,
    with a count per atom of the rules that still support it (dropping an
    atom at 0 gives that least model because the program is tight).  A
    negated atom that enters the lower bound is true and one that leaves the
    upper bound is false; a true atom that leaves the upper bound, or a false
    one that enters the lower bound, ends the branch.  Once every negated
    atom is assigned the two bounds are one set, the answer set."""
    check_tight(program)
    atoms = sorted(program.atoms(), key=render_atom)
    index = {a: i for i, a in enumerate(atoms)}
    n = len(atoms)
    heads: list[int] = []
    pos_occ: list[list[int]] = [[] for _ in atoms]
    neg_occ: list[list[int]] = [[] for _ in atoms]
    # per rule, what keeps it out of the lower bound: body atoms outside it,
    # negated atoms not false, and 1 until the search starts
    need: list[int] = []
    # per rule, what keeps it out of the upper bound: body atoms outside it
    # and negated atoms that are true
    gone: list[int] = []
    for r, (head, pos, neg) in enumerate(program.rules):
        heads.append(index[head])
        pos_ids = {index[a] for a in pos}
        neg_ids = {index[a] for a in neg}
        for i in pos_ids:
            pos_occ[i].append(r)
        for i in neg_ids:
            neg_occ[i].append(r)
        need.append(len(pos_ids) + len(neg_ids) + 1)
        gone.append(len(pos_ids))
    negated = [i for i in range(n) if neg_occ[i]]

    # the upper bound with nothing assigned: the least model of the rules
    # with their negated atoms ignored
    support = [0] * n
    queue = [r for r in range(len(heads)) if not gone[r]]
    while queue:
        h = heads[queue.pop()]
        support[h] += 1
        if support[h] == 1:
            for r in pos_occ[h]:
                gone[r] -= 1
                if not gone[r]:
                    queue.append(r)

    def propagate(value, low, need, gone, support, fire, kill) -> bool:
        """Settle the bounds after each rule in the lists on `fire` got one
        more thing it needs for the lower bound and each rule in the lists on
        `kill` lost one for the upper bound; False on a conflict.  `value` is
        1 for a true atom, -1 for a false one and 0 for an unassigned one."""
        while fire or kill:
            if fire:
                for r in fire.pop():
                    need[r] -= 1
                    h = heads[r]
                    if need[r] or low[h]:
                        continue
                    low[h] = True
                    if value[h] < 0:
                        return False
                    if not value[h] and neg_occ[h]:
                        value[h] = 1
                        kill.append(neg_occ[h])
                    fire.append(pos_occ[h])
            else:
                for r in kill.pop():
                    gone[r] += 1
                    if gone[r] > 1:
                        continue
                    h = heads[r]
                    support[h] -= 1
                    if support[h]:
                        continue
                    if value[h] > 0:
                        return False
                    if not value[h] and neg_occ[h]:
                        value[h] = -1
                        fire.append(neg_occ[h])
                    kill.append(pos_occ[h])
        return True

    value = [0] * n
    fire = [range(len(heads))]
    for a in negated:
        if not support[a]:
            value[a] = -1
            fire.append(neg_occ[a])
    state = (value, [False] * n, need, gone, support)
    stack = [state] if propagate(*state, fire, []) else []
    bits = [1 << i for i in range(n)]
    found: list[int] = []
    while stack:
        state = stack.pop()
        branch = next((a for a in negated if not state[0][a]), None)
        if branch is None:
            found.append(sum(itertools.compress(bits, state[1])))
            continue
        # an unassigned atom is inside the upper bound and outside the lower
        # one, so either value is consistent until propagation says otherwise
        for v in (1, -1):
            child = [s[:] for s in state]
            child[0][branch] = v
            # a true atom takes support from the rules that negate it, a
            # false one gives them one thing they need
            fire, kill = ([], [neg_occ[branch]]) if v > 0 else ([neg_occ[branch]], [])
            if propagate(*child, fire, kill):
                stack.append(child)

    return found


def atoms_of_key(key: int, atoms: Sequence[Atom]) -> frozenset:
    """The atoms of a model key: those `atoms[i]` whose bit i is set.  With
    the atoms of `to_sat`'s CNF, bit i is variable i + 1."""
    return frozenset(a for i, a in enumerate(atoms) if key >> i & 1)


# ---------------------------------------------------------------------------
# stage 3: SAT via Clark completion


class CnfFormula(Record):
    __slots__ = ("clauses", "atoms")

    def __init__(self, clauses: tuple[tuple[int, ...], ...], atoms: tuple[Atom, ...]):
        set_field(self, "clauses", clauses)
        set_field(self, "atoms", atoms)  # atoms[i] <-> variable i+1

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


def _depth_first_order(nodes: Iterable, successors, on_cycle) -> list:
    """The nodes in the post-order of a depth-first search that starts from
    each of `nodes` in turn and visits `successors(node)` in the order given.
    Reaching a node again while it is on the search path calls `on_cycle`
    with that cycle (its first node repeated at the end), which must raise."""
    state: dict = {}  # 1 = on the path, 2 = done
    path: list = []
    order: list = []

    def visit(node):
        state[node] = 1
        path.append(node)
        for nxt in successors(node):
            mark = state.get(nxt)
            if mark == 1:
                on_cycle(path[path.index(nxt):] + [nxt])
            if mark is None:
                visit(nxt)
        path.pop()
        state[node] = 2
        order.append(node)

    for node in nodes:
        if node not in state:
            visit(node)
    return order


def check_tight(program: NormalProgram):
    """Reject programs whose positive dependency graph has a cycle."""
    edges: dict[Atom, set[Atom]] = {}
    for head, pos, _ in program.rules:
        edges.setdefault(head, set()).update(pos)

    def cycle(atoms: list[Atom]):
        raise NonTightError(tuple(atoms))

    _depth_first_order(sorted(edges, key=repr),
                       lambda atom: sorted(edges.get(atom, ()), key=repr), cycle)


def to_sat(program: NormalProgram) -> CnfFormula:
    """Clark completion of a tight normal program, clausified without auxiliary
    variables so CNF models correspond one-to-one to atom sets.

    Each rule gives the forward clause `body -> head`.  The only-if direction
    `head -> body_1 v ... v body_k` is distributed into one clause per choice
    of a literal from each body.  Two reductions keep that product small.
    Atoms forced true by negation-free rules are pinned by unit clauses and
    dropped from bodies.  A body containing `not head` is false whenever the
    head is true, so it is left out of the head's only-if clauses; when every
    body is, the head gets the unit clause `-head`.  Constraint rules such as
    `inconsistent <- not inconsistent, holds(f, t), holds(-f, t)` then add no
    3^(bodies) clauses, and the CNF grows linearly with the horizon."""
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


# ---------------------------------------------------------------------------
# annotated answer sets from completion models


def probability_rules(program: NpProgram) -> list[tuple]:
    """The probability-family rules of a compiled program as `(guard,
    remainder)` pairs, a rule after every rule whose head can match one of
    its body atoms.  The guard is the set of normal atoms its body requires;
    the remainder, the rule over the atoms the families derive (`state`,
    `value`, `factor`, `reward`), which `nplp.iter_rule_firings` fires."""
    def fail(message: str):
        raise CompileError(f"annotated answer sets: {message}")

    untagged = [r for r in program.rules if r.schema is None]
    if untagged:
        fail(f"rule for {render_atom(untagged[0].head)} has no schema tag")
    family = [r for r in program.rules if r.schema in _PROBABILITY_SCHEMAS]
    derived = {r.head[0] for r in family}
    for rule in program.rules:
        if rule.schema in _PROBABILITY_SCHEMAS:
            continue
        if rule.head[0] in derived or any(b.atom[0] in derived for b in rule.body):
            fail(f"schema {rule.schema} rule for {render_atom(rule.head)} "
                 f"uses atoms of the probability families")
    indexed = []
    for rule in family:
        guard, rest = [], []
        for lit in rule.body:
            if lit.neg:
                fail(f"schema {rule.schema} rule for {render_atom(rule.head)} "
                     f"has the negated literal not {render_atom(lit.atom)}")
            if lit.atom[0] in derived:
                rest.append(lit)
            elif atom_is_ground(lit.atom) and (lit.ann is ONE or lit.ann == ONE):
                guard.append(lit.atom)
            else:
                fail(f"schema {rule.schema} rule for {render_atom(rule.head)} "
                     f"has the guard {render_atom(lit.atom)}, which is not a "
                     f"ground atom annotated 1")
        indexed.append((frozenset(guard),
                        NpRule(head=rule.head, head_ann=rule.head_ann,
                               body=tuple(rest), schema=rule.schema)))

    feeders = _feeders(indexed)
    order = _depth_first_order(
        range(len(indexed)), feeders.__getitem__,
        lambda cycle: fail("the probability rules for "
                           + " -> ".join(render_atom(indexed[k][1].head) for k in cycle)
                           + " feed each other"))
    return [indexed[j] for j in order]


def _feeders(rules: Sequence[tuple]) -> list[list[int]]:
    """Per rule of `rules`, `(guard, remainder)` pairs, the positions of the
    rules whose head can match one of its body atoms, in order.  The heads
    are indexed by predicate and ground last argument (the time step), so a
    body atom is tested only against the heads that can agree with it."""
    def last(atom: Atom):
        return atom[-1] if len(atom) > 1 and isinstance(atom[-1], GROUND_TERMS) else None

    heads: dict[str, dict] = {}
    for i, (_, rule) in enumerate(rules):
        heads.setdefault(rule.head[0], {}).setdefault(last(rule.head), []).append(i)

    def fed(atom: Atom) -> set[int]:
        by_last, t = heads.get(atom[0], {}), last(atom)
        groups = by_last.values() if t is None else (by_last.get(t, ()), by_last.get(None, ()))
        return {i for group in groups for i in group if can_match(atom, rules[i][1].head)}

    return [sorted(set().union(*(fed(lit.atom) for lit in rule.body))) for _, rule in rules]


# the predicates of the normal atoms whose last argument is a time step
_STEP_PREDICATES = frozenset({"holds", "occ", "abocc", "exec", "observed"})


def _layer(atom: Atom) -> int:
    """The layer of a normal atom: t for `holds(l, t)`, t + 1 for the other
    atoms of step t, which lead to it, and 0 for the atoms without a step."""
    if atom[0] not in _STEP_PREDICATES or not isinstance(atom[-1], int):
        return 0
    return atom[-1] + (atom[0] != "holds")


def _time_major(cnf: CnfFormula) -> CnfFormula:
    """`cnf` renumbered layer by layer (`_layer`), `occ` first within a layer,
    each group in the order of `cnf`.  The search then settles a trajectory
    one step after another, and each layer's variables are one slice of a
    model."""
    order = sorted(range(cnf.variable_count),
                   key=lambda i: (_layer(cnf.atoms[i]), cnf.atoms[i][0] != "occ", i))
    renumbered = [0] * (cnf.variable_count + 1)
    for new, old in enumerate(order, 1):
        renumbered[old + 1] = new
    clauses = tuple(tuple(renumbered[l] if l > 0 else -renumbered[-l] for l in clause)
                    for clause in cnf.clauses)
    return CnfFormula(clauses=clauses, atoms=tuple(cnf.atoms[i] for i in order))


# Layer t of an answer set (`_layer`): `atoms`, its true atoms; `key`, their
# bits (`atoms_of_key` over the CNF's atoms); `state` and `occ`, its holds
# literals and occ sub-outcome ids; `values`, the atoms derived up to it.
Layer = namedtuple("Layer", "atoms key state occ values")


def _frontier(clauses: list[tuple[int, ...]], first: int) -> list[int]:
    """The variables below `first` that `clauses` read, in order."""
    return sorted({abs(l) for clause in clauses for l in clause if abs(l) < first})


def iter_answer_set_layers(rules: list[tuple], cnf: CnfFormula,
                           ) -> Iterator[tuple[Layer, ...]]:
    """Yield each answer set of a compiled program once, as a tuple of one
    `Layer` per time step, from its `probability_rules` and the completion
    `cnf = to_sat(normalize(program))`, in the order in which
    `sat.enumerate_models` lists the models of `_time_major(cnf)`.

    The probability families have no negation and no other rule reads what
    they derive, so the normal atoms split the program (Lifschitz and Turner
    1994): an answer set is a model M of the completion (the normal program
    is tight: Fages 1994), its atoms at 1, joined with the least model of the
    family rules whose guards M holds: one pass over them in dependency
    order, each head keeping the max of its firings.

    A clause belongs to the layer of its latest variable; a rule to the
    latest among its guard atoms and the rules before it, which include
    those that feed it.  A search of a layer's clauses, the earlier variables
    fixed, lists its slices of a model once per value of its frontier, the
    earlier variables they read.  The walk extends the path depth first by
    each in the search's order, so the answer sets below a layer share it."""
    search = _time_major(cnf)
    atoms = search.atoms
    layer = [_layer(a) for a in atoms]  # nondecreasing, as `_time_major` orders them
    count = max(layer, default=0) + 1
    # per layer: its first variable, then one past the last
    bounds = [1 + bisect_left(layer, k) for k in range(count + 1)]
    # per layer: its atoms and key bits, and the places of its holds and occ
    # atoms among them
    layer_atoms = [atoms[lo - 1:hi - 1] for lo, hi in zip(bounds, bounds[1:])]
    bit = {a: 1 << i for i, a in enumerate(cnf.atoms)}
    layer_bits = [tuple(map(bit.__getitem__, a)) for a in layer_atoms]
    holds, occ = ([[(i, a[1]) for i, a in enumerate(group) if a[0] == pred]
                   for group in layer_atoms] for pred in ("holds", "occ"))

    var = {a: v for v, a in enumerate(atoms, 1)}
    # per layer, its rules with their guard variables, the occ one first
    rules_of: list[list[tuple]] = [[] for _ in range(count)]
    latest = 0
    for j, (guard, _) in enumerate(rules):
        vs = [var.get(a, 0) for a in guard]
        latest = max([latest] + [_layer(a) for a in guard if a in var])
        if 0 not in vs:  # else a guard atom that no model holds
            rules_of[latest].append((j, sorted(vs, key=lambda v: atoms[v - 1][0] != "occ")))

    # per layer, its clauses, and the slices they take per frontier value
    clauses_of: list[list[tuple]] = [[] for _ in range(count)]
    for clause in search.clauses:
        clauses_of[layer[max(map(abs, clause)) - 1]].append(clause)
    frontier = [_frontier(c, lo) for c, lo in zip(clauses_of, bounds)]
    slices_of: dict[tuple, list] = {}
    model: list = [None] * bounds[-1]  # the values of the path's layers
    constant: dict[int, list] = {}  # the firings of the rules whose bodies read nothing

    def walk(k: int, below: tuple[Layer, ...]) -> Iterator[tuple[Layer, ...]]:
        key = (k, tuple(map(model.__getitem__, frontier[k])))
        if key not in slices_of:
            units = [(v if model[v] else -v,) for v in range(1, bounds[k])]
            slices_of[key] = [m[bounds[k]:] for m in sat.enumerate_models(
                clauses_of[k] + units, bounds[k + 1] - 1)]
        for truth in slices_of[key]:  # none at a dead end
            model[bounds[k]:bounds[k + 1]] = truth
            values = below[-1].values if below else {}
            copied = False
            for j, vs in rules_of[k]:
                # most fail on their occ variable: another sub-outcome's
                if vs and not model[vs[0]] or not all(map(model.__getitem__, vs)):
                    continue
                rule = rules[j][1]
                fired = constant.get(j) or list(iter_rule_firings(rule, values))
                if not rule.body:
                    constant[j] = fired
                for head, value in fired:
                    old = values.get(head)
                    # an atom at 0 is absent, as in `nplp.least_model`
                    if not value if old is None else value <= old:
                        continue
                    if not copied:  # the layers below keep theirs
                        values, copied = dict(values), True
                    values[head] = value
            layers = below + (Layer(
                tuple(itertools.compress(layer_atoms[k], truth)),
                sum(itertools.compress(layer_bits[k], truth)),
                frozenset([lit for i, lit in holds[k] if truth[i]]),
                tuple([o for i, o in occ[k] if truth[i]]), values),)
            yield from walk(k + 1, layers) if k + 1 < count else (layers,)

    yield from walk(0, ())
