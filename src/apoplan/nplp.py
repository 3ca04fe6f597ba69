"""Ground annotated logic programs and their probabilistic answer sets.

Rules attach probability annotations to atoms; several firings deriving the
same atom are combined by max, the one composition rule (in the programs that
`compiler.compile_theory` emits each annotated atom fires at most once per
answer set, so no other disjunctive strategy would change an answer set).
Answer sets are computed guess-and-check: boolean guesses over negated atoms,
least-model fixpoint of the corresponding reduct, and a consistency check of the
guess against the fixpoint.  The CLI gets the answer sets of compiled programs
from `compiler.annotated_answer_sets` instead, which decodes them from SAT
models and calls `least_model` once per model, and the normal answer sets
from the boolean search in `compiler.normal_answer_sets`; the search here is
the reference that `annotated_answer_sets` is tested against.

Atoms are tuples `(pred, arg, ...)`; arguments are strings, ints, Fractions, or
(in rule patterns) term variables; a head may also carry `Add`/`Mul` terms over
variables its body binds.  An annotation variable on a body atom binds to the
atom's exact current probability, so product annotations like `p * U` propagate
probabilities along rule chains, and arithmetic in head terms (value
bookkeeping) is evaluated at firing time.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional

Atom = tuple


class NplpError(Exception):
    pass


# ---------------------------------------------------------------------------
# terms and annotations


@dataclass(frozen=True)
class Ref:
    """Variable reference (term or annotation variable, by name)."""
    name: str


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Add:
    parts: tuple


@dataclass(frozen=True)
class Mul:
    parts: tuple


Ground = str | int | Fraction


def eval_expr(expr, env: Mapping[str, Fraction]) -> Fraction:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Ref):
        try:
            v = env[expr.name]
        except KeyError:
            raise NplpError(f"unbound variable {expr.name}") from None
        if not isinstance(v, (int, Fraction)):
            raise NplpError(f"variable {expr.name} bound to non-numeric {v!r}")
        return Fraction(v)
    if isinstance(expr, Add):
        return sum((eval_expr(p, env) for p in expr.parts), Fraction(0))
    if isinstance(expr, Mul):
        out = Fraction(1)
        for p in expr.parts:
            out *= eval_expr(p, env)
        return out
    raise NplpError(f"cannot evaluate {expr!r}")


# annotations ---------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class AVar:
    name: str


@dataclass(frozen=True)
class AProd:
    parts: tuple  # of annotations


Annotation = Const | AVar | AProd

ONE = Const(Fraction(1))


def eval_annotation(ann: Annotation, env: Mapping[str, Fraction]) -> Fraction:
    if isinstance(ann, Const):
        return ann.value
    if isinstance(ann, AVar):
        try:
            return env[ann.name]
        except KeyError:
            raise NplpError(f"unbound annotation variable {ann.name}") from None
    out = Fraction(1)
    for p in ann.parts:
        out *= eval_annotation(p, env)
    return out


# ---------------------------------------------------------------------------
# rules and programs


@dataclass(frozen=True)
class BLit:
    atom: Atom
    ann: Annotation = ONE
    neg: bool = False


@dataclass(frozen=True)
class NpRule:
    head: Atom
    head_ann: Annotation = ONE
    body: tuple[BLit, ...] = ()
    schema: Optional[str] = None  # compiler provenance tag

    def positive(self) -> "NpRule":
        return replace(self, body=tuple(b for b in self.body if not b.neg))


@dataclass(frozen=True)
class NpProgram:
    rules: tuple[NpRule, ...]


PInterpretation = dict  # ground atom -> Fraction; absent atoms are 0


def atom_is_ground(atom: Atom) -> bool:
    return all(isinstance(a, (str, int, Fraction)) for a in atom[1:])


def render_term(t) -> str:
    if isinstance(t, Num):
        return str(t.value)
    if isinstance(t, Ref):
        return t.name
    if isinstance(t, Add):
        out = render_term(t.parts[0])
        for p in t.parts[1:]:
            s = render_term(p)
            out += " - " + s[1:] if s.startswith("-") else " + " + s
        return out
    if isinstance(t, Mul):
        return "*".join(
            f"({render_term(p)})" if isinstance(p, Add) else render_term(p)
            for p in t.parts)
    return str(t)


def render_atom(atom: Atom) -> str:
    if len(atom) == 1:
        return atom[0]
    return f"{atom[0]}({', '.join(render_term(a) for a in atom[1:])})"


def render_annotation(ann: Annotation) -> str:
    if isinstance(ann, Const):
        return str(ann.value)
    if isinstance(ann, AVar):
        return ann.name
    return "*".join(render_annotation(p) for p in ann.parts)


def format_rule(rule: NpRule) -> str:
    """One rule per line, e.g. `state(1) : 17/20*U <- state(0) : U, occ(a, 0).`;
    annotations equal to 1 are omitted."""
    head = render_atom(rule.head)
    if rule.head_ann != ONE:
        head += " : " + render_annotation(rule.head_ann)
    if not rule.body:
        text = head + "."
    else:
        parts = []
        for lit in rule.body:
            s = render_atom(lit.atom)
            if lit.ann != ONE:
                s += " : " + render_annotation(lit.ann)
            if lit.neg:
                s = "not " + s
            parts.append(s)
        text = head + " <- " + ", ".join(parts) + "."
    if rule.schema is not None:
        text += f"  % schema {rule.schema}"
    return text


def format_program(program: NpProgram) -> str:
    return "\n".join(format_rule(r) for r in program.rules) + "\n"


def answer_set_sort_key(h: PInterpretation) -> list[str]:
    """The order in which answer sets are listed: by their sorted rendered
    atoms."""
    return sorted(render_atom(a) for a in h)


def atom_sort_key(atom: Atom):
    return tuple((type(a).__name__, str(a)) for a in atom)


def _substitute_atom(atom: Atom, binding: Mapping[str, Ground]) -> Atom:
    return (atom[0], *(binding.get(a.name, a) if isinstance(a, Ref) else a
                       for a in atom[1:]))


# ---------------------------------------------------------------------------
# satisfaction


def satisfies(h: Mapping[Atom, Fraction], atom: Atom, mu: Fraction,
              negated: bool = False) -> bool:
    """mu <= h(atom) for positive literals; mu not<= h(atom) for negated ones."""
    value = h.get(atom, Fraction(0))
    return (mu > value) if negated else (mu <= value)


def _iter_rule_firings(rule: NpRule, h: Mapping[Atom, Fraction],
                       atoms_by_pred: Mapping[str, Iterable[Atom]],
                       ) -> Iterator[tuple[tuple, Atom, Fraction]]:
    """Yield (key, head_atom, head_value) for every maximal-binding match of the
    rule's positive body against h whose negated literals are also satisfied."""

    def step(i: int, env: dict, key: list):
        if i == len(rule.body):
            # bound Refs are substituted; a Ref left over is unbound and
            # eval_expr reports it
            head = tuple(eval_expr(a, env) if isinstance(a, (Add, Mul, Ref)) else a
                         for a in _substitute_atom(rule.head, env))
            value = eval_annotation(rule.head_ann, env)
            if not (0 <= value <= 1):
                raise NplpError(
                    f"annotation of {render_atom(head)} evaluates to {value}, outside [0,1]")
            yield (tuple(key), head, value)
            return
        lit = rule.body[i]
        atom = _substitute_atom(lit.atom, env)
        if lit.neg:
            if not atom_is_ground(atom):
                raise NplpError("negated literals must be ground")
            mu = eval_annotation(lit.ann, env)
            if satisfies(h, atom, mu, negated=True):
                yield from step(i + 1, env, key)
            return
        candidates: Iterable[Atom]
        if atom_is_ground(atom):
            candidates = (atom,)
        else:
            candidates = [c for c in atoms_by_pred.get(atom[0], ())
                          if len(c) == len(atom) and _matches(atom, c)]
        for cand in candidates:
            env2 = _bind(atom, cand, env)
            if env2 is None:
                continue
            value = h.get(cand, Fraction(0))
            ann = lit.ann
            if isinstance(ann, AVar) and ann.name not in env2:
                env2 = dict(env2)
                env2[ann.name] = value  # exact (maximal) binding
            elif eval_annotation(ann, env2) > value:
                continue
            key.append(cand)
            yield from step(i + 1, env2, key)
            key.pop()

    yield from step(0, {}, [])


def _matches(pattern: Atom, ground: Atom) -> bool:
    for p, g in zip(pattern[1:], ground[1:]):
        if isinstance(p, (str, int, Fraction)) and p != g:
            return False
    return True


def _bind(pattern: Atom, ground: Atom, env: dict) -> Optional[dict]:
    out = env
    for p, g in zip(pattern[1:], ground[1:]):
        if isinstance(p, Ref):
            if p.name in out:
                if out[p.name] != g:
                    return None
            else:
                if out is env:
                    out = dict(env)
                out[p.name] = g
        elif p != g:
            return None
    return out


def satisfies_program(h: Mapping[Atom, Fraction], program: NpProgram) -> bool:
    """h satisfies every rule: no firing's head value exceeds h of its head,
    which under max composition bounds the composed contribution too."""
    atoms_by_pred: dict[str, list[Atom]] = {}
    for atom in h:
        atoms_by_pred.setdefault(atom[0], []).append(atom)
    return all(satisfies(h, head, value)
               for rule in program.rules
               for _, head, value in _iter_rule_firings(rule, h, atoms_by_pred))


# ---------------------------------------------------------------------------
# reduct


def reduct(program: NpProgram, h: Mapping[Atom, Fraction]) -> NpProgram:
    """Keep a rule iff every negated literal is satisfied under h; strip negation."""
    kept = []
    for rule in program.rules:
        ok = True
        for lit in rule.body:
            if lit.neg:
                if not atom_is_ground(lit.atom):
                    raise NplpError("negated literals must be ground")
                mu = eval_annotation(lit.ann, {})
                if not satisfies(h, lit.atom, mu, negated=True):
                    ok = False
                    break
        if ok:
            kept.append(rule.positive())
    return replace(program, rules=tuple(kept))


# ---------------------------------------------------------------------------
# least-model fixpoint engine


class _Engine:
    """Incremental least-model computation with firing revision tracking.

    Each firing is keyed by the tuple of body atoms it matched, so re-firing a
    rule instance after an upstream probability changed replaces (rather than
    accumulates with) its earlier contribution, and head atoms whose term
    arguments shifted are revised away.

    Clones share inner containers copy-on-write: `rule_firings` entries are
    replaced (never mutated) in `run`, while `contribs` / `atoms_by_pred` /
    trigger entries are copied on first write after a clone, tracked by the
    `owned_*` key sets.
    """

    def __init__(self):
        self.rules: list[NpRule] = []
        self.h: dict[Atom, Fraction] = {}
        self.atoms_by_pred: dict[str, set[Atom]] = {}
        self.rule_firings: list[dict] = []      # rule id -> {key: (atom, value)}
        self.contribs: dict[Atom, dict] = {}    # atom -> {(rule, key): value}
        self.ground_triggers: dict[Atom, set[int]] = {}
        self.pred_triggers: dict[str, set[int]] = {}
        self.dirty: deque[int] = deque()
        self.dirty_set: set[int] = set()
        self.ground_fast: list = []  # rule id -> (body_atoms, anns, head, value) or None
        self.owned_contribs: set = None  # None = everything owned (no live clone)
        self.owned_preds: set = None
        self.owned_triggers: set = None
        self.evals = 0

    def clone(self) -> "_Engine":
        other = _Engine.__new__(_Engine)
        other.rules = list(self.rules)
        other.h = dict(self.h)
        other.atoms_by_pred = dict(self.atoms_by_pred)
        other.ground_fast = list(self.ground_fast)
        other.rule_firings = list(self.rule_firings)
        other.contribs = dict(self.contribs)
        other.ground_triggers = dict(self.ground_triggers)
        other.pred_triggers = dict(self.pred_triggers)
        other.dirty = deque(self.dirty)
        other.dirty_set = set(self.dirty_set)
        other.evals = 0
        self.owned_contribs = set()
        self.owned_preds = set()
        self.owned_triggers = set()
        other.owned_contribs = set()
        other.owned_preds = set()
        other.owned_triggers = set()
        return other

    def _own_contrib(self, atom) -> dict:
        entry = self.contribs.get(atom)
        if entry is None:
            entry = {}
            self.contribs[atom] = entry
            if self.owned_contribs is not None:
                self.owned_contribs.add(atom)
        elif self.owned_contribs is not None and atom not in self.owned_contribs:
            entry = dict(entry)
            self.contribs[atom] = entry
            self.owned_contribs.add(atom)
        return entry

    def _own_pred(self, pred) -> set:
        entry = self.atoms_by_pred.get(pred)
        if entry is None:
            entry = set()
            self.atoms_by_pred[pred] = entry
            if self.owned_preds is not None:
                self.owned_preds.add(pred)
        elif self.owned_preds is not None and pred not in self.owned_preds:
            entry = set(entry)
            self.atoms_by_pred[pred] = entry
            self.owned_preds.add(pred)
        return entry

    def _own_trigger(self, table: dict, key) -> set:
        entry = table.get(key)
        if entry is None:
            entry = set()
            table[key] = entry
            if self.owned_triggers is not None:
                self.owned_triggers.add((id(table), key))
        elif (self.owned_triggers is not None
              and (id(table), key) not in self.owned_triggers):
            entry = set(entry)
            table[key] = entry
            self.owned_triggers.add((id(table), key))
        return entry

    def add_rule(self, rule: NpRule):
        if any(b.neg for b in rule.body):
            raise NplpError("engine rules must be negation-free")
        rid = len(self.rules)
        self.rules.append(rule)
        self.rule_firings.append({})
        fast = None
        if (atom_is_ground(rule.head) and isinstance(rule.head_ann, Const)
                and all(atom_is_ground(b.atom) and isinstance(b.ann, Const)
                        for b in rule.body)):
            if not (0 <= rule.head_ann.value <= 1):
                raise NplpError(
                    f"annotation of {render_atom(rule.head)} is "
                    f"{rule.head_ann.value}, outside [0,1]")
            fast = (tuple(b.atom for b in rule.body),
                    tuple(b.ann.value for b in rule.body),
                    rule.head, rule.head_ann.value)
        self.ground_fast.append(fast)
        for lit in rule.body:
            if atom_is_ground(lit.atom):
                self._own_trigger(self.ground_triggers, lit.atom).add(rid)
            else:
                self._own_trigger(self.pred_triggers, lit.atom[0]).add(rid)
        self._mark(rid)

    def _mark(self, rid: int):
        if rid not in self.dirty_set:
            self.dirty_set.add(rid)
            self.dirty.append(rid)

    def _touch(self, atom: Atom):
        for rid in self.ground_triggers.get(atom, ()):
            self._mark(rid)
        for rid in self.pred_triggers.get(atom[0], ()):
            self._mark(rid)

    def _recompute(self, atom: Atom) -> bool:
        entries = self.contribs.get(atom)
        value = max(entries.values()) if entries else Fraction(0)
        old = self.h.get(atom, Fraction(0))
        if value == old:
            return False
        if value == 0:
            self.h.pop(atom, None)
            if self.atoms_by_pred.get(atom[0]):
                self._own_pred(atom[0]).discard(atom)
        else:
            self.h[atom] = value
            self._own_pred(atom[0]).add(atom)
        return True

    def run(self):
        cap = (len(self.rules) + len(self.h) + 10) * (len(self.rules) + 1)
        zero = Fraction(0)
        while self.dirty:
            rid = self.dirty.popleft()
            self.dirty_set.discard(rid)
            self.evals += 1
            if self.evals > cap:
                raise NplpError("least-model iteration cap exceeded (non-terminating program?)")
            fast = self.ground_fast[rid]
            if fast is not None:
                body_atoms, anns, head, value = fast
                h = self.h
                if all(mu <= h.get(a, zero) for a, mu in zip(body_atoms, anns)):
                    new = {body_atoms: (head, value)}
                else:
                    new = {}
            else:
                rule = self.rules[rid]
                new = {}
                for key, head, value in _iter_rule_firings(rule, self.h, self.atoms_by_pred):
                    new[key] = (head, value)
            old = self.rule_firings[rid]
            if new == old:
                continue
            changed_atoms = set()
            for key, (head, value) in old.items():
                if new.get(key) != (head, value):
                    if head in self.contribs:
                        entry = self._own_contrib(head)
                        entry.pop((rid, key), None)
                        if not entry:
                            del self.contribs[head]
                    changed_atoms.add(head)
            for key, (head, value) in new.items():
                if old.get(key) != (head, value):
                    self._own_contrib(head)[(rid, key)] = value
                    changed_atoms.add(head)
            self.rule_firings[rid] = new
            for atom in changed_atoms:
                if self._recompute(atom):
                    self._touch(atom)
        return self


def least_model(program: NpProgram) -> PInterpretation:
    """Least fixpoint of the one-step derivation operator, from all-zero."""
    engine = _Engine()
    for rule in program.rules:
        engine.add_rule(rule)
    engine.run()
    return dict(engine.h)


# ---------------------------------------------------------------------------
# answer-set enumeration (boolean-negation fragment)


def _negated_atoms(program: NpProgram) -> list[Atom]:
    negs: set[Atom] = set()
    for rule in program.rules:
        for lit in rule.body:
            if lit.neg:
                if not atom_is_ground(lit.atom):
                    raise NplpError("negated literals must be ground")
                if lit.ann != ONE:
                    raise NplpError(
                        "program outside the boolean-negation fragment: "
                        f"not {render_atom(lit.atom)} : {render_annotation(lit.ann)}")
                negs.add(lit.atom)
    return sorted(negs, key=atom_sort_key)


def _atom_stratum_key(atom: Atom):
    time = None
    for a in atom[1:]:
        if isinstance(a, int) and not isinstance(a, bool):
            time = a
    return (atom[0], time)


def _guess_groups(program: NpProgram, negs: list[Atom]) -> list[list[Atom]]:
    """Partition negated atoms into dependency groups, ordered so that every
    group's derivation is settled once it and its predecessors are guessed.

    Granularity is (predicate, time-argument); coarser than atom-level but a
    sound over-approximation of the dependency order.
    """
    edges: dict = {}
    keys: set = set()
    key_of = _atom_stratum_key

    for rule in program.rules:
        hk = key_of(rule.head)
        keys.add(hk)
        for lit in rule.body:
            bk = key_of(lit.atom)
            keys.add(bk)
            edges.setdefault(hk, set()).add(bk)

    # Tarjan SCC over the key graph, iterative.
    index: dict = {}
    low: dict = {}
    on: set = set()
    stack: list = []
    comp_of: dict = {}
    comps: list[list] = []
    counter = itertools.count()

    for root in sorted(keys, key=repr):
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()), key=repr)))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on.add(nxt)
                    work.append((nxt, iter(sorted(edges.get(nxt, ()), key=repr))))
                    advanced = True
                    break
                if nxt in on:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    k = stack.pop()
                    on.discard(k)
                    comp.append(k)
                    comp_of[k] = len(comps)
                    if k == node:
                        break
                comps.append(comp)

    # Tarjan emits components in reverse topological order of the condensation
    # along head -> body edges, i.e. dependencies (bodies) first.
    groups: list[list[Atom]] = []
    for ci in range(len(comps)):
        members = [a for a in negs if comp_of[_atom_stratum_key(a)] == ci]
        if members:
            groups.append(sorted(members, key=atom_sort_key))
    return groups


def _monotone_preds(program: NpProgram) -> set[str]:
    """Predicates whose atom values can only grow as rules are added and run.

    A predicate is monotone when every rule defining it carries only constant
    annotations and depends positively only on monotone predicates.  Values of
    such atoms are never revised downward, which licenses early pruning during
    guess-and-check."""
    defined = {r.head[0] for r in program.rules}
    mono = set(defined)
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            p = rule.head[0]
            if p not in mono:
                continue
            ok = isinstance(rule.head_ann, Const) and all(
                isinstance(b.ann, Const)
                and (b.neg or b.atom[0] in mono or b.atom[0] not in defined)
                for b in rule.body)
            if not ok:
                mono.discard(p)
                changed = True
    return mono


def enumerate_answer_sets(program: NpProgram) -> list[PInterpretation]:
    """All probabilistic answer sets of a boolean-negation-fragment program."""
    negs = _negated_atoms(program)
    groups = _guess_groups(program, negs)
    group_index = {atom: gi for gi, grp in enumerate(groups) for atom in grp}
    monotone = _monotone_preds(program)
    zero = Fraction(0)

    rules_by_stage: dict[int, list[NpRule]] = {}
    for rule in program.rules:
        stage = -1
        for lit in rule.body:
            if lit.neg:
                stage = max(stage, group_index[lit.atom])
        rules_by_stage.setdefault(stage, []).append(rule)

    base = _Engine()
    for rule in rules_by_stage.get(-1, ()):
        base.add_rule(rule.positive())
    base.run()

    results: dict = {}

    def dfs(stage: int, engine: _Engine, guess: dict[Atom, bool]):
        if stage == len(groups):
            for atom, val in guess.items():
                if (engine.h.get(atom, zero) >= 1) != val:
                    return
            h = dict(engine.h)
            results[frozenset(h.items())] = h
            return

        atoms = groups[stage]
        pos = {a: i for i, a in enumerate(atoms)}
        # a rule enters the engine once its last in-group negated atom is guessed
        ready: list[list[NpRule]] = [[] for _ in atoms]
        for rule in rules_by_stage.get(stage, ()):
            last = max(pos[b.atom] for b in rule.body
                       if b.neg and b.atom in pos)
            ready[last].append(rule)

        def assign(i: int, eng: _Engine, g: dict[Atom, bool]):
            if i == len(atoms):
                if all((eng.h.get(a, zero) >= 1) == g[a] for a in atoms):
                    dfs(stage + 1, eng, g)
                return
            atom = atoms[i]
            for value in (False, True):
                g2 = dict(g)
                g2[atom] = value
                e2 = eng.clone()
                for rule in ready[i]:
                    if all(not g2[b.atom] for b in rule.body if b.neg):
                        e2.add_rule(rule.positive())
                e2.run()
                # a monotone atom guessed out but already derived cannot recover
                if any(not g2[a] and a[0] in monotone and e2.h.get(a, zero) >= 1
                       for a in atoms[:i + 1]):
                    continue
                assign(i + 1, e2, g2)

        assign(0, engine, guess)

    dfs(0, base, {})
    return sorted(results.values(), key=answer_set_sort_key)
