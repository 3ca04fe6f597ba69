"""Ground annotated logic programs and their probabilistic answer sets.

Rules attach probability annotations to atoms; several firings deriving the
same atom are combined by max, the one composition rule (in compiled programs
each annotated atom fires at most once per answer set).  An answer set is the
least model of the program's reduct by that set; `least_model` (Kleene
iteration) and `enumerate_answer_sets` (every set of negated atoms) are the
definitions, for tests.  The CLI gets its answer sets from
`compiler.iter_answer_set_layers`, which fires the probability rules through
`iter_rule_firings`, the one firing path, which reads nothing but the
interpretation; `answer_sets_json` sorts them by `answer_set_sort_key` and
writes them.

Atoms are tuples `(pred, arg, ...)`; arguments are strings, ints, Fractions, or
(in rule patterns) term variables.  Head terms and annotations are written in
one expression language, `Num`, `Ref`, `Add` and `Mul`, which `eval_expr`
evaluates and `render_term` renders; a term variable and an annotation
variable are one `Ref`, bound in one environment.  Where an expression sits
decides its role: a bare `Ref` that is still unbound in a body annotation
binds to the atom's exact current probability, so product annotations like
`p*U` propagate probabilities along rule chains; every other annotation is a
lower bound on the atom's value, and head annotations and arithmetic in head
terms (value bookkeeping) are evaluated at firing time.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional

from . import ApoError, Record, json_text, set_field

Atom = tuple


class NplpError(ApoError):
    pass


# ---------------------------------------------------------------------------
# expressions: head terms and annotations


class Ref(Record):
    """Variable reference (term or annotation variable, by name)."""
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class Num(Record):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        set_field(self, "value", value)


class Add(Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        set_field(self, "parts", parts)


class Mul(Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        set_field(self, "parts", parts)


GROUND_TERMS = (str, int, Fraction)  # the argument types of a ground atom


def eval_expr(expr, env: Mapping[str, Fraction]) -> Fraction:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Ref):
        try:
            v = env[expr.name]
        except KeyError:
            raise NplpError(f"unbound variable {expr.name}") from None
        if type(v) is Fraction:
            return v
        if not isinstance(v, (int, Fraction)):
            raise NplpError(f"variable {expr.name} bound to non-numeric {v!r}")
        return Fraction(v)
    if isinstance(expr, Add):
        return sum((eval_expr(p, env) for p in expr.parts), _ZERO)
    if isinstance(expr, Mul):
        out = Fraction(1)
        for p in expr.parts:
            out *= eval_expr(p, env)
        return out
    raise NplpError(f"cannot evaluate {expr!r}")


_ZERO = Fraction(0)
ONE = Num(Fraction(1))


def head_value(ann, head: Atom, env: Mapping[str, Fraction]) -> Fraction:
    """The value of the head annotation `ann` of a firing that derives `head`,
    which must lie in [0,1]."""
    value = eval_expr(ann, env)
    if not 0 <= value <= 1:
        raise NplpError(
            f"annotation of {render_atom(head)} evaluates to {value}, outside [0,1]")
    return value


# ---------------------------------------------------------------------------
# rules and programs


class BLit(Record):
    __slots__ = ("atom", "ann", "neg")

    def __init__(self, atom: Atom, ann=ONE, neg: bool = False):
        set_field(self, "atom", atom)
        set_field(self, "ann", ann)
        set_field(self, "neg", neg)


class NpRule(Record):
    __slots__ = ("head", "head_ann", "body", "schema")

    def __init__(self, head: Atom, head_ann=ONE,
                 body: tuple[BLit, ...] = (), schema: Optional[str] = None):
        set_field(self, "head", head)
        set_field(self, "head_ann", head_ann)
        set_field(self, "body", body)
        set_field(self, "schema", schema)  # compiler provenance tag

    def positive(self) -> "NpRule":
        return self.replace(body=tuple(b for b in self.body if not b.neg))


class NpProgram(Record):
    __slots__ = ("rules",)

    def __init__(self, rules: tuple[NpRule, ...]):
        set_field(self, "rules", rules)


PInterpretation = dict  # ground atom -> Fraction; absent atoms are 0


def atom_is_ground(atom: Atom) -> bool:
    return all(isinstance(a, GROUND_TERMS) for a in atom[1:])


def can_match(pattern: Atom, atom: Atom) -> bool:
    """Whether two atoms of one predicate can unify: the same arity, and equal
    arguments wherever both are ground."""
    if len(pattern) != len(atom):
        return False
    for p, a in zip(pattern[1:], atom[1:]):
        if isinstance(p, GROUND_TERMS) and isinstance(a, GROUND_TERMS) and p != a:
            return False
    return True


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


@functools.cache
def render_atom(atom: Atom) -> str:
    """The text of `atom`, rendered once per process for each distinct atom:
    atoms that compare equal, such as `("v", 1)` and `("v", Fraction(1))`,
    render alike."""
    if len(atom) == 1:
        return atom[0]
    return f"{atom[0]}({', '.join(render_term(a) for a in atom[1:])})"


def _annotated(atom: Atom, ann) -> str:
    """`atom : ann`, or the atom alone when its annotation is 1."""
    text = render_atom(atom)
    return text if ann == ONE else f"{text} : {render_term(ann)}"


def format_rule(rule: NpRule) -> str:
    """One rule per line, e.g. `state(1) : 17/20*U <- state(0) : U, occ(a, 0).`;
    annotations equal to 1 are omitted."""
    text = _annotated(rule.head, rule.head_ann)
    if rule.body:
        text += " <- " + ", ".join(
            ("not " if lit.neg else "") + _annotated(lit.atom, lit.ann)
            for lit in rule.body)
    text += "."
    if rule.schema is not None:
        text += f"  % schema {rule.schema}"
    return text


def format_program(program: NpProgram) -> str:
    return "\n".join(format_rule(r) for r in program.rules) + "\n"


def answer_set_sort_key(h: PInterpretation) -> list[str]:
    """The order in which answer sets are listed: by their sorted rendered
    atoms."""
    return sorted(render_atom(a) for a in h)


def _layered_atoms(layers: tuple) -> Iterator[Atom]:
    return chain(chain.from_iterable([layer.atoms for layer in layers]), layers[-1].values)


def _ranked(sets: list[tuple]) -> tuple[list[str], dict[int, int], list]:
    """The distinct renderings of the atoms of the answer sets `sets`, tuples
    of `compiler.Layer`s, in order; each atom's rank, the place of its
    rendering, by its id (hashing an atom that holds a Fraction is slow); and
    each set's sorted ranks, as an array (a third of a list's size).  Atoms
    that render alike share a rank, so rank arrays compare as the rendered
    lists do.  Consecutive answer sets share layers and `values` dicts, so
    each distinct one is read once for the ranks."""
    from array import array  # loaded only by the command that sorts
    parts = {id(layer): layer.atoms for layers in sets for layer in layers}
    parts.update((id(layers[-1].values), layers[-1].values) for layers in sets)
    distinct: dict[int, Atom] = {}
    for part in parts.values():
        distinct.update(zip(map(id, part), part))
    names = dict(zip(distinct, map(render_atom, distinct.values())))
    order = sorted(set(names.values()))
    place = {name: i for i, name in enumerate(order)}
    rank = {k: place[name] for k, name in names.items()}
    code = "H" if len(order) <= 1 << 16 else "L"
    return order, rank, [array(code, sorted(map(rank.__getitem__, map(id, _layered_atoms(h)))))
                         for h in sets]


def answer_sets_json(horizon: int, discount: Fraction, sets: list[tuple],
                     ) -> Iterator[str]:
    """The `solve` payload for `sets`, each answer set a tuple of
    `compiler.Layer`s (its layers' `atoms` at 1, then the last one's `values`),
    sorted by `answer_set_sort_key`, as `json.dumps(payload, indent=2) + "\n"`
    writes it, in chunks: the header, each answer set, and the footer.  Each
    distinct atom is rendered once, as is each value object; a set's sorted
    ranks are both its sort key and the order of its keys.  Each atom's line
    at `ONE.value` is made once."""
    names, rank, keys = _ranked(sets)
    quoted = ["      " + json_text(name) + ": " for name in names]
    one = ONE.value
    ones = [q + repr(float(one)) for q in quoted]  # as json writes a float
    text: dict[int, str] = {}
    header = json_text({"horizon": horizon, "discount": float(discount), "count": len(sets)})
    yield header[:-2] + ',\n  "answer_sets": ['
    for n, i in enumerate(sorted(range(len(sets)), key=keys.__getitem__)):
        layers, order = sets[i], keys[i]
        h = layers[-1].values
        alike = len(set(order)) < len(order)
        if alike:  # of two atoms that render alike, the later one is written, once
            h = {**dict.fromkeys(_layered_atoms(layers), one), **h}
        lines = {rank[id(a)]: quoted[rank[id(a)]] + (
                     text.get(id(v)) or text.setdefault(id(v), repr(float(v))))
                 for a, v in h.items()}
        order = sorted(lines) if alike else order
        body = ",\n".join(map(lines.get, order, map(ones.__getitem__, order)))
        yield ("\n    " if n == 0 else ",\n    ") + ("{\n" + body + "\n    }" if body else "{}")
    yield "\n  ]\n}\n" if sets else "]\n}\n"


def _substitute_atom(atom: Atom, binding: Mapping) -> Atom:
    if not binding:
        return atom
    return (atom[0], *[binding.get(a.name, a) if isinstance(a, Ref) else a for a in atom[1:]])


# ---------------------------------------------------------------------------
# satisfaction


def satisfies(h: Mapping[Atom, Fraction], atom: Atom, mu: Fraction,
              negated: bool = False) -> bool:
    """mu <= h(atom) for positive literals; mu not<= h(atom) for negated ones."""
    value = h.get(atom, Fraction(0))
    return (mu > value) if negated else (mu <= value)


def iter_rule_firings(rule: NpRule, h: Mapping[Atom, Fraction],
                      ) -> Iterator[tuple[Atom, Fraction]]:
    """Yield (head_atom, head_value) for every maximal-binding match of the
    rule's body against h: a body atom with variables matches the atoms of h
    of its predicate and arity that bind them.  The body must be positive:
    the callers fire negation-free rules (`least_model`, the probability
    families), and a negated literal is refused rather than read."""
    return _firings(rule, h, 0, {})


def _firings(rule: NpRule, h: Mapping[Atom, Fraction], i: int, env: dict,
             ) -> Iterator[tuple[Atom, Fraction]]:
    """The firings of `rule` whose first `i` body literals bound `env`.  A
    module function, not a closure that calls itself: that would be a
    reference cycle per call, which only the cyclic garbage collector frees."""
    if i == len(rule.body):
        # bound Refs are substituted; a Ref left over is unbound and
        # eval_expr reports it
        head = tuple(eval_expr(a, env) if isinstance(a, (Add, Mul, Ref)) else a
                     for a in _substitute_atom(rule.head, env))
        yield head, head_value(rule.head_ann, head, env)
        return
    lit = rule.body[i]
    atom = _substitute_atom(lit.atom, env)
    if lit.neg:
        raise NplpError("rule firing needs a negation-free body")
    candidates: Iterable[Atom]
    if atom_is_ground(atom):
        candidates = (atom,)
    else:
        candidates = [c for c in h if c[0] == atom[0] and len(c) == len(atom)]
    for cand in candidates:
        env2 = env if cand is atom else _bind(atom, cand, env)
        if env2 is None:
            continue
        value = h.get(cand, _ZERO)
        ann = lit.ann
        if isinstance(ann, Ref) and ann.name not in env2:
            env2 = dict(env2)
            env2[ann.name] = value  # exact (maximal) binding
        elif eval_expr(ann, env2) > value:
            continue
        yield from _firings(rule, h, i + 1, env2)


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
                mu = eval_expr(lit.ann, {})
                if not satisfies(h, lit.atom, mu, negated=True):
                    ok = False
                    break
        if ok:
            kept.append(rule.positive())
    return program.replace(rules=tuple(kept))


# ---------------------------------------------------------------------------
# least model


def least_model(program: NpProgram) -> PInterpretation:
    """Least fixpoint of the one-step operator, from all-zero: each round
    fires the rules against the previous round's interpretation and every
    head keeps the max of its firings.  A round re-fires only the rules that
    read a predicate whose atoms changed in the round before; the others
    would fire as they did."""
    rules = program.rules
    # a rule reads a ground body atom itself and a pattern by its predicate
    readers: dict[Atom | str, set[int]] = {}
    for i, rule in enumerate(rules):
        for lit in rule.body:
            if lit.neg:
                raise NplpError("least_model needs a negation-free program")
            key = lit.atom if atom_is_ground(lit.atom) else lit.atom[0]
            readers.setdefault(key, set()).add(i)
    firings: list[dict[Atom, Fraction]] = [{} for _ in rules]
    h: PInterpretation = {}
    todo: Iterable[int] = range(len(rules))
    # a shortest derivation uses each ground rule at most once, so a ground
    # program settles within len(rules) + 1 rounds; rules with variables get
    # some slack, and a program still changing after that is taken to diverge
    limit = len(rules) + 10
    for _ in range(limit):
        for i in todo:
            fired = firings[i] = {}
            for head, value in iter_rule_firings(rules[i], h):
                if value > fired.get(head, 0):
                    fired[head] = value
        new: PInterpretation = {}
        for fired in firings:
            for head, value in fired.items():
                if value > new.get(head, 0):
                    new[head] = value
        changed = [a for a in h.keys() | new.keys() if h.get(a) != new.get(a)]
        if not changed:
            return h
        todo = sorted({i for a in changed for key in (a, a[0])
                       for i in readers.get(key, ())})
        h = new
    raise NplpError(f"least model still changing after {limit} rounds "
                    f"(non-terminating program?)")


# ---------------------------------------------------------------------------
# answer sets (boolean-negation fragment)


# enumerate_answer_sets computes one least model per subset of the negated
# atoms, so it refuses programs with more
MAX_NEGATED_ATOMS = 16


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
                        f"not {_annotated(lit.atom, lit.ann)}")
                negs.add(lit.atom)
    return sorted(negs, key=render_atom)


def enumerate_answer_sets(program: NpProgram) -> list[PInterpretation]:
    """All probabilistic answer sets of a boolean-negation-fragment program,
    by the definition: for each set G of negated atoms, the least model of the
    reduct by G is an answer set when its atoms at 1 among the negated atoms
    are exactly G.  Sorted by `answer_set_sort_key`."""
    negs = _negated_atoms(program)
    if len(negs) > MAX_NEGATED_ATOMS:
        raise NplpError(
            f"{len(negs)} negated atoms, more than {MAX_NEGATED_ATOMS}: "
            f"enumerate_answer_sets would compute 2^{len(negs)} least models")
    one = Fraction(1)
    found = []
    for mask in range(2 ** len(negs)):
        guess = {a: one for i, a in enumerate(negs) if mask >> i & 1}
        h = least_model(reduct(program, guess))
        if all((h.get(a, 0) >= 1) == (a in guess) for a in negs):
            found.append(h)
    return sorted(found, key=answer_set_sort_key)
