"""Action theories: domain types, concrete-syntax parser, validation, grounding.

A theory declares boolean fluents, an initial belief (list of formula/probability
entries), per-action executability, stochastic non-sensing ("causes") and sensing
("observes") actions, a discount factor, and an optional goal formula.

Literals are plain strings: "tl" is positive, "-tl" its complement.  Formulas are
frozensets of literal strings; the empty set denotes true.  Probabilities and
rewards are exact `Fraction`s throughout.  Identifiers starting with an uppercase
letter are variables; a variable ranges over the object domain declared under the
same name.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from . import ApoError, Record, set_field


class ParseError(ApoError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class GroundingError(ApoError):
    pass


# ---------------------------------------------------------------------------
# literals and formulas


def negate(lit: str) -> str:
    return lit[1:] if lit.startswith("-") else "-" + lit


def fluent_of(lit: str) -> str:
    return lit[1:] if lit.startswith("-") else lit


def is_consistent(formula: Iterable[str]) -> bool:
    formula = set(formula)
    return not any(negate(l) in formula for l in formula)


def render_formula(formula: Iterable[str]) -> str:
    return "{" + ", ".join(sorted(formula)) + "}"


_VARIABLE = re.compile(r"\b[A-Z]\w*")  # a name or argument that starts uppercase


def lit_variables(lit: str) -> set[str]:
    return set(_VARIABLE.findall(lit))


def substitute_lit(lit: str, binding: dict[str, str]) -> str:
    return _VARIABLE.sub(lambda m: binding.get(m[0], m[0]), lit)


def substitute_formula(formula: frozenset[str], binding: dict[str, str]) -> frozenset[str]:
    return frozenset(substitute_lit(l, binding) for l in formula)


# ---------------------------------------------------------------------------
# domain types


class InitialEntry(Record):
    __slots__ = ("formula", "prob")

    def __init__(self, formula: frozenset[str], prob: Fraction):
        set_field(self, "formula", formula)
        set_field(self, "prob", prob)


class SubOutcome(Record):
    """`id` is the action name and a 1-based index, e.g. "listen_1";
    `effect` holds the caused literals, or the sensor-report literals;
    `condition` is the "if" formula, or the sensed correlate.  Whether the
    outcome is caused or observed is its action's `kind`."""
    __slots__ = ("id", "effect", "prob", "reward", "condition")

    def __init__(self, id: str, effect: frozenset[str],
                 prob: Fraction, reward: Fraction, condition: frozenset[str]):
        set_field(self, "id", id)
        set_field(self, "effect", effect)
        set_field(self, "prob", prob)
        set_field(self, "reward", reward)
        set_field(self, "condition", condition)


def _sub_outcomes(action: str, outcomes: Iterable[tuple]) -> tuple[SubOutcome, ...]:
    """The sub-outcomes of `action`, numbered from 1, from (effect, prob,
    reward, condition) tuples."""
    return tuple(SubOutcome(id=f"{action}_{i}", effect=eff, prob=p, reward=r,
                            condition=cond)
                 for i, (eff, p, r, cond) in enumerate(outcomes, start=1))


class ActionDecl(Record):
    __slots__ = ("name", "kind", "outcomes", "executability")

    def __init__(self, name: str, kind: str, outcomes: tuple[SubOutcome, ...],
                 executability: frozenset[str]):
        set_field(self, "name", name)
        set_field(self, "kind", kind)            # "sensing" | "non-sensing"
        set_field(self, "outcomes", outcomes)
        set_field(self, "executability", executability)


class ActionTheory(Record):
    __slots__ = ("fluents", "domains", "initial", "actions", "discount", "goal")

    def __init__(self, fluents: tuple[str, ...],
                 domains: tuple[tuple[str, tuple[str, ...]], ...],
                 initial: tuple[InitialEntry, ...], actions: tuple[ActionDecl, ...],
                 discount: Fraction, goal: Optional[frozenset[str]] = None):
        set_field(self, "fluents", fluents)
        set_field(self, "domains", domains)
        set_field(self, "initial", initial)
        set_field(self, "actions", actions)
        set_field(self, "discount", discount)
        set_field(self, "goal", goal)

    def action(self, name: str) -> ActionDecl:
        for a in self.actions:
            if a.name == name:
                return a
        raise KeyError(name)

    def sub_outcome(self, sub_id: str) -> tuple[ActionDecl, SubOutcome]:
        for a in self.actions:
            for o in a.outcomes:
                if o.id == sub_id:
                    return a, o
        raise KeyError(sub_id)

    @property
    def domain_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.domains)

    @property
    def literals(self) -> tuple[str, ...]:
        out = []
        for f in self.fluents:
            out.append(f)
            out.append("-" + f)
        return tuple(out)


class Violation(Record):
    __slots__ = ("decl", "rule", "message")

    def __init__(self, decl: str, rule: str, message: str):
        set_field(self, "decl", decl)
        set_field(self, "rule", rule)
        set_field(self, "message", message)

    def to_json(self) -> dict:
        return {"decl": self.decl, "rule": self.rule, "message": self.message}


class ValidationReport(Record):
    __slots__ = ("violations", "theory")

    def __init__(self, violations: tuple[Violation, ...], theory: Optional[ActionTheory]):
        set_field(self, "violations", violations)
        set_field(self, "theory", theory)

    def __bool__(self) -> bool:  # truthy when valid
        return not self.violations

    def summary(self) -> str:  # each violation as "rule: message"
        return "; ".join(f"{v.rule}: {v.message}" for v in self.violations)

    def to_json(self) -> list[dict]:
        return [v.to_json() for v in self.violations]


# ---------------------------------------------------------------------------
# tokenizer


_KEYWORDS = {
    "fluent", "domain", "initially", "executable", "if",
    "action", "causes", "observes", "sensing", "discount", "goal",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*|%[^\n]*)
  | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}(),.;:=-])
    """,
    re.VERBOSE,
)


class _Token(Record):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        set_field(self, "kind", kind)    # "number" | "ident" | punct char | "eof"
        set_field(self, "text", text)
        set_field(self, "line", line)
        set_field(self, "column", column)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "punct":
            tokens.append(_Token(chunk, chunk, line, col))
        elif kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def error(self, message: str):
        raise ParseError(message, self.tok.line, self.tok.column)

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        if self.tok.kind != kind:
            self.error(f"expected {kind!r}, found {self.tok.text!r}")
        return self.advance()

    def expect_keyword(self, word: str):
        if not (self.tok.kind == "ident" and self.tok.text == word):
            self.error(f"expected {word!r}, found {self.tok.text!r}")
        self.advance()

    def at_keyword(self, word: str) -> bool:
        return self.tok.kind == "ident" and self.tok.text == word

    # -- grammar ------------------------------------------------------------

    def parse_theory(self) -> ActionTheory:
        fluents: list[str] = []
        domains: list[tuple[str, tuple[str, ...]]] = []
        initial: Optional[tuple[InitialEntry, ...]] = None
        discount: Optional[Fraction] = None
        goal: Optional[frozenset[str]] = None
        exec_conds: dict[str, frozenset[str]] = {}
        exec_at: dict[str, _Token] = {}  # action name -> its `executable` token
        raw_actions: list[tuple[str, str, list]] = []

        while self.tok.kind != "eof":
            if self.at_keyword("fluent"):
                self.advance()
                for name in self.name_list():
                    if name in fluents:
                        self.error(f"duplicate fluent declaration {name!r}")
                    fluents.append(name)
                self.expect(".")
            elif self.at_keyword("domain"):
                self.advance()
                name = self.expect("ident").text
                if name in dict(domains):
                    self.error(f"duplicate domain declaration {name!r}")
                self.expect("=")
                self.expect("{")
                consts = self.name_list()
                self.expect("}")
                self.expect(".")
                domains.append((name, tuple(consts)))
            elif self.at_keyword("initially"):
                if initial is not None:
                    self.error("duplicate initially declaration")
                self.advance()
                entries = [self.initial_entry()]
                while self.tok.kind == ";":
                    self.advance()
                    entries.append(self.initial_entry())
                self.expect(".")
                initial = tuple(entries)
            elif self.at_keyword("executable"):
                tok = self.advance()
                name = self.atom_name()
                self.expect_keyword("if")
                cond = self.formula()
                self.expect(".")
                if name in exec_conds:
                    self.error(f"duplicate executability declaration for {name!r}")
                exec_conds[name] = cond
                exec_at[name] = tok
            elif self.at_keyword("action"):
                self.advance()
                name = self.atom_name()
                if any(name == n for n, _, _ in raw_actions):
                    self.error(f"duplicate action declaration {name!r}")
                if not (self.at_keyword("causes") or self.at_keyword("observes")):
                    self.error("expected 'causes' or 'observes'")
                mode = self.advance().text
                outcomes = [self.outcome(mode)]
                while self.tok.kind == ";":
                    self.advance()
                    outcomes.append(self.outcome(mode))
                self.expect(".")
                raw_actions.append((name, mode, outcomes))
            elif self.at_keyword("discount"):
                if discount is not None:
                    self.error("duplicate discount declaration")
                self.advance()
                discount = self.number()
                self.expect(".")
            elif self.at_keyword("goal"):
                if goal is not None:
                    self.error("duplicate goal declaration")
                self.advance()
                goal = self.formula()
                self.expect(".")
            else:
                self.error(f"unexpected token {self.tok.text!r}")

        declared = {name for name, _, _ in raw_actions}
        for name, tok in exec_at.items():
            if name not in declared:
                raise ParseError(f"executability declared for undeclared action {name!r}",
                                 tok.line, tok.column)
        actions = []
        for name, mode, outcomes in raw_actions:
            kind = "sensing" if mode == "observes" else "non-sensing"
            actions.append(ActionDecl(
                name=name, kind=kind, outcomes=_sub_outcomes(name, outcomes),
                executability=exec_conds.get(name, frozenset()),
            ))
        return ActionTheory(
            fluents=tuple(fluents),
            domains=tuple(domains),
            initial=initial or (),
            actions=tuple(actions),
            discount=discount if discount is not None else Fraction(0),
            goal=goal,
        )

    def name_list(self) -> list[str]:
        names = [self.atom_name()]
        while self.tok.kind == ",":
            self.advance()
            names.append(self.atom_name())
        return names

    def atom_name(self) -> str:
        name = self.expect("ident").text
        if self.tok.kind == "(":
            self.advance()
            args = [self.expect("ident").text]
            while self.tok.kind == ",":
                self.advance()
                args.append(self.expect("ident").text)
            self.expect(")")
            name += f"({', '.join(args)})"
        return name

    def literal(self) -> str:
        neg = False
        if self.tok.kind == "-":
            self.advance()
            neg = True
        name = self.atom_name()
        return "-" + name if neg else name

    def formula(self) -> frozenset[str]:
        tok = self.tok
        self.expect("{")
        lits = []
        if self.tok.kind != "}":
            lits.append(self.literal())
            while self.tok.kind == ",":
                self.advance()
                lits.append(self.literal())
        self.expect("}")
        formula = frozenset(lits)
        if not is_consistent(formula):
            raise ParseError("inconsistent formula (complementary literals)",
                             tok.line, tok.column)
        return formula

    def number(self) -> Fraction:
        neg = False
        if self.tok.kind == "-":
            self.advance()
            neg = True
        tok = self.expect("number")
        text = tok.text
        if "/" in text:
            num, den = text.split("/")
            if not Fraction(den):
                raise ParseError(f"zero denominator in {text}", tok.line, tok.column)
            value = Fraction(num) / Fraction(den)
        else:
            value = Fraction(text)
        return -value if neg else value

    def initial_entry(self) -> InitialEntry:
        formula = self.formula()
        self.expect(":")
        return InitialEntry(formula=formula, prob=self.number())

    def outcome(self, mode: str) -> tuple:
        effect = self.formula()
        self.expect(":")
        prob = self.number()
        self.expect(":")
        reward = self.number()
        self.expect_keyword("if" if mode == "causes" else "sensing")
        condition = self.formula()
        return (effect, prob, reward, condition)


def parse_theory(text: str) -> ActionTheory:
    """Parse a `.apo` theory, reporting line/column on malformed input."""
    return _Parser(text).parse_theory()


# ---------------------------------------------------------------------------
# serialization (inverse of parse_theory on ASTs)


def serialize_theory(theory: ActionTheory) -> str:
    lines = []
    if theory.fluents:
        lines.append("fluent " + ", ".join(theory.fluents) + ".")
    for name, consts in theory.domains:
        lines.append(f"domain {name} = {{{', '.join(consts)}}}.")
    if theory.initial:
        entries = " ; ".join(
            f"{render_formula(e.formula)} : {e.prob}"
            for e in theory.initial
        )
        lines.append(f"initially {entries}.")
    for a in theory.actions:
        lines.append(f"executable {a.name} if {render_formula(a.executability)}.")
    for a in theory.actions:
        kw = "causes" if a.kind == "non-sensing" else "observes"
        cond_kw = "if" if a.kind == "non-sensing" else "sensing"
        parts = [
            f"{render_formula(o.effect)} : {o.prob} : "
            f"{o.reward} {cond_kw} {render_formula(o.condition)}"
            for o in a.outcomes
        ]
        lines.append(f"action {a.name} {kw} " + " ; ".join(parts) + ".")
    lines.append(f"discount {theory.discount}.")
    if theory.goal is not None:
        lines.append(f"goal {render_formula(theory.goal)}.")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# grounding


def formula_variables(formula: Iterable[str]) -> set[str]:
    return set().union(*map(lit_variables, formula))


def theory_variables(theory: ActionTheory) -> set[str]:
    vs = formula_variables(theory.fluents)
    for e in theory.initial:
        vs |= formula_variables(e.formula)
    for a in theory.actions:
        vs |= lit_variables(a.name) | formula_variables(a.executability)
        for o in a.outcomes:
            vs |= formula_variables(o.effect | o.condition)
    if theory.goal:
        vs |= formula_variables(theory.goal)
    return vs


def _bindings(variables: Iterable[str], domains: dict[str, tuple[str, ...]]) -> Iterator[dict[str, str]]:
    variables = sorted(variables)
    for v in variables:
        if v not in domains:
            raise GroundingError(f"no domain for {v}")
    pools = [domains[v] for v in variables]
    for combo in itertools.product(*pools):
        yield dict(zip(variables, combo))


def ground_theory(theory: ActionTheory) -> ActionTheory:
    """Substitute every variable by every constant of its same-named domain.

    Grounding an already-ground theory returns it unchanged.
    """
    if not theory_variables(theory):
        return theory
    domains = theory.domain_map

    fluents: list[str] = []
    for f in theory.fluents:
        vs = lit_variables(f)
        if vs:
            for b in _bindings(vs, domains):
                g = substitute_lit(f, b)
                if g not in fluents:
                    fluents.append(g)
        elif f not in fluents:
            fluents.append(f)

    initial = []
    for e in theory.initial:
        if formula_variables(e.formula):
            raise GroundingError("variables are not supported in initial-belief formulas")
        initial.append(e)

    actions = []
    for a in theory.actions:
        action_vars = lit_variables(a.name)
        name_bindings = list(_bindings(action_vars, domains)) if action_vars else [{}]
        for nb in name_bindings:
            name = substitute_lit(a.name, nb)
            execu = substitute_formula(a.executability, nb)
            if formula_variables(execu):
                raise GroundingError(
                    f"executability of {name} has variables not bound by the action name")
            ground_outcomes: list[tuple] = []
            for o in a.outcomes:
                vs = formula_variables(substitute_formula(o.effect | o.condition, nb))
                for b in _bindings(vs, domains) if vs else [{}]:
                    full = dict(nb, **b)
                    ground_outcomes.append((
                        substitute_formula(o.effect, full),
                        o.prob, o.reward,
                        substitute_formula(o.condition, full),
                    ))
            actions.append(ActionDecl(name=name, kind=a.kind,
                                      outcomes=_sub_outcomes(name, ground_outcomes),
                                      executability=execu))

    if formula_variables(theory.goal or ()):
        raise GroundingError("variables are not supported in the goal formula")

    return theory.replace(fluents=tuple(fluents), initial=tuple(initial),
                          actions=tuple(actions))


# ---------------------------------------------------------------------------
# sensing correlations and initial-state closure


def _sensing_literals(theory: ActionTheory, formula_of) -> frozenset[str]:
    """Literals that (or whose complement) appear in `formula_of(o)` for some
    sensing outcome o."""
    lits: set[str] = set()
    for a in theory.actions:
        if a.kind != "sensing":
            continue
        for o in a.outcomes:
            for l in formula_of(o):
                lits.add(l)
                lits.add(negate(l))
    return frozenset(lits)


def report_literals(theory: ActionTheory) -> frozenset[str]:
    """Literals that (or whose complement) appear in some sensing-outcome effect."""
    return _sensing_literals(theory, lambda o: o.effect)


def reading_literals(theory: ActionTheory) -> frozenset[str]:
    """Literals that (or whose complement) appear in some sensing condition."""
    return _sensing_literals(theory, lambda o: o.condition)


def sensing_groups(theory: ActionTheory) -> list[tuple[frozenset[str], tuple[SubOutcome, ...]]]:
    """Sensing outcomes grouped by (action, condition), in declaration order."""
    groups = []
    for a in theory.actions:
        if a.kind != "sensing":
            continue
        seen: dict[frozenset[str], list[SubOutcome]] = {}
        for o in a.outcomes:
            seen.setdefault(o.condition, []).append(o)
        for cond, outs in seen.items():
            groups.append((cond, tuple(outs)))
    return groups


def close_initial_formula(theory: ActionTheory, formula: frozenset[str]) -> frozenset[str]:
    """Close an initial formula under sensing correlations.

    For every sensing condition contained in the formula, the report literals of
    the highest-probability outcome sharing that condition are added.  Iterates
    to a fixpoint so chained correlations resolve.
    """
    closed = set(formula)
    groups = sensing_groups(theory)
    changed = True
    while changed:
        changed = False
        for cond, outs in groups:
            if cond and cond <= closed:
                best = max(outs, key=lambda o: o.prob)
                for l in best.effect:
                    if l not in closed:
                        closed.add(l)
                        changed = True
    return frozenset(closed)


# ---------------------------------------------------------------------------
# validation


def _uncovered(fluents: Sequence[str], formulas: list[frozenset[str]],
               within: frozenset[str]) -> Optional[frozenset[str]]:
    """The first complete state over `fluents`, positive literals first in their
    order, that holds `within` and none of `formulas`, or None.  Only the fluents
    these formulas mention are walked; the first state sets the rest positive."""
    mentioned = {fluent_of(l) for formula in formulas + [within] for l in formula}
    walked = [f for f in fluents if f in mentioned]
    rest = frozenset(fluents) - mentioned
    for signs in itertools.product((True, False), repeat=len(walked)):
        state = frozenset(f if pos else "-" + f for f, pos in zip(walked, signs)) | rest
        if within <= state and not any(f <= state for f in formulas):
            return state
    return None


def validate_theory(theory: ActionTheory) -> ValidationReport:
    """Ground `theory` and check it.  The report holds the ground theory, None
    if grounding failed; violations are data, not exceptions."""
    violations: list[Violation] = []
    try:
        ground = ground_theory(theory)
    except GroundingError as e:
        return ValidationReport((Violation("theory", "grounding", str(e)),), None)

    def bad(decl: str, rule: str, message: str):
        violations.append(Violation(decl, rule, message))

    if not (0 <= ground.discount < 1):
        bad("discount", "discount-range", "discount out of range [0,1)")

    known = set(ground.fluents)
    def check_lits(decl: str, formula: Iterable[str]):
        for l in formula:
            if fluent_of(l) not in known:
                bad(decl, "undeclared-fluent", f"literal {l} references an undeclared fluent")

    for e in ground.initial:
        check_lits("initially", e.formula)
    for a in ground.actions:
        check_lits(a.name, a.executability)
        for o in a.outcomes:
            check_lits(o.id, o.effect)
            check_lits(o.id, o.condition)
    if ground.goal:
        check_lits("goal", ground.goal)
    if violations:
        return ValidationReport(tuple(violations), ground)

    total = sum((e.prob for e in ground.initial), Fraction(0))
    if total != 1:
        bad("initially", "initial-prob-sum", f"initial probabilities sum to {total}")
    for e in ground.initial:
        if not (0 <= e.prob <= 1):
            bad("initially", "prob-range", f"probability {e.prob} out of [0,1]")
    for e1, e2 in itertools.combinations(ground.initial, 2):
        if not any(negate(l) in e2.formula for l in e1.formula):
            bad("initially", "initial-mutual-exclusion",
                f"formulas {render_formula(e1.formula)} and {render_formula(e2.formula)} "
                "are not mutually exclusive")

    for e in ground.initial:
        closed = close_initial_formula(ground, e.formula)
        if not is_consistent(closed):
            bad("initially", "initial-closure-consistency",
                f"closure of {render_formula(e.formula)} is inconsistent")
        elif {fluent_of(l) for l in closed} != known:
            bad("initially", "initial-completeness",
                f"closure of {render_formula(e.formula)} does not determine a complete state")

    names = [a.name for a in ground.actions]
    if len(names) != len(set(names)):
        bad("theory", "action-uniqueness", "action names are not unique")
    ids = [o.id for a in ground.actions for o in a.outcomes]
    if len(ids) != len(set(ids)):
        bad("theory", "outcome-uniqueness", "sub-outcome ids are not unique")

    state = _uncovered(ground.fluents, [a.executability for a in ground.actions], frozenset())
    if state is not None:
        bad("theory", "executability-exhaustiveness",
            f"no action is executable in state {render_formula(state)}")
    for a in ground.actions:
        per_cond: dict[frozenset[str], Fraction] = {}
        for o in a.outcomes:
            if not (0 <= o.prob <= 1):
                bad(o.id, "prob-range", f"probability {o.prob} out of [0,1]")
            per_cond[o.condition] = per_cond.get(o.condition, Fraction(0)) + o.prob
        for cond, s in per_cond.items():
            if s != 1:
                bad(a.name, "condition-prob-sum",
                    f"probabilities for condition {render_formula(cond)} sum to {s}")
        conds = list(per_cond)
        for c1, c2 in itertools.combinations(conds, 2):
            # every fluent is declared, so some complete state holds both
            # conditions exactly when their union is consistent
            if is_consistent(c1 | c2):
                bad(a.name, "condition-mutual-exclusion",
                    f"conditions {render_formula(c1)} and {render_formula(c2)} "
                    "both hold in some state")
        state = _uncovered(ground.fluents, conds, a.executability)
        if state is not None:
            bad(a.name, "condition-exhaustiveness",
                f"no outcome condition holds in state {render_formula(state)}")
        if a.kind == "sensing":
            for cond in conds:
                effects = [o.effect for o in a.outcomes if o.condition == cond]
                for f1, f2 in itertools.combinations(effects, 2):
                    if not any(negate(l) in f2 for l in f1):
                        bad(a.name, "report-mutual-exclusion",
                            f"reports {render_formula(f1)} and {render_formula(f2)} "
                            f"for condition {render_formula(cond)} are not mutually exclusive")
                mentioned = sorted({fluent_of(l) for f in effects for l in f})
                combo = _uncovered(mentioned, effects, frozenset())
                if combo is not None:
                    bad(a.name, "report-exhaustiveness",
                        f"reports for condition {render_formula(cond)} do not cover "
                        f"{render_formula(combo)}")

    return ValidationReport(tuple(violations), ground)
