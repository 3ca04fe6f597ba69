"""Exhaustive model enumeration for clausal formulas, and a DIMACS parser.

Input is clausal: an iterable of integer tuples in DIMACS convention (positive
literal = variable true).  `enumerate_models` is a DPLL search without clause
learning: unit propagation on an assignment trail, and enumeration that
backtracks chronologically by flipping the most recent unflipped decision
(Gebser et al. 2007).  Branching is on the lowest unassigned variable, false
first, so models come out in lexicographic order.

Before the search, the formula is reduced to an equivalent one over the same
variables.  Unit propagation fixes what the unit clauses imply (level 0);
then every clause true at level 0 is dropped, every literal false at level 0
is removed, and every clause that contains another clause is dropped
(subsumption, as in SatELite: Een and Biere 2005).  Level 0 is never undone,
so each branch of the search sees the same constraints, through fewer
clauses: tiger at horizon 3 keeps 343 of its 570 (`BENCH_reduce.json`).

Propagating an assignment visits only the clauses that can become unit by it,
never the whole formula.  A 2-literal clause is kept as two implications, in
the implication list of each of its literals.  A longer clause watches two of
its literals (Moskewicz et al. 2001, Chaff) and sits in the watch list of
each; a watch list is rewritten only after one of its clauses moved its
watch.  Unit propagation reaches the same fixpoint, or a conflict, in any
order, so the order in which the lists are read does not change the models.

A model is a list indexed by variable, item v the bool value of variable v and
item 0 None: one slice of the literal-indexed truth array, whose first items
are the positive literals.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import ApoError


class SatError(ApoError):
    pass


def _index(clauses: list[list[int]], nvars: int,
           ) -> tuple[list[list[int]], list[list[list[int]]]]:
    """The literal-indexed implication and watch lists of `clauses`, none
    shorter than two literals: implied[lit] holds the literals that
    2-literal clauses make true once lit is false; watches[lit] the longer
    clauses that watch lit, which sits at position 0 or 1 of each."""
    implied: list[list[int]] = [[] for _ in range(2 * nvars + 1)]
    watches: list[list[list[int]]] = [[] for _ in range(2 * nvars + 1)]
    for lits in clauses:
        if len(lits) == 2:
            implied[lits[0]].append(lits[1])
            implied[lits[1]].append(lits[0])
        else:
            watches[lits[0]].append(lits)
            watches[lits[1]].append(lits)
    return implied, watches


def _reduce(clauses: list[list[int]], truth: list[bool | None],
            ) -> list[list[int]]:
    """`clauses` under the level-0 assignment `truth`, a fixpoint of unit
    propagation without a conflict: the clauses it leaves open (each keeps
    two or more literals), shortest first, each without its false literals
    (removed in place), less every clause that contains another one, which
    is found through the first literal of the kept clause inside it."""
    open_clauses = [lits for lits in clauses if not any(map(truth.__getitem__, lits))]
    for lits in open_clauses:
        if False in map(truth.__getitem__, lits):
            lits[:] = [l for l in lits if truth[l] is None]
    open_clauses.sort(key=len)
    occurs: dict[int, list[list[int]]] = {}
    kept = []
    for lits in open_clauses:
        members = frozenset(lits)
        for l in lits:
            if any(map(members.issuperset, occurs.get(l, ()))):
                break
        else:
            kept.append(lits)
            occurs.setdefault(lits[0], []).append(lits)
    return kept


def enumerate_models(clauses: Iterable[tuple[int, ...]], nvars: int,
                     ) -> Iterator[list[bool | None]]:
    """Yield every total model exactly once, in lexicographic order: variable 1
    false before true, then variable 2, and so on.  A model is a fresh list
    whose item v is the value of variable v, for v in 1..nvars; item 0 is
    None.

    Duplicate literals are merged and tautological clauses dropped; an empty
    clause makes the formula unsatisfiable."""
    units: list[int] = []
    longer: list[list[int]] = []
    empty = False
    for clause in clauses:
        lits = list(dict.fromkeys(clause))
        for lit in lits:
            if lit == 0 or abs(lit) > nvars:
                raise SatError(f"literal {lit} out of range 1..{nvars}")
        if not lits:
            empty = True
        elif len(set(map(abs, lits))) < len(lits):
            continue   # a tautology
        elif len(lits) == 1:
            units.append(lits[0])
        else:
            longer.append(lits)
    if empty:
        return

    # truth[lit] is True when lit is true, False when false, None when
    # unassigned; literal-indexed lists hold -nvars..nvars, negative indices
    # wrapping, so truth[:nvars + 1] is the model once every variable is set
    truth: list[bool | None] = [None] * (2 * nvars + 1)
    implied, watches = _index(longer, nvars)

    trail: list[int] = []

    def assign(lit: int) -> bool:
        value = truth[lit]
        if value is not None:
            return value
        truth[lit], truth[-lit] = True, False
        trail.append(lit)
        return True

    def propagate(head: int) -> bool:
        """Propagate the trail from position `head`; False on a conflict."""
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            for lit in implied[false_lit]:
                value = truth[lit]
                if value is None:
                    truth[lit], truth[-lit] = True, False
                    trail.append(lit)
                elif not value:
                    return False
            watching = watches[false_lit]
            moved = False
            ok = True
            for clause in watching:
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                other = clause[0]
                if truth[other]:
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if truth[lit] is not False:
                        clause[1], clause[k] = lit, false_lit
                        watches[lit].append(clause)
                        moved = True
                        break
                else:
                    if truth[other] is False:
                        ok = False
                        break
                    truth[other], truth[-other] = True, False
                    trail.append(other)
            if moved:
                # the clauses that still watch false_lit, visited or not
                watches[false_lit] = [c for c in watching
                                      if c[1] == false_lit or c[0] == false_lit]
            if not ok:
                return False
        return True

    if not all(assign(lit) for lit in units) or not propagate(0):
        return
    implied, watches = _index(_reduce(longer, truth), nvars)
    decisions: list[tuple[int, int, bool]] = []   # (trail position, literal, flipped)
    var, head = 1, len(trail)
    while True:
        if propagate(head):
            while var <= nvars and truth[var] is not None:
                var += 1
            if var <= nvars:
                decisions.append((len(trail), -var, False))
                head = len(trail)
                assign(-var)
                continue
            yield truth[:nvars + 1]
        while decisions and decisions[-1][2]:
            decisions.pop()
        if not decisions:
            return
        head, lit, _ = decisions.pop()
        for undone in trail[head:]:
            truth[undone] = truth[-undone] = None
        del trail[head:]
        decisions.append((head, -lit, True))
        assign(-lit)
        var = abs(lit)


def parse_dimacs(text: str) -> tuple[list[tuple[int, ...]], int]:
    nvars = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SatError(f"malformed problem line: {line!r}")
            nvars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise SatError("clause not terminated by 0")
    if nvars is None:
        raise SatError("missing problem line")
    return clauses, nvars
