"""Exhaustive model enumeration for clausal formulas, and a DIMACS parser.

Input is clausal: an iterable of integer tuples in DIMACS convention (positive
literal = variable true).  `enumerate_models` is a DPLL search without clause
learning: unit propagation on an assignment trail, and enumeration that
backtracks chronologically by flipping the most recent unflipped decision
(Gebser et al. 2007).  Branching is on the lowest unassigned variable, false
first, so models come out in lexicographic order.

Propagating an assignment visits only the clauses that can become unit by it,
never the whole formula.  A 2-literal clause is kept as two implications, in
the implication list of each of its literals: when that literal becomes false,
the other one must be true.  A longer clause watches two of its literals
(Moskewicz et al. 2001, Chaff) and sits in the watch list of each; a watch
list is rewritten only after one of its clauses moved its watch to another
literal, so a clause already satisfied by its other watch costs one visit and
no write.  Unit propagation reaches the same fixpoint, or a conflict, in any
order, so the order in which the two kinds of list are read does not change
the models or their order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import ApoError


class SatError(ApoError):
    pass


def enumerate_models(clauses: Iterable[tuple[int, ...]], nvars: int,
                     ) -> Iterator[dict[int, bool]]:
    """Yield every total model exactly once, in lexicographic order: variable 1
    false before true, then variable 2, and so on.

    Duplicate literals are merged and tautological clauses dropped; an empty
    clause makes the formula unsatisfiable."""
    initial = [tuple(c) for c in clauses]
    for clause in initial:
        for lit in clause:
            if lit == 0 or abs(lit) > nvars:
                raise SatError(f"literal {lit} out of range 1..{nvars}")

    # truth[lit] is 1 when lit is true, -1 when false, 0 when unassigned;
    # literal-indexed lists hold -nvars..nvars, negative indices wrapping.
    truth = [0] * (2 * nvars + 1)
    # implied[lit]: the literals that 2-literal clauses make true once lit is
    # false; watches[lit]: the longer clauses that watch lit, which sits at
    # position 0 or 1 of each
    implied: list[list[int]] = [[] for _ in range(2 * nvars + 1)]
    watches: list[list[list[int]]] = [[] for _ in range(2 * nvars + 1)]
    units: list[int] = []
    for clause in initial:
        lits = list(dict.fromkeys(clause))
        if any(-l in lits for l in lits):
            continue
        if not lits:
            return
        if len(lits) == 1:
            units.append(lits[0])
        elif len(lits) == 2:
            implied[lits[0]].append(lits[1])
            implied[lits[1]].append(lits[0])
        else:
            watches[lits[0]].append(lits)
            watches[lits[1]].append(lits)

    trail: list[int] = []

    def assign(lit: int) -> bool:
        if truth[lit]:
            return truth[lit] > 0
        truth[lit], truth[-lit] = 1, -1
        trail.append(lit)
        return True

    def propagate(head: int) -> bool:
        """Propagate the trail from position `head`; False on a conflict."""
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            for lit in implied[false_lit]:
                value = truth[lit]
                if value < 0:
                    return False
                if not value:
                    truth[lit], truth[-lit] = 1, -1
                    trail.append(lit)
            watching = watches[false_lit]
            moved = False
            ok = True
            for clause in watching:
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                other = clause[0]
                if truth[other] > 0:
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if truth[lit] >= 0:
                        clause[1], clause[k] = lit, false_lit
                        watches[lit].append(clause)
                        moved = True
                        break
                else:
                    if truth[other] < 0:
                        ok = False
                        break
                    truth[other], truth[-other] = 1, -1
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
    decisions: list[tuple[int, int, bool]] = []   # (trail position, literal, flipped)
    var, head = 1, len(trail)
    while True:
        if propagate(head):
            while var <= nvars and truth[var]:
                var += 1
            if var <= nvars:
                decisions.append((len(trail), -var, False))
                head = len(trail)
                assign(-var)
                continue
            yield {v: truth[v] > 0 for v in range(1, nvars + 1)}
        while decisions and decisions[-1][2]:
            decisions.pop()
        if not decisions:
            return
        head, lit, _ = decisions.pop()
        for undone in trail[head:]:
            truth[undone] = truth[-undone] = 0
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
