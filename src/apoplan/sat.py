"""Exhaustive model enumeration for clausal formulas, and a DIMACS parser.

Input is clausal: an iterable of integer tuples in DIMACS convention (positive
literal = variable true).  `enumerate_models` is a DPLL search without clause
learning: two watched literals per clause drive unit propagation on an
assignment trail (Moskewicz et al. 2001, Chaff), and enumeration backtracks
chronologically by flipping the most recent unflipped decision (Gebser et al.
2007).  Branching is on the lowest unassigned variable, false first, so models
come out in lexicographic order.  Propagating an assignment visits only the
clauses that watch the literal it made false, never the whole formula.
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
            watching = watches[false_lit]
            kept = 0
            for i, clause in enumerate(watching):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                other = clause[0]
                if truth[other] > 0:
                    watching[kept] = clause
                    kept += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if truth[lit] >= 0:
                        clause[1], clause[k] = lit, false_lit
                        watches[lit].append(clause)
                        break
                else:
                    watching[kept] = clause
                    kept += 1
                    if truth[other] < 0:
                        watching[kept:] = watching[i + 1:]
                        return False
                    assign(other)
            del watching[kept:]
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
