"""Print every model of a DIMACS file, one line of signed variables each,
using apoplan's own DIMACS parser and DPLL enumerator.

    PYTHONPATH=src python perfbench/enum_models.py FILE.cnf
"""

from __future__ import annotations

import sys

from apoplan import sat


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as f:
        clauses, nvars = sat.parse_dimacs(f.read())
    lines = []
    for model in sat.enumerate_models(clauses, nvars):
        lines.append(" ".join(str(v if model[v] else -v) for v in range(1, nvars + 1)))
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
