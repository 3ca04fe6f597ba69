"""Command-line front end for the planning pipeline.

Subcommands mirror the compilation stages: validate, ground, compile,
normalize, sat, solve, policy, oracle, check, fuzz.  Identical inputs and
flags produce byte-identical output.

Exit codes: 0 success; 1 unusable input or output (a missing or non-UTF-8
file, parse error, bad flags, an `--out` that cannot be written); 2
validation or theorem-check failure; 3 internal invariant breach.
Input takes one path: one `theory.validate_theory` call (in `Run`, if the
command compiles) grounds and checks it, and `_checked` exits 2 on a failure.

Each run is a fresh process, so a command imports only the modules it runs:
`validate` and `ground` load `theory`, `oracle` adds `oracle`, and `fuzz`
adds `fuzz`.  The commands that compile (`compile`, `normalize`, `sat`,
`solve`, `policy`, `check`) read their stages from one `policies.Run`, which
`_run` builds, so each stage is computed once per command and the order of
the stages is written down in `Run` alone.  Importing `policies` loads the
whole pipeline, so every compiling command loads the same modules: a tracer
that wraps the pipeline's functions, such as `perfbench/spans.py`, finds them
all after any of these commands has run.
Every error the stages raise on purpose derives from `apoplan.ApoError`, so
`main` maps them to exit 3 without importing the stage modules.

Output is held only as far as it must be.  `solve` alone needs every answer
set at once, to sort them: it lists them before it opens its output, so a
stage that fails writes nothing, and writes its JSON one answer set per
write call.  `policy` and `check` read each answer set once, as it is
enumerated, and keep none (`policies.best_policy`, `policies.cross_check`).
`oracle` lists every policy, so it refuses more than `oracle.MAX_POLICIES`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .theory import (
    ActionTheory, ApoError, ValidationReport, parse_theory, serialize_theory,
    validate_theory,
)

if TYPE_CHECKING:
    from .compiler import NormalProgram
    from .nplp import PInterpretation
    from .policies import Run

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _CliFailure(EXIT_INPUT, f"not a number: {text!r}") from None


def _read_input(args) -> str:
    try:
        with open(args.input, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _CliFailure(EXIT_INPUT, f"cannot read {args.input}: {e}") from None


def _load_theory(args) -> ActionTheory:
    try:
        theory = parse_theory(_read_input(args))
    except ApoError as e:
        raise _CliFailure(EXIT_INPUT, f"parse error: {e}") from None
    discount = getattr(args, "discount", None)
    if discount is not None:
        override = _parse_fraction(discount)
        if not 0 <= override < 1:
            raise _CliFailure(EXIT_INPUT, f"discount override {discount} outside [0, 1)")
        theory = theory.replace(discount=override)
    return theory


def _checked(report: ValidationReport) -> ActionTheory:
    if not report:
        raise _CliFailure(EXIT_VALIDATION, f"invalid theory: {report.summary()}")
    return report.theory


def _validated(args) -> ActionTheory:
    return _checked(validate_theory(_load_theory(args)))


def _emit(args, text: str):
    _emit_chunks(args, (text,))


def _emit_chunks(args, chunks: Iterable[str]):
    """Write each of `chunks` with one call, to `--out` or to standard output.
    The file is opened before the first chunk is made, so a caller computes
    whatever can fail before it passes a generator."""
    out = getattr(args, "out", None)
    if out:
        _write(out, chunks)
    else:
        for chunk in chunks:
            sys.stdout.write(chunk)


def _write(path: str, chunks: Iterable[str]):
    """Write each of `chunks` to the file `path`, which exits 1 naming the
    path if it cannot be opened or written, as `_read_input` does."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            for chunk in chunks:
                f.write(chunk)
    except OSError as e:
        raise _CliFailure(EXIT_INPUT, f"cannot write {path}: {e}") from None


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def _run(args) -> Run:
    from .policies import Run  # the whole pipeline; see above
    run = Run(_load_theory(args), args.horizon)
    _checked(run.report)
    return run


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    text = _read_input(args)
    try:
        violations = validate_theory(parse_theory(text)).to_json()
    except ApoError as e:
        # a parse error is reported as output, not as a crash
        violations = [{"decl": "file", "rule": "parse", "message": str(e)}]
    if args.format == "json":
        _emit_json(args, {"valid": not violations, "violations": violations})
    else:
        if violations:
            _emit(args, "".join(
                f"{v['decl']}: {v['rule']}: {v['message']}\n" for v in violations))
        else:
            _emit(args, "ok\n")
    return EXIT_OK if not violations else EXIT_VALIDATION


def cmd_ground(args) -> int:
    _emit(args, serialize_theory(_validated(args)))
    return EXIT_OK


def cmd_compile(args) -> int:
    from .nplp import format_program
    _emit(args, format_program(_run(args).program))
    return EXIT_OK


def _format_normal(normal: NormalProgram) -> str:
    from .nplp import render_atom
    lines = []
    for head, pos, neg in normal.rules:
        body = [render_atom(a) for a in pos] + ["not " + render_atom(a) for a in neg]
        if body:
            lines.append(f"{render_atom(head)} <- {', '.join(body)}.")
        else:
            lines.append(f"{render_atom(head)}.")
    return "\n".join(lines) + "\n"


def cmd_normalize(args) -> int:
    _emit(args, _format_normal(_run(args).normal))
    return EXIT_OK


def cmd_sat(args) -> int:
    cnf = _run(args).cnf
    dimacs = cnf.to_dimacs()
    if args.format == "json":
        _emit_json(args, {"dimacs": dimacs, "atom_map": cnf.atom_map_json()})
        return EXIT_OK
    _emit(args, dimacs)
    if args.out:
        _write(args.out + ".atoms.json",
               (json.dumps(cnf.atom_map_json(), indent=2), "\n"))
    return EXIT_OK


def _solve_chunks(horizon: int, discount: Fraction, models: Sequence[PInterpretation],
                  ) -> Iterator[str]:
    """The `solve` payload as `json.dumps(payload, indent=2) + "\n"` writes
    it, in chunks: the header, then each answer set with the separator before
    it, then the footer.  Each distinct atom's JSON key is encoded once."""
    from .nplp import render_atom
    header = json.dumps({"horizon": horizon, "discount": float(discount),
                         "count": len(models)}, indent=2)
    yield header[:-2] + ',\n  "answer_sets": ['
    keys: dict[str, str] = {}  # rendering -> its JSON key line prefix
    for i, h in enumerate(models):
        items = {}
        for atom, value in h.items():
            name = render_atom(atom)
            if name not in keys:
                keys[name] = "      " + json.dumps(name) + ": "
            items[name] = float(value)
        # json writes a float with repr, and an empty object as {}
        body = ",\n".join(keys[n] + repr(v) for n, v in sorted(items.items()))
        yield ("\n    " if i == 0 else ",\n    ") \
            + ("{\n" + body + "\n    }" if body else "{}")
    yield "\n  ]\n}\n" if models else "]\n}\n"


def cmd_solve(args) -> int:
    from .nplp import sort_answer_sets
    run = _run(args)
    # listed and sorted before the output is opened: a failing stage writes nothing
    _emit_chunks(args, _solve_chunks(args.horizon, run.theory.discount,
                                     sort_answer_sets(list(run.iter_answer_sets()))))
    return EXIT_OK


def cmd_policy(args) -> int:
    from . import policies
    run = _run(args)
    payload = {"horizon": args.horizon, "discount": float(run.theory.discount)}
    payload.update(policies.best_policy(run).to_json())
    _emit_json(args, payload)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle
    theory = _validated(args)
    count = oracle.count_policies(theory, args.horizon)
    if count > oracle.MAX_POLICIES:
        raise _CliFailure(EXIT_INPUT, f"{count} policies to list, more than {oracle.MAX_POLICIES}")
    policy, value = oracle.optimal_policy(theory, args.horizon)
    _emit_json(args, {
        "horizon": args.horizon,
        "discount": float(theory.discount),
        "policy": oracle.policy_to_json(policy),
        "value": float(value),
    })
    return EXIT_OK


def cmd_check(args) -> int:
    from . import policies
    run = _run(args)
    checks = policies.cross_check(run)
    ok = all(c.ok for c in checks)
    _emit_json(args, {
        "horizon": args.horizon,
        "discount": float(run.theory.discount),
        "ok": ok,
        "checks": [c.to_json() for c in checks],
    })
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_fuzz(args) -> int:
    from . import fuzz
    theory = fuzz.generate_theory(args.seed)
    _emit(args, serialize_theory(theory))
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apoplan",
        description="Compile partially observable action theories to annotated "
        "logic programs, normal programs, and SAT; solve and cross-check them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, horizon=False, discount=True, formats=False):
        p.add_argument("input", help="theory file (.apo)")
        if horizon:
            p.add_argument("--horizon", type=int, required=True,
                           help="number of decision steps (>= 1)")
        if discount:
            p.add_argument("--discount", default=None,
                           help="override the theory's discount factor")
        if formats:
            p.add_argument("--format", choices=["text", "json"],
                           default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    common(sub.add_parser("validate", help="check theory well-formedness"),
           discount=False, formats=True)
    common(sub.add_parser("ground", help="expand variables over their domains"))
    common(sub.add_parser("compile", help="emit the annotated program"),
           horizon=True)
    common(sub.add_parser("normalize", help="emit the classical normal program"),
           horizon=True)
    common(sub.add_parser("sat", help="emit DIMACS CNF with an atom-map sidecar"),
           horizon=True, formats=True)
    common(sub.add_parser("solve", help="enumerate probabilistic answer sets"),
           horizon=True)
    common(sub.add_parser("policy", help="best policy by answer-set aggregation"),
           horizon=True)
    common(sub.add_parser("oracle", help="optimal policy by brute-force search"),
           horizon=True)
    common(sub.add_parser("check", help="cross-check pipeline against the oracle"),
           horizon=True)

    pf = sub.add_parser("fuzz", help="generate a random valid theory")
    pf.add_argument("--seed", type=int, required=True)
    pf.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on bad flags, 0 after --help
        return EXIT_INPUT if e.code else EXIT_OK
    if getattr(args, "horizon", None) is not None and args.horizon < 1:
        print("error: --horizon must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except BrokenPipeError:
        return EXIT_OK
    except _CliFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ApoError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
