"""Command-line front end for the planning pipeline.

Subcommands mirror the compilation stages: validate, ground, compile,
normalize, sat, solve, policy, oracle, check, fuzz.  Identical inputs and
flags produce byte-identical output.

Exit codes: 0 success; 1 unusable input (missing file, parse error, bad
flags); 2 validation or theorem-check failure; 3 internal invariant breach.

Each run is a fresh process, so a command imports only the modules it runs:
`validate` and `ground` load `theory`, `oracle` adds `oracle`, and `fuzz`
adds `fuzz`.  The commands that compile (`compile`, `normalize`, `sat`,
`solve`, `policy`, `check`) load the whole pipeline in `_compile`, `policies`
included even where they do not call it, so that every compiling command
loads the same modules: a tracer that wraps the pipeline's functions, such as
`perfbench/spans.py`, finds them all after any of these commands has run.
Every error the stages raise on purpose derives from `apoplan.ApoError`, so
`main` maps them to exit 3 without importing the stage modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .theory import (
    ActionTheory, ApoError, ground_theory, parse_theory, serialize_theory,
    validate_theory,
)

if TYPE_CHECKING:
    from .compiler import NormalProgram

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


def _load_theory(args) -> ActionTheory:
    try:
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise _CliFailure(EXIT_INPUT, f"cannot read {args.input}: {e}") from None
    try:
        theory = parse_theory(text)
    except ApoError as e:
        raise _CliFailure(EXIT_INPUT, f"parse error: {e}") from None
    discount = getattr(args, "discount", None)
    if discount is not None:
        override = _parse_fraction(discount)
        if not 0 <= override < 1:
            raise _CliFailure(EXIT_INPUT, f"discount override {discount} outside [0, 1)")
        theory = theory.replace(discount=override)
    return theory


def _validated(args) -> ActionTheory:
    theory = _load_theory(args)
    try:
        grounded = ground_theory(theory)
    except ApoError as e:
        raise _CliFailure(EXIT_VALIDATION, f"grounding failed: {e}") from None
    report = validate_theory(grounded)
    if not report:
        lines = "; ".join(v.message for v in report.violations)
        raise _CliFailure(EXIT_VALIDATION, f"invalid theory: {lines}")
    return grounded


def _emit(args, text: str):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def _compile(args):
    from . import compiler, policies  # noqa: F401  (the whole pipeline; see above)
    theory = _validated(args)
    return theory, compiler.compile_theory(theory, args.horizon)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise _CliFailure(EXIT_INPUT, f"cannot read {args.input}: {e}") from None
    try:
        grounded = ground_theory(parse_theory(text))
        violations = validate_theory(grounded).to_json()
    except ApoError as e:
        # parse and grounding errors are reported as output, not as a crash
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
    _, program = _compile(args)
    _emit(args, format_program(program))
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
    from . import compiler
    _, program = _compile(args)
    _emit(args, _format_normal(compiler.normalize(program)))
    return EXIT_OK


def cmd_sat(args) -> int:
    from . import compiler
    _, program = _compile(args)
    cnf = compiler.to_sat(compiler.normalize(program))
    dimacs = cnf.to_dimacs()
    atom_map = cnf.atom_map_json()
    if args.format == "json":
        _emit_json(args, {"dimacs": dimacs, "atom_map": atom_map})
    elif args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(dimacs)
        with open(args.out + ".atoms.json", "w", encoding="utf-8") as f:
            json.dump(atom_map, f, indent=2)
            f.write("\n")
    else:
        sys.stdout.write(dimacs)
    return EXIT_OK


def cmd_solve(args) -> int:
    from . import compiler
    from .nplp import render_atom
    theory, program = _compile(args)
    models = compiler.annotated_answer_sets(program)
    # each distinct atom is rendered once over all answer sets
    names = {a: render_atom(a) for a in {a for h in models for a in h}}
    payload = {
        "horizon": args.horizon,
        "discount": float(theory.discount),
        "count": len(models),
        "answer_sets": [
            dict(sorted({names[a]: float(v) for a, v in h.items()}.items()))
            for h in models
        ],
    }
    _emit_json(args, payload)
    return EXIT_OK


def cmd_policy(args) -> int:
    from . import compiler, policies
    theory, program = _compile(args)
    best = policies.best_policy(theory, args.horizon,
                                compiler.annotated_answer_sets(program))
    payload = {"horizon": args.horizon, "discount": float(theory.discount)}
    payload.update(best.to_json())
    _emit_json(args, payload)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle
    theory = _validated(args)
    policy, value = oracle.optimal_policy(theory, args.horizon)
    _emit_json(args, {
        "horizon": args.horizon,
        "discount": float(theory.discount),
        "policy": oracle.policy_to_json(policy),
        "value": float(value),
    })
    return EXIT_OK


def cmd_check(args) -> int:
    from . import compiler, policies
    theory, program = _compile(args)
    checks = policies.cross_check(theory, args.horizon, program,
                                  compiler.annotated_answer_sets(program))
    ok = all(c.ok for c in checks)
    _emit_json(args, {
        "horizon": args.horizon,
        "discount": float(theory.discount),
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
    default_format = os.environ.get("APOPLAN_FORMAT", "text")

    def common(p, horizon=False, discount=True):
        p.add_argument("input", help="theory file (.apo)")
        if horizon:
            p.add_argument("--horizon", type=int, required=True,
                           help="number of decision steps (>= 1)")
        if discount:
            p.add_argument("--discount", default=None,
                           help="override the theory's discount factor")
        p.add_argument("--format", choices=["text", "json"],
                       default=default_format)
        p.add_argument("--out", default=None, help="write output to a file")

    common(sub.add_parser("validate", help="check theory well-formedness"),
           discount=False)
    common(sub.add_parser("ground", help="expand variables over their domains"))
    common(sub.add_parser("compile", help="emit the annotated program"),
           horizon=True)
    common(sub.add_parser("normalize", help="emit the classical normal program"),
           horizon=True)
    common(sub.add_parser("sat", help="emit DIMACS CNF with an atom-map sidecar"),
           horizon=True)
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
    pf.add_argument("--format", choices=["text", "json"], default=default_format)
    pf.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
