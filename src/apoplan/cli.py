"""Command-line front end for the planning pipeline.

Subcommands mirror the compilation stages: validate, ground, compile,
normalize, sat, solve, policy, oracle, check, fuzz.  Identical inputs and
flags produce byte-identical output.

Exit codes: 0 success; 1 unusable input or output (a missing or non-UTF-8
file, parse error, bad flags, an `--out` or a standard output that cannot be
written); 2 validation or theorem-check failure; 3 internal invariant breach.
A reader that closes its end of a pipe early ends the output, not the run:
exit 0 with nothing on standard error.
Input takes one path: one `theory.validate_theory` call (in `Run`, if the
command compiles) grounds and checks it, and `_checked` exits 2 on a failure.

One table, `_COMMANDS`, names each command's arguments and help; `_parse_args`
reads `argv` from it and `_help` prints it.  A flag takes its value as
`--flag value` or `--flag=value`, may be shortened to a unique prefix, and
may come before or after the input; the last of a repeated flag wins.  A bad
command line exits 1 with the command's usage line, and `-h`/`--help` prints
the help and exits 0.

Each run is a fresh process, so a command imports only the modules it runs
(no argparse, and no `json`: `apoplan.json_text` writes JSON): start-up is
most of the time of a small run.  The process enters through `entry`, which
flushes the output and then ends the process with `os._exit`, so it skips
the interpreter's teardown of a heap the operating system frees anyway.
`main(argv)` never exits: the tests, traced benchmark runs and profilers
call it in a process that goes on.

The commands that compile read their stages from one `policies.Run`, which
`_run` builds, so each stage is computed once; importing `policies` loads
the whole pipeline, so a tracer that wraps its functions, such as
`perfbench/spans.py`, finds them all.
Every error the stages raise on purpose derives from `apoplan.ApoError`, so
`main` maps them to exit 3 without importing the stage modules.

Output is kept only as far as it must be.  The commands that read answer
sets read them as layers, shared between consecutive ones.  `solve` alone
needs every answer set at once, to sort them: it lists their layers before
it opens its output, so a stage that fails writes nothing, and
`nplp.answer_sets_json` sorts and writes them from one rank table.  `policy`
and `check` read each answer set once and keep none.  `oracle` refuses
more than `oracle.MAX_POLICIES` policies, which it would list.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, NoReturn

from . import json_text
from .theory import (
    ActionTheory, ApoError, ValidationReport, parse_theory, serialize_theory,
    validate_theory,
)

if TYPE_CHECKING:
    from .compiler import NormalProgram
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
        _write_stdout(chunks)


def _write_stdout(chunks: Iterable[str]):
    """Write each of `chunks` to standard output, which exits 1 if it cannot
    be written; a closed pipe raises `BrokenPipeError`, which `main` maps to
    exit 0."""
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
    except BrokenPipeError:
        raise
    except OSError as e:
        raise _CliFailure(EXIT_INPUT, f"cannot write standard output: {e}") from None


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
    _emit(args, json_text(payload) + "\n")


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
        _write(args.out + ".atoms.json", (json_text(cnf.atom_map_json()), "\n"))
    return EXIT_OK


def cmd_solve(args) -> int:
    from .nplp import answer_sets_json
    run = _run(args)
    # listed before the output is opened: a failing stage writes nothing
    answer_sets = list(run.iter_layers())
    _emit_chunks(args, answer_sets_json(args.horizon, run.theory.discount, answer_sets))
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
    try:
        policy, value = oracle.optimal_policy(theory, args.horizon)
    except oracle.PolicySpaceTooLarge as e:
        raise _CliFailure(EXIT_INPUT, str(e)) from None
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
# the command line: one table, read by the parser and by the help


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _format(text: str) -> str:
    if text not in ("text", "json"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'text', 'json')")
    return text


# Each argument: its help, the function that reads its value (raising
# ValueError on a bad one), and its default.  `input` is the one positional
# argument; every flag takes one value.
_ARGUMENTS = {
    "input": ("theory file (.apo)", str, None),
    "--horizon": ("number of decision steps (>= 1)", _int, None),
    "--discount": ("override the theory's discount factor", str, None),
    "--format": ("text or json (default: text)", _format, "text"),
    "--out": ("write output to a file", str, None),
    "--seed": ("seed of the random theory", _int, None),
}
_REQUIRED = ("input", "--horizon", "--seed")
_PLANNING = ("input", "--horizon", "--discount", "--out")

# Each command: its help, and its arguments in the order its help lists them.
# `main` runs the command NAME as `cmd_NAME`.
_COMMANDS = {
    "validate": ("check theory well-formedness", ("input", "--format", "--out")),
    "ground": ("expand variables over their domains", ("input", "--discount", "--out")),
    "compile": ("emit the annotated program", _PLANNING),
    "normalize": ("emit the classical normal program", _PLANNING),
    "sat": ("emit DIMACS CNF with an atom-map sidecar",
            ("input", "--horizon", "--discount", "--format", "--out")),
    "solve": ("enumerate probabilistic answer sets", _PLANNING),
    "policy": ("best policy by answer-set aggregation", _PLANNING),
    "oracle": ("optimal policy by brute-force search", _PLANNING),
    "check": ("cross-check pipeline against the oracle", _PLANNING),
    "fuzz": ("generate a random valid theory", ("--seed", "--out")),
}

_DESCRIPTION = """\
Compile partially observable action theories to annotated logic programs,
normal programs, and SAT; solve and cross-check them."""


def _shown(name: str) -> str:
    return name if name == "input" else f"{name} {name[2:].upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: apoplan [-h] <command> ..."
    return " ".join([f"usage: apoplan {command} [-h]"] + [
        _shown(name) if name in _REQUIRED else f"[{_shown(name)}]"
        for name in _COMMANDS[command][1]])


def _table(rows: list[tuple[str, str]]) -> str:
    width = max(len(left) for left, _ in rows)
    return "".join(f"  {left:<{width}}  {right}\n" for left, right in rows)


def _help(command: str | None) -> str:
    """The text of `apoplan --help`, or of `apoplan COMMAND --help`."""
    if command is None:
        return (f"{_usage(None)}\n\n{_DESCRIPTION}\n\ncommands:\n"
                + _table([(name, text) for name, (text, _) in _COMMANDS.items()])
                + "\nRun `apoplan <command> --help` for the arguments of a command.\n")
    text, names = _COMMANDS[command]
    rows = [(_shown(name), _ARGUMENTS[name][0]) for name in names]
    rows.append(("-h, --help", "show this help and exit"))
    return f"{_usage(command)}\n\n{text}\n\narguments:\n{_table(rows)}"


class _Usage(Exception):
    """What `main` prints in place of running a command, and its exit code:
    a help text on standard output, or a usage line and an error on standard
    error."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code


def _usage_error(command: str | None, message: str) -> _Usage:
    prog = "apoplan" if command is None else f"apoplan {command}"
    return _Usage(EXIT_INPUT, f"{_usage(command)}\n{prog}: error: {message}\n")


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The command that `argv[0]` names, and its arguments read from the rest
    by the table above.  A flag's value follows it or an `=`, and may begin
    with `-`; a flag may be shortened to a unique prefix, and the last of a
    repeated flag wins.  Flags and the input come in any order, and every
    argument after `--` is positional."""
    if not argv:
        raise _usage_error(None, "the following arguments are required: <command>")
    command, rest = argv[0], argv[1:]
    if command == "-h" or (len(command) > 2 and "--help".startswith(command)):
        raise _Usage(EXIT_OK, _help(None))
    if command not in _COMMANDS:
        raise _usage_error(None, f"invalid command: {command!r} "
                                 f"(choose from {', '.join(_COMMANDS)})")
    names = _COMMANDS[command][1]
    flags = [name for name in names if name != "input"] + ["--help"]
    values: dict[str, object] = {}
    positionals: list[str] = []
    tokens = iter(rest)
    for token in tokens:
        if token == "--":
            positionals.extend(tokens)
            break
        if token == "-" or not token.startswith("-"):
            positionals.append(token)
            continue
        if token == "-h":
            raise _Usage(EXIT_OK, _help(command))
        flag, eq, value = token.partition("=")
        matches = [f for f in flags if f == flag] or [
            f for f in flags if flag.startswith("--") and len(flag) > 2 and f.startswith(flag)]
        if not matches:
            raise _usage_error(command, f"unrecognized arguments: {token}")
        if len(matches) > 1:
            raise _usage_error(command, f"ambiguous option: {flag} could match "
                                        f"{', '.join(matches)}")
        flag = matches[0]
        if flag == "--help":
            raise _Usage(EXIT_OK, _help(command))
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise _usage_error(command, f"argument {flag}: expected one argument")
        try:
            values[flag] = _ARGUMENTS[flag][1](value)
        except ValueError as e:
            raise _usage_error(command, f"argument {flag}: {e}") from None
    if positionals and "input" in names:
        values["input"] = positionals.pop(0)
    if positionals:
        raise _usage_error(command, f"unrecognized arguments: {' '.join(positionals)}")
    missing = [name for name in names if name in _REQUIRED and name not in values]
    if missing:
        raise _usage_error(command, "the following arguments are required: "
                                    + ", ".join(missing))
    if values.get("--horizon", 1) < 1:
        raise _usage_error(command, f"argument --horizon: must be >= 1, "
                                    f"not {values['--horizon']}")
    return SimpleNamespace(command=command, **{
        name.lstrip("-"): values.get(name, _ARGUMENTS[name][2]) for name in names})


def main(argv=None) -> int:
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        except _Usage as e:
            if e.code == EXIT_OK:
                _write_stdout((str(e),))
            else:
                sys.stderr.write(str(e))
            return e.code
        return globals()[f"cmd_{args.command}"](args)
    except BrokenPipeError:
        return EXIT_OK
    except _CliFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ApoError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> NoReturn:
    """The process entry: `main`, then a flush of both streams while a failed
    write can still be reported, then `os._exit`, which skips the
    interpreter's teardown of a heap the operating system frees anyway."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as e:
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write standard output: {e}", file=sys.stderr)
            code = EXIT_INPUT
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
