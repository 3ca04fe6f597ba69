import collections
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from apoplan import ApoError, compiler, nplp, oracle, policies, sat, theory
from apoplan.cli import _solve_chunks, main

from conftest import fresh_python

REPO = Path(__file__).resolve().parent.parent
TIGER = str(REPO / "domains" / "tiger.apo")
BITS4 = str(REPO / "domains" / "bits4.apo")
CROSS_SENSING = str(REPO / "domains" / "cross_sensing.apo")
SCHEMAS = REPO / "schemas"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def check_schema(payload, name):
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", TIGER)
    assert (code, out) == (0, "ok\n")


def test_validate_json_schema(capsys):
    code, out = run(capsys, "validate", TIGER, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "validate")
    assert payload["valid"] is True


def test_validate_reports_violations(capsys, tmp_path, tiger_text):
    bad = tmp_path / "bad.apo"
    bad.write_text(tiger_text.replace("17/20", "4/5", 1))
    code, out = run(capsys, "validate", str(bad), "--format", "json")
    assert code == 2
    payload = json.loads(out)
    check_schema(payload, "validate")
    assert payload["violations"]


def test_validate_requires_exact_probability_sums(capsys, tmp_path, tiger_text):
    # each sum falls short of 1 by 1e-10
    near = tmp_path / "near.apo"
    near.write_text(tiger_text
                    .replace("{tl, htl}: 1/2", "{tl, htl}: 0.4999999999", 1)
                    .replace("17/20", "0.8499999999", 1))
    code, out = run(capsys, "validate", str(near), "--format", "json")
    assert code == 2
    rules = {v["rule"] for v in json.loads(out)["violations"]}
    assert rules == {"initial-prob-sum", "condition-prob-sum"}


PLANNING_COMMANDS = ["solve", "policy", "oracle", "check", "sat"]


@pytest.fixture(params=["tiger-executable-if-tl", "no-actions"])
def not_executable(request, tmp_path, tiger_text):
    """A theory in which some complete state has no executable action."""
    if request.param == "no-actions":
        text = "fluent f. initially {f} : 1. discount 1/2."
    else:
        text = tiger_text.replace("if {}.", "if {tl}.")
        assert text.count("if {tl}.") == 3
    path = tmp_path / "theory.apo"
    path.write_text(text)
    return str(path)


def test_validate_reports_an_unexecutable_state(capsys, not_executable):
    code, out = run(capsys, "validate", not_executable)
    assert code == 2
    assert out.startswith("theory: executability-exhaustiveness: no action is executable in state {")


@pytest.mark.parametrize("command", PLANNING_COMMANDS)
def test_unexecutable_state_exits_2(capsys, not_executable, command):
    code = main([command, not_executable, "--horizon", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: invalid theory: executability-exhaustiveness: ")


def test_validate_reports_a_zero_denominator(capsys, tmp_path, tiger_text):
    bad = tmp_path / "bad.apo"
    bad.write_text(tiger_text.replace("discount 9/10.", "discount 1/0."))
    code, out = run(capsys, "validate", str(bad))
    assert (code, out) == (2, "file: parse: 25:10: zero denominator in 1/0\n")


@pytest.mark.parametrize("command", PLANNING_COMMANDS)
def test_zero_denominator_exits_1(capsys, tmp_path, tiger_text, command):
    bad = tmp_path / "bad.apo"
    bad.write_text(tiger_text.replace("17/20", "17/0", 1))
    code = main([command, str(bad), "--horizon", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: parse error: 20:11: zero denominator in 17/0\n"


NO_DOMAIN = ("fluent on(D). initially {on(p)}: 1. executable a if {}. "
             "action a causes {on(p)}: 1: 0 if {}. discount 1/2.\n")
UNDECLARED_ACTION = ("fluent f. initially {f}: 1. executable ghost if {}. "
                     "action a causes {f}: 1: 0 if {}. discount 1/2.\n")


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "theory.apo"
    path.write_text(text)
    return str(path)


def test_validate_labels_a_grounding_failure_in_json(capsys, tmp_path):
    code, out = run(capsys, "validate", _write(tmp_path, NO_DOMAIN), "--format", "json")
    payload = json.loads(out)
    check_schema(payload, "validate")
    assert (code, payload) == (2, {"valid": False, "violations": [
        {"decl": "theory", "rule": "grounding", "message": "no domain for D"}]})


# every command that reads a theory file
THEORY_COMMANDS = ["validate", "ground", "oracle", "compile", "normalize", "sat",
                   "solve", "policy", "check"]


def _theory_argv(command: str, path: str) -> list[str]:
    horizon = [] if command in ("validate", "ground") else ["--horizon", "1"]
    return [command, path] + horizon


@pytest.fixture(params=["no-domain", "undeclared-action", "condition-prob-sum"])
def invalid_theory(request, tmp_path, tiger_text):
    """An invalid theory, and the declaration, rule and message of the one
    violation `validate` reports on it."""
    text, decl, rule, message = {
        "no-domain": (NO_DOMAIN, "theory", "grounding", "no domain for D"),
        "undeclared-action": (
            UNDECLARED_ACTION, "file", "parse",
            "1:29: executability declared for undeclared action 'ghost'"),
        "condition-prob-sum": (
            tiger_text.replace("17/20", "4/5", 1), "listen", "condition-prob-sum",
            "probabilities for condition {htl} sum to 19/20"),
    }[request.param]
    return _write(tmp_path, text), decl, rule, message


@pytest.mark.parametrize("command", THEORY_COMMANDS)
def test_invalid_theory_exits_1_or_2_naming_the_rule(capsys, invalid_theory, command):
    path, decl, rule, message = invalid_theory
    code = main(_theory_argv(command, path))
    captured = capsys.readouterr()
    if command == "validate":
        assert (code, captured.out) == (2, f"{decl}: {rule}: {message}\n")
    elif rule == "parse":  # unusable input, except to `validate`
        assert (code, captured.err) == (1, f"error: parse error: {message}\n")
    else:
        assert (code, captured.err) == (2, f"error: invalid theory: {rule}: {message}\n")


def test_missing_file_exit_code(capsys):
    assert main(["validate", "/no/such/file.apo"]) == 1
    assert main(["compile", "/no/such/file.apo", "--horizon", "1"]) == 1


@pytest.mark.parametrize("command", THEORY_COMMANDS)
def test_non_utf8_input_exits_1_naming_the_path(capsys, tmp_path, command):
    path = tmp_path / "x.apo"
    path.write_bytes(b"fluent f\xff.\n")
    code = main(_theory_argv(command, str(path)))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"error: cannot read {path}: "), captured.err
    assert "Traceback" not in captured.err


def test_bad_horizon_exit_code(capsys):
    assert main(["solve", TIGER, "--horizon", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: apoplan solve")
    assert " error: argument --horizon: must be >= 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["policy", TIGER, "--horizon", "1", "--bogus"],
    ["policy", TIGER],
    ["policy", TIGER, "--horizon", "x"],
    ["policy", TIGER, "--horizon", "1", "--format", "json"],  # validate and sat only
    [],
    ["plan", TIGER, "--horizon", "1"],
    ["policy", TIGER, "--h", "1"],  # --horizon or --help
    ["policy", TIGER, "--horizon"],
    ["policy", TIGER, TIGER, "--horizon", "1"],
    ["fuzz", "--seed", "7", "--discount", "1/2"],
    ["validate", TIGER, "--format", "xml"],
    ["fuzz", TIGER, "--seed", "7"],
], ids=["unknown-flag", "missing-horizon", "non-integer-horizon", "format-on-policy",
        "no-command", "unknown-command", "ambiguous-prefix", "missing-value",
        "extra-positional", "discount-on-fuzz", "unknown-format", "input-on-fuzz"])
def test_bad_flags_exit_1_with_usage(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: apoplan")
    assert " error: " in captured.err


def test_help_exits_0(capsys):
    assert main(["policy", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: apoplan policy")


# the flags of each command, each with the help it has always had (any help
# where it had none)
HORIZON_FLAGS = {"--horizon": "number of decision steps (>= 1)",
                 "--discount": "override the theory's discount factor",
                 "--out": "write output to a file"}
COMMAND_HELP = {
    "validate": ("check theory well-formedness", {"--format": "", "--out": HORIZON_FLAGS["--out"]}),
    "ground": ("expand variables over their domains",
               {k: v for k, v in HORIZON_FLAGS.items() if k != "--horizon"}),
    "compile": ("emit the annotated program", HORIZON_FLAGS),
    "normalize": ("emit the classical normal program", HORIZON_FLAGS),
    "sat": ("emit DIMACS CNF with an atom-map sidecar", {**HORIZON_FLAGS, "--format": ""}),
    "solve": ("enumerate probabilistic answer sets", HORIZON_FLAGS),
    "policy": ("best policy by answer-set aggregation", HORIZON_FLAGS),
    "oracle": ("optimal policy by brute-force search", HORIZON_FLAGS),
    "check": ("cross-check pipeline against the oracle", HORIZON_FLAGS),
    "fuzz": ("generate a random valid theory", {"--seed": "", "--out": ""}),
}


@pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [[c, "--help"] for c in COMMAND_HELP]
                         + [["validate", "-h"], ["solve", TIGER, "--hel"]])
def test_help_lists_every_command_and_flag(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if argv[0] in COMMAND_HELP:
        command = argv[0]
        assert out.startswith(f"usage: apoplan {command} [-h] ")
        text, flags = COMMAND_HELP[command]
        assert f"\n{text}\n" in out
        if command != "fuzz":
            assert "  input " in out and "theory file (.apo)" in out
        for flag, help_text in flags.items():
            assert f"  {flag} {flag[2:].upper()}  " in out and help_text in out, flag
    else:
        assert out.startswith("usage: apoplan [-h] ")
        for command, (text, _) in COMMAND_HELP.items():
            assert f"  {command} " in out and text in out, command


@pytest.mark.parametrize("argv, same_as", [
    (["policy", TIGER, "--horizon=1"], ["policy", TIGER, "--horizon", "1"]),
    (["policy", TIGER, "--hor", "1"], ["policy", TIGER, "--horizon", "1"]),
    (["policy", "--horizon", "1", TIGER], ["policy", TIGER, "--horizon", "1"]),
    (["policy", TIGER, "--horizon", "3", "--horizon", "1"], ["policy", TIGER, "--horizon", "1"]),
    (["solve", "--disc=1/2", "--ho=1", TIGER], ["solve", TIGER, "--horizon", "1", "--discount", "1/2"]),
    (["validate", "--f", "json", "--", TIGER], ["validate", TIGER, "--format", "json"]),
    (["fuzz", "--seed", "-1"], ["fuzz", "--seed=-1"]),
    (["policy", TIGER, "--horizon", "0", "--horizon", "1"], ["policy", TIGER, "--horizon", "1"]),
], ids=["equals", "prefix", "flags-first", "last-wins", "equals-prefix",
        "double-dash", "negative-seed", "last-wins-over-bad-horizon"])
def test_argument_forms_read_alike(capsys, argv, same_as):
    code, out = run(capsys, *argv)
    assert (code, out) == run(capsys, *same_as)
    assert code == 0 and out


def test_ground_round_trips(capsys):
    code, out = run(capsys, "ground", TIGER)
    assert code == 0
    from apoplan.theory import parse_theory
    assert parse_theory(out) == parse_theory(Path(TIGER).read_text())


def test_compile_deterministic(capsys):
    _, first = run(capsys, "compile", TIGER, "--horizon", "2")
    _, second = run(capsys, "compile", TIGER, "--horizon", "2")
    assert first == second
    assert "state(1) : 17/20*U" in first


def test_normalize_strips_annotations(capsys):
    code, out = run(capsys, "normalize", TIGER, "--horizon", "1")
    assert code == 0
    assert ":" not in out.replace("<-", "")
    assert "state(" not in out and "value(" not in out


def test_solve_json_schema(capsys):
    code, out = run(capsys, "solve", TIGER, "--horizon", "1")
    payload = json.loads(out)
    check_schema(payload, "solve")
    assert code == 0
    assert payload["count"] == 16 == len(payload["answer_sets"])


@pytest.mark.parametrize("models", [
    [],
    [{}],
    [{("a",): Fraction(1)}, {},
     {("b", 1): Fraction(1, 3), ("a",): Fraction(-2, 7), ("say", 'x"y'): Fraction(1)},
     # two atoms that render alike: the later one is written, once
     {("v", 1): Fraction(1, 2), ("v", nplp.Num(1)): Fraction(1, 4)}],
])
def test_solve_chunks_write_what_json_dumps_writes(models):
    chunks = list(_solve_chunks(2, Fraction(19, 20), models))
    payload = {"horizon": 2, "discount": 0.95, "count": len(models), "answer_sets": [
        dict(sorted({nplp.render_atom(a): float(v) for a, v in h.items()}.items()))
        for h in models]}
    assert "".join(chunks) == json.dumps(payload, indent=2) + "\n"
    # one chunk per answer set, so an unbuffered output makes one write each
    assert len(chunks) == len(models) + 2


def test_policy_json_schema(capsys):
    code, out = run(capsys, "policy", TIGER, "--horizon", "1")
    payload = json.loads(out)
    check_schema(payload, "policy")
    assert code == 0
    assert payload["value"] == 10.0


def test_oracle_json_schema_and_agreement(capsys):
    code, out = run(capsys, "oracle", TIGER, "--horizon", "1")
    oracle_payload = json.loads(out)
    check_schema(oracle_payload, "oracle")
    _, out2 = run(capsys, "policy", TIGER, "--horizon", "1")
    policy_payload = json.loads(out2)
    assert oracle_payload["policy"] == policy_payload["policy"]
    assert oracle_payload["value"] == policy_payload["value"]


def test_check_json_schema(capsys):
    code, out = run(capsys, "check", TIGER, "--horizon", "1")
    payload = json.loads(out)
    check_schema(payload, "check")
    assert code == 0 and payload["ok"] is True


def test_discount_override_echoed(capsys):
    code, out = run(capsys, "solve", TIGER, "--horizon", "1",
                    "--discount", "1/2")
    assert code == 0
    assert json.loads(out)["discount"] == 0.5


def test_discount_override_out_of_range(capsys):
    assert main(["solve", TIGER, "--horizon", "1", "--discount", "1"]) == 1


def test_sat_text_and_sidecar(capsys, tmp_path):
    out_path = tmp_path / "tiger.cnf"
    code, _ = run(capsys, "sat", TIGER, "--horizon", "1",
                  "--out", str(out_path))
    assert code == 0
    header = out_path.read_text().splitlines()[0].split()
    assert header[:2] == ["p", "cnf"]
    sidecar = json.loads((tmp_path / "tiger.cnf.atoms.json").read_text())
    assert len(sidecar) == int(header[2])
    assert sidecar[0]["var"] == 1


def test_sat_json_schema(capsys):
    code, out = run(capsys, "sat", TIGER, "--horizon", "1",
                    "--format", "json")
    payload = json.loads(out)
    check_schema(payload, "sat")
    assert code == 0


def test_sat_model_count_matches_solve(capsys):
    from apoplan import sat as satmod
    _, dimacs = run(capsys, "sat", TIGER, "--horizon", "1")
    clauses, nvars = satmod.parse_dimacs(dimacs)
    _, solve_out = run(capsys, "solve", TIGER, "--horizon", "1")
    count = sum(1 for _ in satmod.enumerate_models(clauses, nvars))
    assert count == json.loads(solve_out)["count"]


def test_fuzz_deterministic_and_valid(capsys, tmp_path):
    _, first = run(capsys, "fuzz", "--seed", "7")
    _, second = run(capsys, "fuzz", "--seed", "7")
    assert first == second
    theory_path = tmp_path / "gen.apo"
    theory_path.write_text(first)
    assert main(["validate", str(theory_path)]) == 0


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "prog.txt"
    code, out = run(capsys, "compile", TIGER, "--horizon", "1",
                    "--out", str(target))
    assert code == 0 and out == ""
    assert "% schema" in target.read_text()


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", THEORY_COMMANDS + ["fuzz"])
def test_unwritable_out_exits_1_naming_the_path(capsys, tmp_path, command, target):
    out = tmp_path / "missing" / "x.out" if target == "missing-directory" else tmp_path
    argv = ["fuzz", "--seed", "7"] if command == "fuzz" else _theory_argv(command, TIGER)
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write {out}: "), err
    assert "Traceback" not in err


def test_unwritable_sat_atom_map_exits_1_naming_the_path(capsys, tmp_path):
    out = tmp_path / "t.cnf"
    (tmp_path / "t.cnf.atoms.json").mkdir()
    code = main(["sat", TIGER, "--horizon", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write {out}.atoms.json: "), err
    assert out.read_text().startswith("p cnf ")


def test_solve_renders_each_distinct_atom_once(capsys):
    nplp.render_atom.cache_clear()
    code, out = run(capsys, "solve", TIGER, "--horizon", "2")
    assert code == 0 and json.loads(out)["count"] == 128
    # `to_sat`, `sort_answer_sets` and the payload each rendered every atom
    # they met, 309 renders of these 114 atoms
    assert nplp.render_atom.cache_info().misses == 114


def test_format_ignores_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("APOPLAN_FORMAT", "json")
    assert run(capsys, "validate", TIGER) == (0, "ok\n")


def test_cross_sensing_check_and_sat(capsys):
    code, out = run(capsys, "check", CROSS_SENSING, "--horizon", "2")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "check")
    assert [c["ok"] for c in payload["checks"]] == [True] * 4
    assert payload["checks"][3]["detail"] == "64 models = 64 answer sets"
    code, out = run(capsys, "sat", CROSS_SENSING, "--horizon", "2")
    assert code == 0
    assert out.startswith("p cnf ")


def test_tiger_check_horizon_3(capsys):
    code, out = run(capsys, "check", TIGER, "--horizon", "3")
    assert code == 0
    payload = json.loads(out)
    assert [c["ok"] for c in payload["checks"]] == [True] * 4
    assert payload["checks"][3]["detail"] == "1024 models = 1024 answer sets"


def test_cross_sensing_solve(capsys):
    code, out = run(capsys, "solve", CROSS_SENSING, "--horizon", "2")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "solve")
    assert payload["count"] == len(payload["answer_sets"]) == 64


def test_annotated_answer_set_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(compiler, "compile_theory", lambda theory, horizon:
                        nplp.NpProgram(rules=(nplp.NpRule(head=("a",)),)))
    assert main(["solve", TIGER, "--horizon", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: annotated answer sets: ")


def test_stage_errors_share_one_base():
    for error in (oracle.OracleError, policies.PolicyError, nplp.NplpError,
                  sat.SatError, compiler.CompileError):
        assert issubclass(error, ApoError), error


@pytest.mark.parametrize("command, module, name, error", [
    ("oracle", oracle, "optimal_policy", oracle.OracleError),
    ("solve", sat, "enumerate_models", sat.SatError),
    ("policy", policies, "best_policy", policies.PolicyError),
])
def test_stage_errors_exit_3(capsys, monkeypatch, command, module, name, error):
    def fail(*args, **kwargs):
        raise error("seeded fault")
    monkeypatch.setattr(module, name, fail)
    assert main([command, TIGER, "--horizon", "1"]) == 3
    assert capsys.readouterr() == ("", "internal error: seeded fault\n")


def test_solve_fault_after_some_answer_sets_writes_nothing(capsys, monkeypatch, tmp_path):
    enumerate_models = sat.enumerate_models

    def fail_after_one(*args):
        yield next(enumerate_models(*args))
        raise sat.SatError("seeded fault")
    monkeypatch.setattr(sat, "enumerate_models", fail_after_one)
    target = tmp_path / "sets.json"
    assert main(["solve", TIGER, "--horizon", "1", "--out", str(target)]) == 3
    assert not target.exists()
    assert main(["solve", TIGER, "--horizon", "1"]) == 3
    assert capsys.readouterr().out == ""


# The tracemalloc peak of one command, after a first command at horizon 1 has
# imported and compiled every module it needs.
_PEAK_SCRIPT = ("import sys, tracemalloc\n"
                "from apoplan.cli import main\n"
                "command, path, out = sys.argv[1:4]\n"
                "assert main([command, path, '--horizon', '1', '--out', out]) == 0\n"
                "tracemalloc.start()\n"
                "assert main([command, path, '--out', out] + sys.argv[4:]) == 0\n"
                "print(tracemalloc.get_traced_memory()[1])\n")


@pytest.mark.parametrize("command, bound_mb", [
    # all answer sets and reports listed: 4.6 MB; folded: 0.7 MB
    ("policy", 1.5),
    # the payload dicts and the whole JSON text built: 22.9 MB; streamed: 4.1 MB
    ("solve", 8.0),
    # the answer sets, their reports and their models listed, and each valid
    # report's trajectory derived twice: 9.1 MB; one reading, none kept: 6.1 MB
    ("check", 7.5),
])
def test_horizon_3_memory_is_bounded(tmp_path, command, bound_mb):
    peak = int(fresh_python(_PEAK_SCRIPT, command, TIGER, str(tmp_path / "out"),
                            "--horizon", "3"))
    assert peak < bound_mb * 1e6, f"{command}: tracemalloc peak {peak / 1e6:.2f} MB"


# Runs `main` on each argument, split at newlines, and prints the exit codes
# and then every module loaded; it imports nothing that `main` might not.
_MAIN_SCRIPT = ("import io, sys\n"
                "from apoplan.cli import main\n"
                "out, sys.stdout = sys.stdout, io.StringIO()\n"
                "codes = [main(argv.split('\\n')) for argv in sys.argv[1:]]\n"
                "print(*codes, file=out)\n"
                "print(*sys.modules, file=out)\n")


def _run_fresh(*argvs: list[str]) -> tuple[list[int], set[str]]:
    """The exit code of `main(argv)` for each of `argvs`, run one after
    another in one fresh process, and the modules loaded after the last."""
    codes, modules = fresh_python(_MAIN_SCRIPT, *map("\n".join, argvs)).splitlines()
    return [int(c) for c in codes.split()], set(modules.split())


def _loaded_modules(tmp_path, *argv) -> set[str]:
    """The apoplan modules in `sys.modules` after `main(argv)`."""
    codes, modules = _run_fresh([*argv, "--out", str(tmp_path / "out")])
    assert codes == [0]
    return {m for m in modules if m == "apoplan" or m.startswith("apoplan.")}


def test_commands_import_only_what_they_run(tmp_path, spans):
    base = {"apoplan", "apoplan.cli", "apoplan.theory"}
    assert _loaded_modules(tmp_path, "validate", TIGER) == base
    assert _loaded_modules(tmp_path, "oracle", TIGER, "--horizon", "1") \
        == base | {"apoplan.oracle"}
    # `perfbench/spans.py` looks up every module it wraps in sys.modules, and
    # the tiger-sat workload runs nothing but `sat`, so `sat` must load them
    # all, `policies` included
    wrapped = {modname for modname, _, _, _ in spans.SPANS}
    assert wrapped <= _loaded_modules(tmp_path, "sat", TIGER, "--horizon", "1")


def test_no_command_loads_argparse_and_only_json_writers_load_json(tmp_path):
    out = ["--out", str(tmp_path / "out")]
    h1 = ["--horizon", "1"]
    codes, modules = _run_fresh(["validate", TIGER, *out], ["ground", TIGER, *out],
                                ["compile", TIGER, *h1, *out], ["normalize", TIGER, *h1, *out])
    assert codes == [0] * 4
    assert not {"json", "argparse", "gettext", "locale"} & modules
    codes, modules = _run_fresh(
        *([command, TIGER, *h1, *out] for command in ("sat", "solve", "policy", "oracle", "check")),
        ["validate", TIGER, "--format", "json", *out], ["fuzz", "--seed", "7", *out],
        ["--help"], ["check", "--help"], ["check", TIGER, "--bogus"])
    assert codes == [0] * 9 + [1]
    assert "json" in modules
    assert not {"argparse", "gettext", "locale"} & modules


def test_package_imports_neither_dataclasses_nor_inspect():
    # every command runs in a fresh process, and importing `dataclasses`,
    # which imports `inspect`, would add to the start-up of each one
    script = ("import sys\n"
              "import apoplan.cli, apoplan.compiler, apoplan.policies\n"
              "import apoplan.oracle, apoplan.sat, apoplan.fuzz\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    assert fresh_python(script) == "[]\n"


def test_planning_commands_build_no_least_model_engine(capsys, monkeypatch):
    # the annotated answer sets come from one pass over the probability
    # rules per completion model, not from the reference definitions
    def refuse(program):
        raise AssertionError("reference definition called")
    monkeypatch.setattr(nplp, "least_model", refuse)
    monkeypatch.setattr(nplp, "enumerate_answer_sets", refuse)
    for command in ("solve", "policy", "check"):
        assert main([command, TIGER, "--horizon", "2"]) == 0, command
    capsys.readouterr()


def _count_calls(monkeypatch, *targets) -> collections.Counter:
    """A counter of the calls to each `(module, name)`, wrapping the function
    in every apoplan module that holds it, since some modules import it by
    name."""
    counts = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        for holder in list(sys.modules.values()):
            if (getattr(holder, "__name__", "").startswith("apoplan")
                    and getattr(holder, name, None) is fn):
                monkeypatch.setattr(holder, name, counted)

    for module, name in targets:
        count(module, name)
    return counts


@pytest.mark.parametrize("command", THEORY_COMMANDS)
def test_each_command_grounds_and_validates_once(capsys, monkeypatch, command):
    counts = _count_calls(monkeypatch, (theory, "ground_theory"),
                          (theory, "validate_theory"))
    assert main(_theory_argv(command, TIGER)) == 0
    capsys.readouterr()
    assert counts == {"ground_theory": 1, "validate_theory": 1}, counts


def test_check_runs_each_stage_once(capsys, monkeypatch):
    counts = _count_calls(
        monkeypatch, (compiler, "compile_theory"), (compiler, "normalize"),
        (compiler, "to_sat"), (compiler, "normal_answer_sets"),
        (sat, "enumerate_models"), (policies, "extract_report"),
        (policies, "stationary_action_map"),
        (oracle, "enumerate_policies"), (oracle, "initial_states"))
    code, out = run(capsys, "check", TIGER, "--horizon", "2")
    assert code == 0 and json.loads(out)["ok"] is True
    assert counts["compile_theory"] == 1
    assert counts["normalize"] == 1
    assert counts["to_sat"] == 1
    assert counts["normal_answer_sets"] == 1
    assert counts["enumerate_models"] == 1
    assert counts["extract_report"] == 128
    # once per valid report, for checks 1 and 2 together
    assert counts["stationary_action_map"] == 32
    assert counts["enumerate_policies"] == 0  # counted, not listed
    # once, for the oracle: the compiler closes the initial formulas itself
    assert counts["initial_states"] == 1, counts


def test_oracle_computes_the_policy_space_once(capsys, monkeypatch):
    counts = _count_calls(monkeypatch, (oracle, "initial_states"),
                          (oracle, "_policy_choices"), (oracle, "reachable_states"))
    code, out = run(capsys, "oracle", TIGER, "--horizon", "2")
    assert code == 0 and json.loads(out)["value"] == 19.0
    assert counts == {"initial_states": 1, "_policy_choices": 1,
                      "reachable_states": 1}, counts


def test_oracle_refuses_a_policy_space_it_cannot_list():
    # bits4 at horizon 3: 4^11 policies, which `optimal_policy` would list
    # and evaluate one by one for minutes
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-m", "apoplan.cli", "oracle", BITS4,
                           "--horizon", "3"], capture_output=True, text=True,
                          env=env, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: 4194304 policies"), proc.stderr
    assert str(oracle.MAX_POLICIES) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_walks_each_oracle_trajectory_once(capsys, monkeypatch):
    counts = _count_calls(
        monkeypatch, (oracle, "_extend"), (oracle, "enumerate_trajectories"),
        (oracle, "trajectory_value"), (oracle, "belief_value"),
        (oracle, "enumerate_policies"))
    code, out = run(capsys, "check", TIGER, "--horizon", "2")
    assert code == 0 and json.loads(out)["ok"] is True
    # checks 1 and 2 read one walk of the 16 stationary trajectories (38
    # `_extend` calls), where a walk per policy made 81 walks of 288 (666)
    assert counts == {"_extend": 38, "enumerate_trajectories": 1,
                      "trajectory_value": 16}, counts


def test_check_compares_millions_of_policies_without_listing_them(capsys):
    # bits4 at horizon 3: 4^11 policies over its 11 reachable states, 512
    # answer sets and 176 stationary trajectories
    t0 = time.monotonic()
    code, out = run(capsys, "check", BITS4, "--horizon", "3")
    elapsed = time.monotonic() - t0
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True
    assert [c["detail"] for c in payload["checks"][:2]] == [
        "176 trajectories on each side", "4194304 policies compared exactly"]
    assert elapsed < 10.0, elapsed


def test_a_passing_check_sorts_no_answer_sets_and_solve_sorts_what_it_prints(
        capsys, monkeypatch):
    sizes = []
    sort = nplp.sort_answer_sets

    def recorded(sets):
        sizes.append(len(sets))
        return sort(sets)
    for holder in list(sys.modules.values()):
        if (getattr(holder, "__name__", "").startswith("apoplan")
                and getattr(holder, "sort_answer_sets", None) is sort):
            monkeypatch.setattr(holder, "sort_answer_sets", recorded)
    code, out = run(capsys, "check", TIGER, "--horizon", "2")
    assert code == 0 and json.loads(out)["ok"] is True
    assert set(sizes) <= {0}  # only the empty counterexample sets
    sizes.clear()
    code, out = run(capsys, "solve", TIGER, "--horizon", "2")
    assert code == 0 and json.loads(out)["count"] == 128
    assert sizes == [128]


def test_policy_runs_each_stage_once(capsys, monkeypatch):
    counts = _count_calls(
        monkeypatch, (compiler, "to_sat"), (sat, "enumerate_models"),
        (oracle, "enumerate_policies"), (oracle, "reachable_states"),
        (oracle, "initial_states"))
    code, out = run(capsys, "policy", TIGER, "--horizon", "2")
    assert code == 0 and json.loads(out)["value"] == 19.0
    # the policy space comes from the answer sets, not from the oracle
    assert counts == {"to_sat": 1, "enumerate_models": 1}, counts
    assert [counts[name] for name in ("enumerate_policies", "reachable_states",
                                      "initial_states")] == [0, 0, 0]


def test_policy_searches_millions_of_policies_without_listing_them(capsys):
    # bits4 at horizon 3: 4^11 policies, which the oracle would list
    t0 = time.monotonic()
    code, out = run(capsys, "policy", BITS4, "--horizon", "3")
    elapsed = time.monotonic() - t0
    assert code == 0
    assert elapsed < 10.0, elapsed
    payload = json.loads(out)
    check_schema(payload, "policy")
    bits4 = theory.parse_theory(Path(BITS4).read_text())
    best = policies.best_policy(policies.Run(bits4, 3))
    assert oracle.policy_to_json(best.policy) == payload["policy"]
    assert best.value == oracle.belief_value(bits4, best.policy, 3,
                                             oracle.initial_belief(bits4))
    assert payload["value"] == float(best.value)
