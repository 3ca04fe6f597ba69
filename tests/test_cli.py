import json
from pathlib import Path

import jsonschema
import pytest

from apoplan.cli import main

REPO = Path(__file__).resolve().parent.parent
TIGER = str(REPO / "domains" / "tiger.apo")
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


def test_missing_file_exit_code(capsys):
    assert main(["validate", "/no/such/file.apo"]) == 1
    assert main(["compile", "/no/such/file.apo", "--horizon", "1"]) == 1


def test_bad_horizon_exit_code(capsys):
    assert main(["solve", TIGER, "--horizon", "0"]) == 1


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
    assert satmod.count_models(clauses, nvars) == json.loads(solve_out)["count"]


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


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("APOPLAN_FORMAT", "json")
    code, out = run(capsys, "validate", TIGER)
    assert code == 0
    assert json.loads(out)["valid"] is True


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
