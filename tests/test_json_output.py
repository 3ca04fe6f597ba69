"""Every JSON output is what `json.dumps(payload, indent=2)` writes: the
package's writer, `apoplan.json_text`, against `json.dumps` on generated
values, and each JSON-writing command's output read and written again."""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from apoplan import json_text
from apoplan.cli import main

from test_golden import CASES, DOMAINS, _theory_paths

TIGER = str(DOMAINS / "tiger.apo")

_TEXT = st.text(st.characters(codec="utf-8")) | st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é ﻿\U0001f600 aZ~'))
_SCALARS = (st.none() | st.booleans() | _TEXT
            | st.integers() | st.integers(min_value=-10**40, max_value=10**40)
            | st.floats() | st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1e-7, 0.95, 2.0**53]))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
@example({"é\x7f": [float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 5e-324],
          "\t\"\\": [{}, [], (), 10**40, -10**40, True, None, "\x00\U0001f600"]})
def test_json_text_is_what_json_dumps_writes(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {(1,): 2}, {"a": {2.5: []}}])
def test_json_text_refuses_a_key_that_is_not_a_string(value):
    with pytest.raises(TypeError, match="is not a string"):
        json_text(value)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", {"a": [object()]}])
def test_json_text_refuses_what_json_cannot_write(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json_text(value)


def _assert_round_trips(out: str):
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def _stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def theory_paths(tmp_path_factory):
    return _theory_paths(tmp_path_factory.mktemp("fuzz"))


_JSON_CASES = [(case, name, argv) for case, name, argv in CASES
               if argv[0] in ("solve", "policy", "oracle", "check") or "json" in argv]


@pytest.mark.parametrize("name,argv", [(name, argv) for _, name, argv in _JSON_CASES],
                         ids=[case for case, _, _ in _JSON_CASES])
def test_each_json_output_of_the_golden_matrix_round_trips(theory_paths, name, argv):
    command, *rest = argv
    code, out = _stdout([command, theory_paths[name], *rest])
    assert code in (0, 2) and out
    _assert_round_trips(out)


@pytest.mark.parametrize("text,code,part", [
    ((DOMAINS / "tiger.apo").read_text(encoding="utf-8"), 0, '"valid": true'),
    ("fluent f.\ninitially {f}: 1.\n", 2, "no action is executable"),
    ("fluent café.\n", 2, "unexpected character '\\u00e9'"),
], ids=["valid", "invalid", "non-ascii"])
def test_validate_json_round_trips(tmp_path, text, code, part):
    path = tmp_path / "theory.apo"
    path.write_text(text, encoding="utf-8")
    got, out = _stdout(["validate", str(path), "--format", "json"])
    assert got == code and part in out
    _assert_round_trips(out)


def test_sat_atom_map_sidecar_round_trips(tmp_path):
    out = tmp_path / "tiger.cnf"
    assert main(["sat", TIGER, "--horizon", "2", "--out", str(out)]) == 0
    _assert_round_trips((tmp_path / "tiger.cnf.atoms.json").read_text(encoding="utf-8"))
