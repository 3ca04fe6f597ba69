"""The traced benchmark (`perfbench/run.py --trace 1`) wraps the functions that
`perfbench/spans.py` lists by module and attribute name; each must exist."""

import importlib
import types
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    # executed from its source, so nothing is written under perfbench/
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


def test_every_span_target_resolves():
    spans = _load_spans().SPANS
    assert spans
    for modname, attr, _, _ in spans:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(target, part), f"{modname}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"{modname}.{attr}"
