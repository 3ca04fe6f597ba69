"""The traced benchmark (`perfbench/run.py --trace 1`) wraps the functions that
`perfbench/spans.py` lists by module and attribute name; each must exist."""

import importlib


def test_every_span_target_resolves(spans):
    assert spans.SPANS
    for modname, attr, _, _ in spans.SPANS:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(target, part), f"{modname}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"{modname}.{attr}"
