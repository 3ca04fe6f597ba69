"""The traced benchmark (`perfbench/run.py --trace 1`) wraps the functions that
`perfbench/spans.py` lists by module and attribute name; each must exist, and
the pipeline must call each through the name that is wrapped."""

import importlib
import json

from conftest import SPANS_PATH, TIGER_PATH, fresh_python


def test_every_span_target_resolves(spans):
    assert spans.SPANS
    for modname, attr, _, _ in spans.SPANS:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(target, part), f"{modname}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"{modname}.{attr}"


def test_traced_check_runs_each_stage_once():
    # `perfbench/spans.py` is executed from its source, as the `spans`
    # fixture does, in a fresh interpreter whose modules it then wraps
    script = ("import contextlib, io, json, sys, types\n"
              "spans = types.ModuleType('perfbench_spans')\n"
              "path = sys.argv[1]\n"
              "with open(path, encoding='utf-8') as f:\n"
              "    exec(compile(f.read(), path, 'exec'), spans.__dict__)\n"
              "for modname, _, _, _ in spans.SPANS:\n"
              "    __import__(modname)\n"
              "tracer = spans.Tracer()\n"
              "tracer.install()\n"
              "compiler, walks = sys.modules['apoplan.compiler'], []\n"
              "walk = compiler.iter_answer_set_layers\n"
              "compiler.iter_answer_set_layers = lambda *a: walks.append(a) or walk(*a)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = sys.modules['apoplan.cli'].main(sys.argv[2:])\n"
              "print(json.dumps({'code': code, 'walks': len(walks), 'calls': {\n"
              "    name: t['calls'] for name, t in tracer.totals().items()}}))\n")
    result = json.loads(fresh_python(script, str(SPANS_PATH), "check",
                                     str(TIGER_PATH), "--horizon", "2"))
    assert result["code"] == 0 and result["walks"] == 1
    stages = ("compiler.compile", "compiler.normalize", "compiler.to_sat",
              "compiler.normal_answer_sets", "policies.reports",
              # one walk of the oracle's trajectories, and no policy list
              "oracle.enumerate")
    assert {name: result["calls"].get(name) for name in stages} \
        == dict.fromkeys(stages, 1), result["calls"]
    # the one walk of the answer-set layers searches each layer once per
    # value of its frontier: 1 + 2 + 4
    assert result["calls"]["sat.enumerate_models"] == 7, result["calls"]
