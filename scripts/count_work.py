#!/usr/bin/env python3
"""Work counts and in-process stage times of one apoplan command.

    python3 scripts/count_work.py -- check domains/tiger.apo --horizon 3

Runs `apoplan.cli.main` on the arguments, with the `src` directory of the
checkout that holds this script first on the path and the output discarded,
and prints one JSON object: the command, its exit code, its counts and two
CPU times.  `models` counts the models that `sat.enumerate_models` yields
(one per answer set for `solve`, `policy` and `check`), `firings` the calls
of `nplp.iter_rule_firings`, and `layers` the layers that
`compiler.iter_answer_set_layers` derives rather than keeps from the answer
set before; it is null in a checkout without that function.  The counts do
not depend on the host, so a change can be judged by them without timing
noise.  `search_s` is the CPU time spent inside `sat.enumerate_models`, and
`answer_sets_s` that spent inside the generator the pipeline enumerates
answer sets with (`compiler.iter_answer_set_layers`, or
`compiler.iter_annotated_answer_sets` in a checkout without it), search
included: their difference is decoding and firing.

With `--label L`, the object, tagged with `--side`, is also appended to the
`counts` of `BENCH_L.json` in the current directory, the record that
`scripts/measure_cli.py --label L` writes.  Run the copy of this script in
another checkout to count that checkout's work.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def count(command: list[str]) -> dict:
    sys.path.insert(0, SRC)
    from apoplan import cli, compiler, nplp, policies, sat  # noqa: F401 (loads the pipeline)

    def replace(original, wrapper):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("apoplan"):
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    fire, models = nplp.iter_rule_firings, sat.enumerate_models
    layered = getattr(compiler, "iter_answer_set_layers", None)
    answer_sets = layered or compiler.iter_annotated_answer_sets
    counts = {"models": 0, "firings": 0, "layers": None if layered is None else 0,
              "search_s": 0.0, "answer_sets_s": 0.0}

    def timed(items, key):
        """`items`, with the CPU time spent making each added to `counts[key]`."""
        items = iter(items)
        while True:
            start = time.process_time()
            item = next(items, counts)
            counts[key] += time.process_time() - start
            if item is counts:
                return
            yield item

    def counted_firings(*args, **kwargs):
        counts["firings"] += 1
        return fire(*args, **kwargs)

    def counted_models(*args, **kwargs):
        for model in timed(models(*args, **kwargs), "search_s"):
            counts["models"] += 1
            yield model

    def counted_answer_sets(*args, **kwargs):
        before: tuple = ()
        for layers in timed(answer_sets(*args, **kwargs), "answer_sets_s"):
            if layered is not None:
                counts["layers"] += sum(k >= len(before) or layer is not before[k]
                                        for k, layer in enumerate(layers))
                before = layers
            yield layers

    replace(fire, counted_firings)
    replace(models, counted_models)
    replace(answer_sets, counted_answer_sets)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(command)
    return {"command": command, "exit_code": code, **counts,
            "search_s": round(counts["search_s"], 4),
            "answer_sets_s": round(counts["answer_sets_s"], 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default=None,
                        help="also append the result to the counts of BENCH_<label>.json")
    parser.add_argument("--side", default=None,
                        help="tag stored with the result, such as before or after")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the apoplan arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("need an apoplan command")
    result = count(command)
    if args.side is not None:
        result = {"side": args.side, **result}
    print(json.dumps(result))
    if args.label:
        path = f"BENCH_{args.label}.json"
        record = {"measurements": []}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                record = json.load(f)
        record.setdefault("counts", []).append(result)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if result["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
