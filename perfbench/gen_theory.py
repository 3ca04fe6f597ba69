"""Seeded generator of the `.apo` theories that the check-mix workload checks.

Every theory has the same make-up, so the work a `check --horizon 2` does on
it does not depend on the seed:

- a finite domain `D = {p, q}` and the fluents `on(D)`, grounded to `on(p)`
  (hidden) and `on(q)` (its noisy report);
- two initial states, `{on(p), on(q)}` and `{-on(p), -on(q)}`;
- `push(D)`, executable only if `on(D)` (a precondition with a variable),
  with two outcomes, one of which clears `on(q)`;
- `listen`, a sensing action that reads `on(p)` and reports it through
  `on(q)`, correctly with probability 3/5 to 9/10;
- a goal `{-on(q)}` and a discount of 1/2 or 9/10.

The seed picks the probabilities, rewards and discount, never the shape.
Only `on(p)` is read and only `on(q)` is reported, so no literal is both a
sensing condition and a sensing report; theories of this shape are never hit
by the self-supporting schema-14 rules that break `check` on
`inputs/cross_sensing.apo`.

Run `python perfbench/gen_theory.py --seed 7` to print one theory.
"""

from __future__ import annotations

import argparse
import random
from fractions import Fraction


def _prob(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


def theory_text(seed: int) -> str:
    rng = random.Random(seed)
    p_init = Fraction(rng.randint(1, 9), 10)
    p_push = Fraction(rng.randint(1, 9), 10)
    p_listen = Fraction(rng.randint(6, 9), 10)  # > 1/2: on(q) starts out right
    rw = [rng.randint(-5, 5) for _ in range(2)]
    discount = rng.choice([Fraction(1, 2), Fraction(9, 10)])
    return "\n".join([
        f"% perfbench/gen_theory.py --seed {seed}",
        "domain D = {p, q}.",
        "fluent on(D).",
        f"initially {{on(p), on(q)}}: {_prob(p_init)} ; "
        f"{{-on(p), -on(q)}}: {_prob(1 - p_init)}.",
        "executable push(D) if {on(D)}.",
        "executable listen if {}.",
        "action push(D) causes",
        f"    {{}}: {_prob(p_push)}: {rw[0]} if {{on(D)}} ;",
        f"    {{-on(q)}}: {_prob(1 - p_push)}: {rw[1]} if {{on(D)}}.",
        "action listen observes",
        f"    {{on(q)}}: {_prob(p_listen)}: -1 sensing {{on(p)}} ;",
        f"    {{-on(q)}}: {_prob(1 - p_listen)}: -1 sensing {{on(p)}} ;",
        f"    {{-on(q)}}: {_prob(p_listen)}: -1 sensing {{-on(p)}} ;",
        f"    {{on(q)}}: {_prob(1 - p_listen)}: -1 sensing {{-on(p)}}.",
        "goal {-on(q)}.",
        f"discount {_prob(discount)}.",
        "",
    ])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    print(theory_text(parser.parse_args().seed), end="")


if __name__ == "__main__":
    main()
