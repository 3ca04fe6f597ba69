"""Seeded random generation of small valid action theories.

Theories are valid by construction: initial entries are complete states with
probabilities summing to one, every action's conditions partition the state
space on a single fluent, per-condition outcome probabilities sum to one, and
sensing actions report on a fluent distinct from the one they read.  The
generator emits concrete theory text and parses it back, so fuzzing also
exercises the parser.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .theory import ActionTheory, parse_theory, validate_theory

MAX_FLUENTS = 3
MAX_ACTIONS = 3


def _weights_to_probs(rng: random.Random, k: int) -> list[Fraction]:
    weights = [rng.randint(1, 5) for _ in range(k)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def generate_theory_text(seed: int) -> str:
    rng = random.Random(seed)
    nf = rng.randint(1, MAX_FLUENTS)
    fluents = [f"f{i}" for i in range(1, nf + 1)]
    lines = [f"fluent {', '.join(fluents)}."]

    # initial belief: distinct complete states with probabilities summing to 1
    all_states = [
        frozenset(f if bit else "-" + f for f, bit in zip(fluents, bits))
        for bits in itertools.product((0, 1), repeat=nf)
    ]
    k = rng.randint(1, min(3, len(all_states)))
    chosen = rng.sample(all_states, k)
    probs = _weights_to_probs(rng, k)
    entries = [
        "{" + ", ".join(sorted(s)) + "}: " + str(p)
        for s, p in zip(chosen, probs)
    ]
    lines.append("initially " + " ; ".join(entries) + ".")

    na = rng.randint(1, MAX_ACTIONS)
    names = [f"a{i}" for i in range(1, na + 1)]
    for name in names:
        lines.append(f"executable {name} if {{}}.")

    def random_effect(exclude: set[str]) -> str:
        pool = [f for f in fluents if f not in exclude]
        size = rng.randint(0, min(2, len(pool)))
        lits = sorted(
            (f if rng.random() < 0.5 else "-" + f)
            for f in rng.sample(pool, size))
        return "{" + ", ".join(lits) + "}"

    for name in names:
        sensing = nf >= 2 and rng.random() < 0.4
        if sensing:
            reading = rng.choice(fluents)
            report = rng.choice([f for f in fluents if f != reading])
            clauses = []
            for cond_lit in (reading, "-" + reading):
                p = Fraction(rng.randint(1, 9), 10)
                r = rng.randint(-5, 5)
                clauses.append(
                    f"{{{report}}}: {p}: {r} sensing {{{cond_lit}}}")
                clauses.append(
                    f"{{-{report}}}: {1 - p}: {r} sensing {{{cond_lit}}}")
            lines.append(f"action {name} observes\n    "
                         + " ;\n    ".join(clauses) + ".")
        else:
            cond_fluent = rng.choice(fluents)
            clauses = []
            for cond_lit in (cond_fluent, "-" + cond_fluent):
                n_out = rng.randint(1, 2)
                out_probs = _weights_to_probs(rng, n_out)
                for p in out_probs:
                    r = rng.randint(-5, 5)
                    clauses.append(
                        f"{random_effect(set())}: {p}: {r} "
                        f"if {{{cond_lit}}}")
            lines.append(f"action {name} causes\n    "
                         + " ;\n    ".join(clauses) + ".")

    discount = rng.choice([Fraction(1, 2), Fraction(9, 10)])
    lines.append(f"discount {discount}.")
    return "\n".join(lines) + "\n"


def generate_theory(seed: int) -> ActionTheory:
    """Deterministically derive a valid theory from `seed`.

    Most candidates validate directly; the rest (e.g. an initial state whose
    report literal contradicts what its sensing closure implies) are skipped by
    retrying with a derived sub-seed."""
    for attempt in range(100):
        text = generate_theory_text(seed * 1009 + attempt)
        theory = parse_theory(text)
        if validate_theory(theory):
            return theory
    raise RuntimeError(f"no valid theory found for seed {seed}")
