#!/usr/bin/env python3
"""Run the randomized invariant sweep over generated theories.

For every seed: the theory validates, transition/observation rows sum to one,
closures give complete consistent states, belief updates stay normalized, and
the four oracle cross-checks of `apoplan check` pass at horizon 1, where the
policy that `apoplan policy` searches for must also be `oracle.optimal_policy`,
with the same exact value; for
a subset of seeds the compiled program's answer sets, as the CLI computes
them, are checked for exactly one occ atom per step and no complementary
holds-literals, and against the definition: each is the least model of the
program's reduct by itself, with exact values, and `solve`'s payload
(`answer_sets_json`) lists them in `answer_set_sort_key` order.  Their atoms
outside the probability families must also be, one for one, the answer sets
that `compiler.normal_answer_sets` finds for the normal program; since an
answer set is fixed by its values on the negated atoms, which are normal
atoms, no answer set is left out.
"""

import argparse
import itertools
import json
import time
from fractions import Fraction

from apoplan import compiler, oracle, policies
from apoplan.fuzz import generate_theory
from apoplan.nplp import (
    answer_set_sort_key, answer_sets_json, least_model, reduct, render_atom,
)
from apoplan.theory import validate_theory


def check_theory(theory) -> None:
    assert validate_theory(theory)
    init = oracle.initial_states(theory)
    assert sum(p for _, p in init) == 1
    for action in theory.actions:
        for state, _ in init:
            if not oracle.is_executable(theory, state, action):
                continue
            row = sum(p for _, _, p, _ in oracle.successors(theory, state, action))
            assert row == 1, f"row sum {row} for {action.name}"
    belief = oracle.initial_belief(theory)
    for action in theory.actions:
        updated = oracle.belief_update(theory, belief, action.name)
        assert sum(updated.values()) == 1


def check_against_oracle(theory, seed: int) -> None:
    run = policies.Run(theory, 1)
    failed = [c for c in policies.cross_check(run) if not c.ok]
    assert not failed, f"seed {seed} fails " + "; ".join(
        f"{c.name} ({c.detail})" for c in failed)
    best = policies.best_policy(run)
    policy, value = oracle.optimal_policy(theory, 1)
    assert (best.policy, best.value) == (policy, value), \
        f"seed {seed}: best_policy gives value {best.value}, the oracle {value}"


def interpretation(layers) -> dict:
    """The answer set whose layers are `layers`, as one dict: the normal
    atoms at 1, the derived atoms at their values."""
    h = dict.fromkeys(itertools.chain.from_iterable(l.atoms for l in layers), Fraction(1))
    h.update(layers[-1].values)
    return h


def check_answer_sets(theory, horizon: int) -> None:
    run = policies.Run(theory, horizon)
    layered = list(run.iter_layers())
    answer_sets = [interpretation(layers) for layers in layered]
    for h in answer_sets:
        assert least_model(reduct(run.program, h)) == h, \
            "an annotated answer set is not the least model of its reduct"
        assert all(type(v) is Fraction for v in h.values())
    written = json.loads("".join(answer_sets_json(horizon, run.theory.discount, layered)))
    assert written["answer_sets"] == [
        {render_atom(a): float(v) for a, v in h.items()}
        for h in sorted(answer_sets, key=answer_set_sort_key)], \
        "answer_sets_json disagrees with answer_set_sort_key"
    atoms = run.normal.atoms()
    normal_atoms = [frozenset(a for a in h if a in atoms) for h in answer_sets]
    normal_sets = [compiler.atoms_of_key(k, run.cnf.atoms) for k in run.normal_sets]
    # sorted lists, not sets, so that a repeated answer set still fails
    assert sorted(normal_sets, key=answer_set_sort_key) \
        == sorted(normal_atoms, key=answer_set_sort_key), \
        "normal_answer_sets differs from the normal atoms of the annotated answer sets"
    for h in answer_sets:
        for t in range(horizon):
            occ = [a for a, v in h.items()
                   if a[0] == "occ" and a[2] == t and v >= 1]
            assert len(occ) == 1, occ
        for t in range(horizon + 1):
            holds = {a[1] for a, v in h.items()
                     if a[0] == "holds" and a[2] == t and v >= 1}
            for lit in holds:
                comp = lit[1:] if lit.startswith("-") else "-" + lit
                assert comp not in holds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=500)
    parser.add_argument("--deep-seeds", type=int, default=25,
                        help="seeds also checked through answer-set enumeration")
    parser.add_argument("--horizon", type=int, default=2)
    args = parser.parse_args()

    t0 = time.time()
    for seed in range(args.seeds):
        theory = generate_theory(seed)
        check_theory(theory)
        check_against_oracle(theory, seed)
        if seed < args.deep_seeds:
            check_answer_sets(theory, args.horizon)
    print(f"{args.seeds} theories ({args.deep_seeds} with answer-set checks) "
          f"passed, all cross-checked at horizon 1, in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
