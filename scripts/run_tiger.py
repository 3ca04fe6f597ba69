#!/usr/bin/env python3
"""End-to-end walk through the pipeline on the tiger domain.

Prints the one-step policy values computed three independent ways, the answer
set counts per horizon, the cross-check results, and the documented divergence
between the two value definitions at horizon 2.
"""

import argparse
import time
from pathlib import Path

from apoplan import oracle, policies
from apoplan.theory import parse_theory

TIGER = Path(__file__).resolve().parent.parent / "domains" / "tiger.apo"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-horizon", type=int, default=2)
    args = parser.parse_args()

    theory = parse_theory(TIGER.read_text())
    belief = oracle.initial_belief(theory)

    print("== one-step policy values (three computations) ==")
    states = oracle.reachable_states(theory, 1)
    run = policies.Run(theory, 1)
    for name in ("listen", "openL", "openR"):
        policy = {s: name for s in states}
        v_sum = oracle.belief_value(theory, policy, 1, belief)
        v_rec = sum(p * oracle.recursive_value(theory, policy, 1, s)
                    for s, p in belief.items())
        v_asp = policies.group_policies(theory, run.reports, [policy])[0].value
        print(f"  {name:7s} trajectory-sum={v_sum}  recursive={v_rec}  "
              f"answer-sets={v_asp}")

    print("\n== answer sets and cross-checks per horizon ==")
    for n in range(1, args.max_horizon + 1):
        t0 = time.time()
        if n > 1:  # the horizon-1 run serves the one-step values too
            run = policies.Run(theory, n)
        checks = policies.cross_check(run)
        status = "all pass" if all(c.ok for c in checks) else "FAILURES"
        print(f"  horizon {n}: {len(run.answer_sets)} answer sets, checks {status} "
              f"({time.time() - t0:.1f}s)")
        for c in checks:
            print(f"    {c.name}: {'ok' if c.ok else 'FAIL'} — {c.detail}")

    print("\n== best policy by answer-set aggregation ==")
    # the run of the last horizon above
    best = policies.best_policy(run)
    print(f"  value {best.value} from {best.contributors} answer sets")
    for entry in oracle.policy_to_json(best.policy):
        print(f"  {','.join(entry['state'])} -> {entry['action']}")

    print("\n== documented divergence of the two value definitions ==")
    policy = {s: "listen" for s in oracle.reachable_states(theory, 2)}
    v_sum = oracle.belief_value(theory, policy, 2, belief)
    v_rec = sum(p * oracle.recursive_value(theory, policy, 2, s)
                for s, p in belief.items())
    print(f"  all-listen, horizon 2: trajectory-sum={v_sum}, "
          f"recursive={v_rec}, difference={v_sum - v_rec}")
    print("  (the trajectory-sum definition re-counts each step-1 reward once "
          "per step-2 extension)")


if __name__ == "__main__":
    main()
