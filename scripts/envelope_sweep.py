#!/usr/bin/env python3
"""Sweep every algorithm row against the default adversary set and report
measured regret vs. the theoretical envelope across a comparator ladder.

This is the library-level version of `minimax-online run`; it prints a
summary table instead of writing trace files, and exits 1 if any envelope
is violated.
"""

import argparse
import math
import sys

from minimax_online import GameConfig, comparator_grid, make_rng, run_games, verify_bound
from minimax_online.checks import adversary_quartet, envelope_players


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=400)
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)

    T, d, G = args.rounds, args.dim, 1.0
    grid = comparator_grid(d, make_rng(777))

    print(f"{'strategy':<18} {'adversary':<20} {'checks':>6} {'violations':>10} {'min slack':>12}")
    any_violation = False
    configs = [GameConfig(dim=d, grad_bound=G, horizon=T, seed=seed) for seed in range(args.seeds)]
    for label, strat in envelope_players(T, G):
        for adv in adversary_quartet(G):
            checks, violations, min_slack = 0, 0, math.inf
            for trace in run_games(strat, adv, configs, T):
                for rep in verify_bound(trace, strat, grid):
                    checks += 1
                    if math.isfinite(rep.slack):
                        min_slack = min(min_slack, rep.slack)
                    if not rep.holds:
                        violations += 1
            any_violation |= violations > 0
            print(f"{label:<18} {adv.tag:<20} {checks:>6} {violations:>10} {min_slack:>12.4f}")
    print("\nall envelopes hold" if not any_violation else "\nVIOLATIONS FOUND")
    return 1 if any_violation else 0


if __name__ == "__main__":
    sys.exit(main())
