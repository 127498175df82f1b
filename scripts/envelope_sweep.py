#!/usr/bin/env python3
"""Sweep every algorithm row against the default adversary set and report
measured regret vs. the theoretical envelope across a comparator ladder.

This is the library-level version of `minimax-online run`; it prints a
summary table instead of writing trace files.
"""

import argparse
import math

from minimax_online import (
    AdaptiveNormalPotential,
    GameConfig,
    FixedDirection,
    GaussianRandom,
    NormalKnownTPotential,
    OrthogonalMinimax,
    ParallelMinimax,
    PotentialPlayer,
    PowerPotential,
    QuadraticPotential,
    comparator_grid,
    make_rng,
    run_game,
    verify_bound,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=400)
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    T, d, G = args.rounds, args.dim, 1.0
    root = G * math.sqrt(T)
    rows = [
        ("ogd eta=1/G√T", PotentialPlayer(QuadraticPotential(eta=1.0 / root, G=G))),
        ("power p=1 W=1", PotentialPlayer(PowerPotential(W=1.0, p=1.0, G=G, T=T))),
        ("power p=1.5", PotentialPlayer(PowerPotential(W=root ** -0.5, p=1.5, G=G, T=T))),
        ("normal eps=1", PotentialPlayer(NormalKnownTPotential(eps=1.0, a=2.5, G=G, T=T))),
        ("normal eps=√T", PotentialPlayer(NormalKnownTPotential(eps=root, a=2.5, G=G, T=T))),
        ("adaptive", PotentialPlayer(AdaptiveNormalPotential(eps=1.0, a=2.4, G=G))),
    ]
    adversaries = [OrthogonalMinimax(G=G), ParallelMinimax(G=G),
                   FixedDirection(G=G), GaussianRandom(G=G)]
    grid = comparator_grid(d, make_rng(777))

    print(f"{'strategy':<16} {'adversary':<20} {'checks':>6} {'violations':>10} {'min slack':>12}")
    any_violation = False
    for label, strat in rows:
        for adv in adversaries:
            checks, violations, min_slack = 0, 0, math.inf
            for seed in range(args.seeds):
                cfg = GameConfig(dim=d, grad_bound=G, horizon=T, seed=seed)
                trace = run_game(strat, adv, cfg, T)
                for rep in verify_bound(trace, strat, grid):
                    checks += 1
                    if math.isfinite(rep.slack):
                        min_slack = min(min_slack, rep.slack)
                    if not rep.holds:
                        violations += 1
            any_violation |= violations > 0
            print(f"{label:<16} {adv.tag:<20} {checks:>6} {violations:>10} {min_slack:>12.4f}")
    print("\nall envelopes hold" if not any_violation else "\nVIOLATIONS FOUND")


if __name__ == "__main__":
    main()
