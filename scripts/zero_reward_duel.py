#!/usr/bin/env python3
"""Minimax duel demo: the p=1 power player against the orthogonal adversary.

Both sides play minimax-optimally, the per-round reward is identically zero,
and the state rides the constant value shell sqrt(||theta||^2 + G^2 (T-t))
= G sqrt(T).  Prints the per-round ledger and the closing accounting.
"""

import argparse
import math

import numpy as np

from minimax_online import GameConfig, OrthogonalMinimax, PotentialPlayer, PowerPotential, run_game


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=16)
    ap.add_argument("--grad-bound", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    T, G = args.rounds, args.grad_bound
    strat = PotentialPlayer(PowerPotential(W=1.0, p=1.0, G=G, T=T))
    cfg = GameConfig(dim=2, grad_bound=G, horizon=T, seed=args.seed)
    trace = run_game(strat, OrthogonalMinimax(G=G), cfg, T)

    print(f"{'t':>3} {'loss':>12} {'|theta|':>10} {'shell':>10} {'|w|':>8}")
    for t in range(1, T + 1):
        r = np.linalg.norm(trace.theta[t - 1])
        shell = math.sqrt(r * r + G * G * (T - t))
        w = np.linalg.norm(trace.w[t - 1])
        print(f"{t:>3} {trace.losses[t - 1]:>12.3e} {r:>10.6f} {shell:>10.6f} {w:>8.4f}")
    print(f"\ntotal reward      : {trace.reward:.3e} (zero in exact arithmetic)")
    print(f"final state norm  : {np.linalg.norm(trace.theta[-1]):.6f} = G sqrt(T) = {G * math.sqrt(T):.6f}")


if __name__ == "__main__":
    main()
