"""Oracle-backed checks and sweep tables shared by ``minimax-online verify``
and the acceptance gate.

Each check yields rows that carry the number measured and whether it is within
the check's tolerance, pinned here.  Checks that draw take their seed as an argument.
A NaN anywhere fails its row: running extremes use np.maximum / np.minimum,
which, unlike max / min, carry a NaN through.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .adversaries import FixedDirection, GaussianRandom, OrthogonalMinimax, ParallelMinimax
from .core import GameConfig, make_rng, random_unit_vector, row_norms
from .engine import epsilon_ledger, run_games
from .one_round import (ORTHOGONAL, PARALLEL, OneRoundSpec, classify_regime, line_distance, minmax_values,
                        plane_distance, solve_orthogonal, solve_parallel, solve_scalar_grid, worst_case_payoff)
from .oracles import (RecursionSpec, argmax_at_zero_check, conditional_value_recursive, exp_conjugate_numeric,
                      gaussian_dominance_check)
from .potentials import (AdaptiveNormalPotential, NormalKnownTPotential, PowerPotential, QuadraticPotential,
                         exp_conjugate_upper_bound)
from .strategies import PotentialPlayer


class Row(NamedTuple):
    suite: str
    label: str
    ok: bool
    value: Optional[float]  # the measured number; None where the oracle answers yes or no


def gaussian_dominance() -> Iterator[Row]:
    """Fair-coin mean <= N(0, pi/2) mean for a corpus of convex profiles."""
    corpus = [
        ("abs", lambda x: abs(x)),
        ("square", lambda x: x * x),
        ("quartic", lambda x: x**4),
        ("power_1.5", lambda x: abs(x) ** 1.5),
        ("power_3", lambda x: abs(x) ** 3),
        ("exp", math.exp),
        ("exp_quad_c8", lambda x: math.exp(x * x / 8.0)),
        ("softplus", lambda x: math.log1p(math.exp(-abs(x))) + max(x, 0.0)),
        ("hinge", lambda x: max(0.0, x - 0.3)),
        ("neg_hinge", lambda x: max(0.0, 1.0 - x)),
        ("cosh", math.cosh),
        ("abs_shift", lambda x: abs(x - 0.25)),
    ]
    for name, f in corpus:
        yield Row("gaussian-dominance", name, gaussian_dominance_check(f), None)


def argmax_zero() -> Iterator[Row]:
    """The adaptive potential's Gaussian-step gap peaks at the origin."""
    for eps, G, ratio, t in product((0.5, 1.0), (0.5, 1.0), (1.02, 1.3, 2.0), (1, 2, 5, 50)):
        a = ratio * 3.0 * math.pi * G * G / 4.0
        yield Row("argmax-zero", f"eps={eps},a={a:.3f},G={G},t={t}", argmax_at_zero_check(eps, a, G, t), None)


def conjugate_bound(seed: int) -> Iterator[Row]:
    """Numeric exp-conjugate <= its closed-form envelope at 200 random points;
    the value is the largest excess."""
    rng = make_rng(seed)
    worst = -math.inf
    for _ in range(200):
        alpha = float(rng.uniform(0.2, 10.0))
        beta = float(rng.uniform(0.1, 5.0))
        w = float(rng.uniform(0.0, 10.0))
        worst = float(np.maximum(worst, exp_conjugate_numeric(alpha, beta, w)
                                 - exp_conjugate_upper_bound(alpha, beta, w)))
    yield Row("conjugate-bound", f"200 random (alpha,beta,w), max excess {worst:.2e}",
              worst <= 1e-8, worst)


def random_one_round_specs(regime: str, n: int, rng) -> list:
    """n one-round problems in d = 2 with a profile from the family each
    closed form covers, ||theta|| <= 3 and G in [0.3, 2]."""
    specs = []
    for _ in range(n):
        r = float(rng.uniform(0.0, 3.0))
        G = float(rng.uniform(0.3, 2.0))
        theta = r * random_unit_vector(rng, 2) if r > 0 else np.zeros(2)
        if regime == ORTHOGONAL:
            p = float(rng.uniform(1.0, 2.0))
            W = float(rng.uniform(0.3, 3.0))
            c = float(rng.uniform(0.0, 4.0))
            h = lambda x, W=W, p=p, c=c: (W / p) * (x * x + c) ** (p / 2.0)
        else:
            if rng.random() < 0.5:
                c2 = float(rng.uniform(2.0, 10.0))
                b0 = float(rng.uniform(0.2, 2.0))
                h = lambda x, b0=b0, c2=c2: b0 * np.exp(x * x / (2.0 * c2))
            else:
                pp = float(rng.uniform(2.0, 4.0))
                h = lambda x, pp=pp: np.abs(x) ** pp
        specs.append(OneRoundSpec(h=h, theta=theta, G=G))
    return specs


def one_round(seed: int, regime: Optional[str] = None) -> Iterator[Row]:
    """Closed form vs grid oracle on 50 random problems per regime (both
    regimes unless one is given), two rows per regime: the largest gap
    |closed - grid| / (1 + |closed|), and the smallest margin grid - lower
    bound, the orthogonal value, which bounds H from below whenever d >= 2."""
    rng = make_rng(seed)
    for reg in ([ORTHOGONAL, PARALLEL] if regime is None else [regime]):
        worst = 0.0
        margin = math.inf
        for spec in random_one_round_specs(reg, 50, rng):
            lower = solve_orthogonal(spec).value
            closed = lower if reg == ORTHOGONAL else solve_parallel(spec).value
            grid = solve_scalar_grid(spec)
            worst = float(np.maximum(worst, abs(closed - grid) / (1.0 + abs(closed))))
            margin = float(np.minimum(margin, grid - lower))
        yield Row("one-round", f"{reg}: max |closed-grid| rel {worst:.2e}", worst <= 1e-3, worst)
        yield Row("one-round", f"{reg}: grid >= lower bound", margin >= -1e-6, margin)


def recursion() -> Iterator[Row]:
    """Backward induction at d = 2 against the power-profile game value
    (1/p) T^(p/2); one row per (p, T) cell, the value is the relative error."""
    for p, T in product((1.0, 1.5, 2.0), (1, 2, 3)):
        spec = RecursionSpec(f=lambda x, p=p: (1.0 / p) * np.abs(x) ** p, G=1.0, T=T, dim=2)
        val = conditional_value_recursive(spec, 0, np.zeros(2))
        truth = (1.0 / p) * T ** (p / 2.0)
        rel = abs(val - truth) / abs(truth)
        yield Row("recursion", f"p={p},T={T}: rel {rel:.2e}", rel <= 1e-2, rel)


REGIME_T = 100  # the horizon of the potentials the regime suite checks


def regime() -> Iterator[Row]:
    """The regime each potential of ``envelope_players(REGIME_T, 1)`` declares,
    which picks its player's formula, against ``classify_regime`` of q_t at
    probes 0.05..40, for t in {1, 10, 50, REGIME_T - 1}; one row per
    (player, t), labelled with the regime found."""
    probes = np.linspace(0.05, 40.0, 64)
    for (label, player), t in product(envelope_players(REGIME_T, 1.0), (1, 10, 50, REGIME_T - 1)):
        pot = player.potential
        found = classify_regime(lambda x: pot.radial(t, abs(x)), probes)
        yield Row("regime", f"{label} t={t}: {found}", found == pot.regime, None)


PLAYER_TOL = 1e-9  # scaled gap; the floor is 4.1e-16, a play scaled by 1.001 gives 4.9e-7 or more


def player() -> Iterator[Row]:
    """Each player of ``envelope_players(1000, 1)`` is the one-round minimax
    play against q_{t+1}: its ``response`` at t in {1, 10, 100, 998} to the 33
    states theta = r e_1, r on [0, min(t, 30) G], against V, the kernel's game
    value ``minmax_values(q_{t+1})`` there.  Two rows per (player, d), each
    the largest |x - V| / (1 + |V|): x is the play's worst-case payoff
    (``worst_case_payoff``), then the payoff that the regime's minimax
    adversary gets against the play (``OrthogonalMinimax.grads``, or each of
    ``ParallelMinimax``'s shrink and grow, the larger gap; state k on stream
    make_rng(k)).  Each sign alone holds the play too: the minimax play is the
    one that equalizes them.
    Every player plays at d = 2 (``plane_distance``), the parallel-regime
    ones also at d = 1 (``line_distance``)."""
    G = 1.0
    for label, plr in envelope_players(1000, G):
        pot = plr.potential
        orthogonal = pot.regime == ORTHOGONAL
        advs = ([OrthogonalMinimax(G=G)] if orthogonal
                else [ParallelMinimax(G=G, sign_policy=sign) for sign in ("shrink", "grow")])
        for d, xmap in [(2, plane_distance)] + ([] if orthogonal else [(1, line_distance)]):
            gaps = np.zeros(2)
            for t in (1, 10, 100, 998):
                h = lambda x, t=t: pot.radial(t + 1, np.abs(x))
                r = np.linspace(0.0, min(t, 30) * G, 33)
                theta = np.outer(r, np.eye(1, d)[0])
                V = minmax_values(h, xmap, r, G, 513)
                w = plr.response(t, theta, r)
                P = worst_case_payoff(h, xmap, r, G, w[:, 0], 513)
                rngs = [make_rng(k) for k in range(r.size)]
                replies = [adv.grads(t, theta, r, rngs) for adv in advs]
                A = [np.einsum("ij,ij->i", w, g) + h(row_norms(theta - g)) for g in replies]
                gaps = np.maximum(gaps, [np.max(np.abs(x - V) / (1.0 + np.abs(V))) for x in (P, A)])
            for side, gap in zip(("player", "adversary"), gaps.tolist()):
                yield Row("player", f"{label} d={d} {side}: max gap {gap:.1e} <= {PLAYER_TOL:.0e}",
                          gap <= PLAYER_TOL, gap)


BUDGET_TOL = 1e-9  # scaled excess


def budget() -> Iterator[Row]:
    """The slack each player used, q_0(0) + sum_{s<=t} eps_s, against its
    ``budget(t)`` at every round t of acceptance criterion 07's sweep:
    ``envelope_players(400, 1)`` x ``adversary_quartet(1)``, d = 4, seeds
    0..19.  One row per (player, adversary), the largest excess scaled by
    1 + |budget(t)|."""
    T, G = 400, 1.0
    configs = [GameConfig(dim=4, grad_bound=G, horizon=T, seed=seed) for seed in range(20)]
    for (label, plr), adv in product(envelope_players(T, G), adversary_quartet(G)):
        pot = plr.potential
        start, allowed = pot.radial(0, 0.0), pot.budget(np.arange(1, T + 1))  # q_0(0) is 0 for ogd and adaptive
        worst = -math.inf
        for trace in run_games(plr, adv, configs, T):
            used = start + np.cumsum(epsilon_ledger(trace, pot))
            worst = float(np.maximum(worst, np.max((used - allowed) / (1.0 + np.abs(allowed)))))
        yield Row("budget", f"{label} vs {adv.tag}: max excess {worst:.1e} <= {BUDGET_TOL:.0e}",
                  worst <= BUDGET_TOL, worst)


# --- sweep tables -----------------------------------------------------------

def envelope_players(T: int, G: float) -> list:
    """(label, player) for each algorithm row of the paper, tuned to horizon T."""
    root = G * math.sqrt(T)
    return [
        ("B ogd", PotentialPlayer(QuadraticPotential(eta=1.0 / root, G=G))),
        ("C power p=1", PotentialPlayer(PowerPotential(W=1.0, p=1.0, G=G, T=T))),
        ("C power p=1.5", PotentialPlayer(PowerPotential(W=root ** -0.5, p=1.5, G=G, T=T))),
        ("E normal eps=1", PotentialPlayer(NormalKnownTPotential(eps=1.0, a=2.5, G=G, T=T))),
        ("F normal eps=sqrtT", PotentialPlayer(NormalKnownTPotential(eps=root, a=2.5, G=G, T=T))),
        ("I adaptive", PotentialPlayer(AdaptiveNormalPotential(eps=1.0, a=2.4, G=G))),
    ]


def adversary_quartet(G: float) -> list:
    """The default adversary set of the sweep-style checks."""
    return [OrthogonalMinimax(G=G), ParallelMinimax(G=G, sign_policy="grow"), FixedDirection(G=G),
            GaussianRandom(G=G)]
