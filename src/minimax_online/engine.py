"""Game loop, trace accounting, slack ledger, and bound verification.

The protocol per round t = 0..T-1: the player commits w_{t+1} from
(t, theta_t); the adversary observes it and answers g_{t+1} with
||g|| <= G; the state updates theta_{t+1} = theta_t - g_{t+1} and the
player pays <w_{t+1}, g_{t+1}>.  A Trace records the whole run.

Accounting identities maintained here (and asserted by the test suite):

    Regret(u)  = sum_t <g_t, w_t - u> = -Reward - <g_{1:T}, u>
    eps_t      = q_t(theta_t) - q_{t-1}(theta_{t-1}) + <w_t, g_t>
    sum eps_t  = q_T(theta_T) - q_0(0) - Reward      (telescoping)

Potentials are radial.  A potential handed to ``epsilon_ledger`` must give
``value(t, theta) -> float`` and an array-valued ``radial(t, x)``: q_t(x)
for an array t of rounds and an array x of norms, broadcast together.
Families whose value at t = 0 is nonzero (the known-horizon ones) carry their
starting capital in the t = 0 term, so the ledger stays exact for both
conventions.

Two game loops share this protocol.  ``run_game`` plays one run, with any
object that has ``play`` as the player and any object that has ``grad`` as
the adversary; it is the reference.  ``run_games`` plays R runs of one
(PotentialPlayer, built-in adversary) pair in lockstep, round t of every run
in one (R, d) array step; against a state-blind adversary, whose gradients
are all drawn before the first play, every round's play is in one array
step.  Each run keeps its own Philox stream, read in run_game's order, so a
run's trace does not depend on the other runs of its batch.  The two loops
share the player's formula and the norms; a run's trace differs from
run_game's only where a dot product is summed in another order or a round
index is an array rather than an int, by a few ulps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import DimensionMismatchError, GameConfig, make_rng, random_unit_vector, row_norms
from .potentials import BoundaryHitError, conjugate_numeric, regret_bound

GRAD_NORM_SLACK = 1e-9


@dataclass
class Trace:
    """Per-round ledger of one game run; rows are time-ordered."""

    config: GameConfig
    strategy_tag: str
    adversary_tag: str
    w: np.ndarray       # (T, d) plays
    g: np.ndarray       # (T, d) gradients
    theta: np.ndarray   # (T, d) state after each round
    losses: np.ndarray  # (T,)   <w_t, g_t>
    eps: Optional[np.ndarray] = None  # per-round ledger slack, when attached

    @property
    def n_rounds(self) -> int:
        return int(self.losses.size)

    @property
    def reward(self) -> float:
        return -float(np.sum(self.losses))

    @property
    def theta_final(self) -> np.ndarray:
        if self.n_rounds == 0:
            return np.zeros(self.config.dim)
        return self.theta[-1]

    def grad_total(self) -> np.ndarray:
        if self.n_rounds == 0:
            return np.zeros(self.config.dim)
        return self.g.sum(axis=0)


def _check_rounds(strategy, config: GameConfig, rounds: int) -> None:
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if getattr(strategy, "needs_horizon", False):
        if not config.known_horizon:
            raise ValueError(f"strategy {strategy.tag} requires a numeric horizon")
        if rounds != config.horizon:
            raise ValueError(
                f"strategy {strategy.tag} is tuned for T={config.horizon}, got rounds={rounds}"
            )


def run_game(strategy, adversary, config: GameConfig, rounds: int) -> Trace:
    """Execute the min-then-max loop for the given number of rounds.

    Known-horizon strategies must be run for exactly config.horizon rounds.
    Deterministic given config.seed (one Philox stream per run).  A numpy
    value that leaves the float64 range raises OverflowError naming the round.
    """
    _check_rounds(strategy, config, rounds)
    rng = make_rng(config.seed)
    d = config.dim
    G = config.grad_bound
    w_rows = np.zeros((rounds, d))
    g_rows = np.zeros((rounds, d))
    th_rows = np.zeros((rounds, d))
    losses = np.zeros(rounds)
    theta = np.zeros(d)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for t in range(rounds):
                w = np.asarray(strategy.play(t, theta), dtype=np.float64)
                if w.shape != (d,):
                    raise DimensionMismatchError(f"strategy returned shape {w.shape}, expected ({d},)")
                g = np.asarray(adversary.grad(t, theta, w, rng), dtype=np.float64)
                if g.shape != (d,):
                    raise DimensionMismatchError(f"adversary returned shape {g.shape}, expected ({d},)")
                gn = float(np.linalg.norm(g))
                if not gn <= G * (1.0 + GRAD_NORM_SLACK) + GRAD_NORM_SLACK:  # also catches a NaN
                    raise ValueError(f"adversary emitted ||g||={gn} > G={G}")
                theta = theta - g
                w_rows[t] = w
                g_rows[t] = g
                th_rows[t] = theta
                losses[t] = w @ g
    except FloatingPointError as exc:
        raise OverflowError(f"round {t + 1}: {exc}") from exc
    return Trace(config, getattr(strategy, "tag", "?"), getattr(adversary, "tag", "?"),
                 w_rows, g_rows, th_rows, losses)


def run_games(strategy, adversary, configs: Sequence[GameConfig], rounds: int) -> List[Trace]:
    """run_game for every config, in lockstep: all runs' round t is one (R, d)
    array step.

    The configs share dim and grad_bound; run k uses configs[k].seed.  The
    strategy needs ``response(t, theta, r)`` (PotentialPlayer) and the
    adversary either ``gradient_block`` or ``draws`` and ``grads`` (every
    built-in adversary).  Against a gradient block every state is known
    before the first play, so all rounds' plays are one array call.  Each
    round is checked on all rows: shapes, ||g|| <= G(1 + 1e-9) + 1e-9, and a
    play inside the float64 range (OverflowError otherwise); an error names
    the first round that fails.  Row k of the result is the trace of
    run_games([configs[k]]), bit for bit.
    """
    if not configs:
        return []
    for cfg in configs:
        _check_rounds(strategy, cfg, rounds)
    if any((cfg.dim, cfg.grad_bound) != (configs[0].dim, configs[0].grad_bound) for cfg in configs):
        raise ValueError("the configs of one lockstep group must share dim and grad_bound")
    shape, G = (len(configs), configs[0].dim), configs[0].grad_bound
    rngs = [make_rng(cfg.seed) for cfg in configs]
    if hasattr(adversary, "gradient_block"):
        g_rows = adversary.gradient_block(rngs, rounds, shape[1])
        th_rows = _states(g_rows)
        w_rows = _block_plays(strategy, g_rows, th_rows, G)
    else:
        w_rows, g_rows = _lockstep(strategy, adversary, rngs, shape, rounds, G)
        th_rows = _states(g_rows)
    losses = np.einsum("rti,rti->rt", w_rows, g_rows)
    return [Trace(cfg, strategy.tag, adversary.tag, w_rows[k], g_rows[k], th_rows[k], losses[k])
            for k, cfg in enumerate(configs)]


def _states(g_rows: np.ndarray) -> np.ndarray:
    """theta after each round, (R, T, d): the loop's theta - g, bit for bit."""
    th_rows = np.cumsum(g_rows, axis=1)
    return np.subtract(0.0, th_rows, out=th_rows)  # 0.0 - keeps +0.0


def _lockstep(strategy, adversary, rngs, shape, rounds: int, G: float):
    """The plays and gradients, (R, T, d) each, of a game of shape (R, d)
    played round by round."""
    draws = adversary.draws(rngs, rounds, shape[1])
    w_rows = np.zeros((shape[0], rounds, shape[1]))
    g_rows = np.zeros_like(w_rows)
    theta = np.zeros(shape)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for t in range(rounds):
                r = row_norms(theta)
                w = strategy.response(t, theta, r)
                g = adversary.grads(t, theta, r, w, draws)
                if w.shape != shape or g.shape != shape:
                    raise DimensionMismatchError(
                        f"round {t + 1}: plays {w.shape}, gradients {g.shape}, expected {shape}")
                theta = theta - g
                w_rows[:, t] = w
                g_rows[:, t] = g
    except FloatingPointError as exc:
        _round_checks(g_rows[:, :t], G)
        raise OverflowError(f"round {t + 1}: {exc}") from exc
    _round_checks(g_rows, G)
    return w_rows, g_rows


def _block_plays(strategy, g_rows: np.ndarray, th_rows: np.ndarray, G: float) -> np.ndarray:
    """The plays, (R, T, d), against the gradients g_rows, whose states are
    th_rows, in one array call."""
    rounds = g_rows.shape[1]
    if rounds == 0:
        return np.zeros_like(g_rows)
    w = np.zeros_like(th_rows)  # first the state each play answers: theta_0 = 0, theta_1, ...
    w[:, 1:] = th_rows[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"):  # a play that leaves the range is found below
        w = strategy.response(np.arange(rounds), w, row_norms(w), out=w)  # ... then, in place, the play
    if w.shape != g_rows.shape:
        raise DimensionMismatchError(f"plays {w.shape}, gradients {g_rows.shape}, expected the same")
    _round_checks(g_rows, G, bad_play=~np.isfinite(w).all(axis=(0, 2)))
    return w


def _round_checks(g_rows: np.ndarray, G: float, bad_play=None) -> None:
    """The round checks of a game, all rounds in one array call.  For the
    first round that fails one, raise what a round-by-round check would
    raise there: OverflowError where a play left the float64 range (bad_play,
    one flag per round), else ValueError where some ||g|| exceeds
    G(1 + 1e-9) + 1e-9 or is NaN.  A game played round by round traps its
    overflow as it happens, and checks only the rounds before it."""
    limit = (G * (1.0 + GRAD_NORM_SLACK) + GRAD_NORM_SLACK) ** 2
    bad = ~(np.einsum("rti,rti->rt", g_rows, g_rows) <= limit).all(axis=0)
    failed = np.flatnonzero(bad if bad_play is None else bad | bad_play)
    if failed.size:
        t = int(failed[0])
        if bad_play is not None and bad_play[t]:
            raise OverflowError(f"round {t + 1}: the play left the float64 range")
        longest = float(row_norms(g_rows[:, t]).max())
        raise ValueError(f"round {t + 1}: adversary emitted ||g||={longest} > G={G}")


def regret(trace: Trace, u) -> float:
    """sum_t <g_t, w_t - u>, computed round by round."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (trace.config.dim,):
        raise DimensionMismatchError(f"comparator shape {u.shape}, expected ({trace.config.dim},)")
    if trace.n_rounds == 0:
        return 0.0
    return float(np.einsum("td,td->", trace.g, trace.w - u[None, :]))


def epsilon_ledger(trace: Trace, potential) -> np.ndarray:
    """Per-round borrowing eps_t = q_t(theta_t) - q_{t-1}(theta_{t-1}) + loss_t.

    theta_0 = 0; potentials with q_0(0) = 0 reproduce the plain telescoping
    sum, while relaxation-style potentials contribute their starting capital
    through the t = 0 term.  All rounds are evaluated in one array call; a
    q_t that leaves the float64 range raises OverflowError.
    """
    T = trace.n_rounds
    if T == 0:
        return np.zeros(0)
    with np.errstate(over="raise", invalid="raise"):
        try:
            q = potential.radial(np.arange(1, T + 1), row_norms(trace.theta))
        except FloatingPointError as exc:
            raise OverflowError(f"epsilon ledger: {exc}") from exc
    prev = np.concatenate(([potential.value(0, np.zeros(trace.config.dim))], q[:-1]))
    return q - prev + trace.losses


def attach_epsilon(trace: Trace, potential) -> Trace:
    trace.eps = epsilon_ledger(trace, potential)
    return trace


@dataclass
class BoundReport:
    comparator: np.ndarray
    u_norm: float
    regret_actual: float
    regret_bound: float
    slack: float
    holds: bool


def verify_bound(trace: Trace, strategy, comparators: Sequence[np.ndarray],
                 tol: float = 1e-6) -> List[BoundReport]:
    """Compare measured regret against the envelope of the strategy's potential."""
    T = trace.n_rounds
    reports = []
    for u in comparators:
        u = np.asarray(u, dtype=np.float64)
        actual = regret(trace, u)
        bound = regret_bound(strategy.potential, float(np.linalg.norm(u)), max(T, 1))
        slack = bound - actual
        holds = bool(slack >= -tol * (1.0 + abs(bound))) if math.isfinite(bound) else True
        reports.append(BoundReport(u, float(np.linalg.norm(u)), actual, bound, slack, holds))
    return reports


def comparator_grid(dim: int, rng: np.random.Generator,
                    norms: Sequence[float] = (0.0, 0.1, 1.0, 10.0, 100.0),
                    directions: int = 5) -> List[np.ndarray]:
    """Norm ladder x random unit directions (the zero norm appears once)."""
    grid = []
    for n in norms:
        if n == 0.0:
            grid.append(np.zeros(dim))
            continue
        for _ in range(directions):
            grid.append(n * random_unit_vector(rng, dim))
    return grid


@dataclass
class RadialBenchmark:
    """Benchmark B(theta) = f(||theta||) with numeric conjugate and gradient."""

    f: callable

    def value(self, theta) -> float:
        return float(self.f(float(np.linalg.norm(theta))))

    def conjugate(self, u_norm: float) -> float:
        bound = 10.0 * (u_norm + 1.0)
        for _ in range(60):
            try:
                return conjugate_numeric(self.f, u_norm, bound)
            except BoundaryHitError:
                bound *= 2.0
        raise BoundaryHitError("benchmark conjugate search bound did not stabilize")

    def gradient(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        r = float(np.linalg.norm(theta))
        if r == 0.0:
            return np.zeros_like(theta)
        step = 1e-6 * max(r, 1.0)
        slope = (self.f(r + step) - self.f(r - step)) / (2.0 * step)
        return slope * theta / r


def duality_witness(traces: Sequence[Trace], benchmark: RadialBenchmark,
                    eps_hat: float, comparators: Sequence[np.ndarray],
                    tol: float = 1e-6) -> bool:
    """Check the reward/regret duality on a sample of traces.

    Reward side: Reward >= B(theta_T) - eps_hat on every trace.  Regret side:
    Regret(u) <= B*(u) + eps_hat for every grid comparator and for the
    induced comparator u = grad B(theta_T) of each trace.  Returns whether
    the two sides agree (both hold or both fail), which is the sampled form
    of the equivalence.
    """
    reward_ok = True
    for tr in traces:
        b = benchmark.value(tr.theta_final)
        if tr.reward < b - eps_hat - tol * (1.0 + abs(b)):
            reward_ok = False
            break
    regret_ok = True
    for tr in traces:
        all_u = list(comparators) + [benchmark.gradient(tr.theta_final)]
        for u in all_u:
            rb = benchmark.conjugate(float(np.linalg.norm(u))) + eps_hat
            if regret(tr, u) > rb + tol * (1.0 + abs(rb)):
                regret_ok = False
                break
        if not regret_ok:
            break
    return reward_ok == regret_ok


# --- serialization ---------------------------------------------------------

CSV_BASE_COLUMNS = ["t", "loss", "reward_cum", "theta_norm", "eps_t"]
MAX_COORD_COLUMNS = 8


def write_trace_csv(trace: Trace, path) -> None:
    """Rows end in CR LF, floats are written as ``repr`` (shortest round trip)
    and ``eps_t`` is empty without a ledger; no field ever needs quoting."""
    d = trace.config.dim
    header = list(CSV_BASE_COLUMNS)
    columns = [
        map(str, range(1, trace.n_rounds + 1)),
        map(repr, trace.losses.tolist()),
        map(repr, (0.0 - np.cumsum(trace.losses)).tolist()),  # 0.0 - keeps row 1 at 0.0, not -0.0
        (repr(float(np.linalg.norm(row))) for row in trace.theta),
        [""] * trace.n_rounds if trace.eps is None else map(repr, trace.eps.tolist()),
    ]
    if d <= MAX_COORD_COLUMNS:
        header += [f"w_{i}" for i in range(d)] + [f"g_{i}" for i in range(d)]
        columns += [map(repr, col) for col in trace.w.T.tolist()]
        columns += [map(repr, col) for col in trace.g.T.tolist()]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def trace_to_dict(trace: Trace) -> dict:
    return {
        "config": {
            "dim": trace.config.dim,
            "grad_bound": trace.config.grad_bound,
            "horizon": trace.config.horizon,
            "seed": trace.config.seed,
        },
        "strategy_tag": trace.strategy_tag,
        "adversary_tag": trace.adversary_tag,
        "w": trace.w.tolist(),
        "g": trace.g.tolist(),
        "theta": trace.theta.tolist(),
        "losses": trace.losses.tolist(),
        "eps": None if trace.eps is None else trace.eps.tolist(),
    }


def trace_from_dict(data: dict) -> Trace:
    cfg = GameConfig(**data["config"])
    eps = data.get("eps")
    return Trace(
        config=cfg,
        strategy_tag=data["strategy_tag"],
        adversary_tag=data["adversary_tag"],
        w=np.asarray(data["w"], dtype=np.float64).reshape(-1, cfg.dim),
        g=np.asarray(data["g"], dtype=np.float64).reshape(-1, cfg.dim),
        theta=np.asarray(data["theta"], dtype=np.float64).reshape(-1, cfg.dim),
        losses=np.asarray(data["losses"], dtype=np.float64),
        eps=None if eps is None else np.asarray(eps, dtype=np.float64),
    )


def write_trace_json(trace: Trace, path) -> None:
    text = json.dumps(trace_to_dict(trace))  # one call: the C encoder, not the per-item one
    with open(path, "w") as fh:
        fh.write(text)


def read_trace_json(path) -> Trace:
    with open(path) as fh:
        return trace_from_dict(json.load(fh))
