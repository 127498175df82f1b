"""Game loop, trace accounting, slack ledger, and bound verification.

The protocol per round t = 0..T-1: the player commits w_{t+1} from
(t, theta_t); the adversary observes it and answers g_{t+1} with
||g|| <= G; the state updates theta_{t+1} = theta_t - g_{t+1} and the
player pays <w_{t+1}, g_{t+1}>.  A Trace records the whole run.

Accounting identities maintained here (and asserted by the test suite):

    Regret_t(u) = sum_{s<=t} <g_s, w_s - u> = L_t + <theta_t, u>
    L_t         = sum_{s<=t} <w_s, g_s> = -Reward_t
    eps_t       = q_t(theta_t) - q_{t-1}(theta_{t-1}) + <w_t, g_t>
    sum eps_t   = q_T(theta_T) - q_0(0) - Reward      (telescoping)

Regret is computed in one form only, the reward-regret duality's, L_t +
<theta_t, u> from the trace's losses and states: ``regret_curves`` gives it
at every round for every comparator, and ``regret`` (and so every report of
``verify_bound`` and the summary) is its last column, the value ``curves``
writes at t = T, bit for bit.  The per-round sums are the tests' reference.

Potentials are radial.  A potential handed to ``epsilon_ledger`` must give
``value(t, theta) -> float`` and an array-valued ``radial(t, x)``: q_t(x)
for an array t of rounds and an array x of norms, broadcast together.
Families whose value at t = 0 is nonzero (the known-horizon ones) carry their
starting capital in the t = 0 term, so the ledger stays exact for both
conventions.

One game loop plays this protocol: ``run_column`` plays a column, every
strategy's group of R runs against one adversary, each group in lockstep,
and gives one function per group.  An adversary that never reads the plays
(every built-in one but the greedy) gives its whole gradient block before
the first play: the column computes it and its states once, and each
strategy's plays of every round are one array step.  The greedy one, which
reads the plays and draws nothing, is answered round by round, round t of
every run of every group in one (S R, d) array step.  Each run of a drawing
adversary keeps its own Philox stream, so a run's trace depends neither on
the other runs of its group nor on the other groups of its column.  Every
group is checked by one ``_round_checks`` call, so a group that fails raises
from its own function and the column's other groups keep their traces.
``run_games`` is the one-group call of the column, and ``run_game`` the
one-run call of ``run_games``.  The tests hold the loop to a reference,
``reference_run_game`` in tests/test_engine.py: one play and one one-run
gradient per round, for one run.  A lockstep trace differs from the
reference's only where a dot product is summed in another order or a round
index is an array rather than an int, by a few ulps.

A JSON trace stores g but not theta: theta is -cumsum(g), and
``read_trace_json`` rebuilds it with the engine's own ``_states``, bit for
bit.  ``write_trace_json`` refuses a trace whose theta is anything else, and
one holding a float JSON has no spelling for (inf, nan).  Both trace writers
encode with orjson: the JSON writer in its own spelling, from the trace's
float64 arrays; every CSV of floats (a trace CSV, and the rows of
``curves``) through ``write_repr_rows``, which respells orjson's floats as
``repr``'s, byte for byte.  Its odd floats, those orjson spells unlike
``repr`` (and inf and nan), are orjson's ``null``; the rows come from
splitting orjson's text on ``null`` and on ``],[`` and joining the pieces
with the odd floats' spellings and with each row's lead, which every trace
of a sweep takes from one cache.  ``read_trace_json`` decodes with orjson
too, one call per (T, d) row array, and reads a file that orjson refuses (an
older one holding ``NaN``, say) with the stdlib ``json``.  Next to each JSON
trace ``write_trace_json`` writes its float64 sidecar, ``<path>.f64``: the
row arrays' bits, tied to the JSON file's bytes by their length and
``zlib.crc32``, from which ``read_trace_json`` takes w and g instead of
decoding their text while the tie holds.  orjson is imported by these
functions, on their first call, so importing the engine never loads it.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import zlib
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, List, Optional, Sequence

import numpy as np

from .core import DimensionMismatchError, GameConfig, linalg_norms, make_rng, random_unit_vector, row_norms
from .potentials import regret_bound

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
    """The one run of config: run_games with one config."""
    return run_games(strategy, adversary, [config], rounds)[0]


def run_games(strategy, adversary, configs: Sequence[GameConfig], rounds: int) -> List[Trace]:
    """The traces of strategy's runs of configs: run_column with one strategy."""
    return run_column([strategy], adversary, configs, rounds)[0]()


def run_column(strategies: Sequence, adversary, configs: Sequence[GameConfig],
               rounds: int) -> List[Callable[[], List[Trace]]]:
    """One function of no argument per strategy, in strategy order, which
    returns the traces of the strategy's group: its runs of every config
    against adversary, in lockstep as (R, d) arrays.  The first function
    called does the groups' shared work (``functools.cache``, which keeps no
    error), and each call its own group's plays, states and checks.

    The configs share dim and grad_bound; run k uses configs[k].seed.  A
    strategy needs ``response(t, theta, r, out)`` (PotentialPlayer).  The
    shared work against an adversary that never reads the plays is its
    ``gradient_block(rngs, rounds, dim)``, (R, rounds, d), with its states,
    their norms and its gradient checks; each group's plays are one array
    call.  Against one that reads them, ``grads(t, theta, r, w)``, it is one
    round-by-round game of S R rows, group s in rows s R to (s + 1) R - 1,
    in which a strategy whose ``response`` raises plays no more rounds.
    Known-horizon strategies must be run for exactly config.horizon rounds,
    and plays and gradients must have the game's shape (else
    DimensionMismatchError).  A group raises the first error that
    ``_round_checks`` finds in its rounds (a play past the float64 range, or
    ||g|| > G(1 + 1e-9) + 1e-9), and a ``response``'s error after those of
    the rounds before it.  Row k of a group is the trace of
    run_games([configs[k]]) of its strategy, bit for bit.
    """
    if not configs:
        return [list for _ in strategies]  # list() is []
    for strategy in strategies:
        for cfg in configs:
            _check_rounds(strategy, cfg, rounds)
    if any((cfg.dim, cfg.grad_bound) != (configs[0].dim, configs[0].grad_bound) for cfg in configs):
        raise ValueError("the configs of one lockstep group must share dim and grad_bound")
    R, d, G = len(configs), configs[0].dim, configs[0].grad_bound
    if hasattr(adversary, "gradient_block"):
        @cache
        def block():
            g_rows = adversary.gradient_block([make_rng(cfg.seed) for cfg in configs], rounds, d)
            if g_rows.shape != (R, rounds, d):
                raise DimensionMismatchError(f"gradient block {g_rows.shape}, expected {(R, rounds, d)}")
            th_rows = _states(g_rows)  # a state past the float64 range gives a play past it, found by the checks
            if len(strategies) > 1:  # every group's traces hold them: none may write them
                g_rows.flags.writeable = th_rows.flags.writeable = False
            r = np.zeros((R, rounds))  # the norm of the state each play answers: theta_0 = 0, theta_1, ...
            r[:, 1:] = row_norms(th_rows)[:, :-1]
            return g_rows, th_rows, r, _bad_gradients(g_rows, G)

        def group(s):
            g_rows, th_rows, r, bad_g = block()
            w_rows = _block_plays(strategies[s], th_rows, r, g_rows, G, bad_g)
            return _traces(strategies[s], adversary, configs, w_rows, g_rows, th_rows)
    else:
        game = cache(partial(_lockstep, strategies, adversary, configs, rounds))

        def group(s):
            w_rows, g_rows, raised = game()
            rows = slice(s * R, (s + 1) * R)
            w, g = w_rows[rows], g_rows[rows]
            t, exc = raised.get(s, (rounds, None))  # the rounds before a raising play, then its error
            _round_checks(g[:, :t], G, ~np.isfinite(w[:, :t]).all(axis=(0, 2)))
            if exc is not None:
                raise exc
            return _traces(strategies[s], adversary, configs, w, g, _states(g))
    return [partial(group, s) for s in range(len(strategies))]


def _traces(strategy, adversary, configs, w_rows, g_rows, th_rows) -> List[Trace]:
    losses = np.einsum("rti,rti->rt", w_rows, g_rows)
    return [Trace(cfg, strategy.tag, adversary.tag, w_rows[k], g_rows[k], th_rows[k], losses[k])
            for k, cfg in enumerate(configs)]


def _states(g_rows: np.ndarray) -> np.ndarray:
    """theta after each round, (..., T, d) like g_rows: the loop's theta - g,
    bit for bit.  A state past the float64 range, or one of a g holding inf
    or nan, raises no floating-point error."""
    with np.errstate(over="ignore", invalid="ignore"):
        th_rows = np.cumsum(g_rows, axis=-2)
        return np.subtract(0.0, th_rows, out=th_rows)  # 0.0 - keeps +0.0


def _lockstep(strategies, adversary, configs, rounds: int):
    """The plays and gradients, (S R, T, d) each, of the S groups of R runs
    (one per config) that strategies play, round by round, against an
    adversary that reads the plays, group s in rows s R to (s + 1) R - 1;
    and raised[s] = (t, error) for a group whose ``response`` raised at
    round index t.  An overflow raises nothing: ``_round_checks`` finds it."""
    R, dim = len(configs), configs[0].dim
    shape = (len(strategies) * R, dim)
    w_rows = np.zeros((shape[0], rounds, dim))
    g_rows = np.zeros_like(w_rows)
    theta, w = np.zeros(shape), np.zeros(shape)  # the states, and the round's plays
    groups = []  # each strategy with its index, its rows, and its views of the states and the plays
    for s, strategy in enumerate(strategies):
        rows = slice(s * R, (s + 1) * R)
        groups.append((s, strategy, rows, theta[rows], w[rows]))
    raised = {}
    with np.errstate(over="ignore", invalid="ignore"):  # a play that leaves the range is found by the checks
        for t in range(rounds):
            r = row_norms(theta)
            for s, strategy, rows, th, out in groups:
                if s in raised:
                    continue
                try:
                    play = strategy.response(t, th, r[rows], out=out)
                    if play is not out:  # a strategy that returns its plays rather than writing them
                        out[...] = play
                except Exception as exc:  # this group's error: the others play on
                    raised[s] = (t, exc)
            g = adversary.grads(t, theta, r, w)
            if g.shape != shape:
                raise DimensionMismatchError(
                    f"round {t + 1}: plays {w.shape}, gradients {g.shape}, expected {shape}")
            w_rows[:, t] = w
            g_rows[:, t] = g
            np.subtract(theta, g, out=theta)
    return w_rows, g_rows, raised


def _block_plays(strategy, th_rows: np.ndarray, r: np.ndarray, g_rows: np.ndarray, G: float,
                 bad_g: np.ndarray) -> np.ndarray:
    """The plays, (R, T, d), against the gradients g_rows, whose states are
    th_rows, in one array call; r holds the norms of the states the plays
    answer, and bad_g the rounds whose gradients fail their check."""
    rounds = g_rows.shape[1]
    w = np.zeros_like(th_rows)  # first the state each play answers: theta_0 = 0, theta_1, ...
    w[:, 1:] = th_rows[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"):  # a play that leaves the range is found below
        w = strategy.response(np.arange(rounds), w, r, out=w)  # ... then, in place, the play
    _round_checks(g_rows, G, ~np.isfinite(w).all(axis=(0, 2)), bad_g)
    return w


def _bad_gradients(g_rows: np.ndarray, G: float) -> np.ndarray:
    """Per round, whether some run's ||g|| exceeds G(1 + 1e-9) + 1e-9 or is
    NaN.  The norms are ``row_norms``', exact also where their squares leave
    the float64 range (a G past 1e154, say)."""
    return ~(row_norms(g_rows) <= G * (1.0 + GRAD_NORM_SLACK) + GRAD_NORM_SLACK).all(axis=0)


def _round_checks(g_rows: np.ndarray, G: float, bad_play: np.ndarray, bad_g=None) -> None:
    """The round checks of a group, all rounds in one array call.  For the
    first round that fails one, raise what a round-by-round check would
    raise there: OverflowError where a play left the float64 range (bad_play,
    one flag per round), else ValueError where a gradient fails
    ``_bad_gradients`` (bad_g, if the caller has it)."""
    bad = _bad_gradients(g_rows, G) if bad_g is None else bad_g
    failed = np.flatnonzero(bad | bad_play)
    if failed.size:
        t = int(failed[0])
        if bad_play[t]:
            raise OverflowError(f"round {t + 1}: the play left the float64 range")
        longest = float(row_norms(g_rows[:, t]).max())
        raise ValueError(f"round {t + 1}: adversary emitted ||g||={longest} > G={G}")


def regret_curves(trace: Trace, comparators) -> np.ndarray:
    """Regret_t(u) = L_t + <theta_t, u> for each comparator u (row k of the
    (K, T) result) at each round t: L = cumsum(losses), plus one
    matrix-vector product theta @ u per comparator, so a row's bits depend on
    its own comparator alone (one (K, d) matrix product would round a row
    differently by K).  A zero u gets L_t exactly, also where theta is not
    finite (0 * inf would be nan)."""
    us = _comparator_rows(trace, comparators)
    spent = np.cumsum(trace.losses)
    out = np.empty((len(us), trace.n_rounds))
    for row, u in zip(out, us):
        if u.any():
            np.add(spent, trace.theta @ u, out=row)
        else:
            row[:] = spent
    return out


def _comparator_rows(trace: Trace, comparators) -> np.ndarray:
    """comparators as a (K, d) float64 array, d the trace's dim, else DimensionMismatchError."""
    us = np.asarray(comparators, dtype=np.float64)
    if us.shape == (0,):  # no comparators
        us = us.reshape(0, trace.config.dim)
    if us.ndim != 2 or us.shape[1] != trace.config.dim:
        raise DimensionMismatchError(f"comparators of shape {us.shape}, expected (K, {trace.config.dim})")
    return us


def regret(trace: Trace, u) -> float:
    """Regret_T(u): the last column of ``regret_curves``, 0.0 for no rounds."""
    curve = regret_curves(trace, [u])[0]
    return float(curve[-1]) if curve.size else 0.0


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


BOUND_TOL = 1e-6  # a bound holds if regret exceeds it by at most BOUND_TOL (1 + |bound|)


def verify_bound(trace: Trace, strategy, comparators: Sequence[np.ndarray],
                 bounds: Optional[Sequence[float]] = None,
                 norms: Optional[Sequence[float]] = None) -> List[BoundReport]:
    """Compare measured regret against the envelope of the strategy's potential
    at T, all comparators' envelopes in one ``regret_bound`` call; or, if
    given, against bounds, those envelopes already computed (every trace of a
    group shares its potential and T).  norms, if given, are the comparators'
    ``linalg_norms``, computed once for the group.  The regrets are the last
    column of one ``regret_curves`` call."""
    us = _comparator_rows(trace, comparators)
    if norms is None:
        norms = linalg_norms(us).tolist()
    if bounds is None:
        bounds = regret_bound(strategy.potential, norms, max(trace.n_rounds, 1)).tolist()
    actuals = regret_curves(trace, us)[:, -1].tolist() if trace.n_rounds else [0.0] * len(us)
    reports = []
    for u, u_norm, bound, actual in zip(us, norms, bounds, actuals):
        slack = bound - actual
        if math.isfinite(bound):
            holds = bool(slack >= -BOUND_TOL * (1.0 + abs(bound)))
        else:  # only +inf is vacuous, and a NaN regret holds under no bound
            holds = bound == math.inf and not math.isnan(actual)
        reports.append(BoundReport(u, u_norm, actual, bound, slack, holds))
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


# --- serialization ---------------------------------------------------------

CSV_BASE_COLUMNS = ["t", "loss", "reward_cum", "theta_norm", "eps_t"]
MAX_COORD_COLUMNS = 8


def write_trace_csv(trace: Trace, path) -> None:
    """Rows end in CR LF, floats are written as ``repr`` (shortest round trip)
    and ``eps_t`` is empty without a ledger; no field ever needs quoting.

    The rows are one ``write_repr_rows`` call on the (T, k) float columns,
    the round as its lead."""
    T, d = trace.n_rounds, trace.config.dim
    header = list(CSV_BASE_COLUMNS)
    if d <= MAX_COORD_COLUMNS:
        header += [f"w_{i}" for i in range(d)] + [f"g_{i}" for i in range(d)]
    table = np.empty((T, len(header) - 1))
    table[:, 0] = trace.losses
    table[:, 1] = 0.0 - np.cumsum(trace.losses)  # 0.0 - keeps row 1 at 0.0, not -0.0
    table[:, 2] = linalg_norms(trace.theta)
    if trace.eps is not None:
        table[:, 3] = trace.eps
    if len(header) > 5:
        table[:, 4:4 + d] = trace.w
        table[:, 4 + d:] = trace.g
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        write_repr_rows(fh, table, range(1, T + 1), b"\r\n", blank=3 if trace.eps is None else None)


def write_repr_rows(fh, table: np.ndarray, lead: Sequence[int], sep: bytes,
                    const: Optional[str] = None, blank: Optional[int] = None) -> None:
    """Write one CSV row per row i of the (T, k) float64 table: lead[i], then
    const if given, then the k floats, each spelled as its ``repr`` but the
    column blank, if given, which is empty; every row ends in sep.  Nothing
    is quoted, so const must hold no comma and no line break.  The table is
    overwritten.

    The floats go through one ``_repr_text`` call, whose text holds orjson's
    ``null`` for each odd float (and the blank column).  That text is split
    on ``null`` and joined with the odd floats' spellings between the pieces;
    the result, less orjson's ``[[`` and ``]]``, is split on ``],[`` into its
    rows, and one more join puts each row after its lead: sep, lead[i] and
    const, built once per (lead, sep, const) by ``_leads``.  No pass formats
    the text, so const goes in as it is."""
    if len(table) == 0:
        return
    if blank is not None:
        table[:, blank] = np.nan
    text, odd, fills = _repr_text(table)
    if blank is not None:
        fills[np.nonzero(odd)[1] == blank] = b""
    pieces = text.split(b"null")
    del text  # each step drops its input before the next: a lower peak RSS
    text = _interleave(pieces, fills)
    del pieces, fills
    rows = text.split(b"],[")
    del text
    rows[0] = rows[0][2:]  # less orjson's [[ and ]]
    rows[-1] = rows[-1][:-2]
    key = lead if isinstance(lead, range) else tuple(lead)  # hashable; a range hashes without a copy
    fh.write(_interleave(_leads(key, sep, const), rows))


@cache
def _leads(lead: Sequence[int], sep: bytes, const: Optional[str]) -> tuple:
    """What goes before each row of ``write_repr_rows`` and after the last:
    lead[0] and const, then sep, lead[i] and const for every next row, then
    sep.  Built once per (lead, sep, const): every trace of a sweep, and every
    comparator's rows of ``curves`` at one T, share it."""
    cells = b"," if const is None else b",%b," % const.encode()
    return (b"%d" % lead[0] + cells, *(sep + b"%d" % i + cells for i in lead[1:]), sep)


def _interleave(outer, inner) -> bytes:
    """outer[0] + inner[0] + outer[1] + ... + outer[-1], by one join: outer
    holds one item more than inner."""
    parts = [b""] * (len(outer) + len(inner))
    parts[0::2], parts[1::2] = outer, inner
    return b"".join(parts)


def repr_spellings(values: np.ndarray) -> List[bytes]:
    """The ``repr`` bytes of each float of the 1-D float64 array values, as
    ``write_repr_rows`` spells them.  values is overwritten."""
    if values.size == 0:
        return []
    text, _, fills = _repr_text(values)
    return _interleave(text.split(b"null"), fills)[1:-1].split(b",")


def _repr_text(table: np.ndarray):
    """(text, odd, fills): orjson's text of the float64 array table, in which
    every float is spelled as its ``repr`` but the odd ones, flagged in odd,
    which are ``null``; fills holds their ``repr`` bytes, in order, as an
    object array.  The odd entries of table are overwritten with nan.

    orjson writes the same shortest round-trip digits as ``repr`` and spells
    a float alike but for three cases.  A float with |x| >= 1e16 is ``1e16``
    to orjson and ``1e+16`` to ``repr``: one pass over the buffer adds the
    ``+``.  A float with 1e-9 <= |x| < 1e-4 is ``0.0000123`` or ``1.2e-7`` to
    orjson, and inf and nan are ``null``: these are the odd ones, which table
    holds as nan, so that orjson writes each as ``null``."""
    import orjson  # here, so that importing the engine never loads it

    mag = np.abs(table)
    odd = ((mag >= 1e-9) & (mag < 1e-4)) | ~np.isfinite(mag)
    big = bool(np.any(mag >= 1e16))
    tiny = big and bool(np.any((mag > 0) & (mag < 1e-9)))  # 1e-10 to both: the + comes off again
    del mag
    fills = _odd_reprs(table[odd])
    table[odd] = np.nan  # orjson writes null
    text = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY)
    if big:
        text = text.replace(b"e", b"e+")
        if tiny:
            text = text.replace(b"e+-", b"e-")
    return text, odd, fills


def _odd_reprs(values: np.ndarray) -> np.ndarray:
    """The ``repr`` bytes of values, each with 1e-9 <= |x| < 1e-4 or not
    finite, as an object array.  A float that orjson spells ``0.0000123`` or
    ``1.2e-7`` goes through orjson and byte edits, for speed: the sweeps hold
    tens of thousands of them.  In ``0.0000123`` the ``0.0000`` becomes a
    ``#`` mark, and one numpy step over the bytes swaps each mark with the
    digit after it and makes the mark a point: ``1.23``, then ``1.23e-05``."""
    import orjson

    texts = np.empty(values.size, dtype=object)
    mag = np.abs(values)
    fixed, short = (mag >= 1e-5) & (mag < 1e-4), mag < 1e-5
    if fixed.any():  # 0.0000123 -> #123 -> 1.23 -> 1.23e-05; 0.00001 -> #1 -> 1. -> 1e-05
        text = bytearray(orjson.dumps(values[fixed], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].replace(b"0.0000", b"#"))
        buf = np.frombuffer(text, dtype=np.uint8)
        mark = np.flatnonzero(buf == ord("#"))
        buf[mark] = buf[mark + 1]
        buf[mark + 1] = ord(".")
        texts[fixed] = (bytes(text).replace(b",", b"e-05,") + b"e-05").replace(b".e", b"e").split(b",")
    if short.any():  # 1.2e-7 -> 1.2e-07
        texts[short] = orjson.dumps(values[short], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].replace(
            b"e-", b"e-0").split(b",")
    rest = ~(fixed | short)  # inf, -inf, nan
    texts[rest] = [repr(x).encode() for x in values[rest].tolist()]
    return texts


def trace_to_dict(trace: Trace, array=np.ndarray.tolist) -> dict:
    """Every field but theta, which is -cumsum(g); each array field as
    array(field), a list by default."""
    return {
        "config": {
            "dim": trace.config.dim,
            "grad_bound": trace.config.grad_bound,
            "horizon": trace.config.horizon,
            "seed": trace.config.seed,
        },
        "strategy_tag": trace.strategy_tag,
        "adversary_tag": trace.adversary_tag,
        "w": array(trace.w),
        "g": array(trace.g),
        "losses": array(trace.losses),
        "eps": None if trace.eps is None else array(trace.eps),
    }


def _floats(data: dict, key: str) -> np.ndarray:
    """data[key] as a float64 array; ValueError if it is a list holding null
    (None), which numpy would read as nan.  Only an array holding nan is
    searched, since a list without None gives none (a ``NaN`` of an older
    file reads as nan, as it always did)."""
    value = data[key]
    arr = np.asarray(value, dtype=np.float64)
    if np.isnan(arr).any() and _holds_none(value):
        raise ValueError(f"{key!r} holds null, which is not a number")
    return arr


def _holds_none(value) -> bool:
    return isinstance(value, list) and any(x is None or _holds_none(x) for x in value)


def _float_array(data: dict, key: str, shape: tuple) -> np.ndarray:
    arr = _floats(data, key)
    if arr.shape != shape and not (arr.size == 0 and shape[0] == 0):  # [] is zero rows of any width
        raise ValueError(f"{key!r} has shape {arr.shape}, expected {shape}")
    return arr.reshape(shape)


def trace_from_dict(data: dict) -> Trace:
    """The trace of trace_to_dict's output, theta rebuilt from g; a theta key
    (older files have one) is ignored.  A missing key, a bad config, w, g or
    eps not of T = len(losses) rows, or a null (None) in w, g, losses or eps
    raises ValueError; ``"eps": null`` is a trace without a ledger."""
    try:
        cfg = GameConfig(**data["config"])
        losses = _floats(data, "losses")
        if losses.ndim != 1:
            raise ValueError(f"'losses' has shape {losses.shape}, expected (T,)")
        rows = (losses.size, cfg.dim)
        g = _float_array(data, "g", rows)
        return Trace(
            config=cfg,
            strategy_tag=data["strategy_tag"],
            adversary_tag=data["adversary_tag"],
            w=_float_array(data, "w", rows),
            g=g,
            theta=_states(g),
            losses=losses,
            eps=None if data.get("eps") is None else _float_array(data, "eps", rows[:1]),
        )
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(str(exc)) from exc


SIDECAR_SUFFIX = ".f64"  # a JSON trace's float64 sidecar is its path with this appended
# the sidecar's header: 8 magic bytes, the JSON file's byte length (uint64) and zlib.crc32 (uint32), 4 zero bytes
_SIDECAR_HEAD = struct.Struct("<8sQI4x")
_SIDECAR_MAGIC = b"MMOTF64\x01"


def write_trace_json(trace: Trace, path, repeat_of=None) -> None:
    """The trace without theta, in one orjson call: compact separators, and
    each float as the shortest text that reads back to it (``1e-7``, not
    ``1e-07``).  orjson gets the arrays as C-contiguous float64 arrays, not
    lists, and writes the bytes it writes for the lists.  theta must be
    -cumsum(g), as every engine trace's is, since a JSON trace rebuilds it
    from g; and w, g, losses and eps must be finite, since JSON has no inf
    or nan.  Else ValueError, and no file is written.

    Then the float64 sidecar, at path with ``SIDECAR_SUFFIX`` appended: a
    24-byte header (8 magic bytes, the JSON file's byte length as a uint64
    and its ``zlib.crc32`` as a uint32, 4 zero bytes), then w and g as
    little-endian C-order float64, T d 16 bytes in all.

    repeat_of, if given, is (prev, prev_path): a trace that this function
    wrote to prev_path, whose w, g, losses and eps have the bits of trace's
    (a repeated run's).  Where the two differ in config.seed alone, the file
    is prev_path's bytes with the seed respelled, and orjson is not called."""
    import orjson  # here, so that a sweep without JSON traces never loads it

    for key in ("w", "g", "losses", "eps"):
        values = getattr(trace, key)
        if values is not None and not np.isfinite(values).all():
            raise ValueError(f"{key!r} holds inf or nan, which a JSON trace cannot store")
    if not np.array_equal(trace.theta, _states(trace.g), equal_nan=True):
        raise ValueError("trace.theta is not -cumsum(g), and a JSON trace does not store it")
    data = None if repeat_of is None else _respelled_seed(trace, *repeat_of)
    if data is None:
        # orjson refuses an array that is not C-contiguous; float32 is cast, as tolist would widen it
        data = orjson.dumps(trace_to_dict(trace, partial(np.ascontiguousarray, dtype=np.float64)),
                            option=orjson.OPT_SERIALIZE_NUMPY)
    with open(path, "wb") as fh:
        fh.write(data)
    with open(f"{os.fspath(path)}{SIDECAR_SUFFIX}", "wb") as fh:
        fh.write(_SIDECAR_HEAD.pack(_SIDECAR_MAGIC, len(data), zlib.crc32(data)))
        for rows in (trace.w, trace.g):
            fh.write(np.ascontiguousarray(rows, dtype="<f8").data)


def _respelled_seed(trace: Trace, prev: Trace, prev_path) -> Optional[bytes]:
    """The bytes of prev's JSON trace at prev_path with its config.seed
    respelled as trace's, or None where the two differ in more than the seed
    (their other config fields or their tags) or the file holds no seed
    where ``write_trace_json`` puts it: the config's last key, before which
    only numbers and ``"unknown"`` stand."""
    if (replace(prev.config, seed=trace.config.seed), prev.strategy_tag, prev.adversary_tag) != (
            trace.config, trace.strategy_tag, trace.adversary_tag):
        return None
    with open(prev_path, "rb") as fh:
        text = fh.read()
    old, new = (b'"seed":%d},"strategy_tag":' % cfg.seed for cfg in (prev.config, trace.config))
    return text.replace(old, new, 1) if old in text else None


@cache
def _row_array_patterns():
    """A row array's key (``"w"``, ``"g"`` or ``"theta"``) up to its ``[``,
    and its end: a row array holds only numbers, never a quote, so it ends at
    the first ``]`` that is followed, after optional whitespace, by another."""
    return re.compile(rb'"(w|g|theta)"\s*:\s*(?=\[)'), re.compile(rb"\]\s*\]")


def read_trace_json(path) -> Trace:
    """The trace in the JSON file at path, as ``trace_from_dict`` reads the
    file's object; a file that holds none raises ValueError.

    The (T, d) row arrays, ``w`` and ``g``, are cut out of the file's bytes,
    and the rest of the file (config, tags, losses, eps) is decoded by one
    orjson call; ``theta``, which older files hold, is cut out and never
    decoded.  w and g are then the float64 sidecar's (``write_trace_json``)
    where its header holds the file's byte length and crc32 and it holds
    2 T d floats (T the length of losses, d config.dim), all finite: the
    bits the text holds, since the writer wrote the text from them and
    orjson reads each float back to itself.  Else each row array is decoded
    by its own orjson call into a float64 array.  orjson builds a tree of
    the whole text it is given before it makes any Python object, so a tree
    of one array at a time keeps the reader's peak memory where the stdlib
    ``json`` had it.  Files written with ``json.dumps`` (``", "`` and ``": "``
    separators, or indented) read the same way.  orjson refuses ``NaN`` and
    ``Infinity``, which such files may hold: a file that orjson refuses, or
    whose row array has no end (a truncated file, or a trace of no rounds,
    whose arrays are ``[]``) or is not a table of numbers (one holding null,
    say), is read whole by the stdlib ``json``, whose dict
    ``trace_from_dict`` then reads or refuses."""
    import orjson  # here, so that importing the engine never loads it

    with open(path, "rb") as fh:
        text = fh.read()
    key_at, end_at = _row_array_patterns()
    view, parts, spans, pos = memoryview(text), [], {}, 0
    try:
        while (key := key_at.search(text, pos)) is not None:
            end = end_at.search(text, key.end())
            if end is None:
                raise ValueError("a row array has no end")
            if key[1] != b"theta":
                spans[key[1].decode()] = view[key.end():end.end()]
            parts += (view[pos:key.end()], b"null")
            pos = end.end()
        parts.append(view[pos:])
        data = orjson.loads(b"".join(parts))
        rows = _sidecar_rows(path, text, data)
        if rows is None:
            rows = {}
            for name, span in spans.items():  # to float64 at once, so that one array's lists are alive at a time
                rows[name] = arr = np.array(orjson.loads(span), dtype=np.float64)
                if np.isnan(arr).any():  # orjson reads no NaN, so a null was there: json.loads keeps it None
                    raise ValueError("a row array holds null")
    except (TypeError, ValueError):  # orjson.JSONDecodeError, or numpy's on a ragged or non-numeric row
        data = json.loads(text)
    else:
        if isinstance(data, dict):
            data.update(rows)
    return trace_from_dict(data)


def _sidecar_rows(path, text: bytes, data) -> Optional[dict]:
    """{"w": w, "g": g}, writable (T, d) float64 arrays, from the sidecar of
    the JSON trace at path, whose bytes are text and whose object less its
    row arrays is data; None where ``read_trace_json`` decodes the text
    instead.  Once the header matches, text and data are the writer's."""
    try:
        with open(f"{os.fspath(path)}{SIDECAR_SUFFIX}", "rb") as fh:
            if fh.read(_SIDECAR_HEAD.size) != _SIDECAR_HEAD.pack(_SIDECAR_MAGIC, len(text), zlib.crc32(text)):
                return None
            T, d = len(data["losses"]), data["config"]["dim"]
            if os.fstat(fh.fileno()).st_size != _SIDECAR_HEAD.size + 16 * T * d:
                return None
            rows = np.empty((2, T, d), dtype="<f8")
            if fh.readinto(rows) != rows.nbytes:  # the file shrank since its size was read
                return None
    except OSError:  # no sidecar (an older output directory, or a file not written by write_trace_json)
        return None
    return {"w": rows[0], "g": rows[1]} if np.isfinite(rows).all() else None
