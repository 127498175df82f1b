"""Batch front door: run sweeps from YAML specs, verify the math, emit curves.

Subcommands:

* ``run --spec spec.yaml``: execute every (strategy x adversary x repeat)
  cell, write per-run traces plus a summary table and a machine-readable
  verdict; exit 0 only if every measured regret respects its envelope.  The
  repeats of one (strategy, adversary) pair form a group, played in lockstep
  by ``engine.run_games``; ``--jobs`` spreads the groups over processes.
* ``verify --all`` (or ``--lemma <name>``): run the oracle-backed check
  suites and print a pass/fail matrix.
* ``curves <trace_dir>``: emit tidy per-round regret-vs-envelope CSV.

The spec file is YAML with a fixed schema; unknown keys are rejected with a
line-anchored message (exit 2).  Bound violations exit 1.  A group that
raises is recorded in verdict.json, the other groups still run, and ``run``
exits 4.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import List, Optional

import numpy as np
import yaml

from . import adversaries as adv_mod
from . import checks
from . import strategies as strat_mod
from .core import GameConfig, UNKNOWN_HORIZON, make_rng, random_unit_vector
# run_game is unused here but stays a cli attribute: perfbench/tracing.py wraps it by name
from .engine import (attach_epsilon, regret_bound, run_game, run_games, verify_bound,  # noqa: F401
                     write_trace_csv, write_trace_json, read_trace_json)
from .one_round import ORTHOGONAL, PARALLEL
from .potentials import AdaptiveNormalPotential, NormalKnownTPotential, PowerPotential, QuadraticPotential

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_CELL_ERROR = 4


class ConfigError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _find_key_line(text: str, key: str) -> Optional[int]:
    for i, raw in enumerate(text.splitlines(), start=1):
        if raw.split("#", 1)[0].strip().startswith((f"{key}:", f"- {key}:")):
            return i
    return None


_KINDS = {int: "an integer", float: "a finite number", str: "a string", list: "a list", dict: "a mapping"}


def _coerce(value, kind, what: str, text: str = "", key: Optional[str] = None, minimum=None):
    """value as kind and at least minimum (if given), else a ConfigError naming
    what, at the line of key (what by default).

    int takes an integral number and float a finite one; a bool or a string is
    neither.  str, list and dict take only a value of their own type.
    """
    if kind in (int, float):
        try:
            ok = (not isinstance(value, (bool, str)) and math.isfinite(value)
                  and (kind is float or value == int(value)))
        except (TypeError, OverflowError):
            ok = False
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{what} must be {_KINDS[kind]}, got {value!r}", _find_key_line(text, key or what))
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}", _find_key_line(text, key or what))
    return kind(value)


def _require_keys(section: dict, allowed: set, required: set, where: str, text: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}", _find_key_line(text, key))
    for key in required:
        if key not in section:
            raise ConfigError(f"missing required key {key!r} in {where}", _find_key_line(text, where))


@dataclass
class ExperimentSpec:
    game: GameConfig
    strategies: List[dict]
    adversaries: List[dict]
    comparators: List[dict]   # {"norm": float, "direction_seed": int}
    out_dir: str
    out_format: str           # csv | json | both
    repeats: int
    rounds: int


POTENTIALS = {cls.tag: cls for cls in (QuadraticPotential, PowerPotential,
                                       NormalKnownTPotential, AdaptiveNormalPotential)}
ADVERSARIES = {cls.tag: cls for cls in (adv_mod.OrthogonalMinimax, adv_mod.ParallelMinimax,
                                        adv_mod.RademacherLine, adv_mod.GaussianRandom,
                                        adv_mod.FixedDirection, adv_mod.GreedyVsComparator)}
# adversary fields that hold a vector in the game's space
VECTOR_FIELDS = {"direction", "comparator"}


def _spec_fields(cls) -> list:
    """Fields a strategy or adversary entry sets: the class's constructor
    fields but G and T, which come from the game section."""
    return [f for f in fields(cls) if f.init and f.name not in ("G", "T")]


def _parse_entry(entry: dict, registry: dict, kind: str, build, game: GameConfig, text: str):
    """Check a strategy or adversary entry's tag and keys (the tag and every
    spec field allowed, those without a default required), then build it to
    surface parameter precondition violations now."""
    entry = _coerce(entry, dict, f"{kind} entry", text)
    tag = entry.get("tag")
    if tag not in registry:
        raise ConfigError(f"unknown {kind} tag {tag!r}", _find_key_line(text, "tag"))
    spec_fields = _spec_fields(registry[tag])
    _require_keys(entry, {"tag", *(f.name for f in spec_fields)},
                  {"tag", *(f.name for f in spec_fields if f.default is MISSING)}, f"{kind} {tag}", text)
    return build(entry, game)


def build_strategy(entry: dict, game: GameConfig) -> strat_mod.PotentialPlayer:
    tag = entry.get("tag")
    if tag not in POTENTIALS:
        raise ConfigError(f"unknown strategy tag {tag!r}; choose from {sorted(POTENTIALS)}")
    cls = POTENTIALS[tag]
    try:
        params = {f.name: _coerce(entry[f.name], float, f.name) for f in _spec_fields(cls)}
        params["G"] = game.grad_bound
        if "T" in cls.__dataclass_fields__:
            if not game.known_horizon:
                raise ValueError("requires a numeric game.horizon")
            params["T"] = game.horizon
        return strat_mod.PotentialPlayer(cls(**params))
    except KeyError as exc:
        raise ConfigError(f"strategy {tag!r} is missing parameter {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"strategy {tag!r}: {exc}") from exc


def _vector(name: str, value, dim: int) -> tuple:
    """A vector field as a tuple of game.dim finite floats; a direction must
    also not be all zeros."""
    try:
        vec = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.shape != (dim,) or not np.isfinite(vec).all():
        raise ValueError(f"{name} must be a list of game.dim = {dim} finite numbers")
    if name == "direction" and not vec.any():
        raise ValueError("direction must not be all zeros")
    return tuple(vec.tolist())


def build_adversary(entry: dict, game: GameConfig):
    tag = entry.get("tag")
    if tag not in ADVERSARIES:
        raise ConfigError(f"unknown adversary tag {tag!r}; choose from {sorted(ADVERSARIES)}")
    cls = ADVERSARIES[tag]
    params = {f.name: entry[f.name] for f in _spec_fields(cls) if f.name in entry}
    try:
        min_dim = getattr(cls, "min_dim", 1)
        if game.dim < min_dim:
            raise ValueError(f"requires game.dim >= {min_dim}")
        for name in VECTOR_FIELDS & params.keys():
            params[name] = _vector(name, params[name], game.dim)
        return cls(G=game.grad_bound, **params)
    except ValueError as exc:
        raise ConfigError(f"adversary {tag!r}: {exc}") from exc


def comparator_vector(norm: float, direction_seed: int, dim: int) -> np.ndarray:
    if norm == 0.0:
        return np.zeros(dim)
    return norm * random_unit_vector(make_rng(int(direction_seed)), dim)


def parse_experiment_spec(path) -> ExperimentSpec:
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = None if mark is None else mark.line + 1
        raise ConfigError(f"YAML parse error: {exc}", line) from exc
    raw = _coerce(raw, dict, "spec")

    top_allowed = {"game", "strategy", "strategies", "adversary", "adversaries",
                   "comparators", "outputs", "repeats", "rounds"}
    _require_keys(raw, top_allowed, {"game"}, "top level", text)

    game_sec = _coerce(raw["game"], dict, "game", text)
    _require_keys(game_sec, {"dim", "grad_bound", "horizon", "seed"},
                  {"dim", "grad_bound"}, "game", text)
    dim = _coerce(game_sec["dim"], int, "game.dim", text, "dim")
    grad_bound = _coerce(game_sec["grad_bound"], float, "game.grad_bound", text, "grad_bound")
    horizon = game_sec.get("horizon", UNKNOWN_HORIZON)
    if horizon != UNKNOWN_HORIZON:
        horizon = _coerce(horizon, int, "game.horizon", text, "horizon")
    seed = _coerce(game_sec.get("seed", 0), int, "game.seed", text, "seed", minimum=0)
    try:
        game = GameConfig(dim=dim, grad_bound=grad_bound, horizon=horizon, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"game: {exc}", _find_key_line(text, "game")) from exc

    if ("strategy" in raw) == ("strategies" in raw):
        raise ConfigError("provide exactly one of 'strategy' or 'strategies'")
    strategies = ([raw["strategy"]] if "strategy" in raw
                  else _coerce(raw["strategies"], list, "strategies", text))
    if ("adversary" in raw) and ("adversaries" in raw):
        raise ConfigError("provide at most one of 'adversary' or 'adversaries'")
    adversaries = ([raw["adversary"]] if "adversary" in raw
                   else _coerce(raw.get("adversaries", []), list, "adversaries", text))
    if not adversaries:
        raise ConfigError("at least one adversary is required")

    players = [_parse_entry(entry, POTENTIALS, "strategy", build_strategy, game, text)
               for entry in strategies]
    for entry in adversaries:
        _parse_entry(entry, ADVERSARIES, "adversary", build_adversary, game, text)

    comparators = []
    for comp in _coerce(raw.get("comparators", [{"norm": 0.0}]), list, "comparators", text):
        comp = _coerce(comp, dict, "comparators entry", text, "comparators")
        _require_keys(comp, {"norm", "direction_seed"}, {"norm"}, "comparators entry", text)
        comparators.append({
            "norm": _coerce(comp["norm"], float, "comparator norm", text, "norm", minimum=0),
            "direction_seed": _coerce(comp.get("direction_seed", 0), int, "comparator direction_seed", text,
                                      "direction_seed", minimum=0)})

    outputs = _coerce(raw.get("outputs", {}), dict, "outputs", text)
    _require_keys(outputs, {"dir", "format"}, set(), "outputs", text)
    out_format = outputs.get("format", "csv")
    if out_format not in ("csv", "json", "both"):
        raise ConfigError("outputs.format must be csv, json, or both", _find_key_line(text, "format"))
    out_dir = _coerce(outputs.get("dir", "out"), str, "outputs.dir", text, "dir")

    repeats = _coerce(raw.get("repeats", 1), int, "repeats", text, minimum=1)

    rounds = raw.get("rounds")
    if rounds is None:
        if not game.known_horizon:
            raise ConfigError("rounds is required when game.horizon is unknown",
                              _find_key_line(text, "rounds") or _find_key_line(text, "horizon"))
        rounds = game.horizon
    rounds = _coerce(rounds, int, "rounds", text, minimum=1)
    if game.known_horizon and rounds != game.horizon and any(p.needs_horizon for p in players):
        raise ConfigError("rounds must equal game.horizon for horizon-tuned strategies",
                          _find_key_line(text, "rounds"))

    return ExperimentSpec(game=game, strategies=strategies, adversaries=adversaries,
                          comparators=comparators, out_dir=out_dir, out_format=out_format,
                          repeats=repeats, rounds=rounds)


def _run_id(spec: ExperimentSpec, si: int, ai: int, k: int) -> str:
    return f"s{si}-{spec.strategies[si]['tag']}_a{ai}-{spec.adversaries[ai]['tag']}_k{k:03d}"


def _execute_cell(args):
    """One (strategy, adversary) group, its repeats played in lockstep; returns
    its summary rows, run by run.  The group's traces are written before it
    returns, so only one group's arrays are alive at a time."""
    spec, si, ai, out_dir = args
    strategy = build_strategy(spec.strategies[si], spec.game)
    adversary = build_adversary(spec.adversaries[ai], spec.game)
    configs = [replace(spec.game, seed=spec.game.seed + k) for k in range(spec.repeats)]
    comparators = [comparator_vector(comp["norm"], comp["direction_seed"], spec.game.dim)
                   for comp in spec.comparators]
    traces = run_games(strategy, adversary, configs, spec.rounds)
    rows = []
    for k, trace in enumerate(traces):
        attach_epsilon(trace, strategy.potential)
        run_id = _run_id(spec, si, ai, k)
        if spec.out_format in ("csv", "both"):
            write_trace_csv(trace, Path(out_dir) / f"run_{run_id}.csv")
        if spec.out_format in ("json", "both"):
            write_trace_json(trace, Path(out_dir) / f"run_{run_id}.json")
        for comp, u in zip(spec.comparators, comparators):
            report = verify_bound(trace, strategy, [u])[0]
            rows.append({
                "run_id": run_id, "strategy": strategy.tag, "adversary": adversary.tag,
                "seed": trace.config.seed, "u_norm": report.u_norm,
                "direction_seed": comp["direction_seed"],
                "regret": report.regret_actual, "bound": report.regret_bound,
                "slack": report.slack, "holds": report.holds,
            })
    return rows


def _execute_group(args):
    """(summary rows, None), or ([], message) when the group raised; the
    traceback then goes to stderr."""
    try:
        return _execute_cell(args), None
    except Exception as exc:  # a crash in one group must not hide the others' verdicts
        traceback.print_exc()
        return [], f"{type(exc).__name__}: {exc}"


def cmd_run(args) -> int:
    try:
        spec = parse_experiment_spec(args.spec)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        if args.seed < 0:
            print("error: --seed must be >= 0", file=sys.stderr)
            return EXIT_CONFIG
        spec.game = replace(spec.game, seed=args.seed)
    if args.out is not None:
        spec.out_dir = args.out
    if args.format is not None:
        spec.out_format = args.format
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    groups = [(spec, si, ai, str(out_dir))
              for si in range(len(spec.strategies))
              for ai in range(len(spec.adversaries))]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_execute_group, groups))
    else:
        results = [_execute_group(group) for group in groups]
    all_rows, errors = [], []
    for (_, si, ai, _), (rows, message) in zip(groups, results):
        all_rows += rows
        if message is not None:
            print(f"error: group s{si}-a{ai} raised {message}", file=sys.stderr)
            errors += [{"run_id": _run_id(spec, si, ai, k), "seed": spec.game.seed + k,
                        "status": "error", "message": message} for k in range(spec.repeats)]

    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w") as fh:
        cols = ["run_id", "strategy", "adversary", "seed", "u_norm", "direction_seed",
                "regret", "bound", "slack", "holds"]
        fh.write(",".join(cols) + "\n")
        for row in all_rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")

    n_runs = len(groups) * spec.repeats
    violations = [row for row in all_rows if not row["holds"]]
    with open(out_dir / "verdict.json", "w") as fh:
        json.dump({"all_hold": not violations and not errors, "n_runs": n_runs, "n_checks": len(all_rows),
                   "violations": violations, "errors": errors}, fh, indent=2)
    with open(out_dir / "sweep.json", "w") as fh:
        json.dump({
            "game": {"dim": spec.game.dim, "grad_bound": spec.game.grad_bound,
                     "horizon": spec.game.horizon, "seed": spec.game.seed},
            "strategies": spec.strategies, "adversaries": spec.adversaries,
            "comparators": spec.comparators, "rounds": spec.rounds,
            "format": spec.out_format, "repeats": spec.repeats,
        }, fh, indent=2)

    print(f"{n_runs} runs, {len(all_rows)} bound checks, "
          f"{len(violations)} violations -> {summary_path}")
    if errors:
        return EXIT_CELL_ERROR
    return EXIT_OK if not violations else EXIT_BOUND_VIOLATION


# --- verify ---------------------------------------------------------------

# verify's seeds; the acceptance gate runs the same checks at its own seeds
SUITES = {
    "gaussian-dominance": checks.gaussian_dominance,
    "argmax-zero": checks.argmax_zero,
    "conjugate-bound": partial(checks.conjugate_bound, seed=0),
    "one-round": partial(checks.one_round, seed=1),
    "recursion": checks.recursion,
    "regime": checks.regime,
}


def cmd_verify(args) -> int:
    if args.all:
        names = list(SUITES)
    elif args.lemma:
        names = [args.lemma]
    else:
        print("error: choose --lemma <name> or --all", file=sys.stderr)
        return EXIT_CONFIG
    rows, seconds = [], {}
    for name in names:
        start = time.perf_counter()
        rows.extend(SUITES[name](regime=args.regime) if name == "one-round" else SUITES[name]())
        seconds[name] = time.perf_counter() - start
    width = max(len(row.label) for row in rows)
    for row in rows:
        print(f"{row.suite:20s} {row.label:{width}s} {'PASS' if row.ok else 'FAIL'}")
    print()
    for name, secs in seconds.items():
        print(f"{name:20s} {secs:.2f} s")
    failures = [row for row in rows if not row.ok]
    if failures:
        print(f"\n{len(failures)} failing checks:", file=sys.stderr)
        for row in failures:
            print(f"  {row.suite}: {row.label}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def cmd_curves(args) -> int:
    trace_dir = Path(args.trace_dir)
    meta_path = trace_dir / "sweep.json"
    if not meta_path.exists():
        print(f"error: {meta_path} not found (run the sweep first)", file=sys.stderr)
        return EXIT_CONFIG
    meta = json.loads(meta_path.read_text())
    traces = sorted(trace_dir.glob("run_*.json"))
    if not traces:
        print("error: no run_*.json traces found; use outputs.format json or both",
              file=sys.stderr)
        return EXIT_CONFIG
    game = GameConfig(**meta["game"])
    potentials = {f"s{i}": build_strategy(entry, game).potential
                  for i, entry in enumerate(meta["strategies"])}
    comparators = [comparator_vector(c["norm"], c["direction_seed"], game.dim)
                   for c in meta["comparators"]]
    u_norms = [float(np.linalg.norm(u)) for u in comparators]
    # "<bound_u>,<u_norm>\n" per round, once per (strategy entry, comparator, T)
    tails = {}
    out_path = Path(args.out) if args.out else trace_dir / "curves.csv"
    with open(out_path, "w") as fh:
        fh.write("t,run_id,regret_u,bound_u,u_norm\n")
        for path in traces:
            trace = read_trace_json(path)
            run_id = path.stem[len("run_"):]
            entry = run_id.split("-", 1)[0]
            T = trace.n_rounds
            for ci, (u, u_norm) in enumerate(zip(comparators, u_norms)):
                key = (entry, ci, T)
                if key not in tails:
                    tails[key] = [f"{regret_bound(potentials[entry], u_norm, t)!r},{u_norm!r}\n"
                                  for t in range(1, T + 1)]
                per_round = np.einsum("td,td->t", trace.g, trace.w - u[None, :])
                cumulative = np.cumsum(per_round).tolist()
                fh.write("".join([f"{t},{run_id},{r!r},{tail}" for t, r, tail
                                  in zip(range(1, T + 1), cumulative, tails[key])]))
    print(f"wrote {out_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="minimax-online",
                                     description="Unconstrained online linear optimization testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--out", default=None, help="override outputs.dir")
    p_run.add_argument("--jobs", type=int,
                       default=int(os.environ.get("MINIMAX_ONLINE_JOBS", "1")))
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--format", choices=("csv", "json", "both"), default=None)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run oracle-backed check suites")
    p_verify.add_argument("--lemma", choices=sorted(SUITES), default=None)
    p_verify.add_argument("--regime", choices=(ORTHOGONAL, PARALLEL), default=None)
    p_verify.add_argument("--all", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_curves = sub.add_parser("curves", help="emit per-round regret vs envelope CSV")
    p_curves.add_argument("trace_dir")
    p_curves.add_argument("--out", default=None)
    p_curves.set_defaults(func=cmd_curves)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
