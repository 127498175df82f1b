"""Batch front door: run sweeps from YAML specs, verify the math, emit curves.

Subcommands:

* ``run --spec spec.yaml``: execute every (strategy x adversary x repeat)
  cell, write per-run traces plus a summary table and a machine-readable
  verdict; exit 0 only if every measured regret respects its envelope.  The
  repeats of one (strategy, adversary) pair form a group, played in
  lockstep.  The groups of one adversary form a column, played by one
  ``engine.run_column`` call, which gives one function per group: a
  play-blind adversary's gradient block depends only on the seeds, so the
  column computes it once and every strategy replays it; the greedy
  adversary's groups share one round loop.  Each group's traces are written
  and checked before the next group's are built, and a group that fails
  raises its own error from its own function, the one it raises alone.  A
  run with the same bits as the run before it in its group (every repeat
  against an adversary that draws nothing) takes that run's ledger and
  bound checks, and its CSV trace is a copy of that run's file; a JSON trace
  is written per run, since its config names its own seed.  ``--jobs``
  spreads the columns over processes.
* ``verify --all`` (or ``--lemma <name>``): run the oracle-backed check
  suites and print a pass/fail matrix.
* ``curves <trace_dir>``: emit tidy per-round regret-vs-envelope CSV; a
  trace or sweep.json it cannot read exits 2 and leaves no partial CSV.

The spec file is YAML with a fixed schema, read once: the parser builds each
entry, and an error (an unknown key, say) names the line of its key (exit 2);
``curves`` checks sweep.json with the same section checks.  An output
location that cannot be written exits 2 as well.  Bound violations exit 1.
A group that raises is recorded in verdict.json, the other groups still
run, and ``run`` exits 4.  Any other exception that escapes a subcommand is an internal
error: its traceback goes to stderr and the exit code is 5.

A process imports only what its subcommand runs: ``run`` and ``curves``
never load the one-round solvers, the oracles or the checks, and ``curves``
never loads PyYAML.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import shutil
import sys
import time
import traceback
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import cache
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import adversaries as adv_mod
from . import strategies as strat_mod
from .core import GameConfig, UNKNOWN_HORIZON, linalg_norms, make_rng, random_unit_vector
# run_game is unused here but stays a cli attribute: perfbench/tracing.py wraps it by name
from .engine import (attach_epsilon, regret_bound, repr_spellings, run_column, run_game,  # noqa: F401
                     verify_bound, write_repr_rows, write_trace_csv, write_trace_json, read_trace_json)
from .potentials import AdaptiveNormalPotential, NormalKnownTPotential, PowerPotential, QuadraticPotential

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_CELL_ERROR = 4
EXIT_INTERNAL = 5

SEED_MAX = 2**64 - 1  # make_rng keys each run's stream with one uint64


class ConfigError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class SpecMap(dict):
    """A mapping of a spec file: a dict that also holds its own line, ``line``, and each key's, ``lines``."""


def _line(section, key=None) -> Optional[int]:
    """The spec line of key in section, else of section; None off a spec file (in sweep.json)."""
    return section.lines.get(key, section.line) if isinstance(section, SpecMap) else None


_KINDS = {int: "an integer", float: "a finite number", str: "a string", list: "a list", dict: "a mapping"}


def _coerce(value, kind, what: str, at=None, key=None, minimum=None, maximum=None):
    """value as kind within [minimum, maximum] (each if given), else a
    ConfigError naming what, at the line of key in the mapping at.

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
        raise ConfigError(f"{what} must be {_KINDS[kind]}, got {value!r}", _line(at, key))
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}", _line(at, key))
    if maximum is not None and value > maximum:
        raise ConfigError(f"{what} must be <= {maximum}", _line(at, key))
    return kind(value) if kind in (int, float) else value  # a SpecMap stays one


def _require_keys(section: dict, allowed: set, required: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}", _line(section, key))
    for key in required:
        if key not in section:
            raise ConfigError(f"missing required key {key!r} in {where}", _line(section))


@dataclass
class ExperimentSpec:
    game: GameConfig
    strategies: List[dict]    # the entries as the spec spells them, for sweep.json
    adversaries: List[dict]
    comparators: List[dict]   # {"norm": float, "direction_seed": int}
    out_dir: str
    out_format: str           # csv | json | both
    repeats: int
    rounds: int
    players: List[strat_mod.PotentialPlayer]  # built from strategies, entry by entry
    opponents: list                           # built from adversaries, entry by entry


POTENTIALS = {cls.tag: cls for cls in (QuadraticPotential, PowerPotential,
                                       NormalKnownTPotential, AdaptiveNormalPotential)}
ADVERSARIES = {cls.tag: cls for cls in (adv_mod.OrthogonalMinimax, adv_mod.ParallelMinimax,
                                        adv_mod.RademacherLine, adv_mod.GaussianRandom,
                                        adv_mod.FixedDirection, adv_mod.GreedyVsComparator)}
# adversary fields that hold a vector in the game's space
VECTOR_FIELDS = {"direction", "comparator"}


def _entry_class(entry: dict, registry: dict, kind: str):
    """The class of a strategy or adversary entry and its spec fields (its constructor fields
    but G and T, which the game gives), once the entry's tag and keys are checked: the tag
    and every spec field allowed, those without a default required."""
    tag = _coerce(entry, dict, f"{kind} entry").get("tag")
    if not isinstance(tag, str) or tag not in registry:  # a list or mapping tag is unhashable
        raise ConfigError(f"unknown {kind} tag {tag!r}", _line(entry, "tag"))
    spec_fields = [f for f in fields(registry[tag]) if f.init and f.name not in ("G", "T")]
    _require_keys(entry, {"tag", *(f.name for f in spec_fields)},
                  {"tag", *(f.name for f in spec_fields if f.default is MISSING)}, f"{kind} {tag}")
    return registry[tag], spec_fields


def _parse_game(raw: dict) -> GameConfig:
    """The checked game section of raw, a spec or sweep.json."""
    game_sec = _coerce(raw["game"], dict, "game", raw, "game")
    _require_keys(game_sec, {"dim", "grad_bound", "horizon", "seed"}, {"dim", "grad_bound"}, "game")
    dim = _coerce(game_sec["dim"], int, "game.dim", game_sec, "dim")
    grad_bound = _coerce(game_sec["grad_bound"], float, "game.grad_bound", game_sec, "grad_bound")
    horizon = game_sec.get("horizon", UNKNOWN_HORIZON)
    if horizon != UNKNOWN_HORIZON:
        horizon = _coerce(horizon, int, "game.horizon", game_sec, "horizon")
    seed = _coerce(game_sec.get("seed", 0), int, "game.seed", game_sec, "seed", minimum=0, maximum=SEED_MAX)
    try:
        return GameConfig(dim=dim, grad_bound=grad_bound, horizon=horizon, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"game: {exc}", _line(raw, "game")) from exc


def _parse_comparators(raw: dict) -> List[dict]:
    """The checked comparators section of raw, a spec or sweep.json."""
    comparators = []
    for comp in _coerce(raw.get("comparators", [{"norm": 0.0}]), list, "comparators", raw, "comparators"):
        comp = _coerce(comp, dict, "comparators entry", raw, "comparators")
        _require_keys(comp, {"norm", "direction_seed"}, {"norm"}, "comparators entry")
        comparators.append({
            "norm": _coerce(comp["norm"], float, "comparator norm", comp, "norm", minimum=0),
            "direction_seed": _coerce(comp.get("direction_seed", 0), int, "comparator direction_seed", comp,
                                      "direction_seed", minimum=0, maximum=SEED_MAX)})
    return comparators


def build_strategy(entry: dict, game: GameConfig) -> strat_mod.PotentialPlayer:
    """The player of a checked strategy entry; a violated precondition is a ConfigError."""
    cls, spec_fields = _entry_class(entry, POTENTIALS, "strategy")
    try:
        params = {f.name: _coerce(entry[f.name], float, f.name) for f in spec_fields}
        params["G"] = game.grad_bound
        if "T" in cls.__dataclass_fields__:
            if not game.known_horizon:
                raise ValueError("requires a numeric game.horizon")
            params["T"] = game.horizon
        return strat_mod.PotentialPlayer(cls(**params))
    except ValueError as exc:
        raise ConfigError(f"strategy {cls.tag!r}: {exc}") from exc


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
    """The adversary of a checked adversary entry, as ``build_strategy``."""
    cls, spec_fields = _entry_class(entry, ADVERSARIES, "adversary")
    params = {f.name: entry[f.name] for f in spec_fields if f.name in entry}
    try:
        min_dim = getattr(cls, "min_dim", 1)
        if game.dim < min_dim:
            raise ValueError(f"requires game.dim >= {min_dim}")
        for name in VECTOR_FIELDS & params.keys():
            params[name] = _vector(name, params[name], game.dim)
        return cls(G=game.grad_bound, **params)
    except ValueError as exc:
        raise ConfigError(f"adversary {cls.tag!r}: {exc}") from exc


def comparator_vector(norm: float, direction_seed: int, dim: int) -> np.ndarray:
    if norm == 0.0:
        return np.zeros(dim)
    return norm * random_unit_vector(make_rng(int(direction_seed)), dim)


def _comparators(comparators: List[dict], dim: int):
    """(vectors, u_norms) of checked comparators entries, built once per sweep."""
    us = [comparator_vector(comp["norm"], comp["direction_seed"], dim) for comp in comparators]
    return us, linalg_norms(np.array(us).reshape(len(us), dim)).tolist()


def _construct_map(loader, node) -> SpecMap:
    """A YAML mapping as a SpecMap (one that holds itself is a YAML error)."""
    data = SpecMap(loader.construct_mapping(node, deep=True))
    data.line = node.start_mark.line + 1
    data.lines = {loader.construct_object(key): key.start_mark.line + 1 for key, _ in node.value}
    return data


@cache
def _spec_loader():
    """PyYAML's SafeLoader, which follows YAML 1.1 and so reads a float with an
    exponent but no dot or no exponent sign (1e-3, 1E5, 2.5e3) as a string, with
    YAML 1.2's reading of those as floats added; it reads a mapping as a SpecMap."""
    import yaml  # here, so that curves and verify never load it

    class SpecLoader(yaml.SafeLoader):
        pass

    SpecLoader.add_implicit_resolver("tag:yaml.org,2002:float",
                                     re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
                                     list("-+.0123456789"))
    SpecLoader.add_constructor("tag:yaml.org,2002:map", _construct_map)
    return SpecLoader


def parse_experiment_spec(path) -> ExperimentSpec:
    import yaml

    try:
        raw = yaml.load(Path(path).read_text(), Loader=_spec_loader())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = None if mark is None else mark.line + 1
        raise ConfigError(f"YAML parse error: {exc}", line) from exc
    raw = _coerce(raw, dict, "spec")

    top_allowed = {"game", "strategy", "strategies", "adversary", "adversaries",
                   "comparators", "outputs", "repeats", "rounds"}
    _require_keys(raw, top_allowed, {"game"}, "top level")
    game = _parse_game(raw)

    if ("strategy" in raw) == ("strategies" in raw):
        raise ConfigError("provide exactly one of 'strategy' or 'strategies'")
    strategies = ([raw["strategy"]] if "strategy" in raw
                  else _coerce(raw["strategies"], list, "strategies", raw, "strategies"))
    if ("adversary" in raw) and ("adversaries" in raw):
        raise ConfigError("provide at most one of 'adversary' or 'adversaries'")
    adversaries = ([raw["adversary"]] if "adversary" in raw
                   else _coerce(raw.get("adversaries", []), list, "adversaries", raw, "adversaries"))
    if not adversaries:
        raise ConfigError("at least one adversary is required")

    players = [build_strategy(entry, game) for entry in strategies]
    opponents = [build_adversary(entry, game) for entry in adversaries]
    comparators = _parse_comparators(raw)

    outputs = _coerce(raw.get("outputs", {}), dict, "outputs", raw, "outputs")
    _require_keys(outputs, {"dir", "format"}, set(), "outputs")
    out_format = outputs.get("format", "csv")
    if out_format not in ("csv", "json", "both"):
        raise ConfigError("outputs.format must be csv, json, or both", _line(outputs, "format"))
    out_dir = _coerce(outputs.get("dir", "out"), str, "outputs.dir", outputs, "dir")

    repeats = _coerce(raw.get("repeats", 1), int, "repeats", raw, "repeats", minimum=1)
    _coerce(game.seed + repeats - 1, int, "game.seed + repeats - 1", raw["game"], "seed", maximum=SEED_MAX)

    rounds = raw.get("rounds")
    if rounds is None:
        if not game.known_horizon:
            raise ConfigError("rounds is required when game.horizon is unknown",
                              _line(raw, "rounds") if "rounds" in raw else _line(raw["game"], "horizon"))
        rounds = game.horizon
    rounds = _coerce(rounds, int, "rounds", raw, "rounds", minimum=1)
    if game.known_horizon and rounds != game.horizon and any(p.needs_horizon for p in players):
        raise ConfigError("rounds must equal game.horizon for horizon-tuned strategies", _line(raw, "rounds"))

    return ExperimentSpec(game=game, strategies=strategies, adversaries=adversaries,
                          comparators=comparators, out_dir=out_dir, out_format=out_format,
                          repeats=repeats, rounds=rounds, players=players, opponents=opponents)


def _run_id(spec: ExperimentSpec, si: int, ai: int, k: int) -> str:
    return f"s{si}-{spec.strategies[si]['tag']}_a{ai}-{spec.adversaries[ai]['tag']}_k{k:03d}"


def _configs(spec: ExperimentSpec) -> List[GameConfig]:
    """The game of each repeat k: its seed is game.seed + k."""
    return [replace(spec.game, seed=spec.game.seed + k) for k in range(spec.repeats)]


def _repeats(trace, prev) -> bool:
    """Whether trace has the bits of prev, the run before it in its group: its
    gradients, then its plays and losses (theta is -cumsum(g)).  Bits, not
    values: -0.0 == 0.0, but the two are spelled apart."""
    return prev is not None and all(getattr(trace, key).tobytes() == getattr(prev, key).tobytes()
                                    for key in ("g", "w", "losses"))


def _execute_cell(args):
    """One (strategy, adversary) group: takes its traces from group, its function of
    the column, attaches their ledgers, writes and checks them against comparators,
    and returns its summary rows, run by run.  The traces are written before the
    call returns, so only one group's states are alive at a time.

    A run that repeats the run before it (an adversary that draws nothing plays
    every repeat alike) takes that run's ledger and bound checks, and its CSV
    trace is a copy of that run's file; its JSON trace is written anew, since
    its config names its own seed."""
    spec, si, ai, group, (comparators, norms), out_dir = args
    strategy, adversary = spec.players[si], spec.opponents[ai]
    traces = group()
    # every trace of the group has this potential and T: one envelope call for all of them
    bounds = regret_bound(strategy.potential, norms, max(spec.rounds, 1)).tolist()
    rows = []
    prev = prev_csv = None
    for k, trace in enumerate(traces):
        run_id = _run_id(spec, si, ai, k)
        csv_path = Path(out_dir) / f"run_{run_id}.csv"
        if _repeats(trace, prev):
            trace.eps = prev.eps
            if spec.out_format in ("csv", "both"):
                shutil.copyfile(prev_csv, csv_path)
        else:
            attach_epsilon(trace, strategy.potential)
            if spec.out_format in ("csv", "both"):
                write_trace_csv(trace, csv_path)
            reports = verify_bound(trace, strategy, comparators, bounds=bounds, norms=norms)
        if spec.out_format in ("json", "both"):
            write_trace_json(trace, Path(out_dir) / f"run_{run_id}.json")
        prev, prev_csv = trace, csv_path
        for comp, report in zip(spec.comparators, reports):
            rows.append({
                "run_id": run_id, "strategy": strategy.tag, "adversary": adversary.tag,
                "seed": trace.config.seed, "u_norm": report.u_norm,
                "direction_seed": comp["direction_seed"],
                "regret": report.regret_actual, "bound": report.regret_bound,
                "slack": report.slack, "holds": report.holds,
            })
    return rows


def _execute_column(args):
    """Every strategy's group against adversary ai, in strategy order, from
    one ``engine.run_column`` call: for each, (summary rows, None), or ([],
    message) when the group raised; the traceback then goes to stderr and
    the column's other groups still run.  comparators is ``_comparators``'."""
    spec, ai, comparators, out_dir = args
    groups = run_column(spec.players, spec.opponents[ai], _configs(spec), spec.rounds)
    results = []
    for si, group in enumerate(groups):
        try:
            results.append((_execute_cell((spec, si, ai, group, comparators, out_dir)), None))
        except Exception as exc:  # a crash in one group must not hide the others' verdicts
            traceback.print_exc()
            results.append(([], f"{type(exc).__name__}: {exc}"))
    return results


def _job_count(value: str) -> int:
    """--jobs as an int; a ConfigError unless it is an integer >= 1."""
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigError(f"--jobs must be an integer >= 1, got {value!r}")
    return jobs


def cmd_run(args) -> int:
    try:
        jobs = _job_count(args.jobs)
        spec = parse_experiment_spec(args.spec)
        if args.seed is not None:  # the last repeat's seed is --seed + repeats - 1
            seed = _coerce(args.seed, int, "--seed", minimum=0, maximum=SEED_MAX - (spec.repeats - 1))
            spec.game = replace(spec.game, seed=seed)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out is not None:
        spec.out_dir = args.out
    if args.format is not None:
        spec.out_format = args.format
    out_dir = Path(spec.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG

    # adversary-major, so only one column's gradient block is alive at a time
    comparators = _comparators(spec.comparators, spec.game.dim)
    columns = [(spec, ai, comparators, str(out_dir)) for ai in range(len(spec.adversaries))]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # not at module level: --jobs 1 never loads multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_execute_column, columns))
    else:
        results = [_execute_column(column) for column in columns]
    all_rows, errors = [], []
    for si in range(len(spec.strategies)):  # back in (strategy, adversary, repeat) order
        for ai, column in enumerate(results):
            rows, message = column[si]
            all_rows += rows
            if message is not None:
                print(f"error: group s{si}-a{ai} raised {message}", file=sys.stderr)
                errors += [{"run_id": _run_id(spec, si, ai, k), "seed": spec.game.seed + k,
                            "status": "error", "message": message} for k in range(spec.repeats)]

    summary_path = out_dir / "summary.csv"
    cols = ["run_id", "strategy", "adversary", "seed", "u_norm", "direction_seed",
            "regret", "bound", "slack", "holds"]
    n_runs = len(spec.strategies) * len(spec.adversaries) * spec.repeats
    violations = [row for row in all_rows if not row["holds"]]
    files = {
        summary_path: "\n".join([",".join(cols)] + [",".join(str(row[c]) for c in cols) for row in all_rows]) + "\n",
        out_dir / "verdict.json": json.dumps({
            "all_hold": not violations and not errors, "n_runs": n_runs, "n_checks": len(all_rows),
            "violations": violations, "errors": errors}, indent=2),
        out_dir / "sweep.json": json.dumps({
            "game": asdict(spec.game),  # dim, grad_bound, horizon, seed: what _parse_game reads back
            "strategies": spec.strategies, "adversaries": spec.adversaries,
            "comparators": spec.comparators, "rounds": spec.rounds,
            "format": spec.out_format, "repeats": spec.repeats,
        }, indent=2),
    }
    for path, text in files.items():
        try:
            path.write_text(text)
        except OSError as exc:  # like an unwritable --out: a config error, not a bound violation
            print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_CONFIG

    print(f"{n_runs} runs, {len(all_rows)} bound checks, "
          f"{len(violations)} violations -> {summary_path}")
    if errors:
        return EXIT_CELL_ERROR
    return EXIT_OK if not violations else EXIT_BOUND_VIOLATION


# --- verify ---------------------------------------------------------------

# suite -> (its function in checks, verify's keyword arguments); the acceptance
# gate runs the same checks at its own seeds
SUITES = {
    "gaussian-dominance": ("gaussian_dominance", {}),
    "argmax-zero": ("argmax_zero", {}),
    "conjugate-bound": ("conjugate_bound", {"seed": 0}),
    "one-round": ("one_round", {"seed": 1}),
    "recursion": ("recursion", {}),
    "regime": ("regime", {}),
    "player": ("player", {}),
    "budget": ("budget", {}),
}


def cmd_verify(args) -> int:
    from . import checks  # here, so that run and curves never load the solvers and oracles it checks

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
        check, kwargs = SUITES[name]
        rows.extend(getattr(checks, check)(**kwargs))
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


def _curve_templates(potential, u_norms, T: int) -> List[bytes]:
    """Per comparator, its T rows of curves.csv with t, bound_u and u_norm
    spelled, and a ``%b`` slot each for run_id and regret_u.  Every comparator's
    bound_u at every round (t <= the horizon) comes from one regret_bound
    call."""
    bounds = regret_bound(potential, np.array(u_norms)[:, None], np.arange(1, T + 1))
    templates = []
    for u_norm, bound in zip(u_norms, bounds):
        fh = io.BytesIO()
        write_repr_rows(fh, np.column_stack((bound, np.full(T, u_norm))), range(1, T + 1), b"\n", const="%b,%b")
        templates.append(fh.getvalue())
    return templates


def cmd_curves(args) -> int:
    trace_dir = Path(args.trace_dir)
    meta_path = trace_dir / "sweep.json"
    if not meta_path.exists():
        print(f"error: {meta_path} not found (run the sweep first)", file=sys.stderr)
        return EXIT_CONFIG
    traces = sorted(trace_dir.glob("run_*.json"))
    if not traces:
        print("error: no run_*.json traces found; use outputs.format json or both",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        meta = json.loads(meta_path.read_text())  # checked as run checks a spec
        game = _parse_game(meta)
        potentials = {f"s{i}": build_strategy(entry, game).potential for i, entry in enumerate(meta["strategies"])}
        comparators, u_norms = _comparators(_parse_comparators(meta), game.dim)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {meta_path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_path = Path(args.out) if args.out else trace_dir / "curves.csv"
    tmp_path = out_path.with_name(f".{out_path.name}.tmp")  # a failed call leaves no partial curves.csv
    entry, templates = None, {}
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(b"t,run_id,regret_u,bound_u,u_norm\n")
            for path in traces:  # sorted, so each entry's traces come one after another
                run_id = path.stem[len("run_"):]
                if run_id.split("-", 1)[0] != entry:  # a new entry: only its templates stay alive
                    entry, templates = run_id.split("-", 1)[0], {}
                try:
                    if entry not in potentials:
                        raise ValueError(f"strategy entry {entry!r} is not in sweep.json")
                    if any(c in run_id for c in ",\r\n"):  # curves.csv quotes nothing
                        raise ValueError(f"run id {run_id!r} holds a comma or a line break")
                    trace = read_trace_json(path)
                    if trace.config.dim != game.dim:
                        raise ValueError(f"dim {trace.config.dim}, but sweep.json has game.dim {game.dim}")
                    T = trace.n_rounds
                    if T not in templates:
                        templates[T] = _curve_templates(potentials[entry], u_norms, T)
                except (OSError, ValueError) as exc:
                    print(f"error: {path}: {exc}", file=sys.stderr)
                    return EXIT_CONFIG
                fills = [run_id.encode()] * (2 * T)
                for u, template in zip(comparators, templates[T]):
                    fills[1::2] = repr_spellings(np.cumsum(np.einsum("td,td->t", trace.g, trace.w - u[None, :])))
                    fh.write(template % tuple(fills))
        os.replace(tmp_path, out_path)
    except OSError as exc:  # the output location cannot be written; a trace read error returned above
        print(f"error: {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        tmp_path.unlink(missing_ok=True)
    print(f"wrote {out_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="minimax-online",
                                     description="Unconstrained online linear optimization testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--out", default=None, help="override outputs.dir")
    p_run.add_argument("--jobs", default="1", help="worker processes (default 1)")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--format", choices=("csv", "json", "both"), default=None)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run oracle-backed check suites")
    p_verify.add_argument("--lemma", choices=sorted(SUITES), default=None)
    p_verify.add_argument("--all", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_curves = sub.add_parser("curves", help="emit per-round regret vs envelope CSV")
    p_curves.add_argument("trace_dir")
    p_curves.add_argument("--out", default=None)
    p_curves.set_defaults(func=cmd_curves)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception:  # a fault of the program, never reported as a verdict
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
