"""Span recording for the traced benchmark run, and the per-layer analysis.

The child side (``Tracer``) replaces public functions and methods of the
library with wrappers that record one span per call: name, start, end,
parent span and run id (the index of the enclosing unit-of-work span, such
as a sweep cell).  Spans stay in flat ``array`` columns in memory and are
written once, at exit, as one ``.npz`` file.  Nothing under ``src/`` is
edited: the wrappers are installed on module attributes and class
attributes from the benchmark's own files.

The parent side (``load_spans``, ``layer_metrics``) reads those files and
turns them into the per-layer metrics named in ``BENCHMARK.json``.

The tracer module imports only the standard library at import time, so the
``import`` span of a traced child includes numpy's import, as the untraced
CLI does.
"""

from __future__ import annotations

import contextlib
import dataclasses
from array import array
from time import perf_counter_ns

# Library modules whose self time is ranked.  A span's module is the part of
# its name before the first dot.  The benchmark's own spans ("bench.*") and
# the package import ("import", reported as cli.import_ms) are not ranked.
MODULES = ("cli", "engine", "strategies", "adversaries", "potentials", "one_round", "oracles")
STRATEGY_TAGS = ("ogd", "power", "normal_knownT", "adaptive_normal")
ADVERSARY_TAGS = ("orthogonal_minimax", "parallel_minimax", "rademacher_line",
                  "gaussian_random", "fixed_direction", "greedy_vs_comparator")


class Tracer:
    """Records spans in memory; ``dump`` writes them once."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        # per solve_scalar_grid span: its index, calls into h, points h evaluated
        self.h_span = array("q")
        self.h_calls = array("q")
        self.h_points = array("q")
        self._stack: list[int] = []

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str, unit: bool) -> int:
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name_id.append(self._nid(name))
        self.parent.append(parent)
        self.run.append(idx if unit or parent < 0 else self.run[parent])
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, unit: bool = False):
        idx = self._open(name, unit)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name, unit: bool = False) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string, or a function of the call's arguments that
        returns one (used to name a method's span by its instance's tag).
        """
        fn = getattr(owner, attr)
        name_of = name if callable(name) else (lambda *a, **k: name)

        def traced(*args, **kwargs):
            idx = self._open(name_of(*args, **kwargs), unit)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(owner, attr, traced)

    def wrap_grid_solver(self, owner, attr: str, name: str) -> None:
        """Like ``wrap`` for ``solve_scalar_grid(spec, ...)``; also counts calls into
        ``spec.h`` and the points each call evaluates."""
        fn = getattr(owner, attr)

        def traced(spec, *args, **kwargs):
            h = spec.h
            counts = [0, 0]

            def counted(x):
                counts[0] += 1
                counts[1] += getattr(x, "size", 1)
                return h(x)

            spec = dataclasses.replace(spec, h=counted)
            idx = self._open(name, False)
            try:
                return fn(spec, *args, **kwargs)
            finally:
                self._close(idx)
                self.h_span.append(idx)
                self.h_calls.append(counts[0])
                self.h_points.append(counts[1])

        setattr(owner, attr, traced)

    def dump(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int64),
            h_span=np.frombuffer(self.h_span, dtype=np.int64),
            h_calls=np.frombuffer(self.h_calls, dtype=np.int64),
            h_points=np.frombuffer(self.h_points, dtype=np.int64),
        )


class NullTracer:
    """Stand-in for untraced runs: ``span`` records nothing."""

    def span(self, name: str, unit: bool = False):
        return contextlib.nullcontext()


def instrument_cli(tracer: Tracer) -> None:
    """Spans for ``minimax-online run`` and ``curves`` at every layer boundary."""
    from minimax_online import adversaries, cli, engine, potentials, strategies

    tracer.wrap(cli, "cmd_run", "cli.run")
    tracer.wrap(cli, "cmd_curves", "cli.curves")
    tracer.wrap(cli, "parse_experiment_spec", "cli.parse_spec")
    tracer.wrap(cli, "_execute_cell", "cli.cell", unit=True)
    tracer.wrap(cli, "run_game", "engine.run_game")
    tracer.wrap(cli, "attach_epsilon", "engine.ledger")
    tracer.wrap(cli, "verify_bound", "engine.verify_bound")
    tracer.wrap(cli, "write_trace_csv", "engine.write_csv")
    tracer.wrap(cli, "write_trace_json", "engine.write_json")
    tracer.wrap(cli, "read_trace_json", "engine.read_json")
    # curves calls regret_bound through cli, verify_bound through engine
    tracer.wrap(cli, "regret_bound", "potentials.regret_bound")
    tracer.wrap(engine, "regret_bound", "potentials.regret_bound")
    for cls in _classes_with(strategies, "play"):
        tracer.wrap(cls, "play", lambda self, *a, **k: f"strategies.play.{self.tag}")
    for cls in _classes_with(adversaries, "grad"):
        tracer.wrap(cls, "grad", lambda self, *a, **k: f"adversaries.grad.{self.tag}")
    for cls in _classes_with(potentials, "value"):
        tracer.wrap(cls, "value", "potentials.value")


def instrument_oracles(tracer: Tracer) -> None:
    """Spans for the backward-induction oracle and the one-round solvers."""
    from minimax_online import one_round, oracles

    tracer.wrap(oracles, "conditional_value_recursive",
                lambda spec, *a, **k: f"oracles.recursion_{spec.dim}d")
    # the recursion reaches the grid solver through oracles, direct calls through one_round
    tracer.wrap_grid_solver(oracles, "solve_scalar_grid", "one_round.scalar_grid")
    tracer.wrap_grid_solver(one_round, "solve_scalar_grid", "one_round.scalar_grid")
    tracer.wrap(one_round, "solve_orthogonal", "one_round.closed_form")
    tracer.wrap(one_round, "solve_parallel", "one_round.closed_form")


def _classes_with(module, method: str):
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and callable(getattr(obj, method, None))]


# --- analysis (parent side) -------------------------------------------------

@dataclasses.dataclass
class SpanTable:
    """Spans of one or more child processes, with self time per span."""

    names: list               # span names; ``nid`` and ``parent_nid`` index it
    nid: "np.ndarray"
    parent_nid: "np.ndarray"  # -1 for root spans
    dur_ns: "np.ndarray"
    self_ns: "np.ndarray"
    plays: "np.ndarray"       # strategies.play child spans per span
    h_calls: "np.ndarray"     # per solve_scalar_grid span, from wrap_grid_solver
    h_points: "np.ndarray"
    h_parent_nid: "np.ndarray"

    def select(self, prefix: str, exact: bool = True, of=None):
        """Mask of spans whose name is ``prefix`` (or starts with it)."""
        import numpy as np

        ids = [i for i, n in enumerate(self.names) if n == prefix or (not exact and n.startswith(prefix))]
        return np.isin(self.nid if of is None else of, ids)


def load_spans(paths) -> SpanTable:
    import numpy as np

    ids = {}
    parts = {key: [] for key in ("nid", "parent_nid", "dur", "self", "plays", "hc", "hp", "hparent")}
    for path in paths:
        with np.load(path) as z:
            remap = np.array([ids.setdefault(n, len(ids)) for n in z["names"]], dtype=np.int64)
            nid, start, end, parent = remap[z["name_id"]], z["start"], z["end"], z["parent"]
            h_span, h_calls, h_points = z["h_span"], z["h_calls"], z["h_points"]
        n = nid.size
        dur = end - start
        has_parent = parent >= 0
        parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
        play_ids = [i for n_, i in ids.items() if n_.startswith("strategies.play.")]
        is_play = np.isin(nid, play_ids)
        parts["nid"].append(nid)
        parts["parent_nid"].append(parent_nid)
        parts["dur"].append(dur)
        parts["self"].append(dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n))
        parts["plays"].append(np.bincount(parent[has_parent & is_play], minlength=n))
        parts["hc"].append(h_calls)
        parts["hp"].append(h_points)
        parts["hparent"].append(parent_nid[h_span])
    names = sorted(ids, key=ids.get)
    cat = {key: np.concatenate(v) if v else np.zeros(0, np.int64) for key, v in parts.items()}
    return SpanTable(names, cat["nid"], cat["parent_nid"], cat["dur"], cat["self"].astype(float),
                     cat["plays"], cat["hc"], cat["hp"], cat["hparent"])


def _quantile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(values, q)) if len(values) else 0.0


def layer_metrics(spans: SpanTable, trace_bytes: dict, rounds: int, stages_2d: int) -> dict:
    """Per-layer metrics of one traced iteration, as {name: (value, unit)}.

    ``trace_bytes`` maps "csv"/"json" to the bytes of per-run trace files
    written, ``rounds`` is the total number of game rounds they hold, and
    ``stages_2d`` the backward-induction stages of one d = 2 oracle call.  A
    layer the workload never reaches reports zero calls and zero time.
    """
    import numpy as np

    sel = spans.select

    def durations(mask, scale):
        return spans.dur_ns[mask] / scale

    us, ms, s = 1e3, 1e6, 1e9
    m = {}

    def put(key, value, unit):
        m[key] = (float(value), unit)

    def per_call(key, mask, scale, unit, p99=False):
        d = durations(mask, scale)
        put(key, _quantile(d, 0.5), unit)
        if p99:
            put(key + ".p99", _quantile(d, 0.99), unit)

    # cli
    per_call("cli.import_ms", sel("import"), ms, "ms")
    per_call("cli.parse_spec_ms", sel("cli.parse_spec"), ms, "ms")
    cell = sel("cli.cell")
    put("cli.cell_self_ms", _quantile(spans.self_ns[cell] / ms, 0.5), "ms")
    put("cli.curves_self_s", float(np.sum(spans.self_ns[sel("cli.curves")])) / s, "s")

    # engine
    run_game = sel("engine.run_game")
    per_call("engine.run_game_ms", run_game, ms, "ms")
    plays = spans.plays[run_game]
    loop = spans.self_ns[run_game] / np.maximum(plays, 1) / us
    put("engine.loop_self_us_per_round", _quantile(loop, 0.5), "us")
    per_call("engine.ledger_ms", sel("engine.ledger"), ms, "ms")
    per_call("engine.verify_bound_us", sel("engine.verify_bound"), us, "us")
    per_call("engine.write_csv_ms", sel("engine.write_csv"), ms, "ms")
    per_call("engine.write_json_ms", sel("engine.write_json"), ms, "ms")
    per_call("engine.read_json_ms", sel("engine.read_json"), ms, "ms")
    for fmt in ("csv", "json"):
        put(f"engine.trace_bytes_per_round.{fmt}",
            trace_bytes.get(fmt, 0) / rounds if rounds else 0.0, "B")

    # strategies and adversaries
    for layer, op, tags in (("strategies", "play", STRATEGY_TAGS),
                            ("adversaries", "grad", ADVERSARY_TAGS)):
        mask = sel(f"{layer}.{op}.", exact=False)
        per_call(f"{layer}.{op}_us", mask, us, "us", p99=True)
        for tag in tags:
            per_call(f"{layer}.{op}_us.{tag}", sel(f"{layer}.{op}.{tag}"), us, "us")
        put(f"{layer}.{op}_calls", int(mask.sum()), "count")

    # potentials
    for op in ("value", "regret_bound"):
        mask = sel(f"potentials.{op}")
        per_call(f"potentials.{op}_us", mask, us, "us", p99=True)
        put(f"potentials.{op}_calls", int(mask.sum()), "count")

    # one_round
    grid = sel("one_round.scalar_grid")
    in_recursion = sel("oracles.recursion_2d", of=spans.parent_nid)
    per_call("one_round.scalar_grid_ms.direct", grid & ~in_recursion, ms, "ms")
    per_call("one_round.scalar_grid_ms.recursion", grid & in_recursion, ms, "ms")
    put("one_round.scalar_grid_calls", int(grid.sum()), "count")
    rec = sel("oracles.recursion_2d", of=spans.h_parent_nid)
    solves = int(rec.sum())
    h_calls = int(spans.h_calls[rec].sum())
    put("one_round.h_calls_per_solve", h_calls / solves if solves else 0.0, "count")
    put("one_round.h_points_per_call",
        int(spans.h_points[rec].sum()) / h_calls if h_calls else 0.0, "count")

    rec2 = durations(sel("oracles.recursion_2d"), s)
    put("oracles.recursion_stage_s", float(np.sum(rec2)) / (stages_2d * len(rec2)) if len(rec2) else 0.0, "s")
    put("oracles.recursion_1d_s", float(np.sum(durations(sel("oracles.recursion_1d"), s))), "s")

    for module in MODULES:
        put(f"self_s.{module}", float(np.sum(spans.self_ns[sel(module + ".", exact=False)])) / s, "s")
    return m


def top_modules(metrics: dict, k: int = 2) -> list:
    ranked = sorted(MODULES, key=lambda mod: metrics[f"self_s.{mod}"][0], reverse=True)
    return ranked[:k]

