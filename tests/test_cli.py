import csv
import dataclasses
import json

import numpy as np
import pytest
import yaml

from minimax_online import adversaries, checks, potentials
from minimax_online.cli import (
    ADVERSARIES,
    EXIT_BOUND_VIOLATION,
    EXIT_CELL_ERROR,
    EXIT_CONFIG,
    EXIT_OK,
    POTENTIALS,
    ConfigError,
    build_strategy,
    comparator_vector,
    main,
    parse_experiment_spec,
    regret_bound,
)
from minimax_online.core import GameConfig
from minimax_online.engine import read_trace_json
from minimax_online.one_round import PARALLEL
from minimax_online.strategies import PotentialPlayer

MINIMAL_SPEC = """\
game:
  dim: 2
  grad_bound: 1.0
  horizon: 10
  seed: 3
strategy:
  tag: ogd
  eta: 0.31622776601683794
adversary:
  tag: fixed_direction
comparators:
  - {norm: 0.0, direction_seed: 0}
  - {norm: 1.0, direction_seed: 1}
outputs:
  dir: OUTDIR
  format: both
repeats: 1
"""


def write_spec(tmp_path, text, name="spec.yaml"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(text.replace("OUTDIR", str(out)))
    return path, out


class TestParse:
    def test_minimal_spec_parses(self, tmp_path):
        path, out = write_spec(tmp_path, MINIMAL_SPEC)
        spec = parse_experiment_spec(path)
        assert spec.game.dim == 2 and spec.rounds == 10
        assert spec.out_format == "both" and len(spec.comparators) == 2

    def test_unknown_key_is_line_anchored(self, tmp_path):
        bad = MINIMAL_SPEC + "mystery_knob: 3\n"
        path, _ = write_spec(tmp_path, bad)
        with pytest.raises(ConfigError) as err:
            parse_experiment_spec(path)
        assert "mystery_knob" in str(err.value)
        assert "line" in str(err.value)

    def test_parameter_precondition_cited(self, tmp_path):
        bad = MINIMAL_SPEC.replace(
            "tag: ogd\n  eta: 0.31622776601683794",
            "tag: adaptive_normal\n  eps: 1.0\n  a: 1.0")
        path, _ = write_spec(tmp_path, bad)
        with pytest.raises(ConfigError) as err:
            parse_experiment_spec(path)
        assert "3*pi*G^2/4" in str(err.value)

    def test_unknown_tag(self, tmp_path):
        with pytest.raises(ConfigError):
            build_strategy({"tag": "mystery"}, GameConfig(dim=2, grad_bound=1.0))
        path, _ = write_spec(tmp_path, MINIMAL_SPEC.replace("tag: ogd", "tag: mystery"))
        with pytest.raises(ConfigError) as err:
            parse_experiment_spec(path)
        assert "mystery" in str(err.value)

    def test_unknown_horizon_needs_rounds(self, tmp_path):
        bad = MINIMAL_SPEC.replace("horizon: 10", "horizon: unknown").replace(
            "tag: ogd", "tag: ogd")
        path, _ = write_spec(tmp_path, bad)
        with pytest.raises(ConfigError):
            parse_experiment_spec(path)


class TestAdversaryEntries:
    @pytest.mark.parametrize("dim,adversary,message", [
        (3, "{tag: fixed_direction, direction: [1.0, 0.0]}", "direction must be a list of game.dim = 3"),
        (3, "{tag: rademacher_line, direction: ab}", "direction must be a list of game.dim = 3"),
        (3, "{tag: fixed_direction, direction: [1.0, .nan, 0.0]}", "direction must be a list of game.dim = 3"),
        (3, "{tag: rademacher_line, direction: [0.0, 0.0, 0.0]}", "direction must not be all zeros"),
        (3, "{tag: greedy_vs_comparator, comparator: [1.0, 0.0]}", "comparator must be a list of game.dim = 3"),
        (1, "{tag: orthogonal_minimax}", "requires game.dim >= 2"),
    ], ids=["short_direction", "text_direction", "nan_direction", "zero_direction", "short_comparator",
            "orthogonal_at_dim_1"])
    def test_bad_entry_is_a_config_error(self, tmp_path, capsys, dim, adversary, message):
        spec = MINIMAL_SPEC.replace("dim: 2", f"dim: {dim}").replace(
            "adversary:\n  tag: fixed_direction", f"adversary: {adversary}")
        path, out = write_spec(tmp_path, spec)
        prefix = f"adversary {yaml.safe_load(adversary)['tag']!r}: "  # the adversary is named once
        with pytest.raises(ConfigError) as err:
            parse_experiment_spec(path)
        assert str(err.value).startswith(prefix + message)
        assert main(["run", "--spec", str(path)]) == EXIT_CONFIG
        assert f"error: {prefix}{message}" in capsys.readouterr().err
        assert not out.exists()


class TestMalformedScalars:
    @pytest.mark.parametrize("old,new,message", [
        ("repeats: 1", "repeats: many", "line 17: repeats must be an integer, got 'many'"),
        ("{norm: 1.0, direction_seed: 1}", "{norm: abc}", "comparator norm must be a finite number, got 'abc'"),
        ("adversary:\n  tag: fixed_direction", "adversaries: [fixed_direction]",
         "adversary entry must be a mapping, got 'fixed_direction'"),
        ("eta: 0.31622776601683794", "eta: [0.3]", "strategy 'ogd': eta must be a finite number, got [0.3]"),
        ("seed: 3", "seed: -1", "line 5: game.seed must be >= 0"),
        ("direction_seed: 1}", "direction_seed: -1}", "comparator direction_seed must be >= 0"),
    ], ids=["text_repeats", "text_norm", "bare_adversary_tag", "list_eta", "negative_seed",
            "negative_direction_seed"])
    def test_is_a_config_error_and_exits_2(self, tmp_path, capsys, old, new, message):
        path, out = write_spec(tmp_path, MINIMAL_SPEC.replace(old, new))
        with pytest.raises(ConfigError) as err:
            parse_experiment_spec(path)
        assert str(err.value) == message
        assert main(["run", "--spec", str(path)]) == EXIT_CONFIG
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


# one valid value for every spec field of every registered class
FIELD_SAMPLES = {"eta": 0.2, "W": 1.0, "p": 1.5, "eps": 1.0, "a": 2.5, "sign_policy": "alternate",
                 "direction": [0.0, 1.0], "comparator": [0.5, -0.5]}


class TestRegistries:
    @pytest.mark.parametrize("module,registry", [(potentials, POTENTIALS), (adversaries, ADVERSARIES)],
                             ids=["potentials", "adversaries"])
    def test_every_tagged_class_is_registered(self, module, registry):
        tagged = {obj.tag: obj for obj in vars(module).values()
                  if isinstance(obj, type) and obj.__module__ == module.__name__ and hasattr(obj, "tag")}
        assert registry == tagged

    @pytest.mark.parametrize("section,cls", [("strategy", cls) for cls in POTENTIALS.values()]
                             + [("adversary", cls) for cls in ADVERSARIES.values()])
    def test_spec_keys_are_init_fields_but_G_and_T(self, tmp_path, section, cls):
        spec_fields = [f for f in dataclasses.fields(cls) if f.init and f.name not in ("G", "T")]
        full = {"tag": cls.tag, **{f.name: FIELD_SAMPLES[f.name] for f in spec_fields}}
        base = {"game": {"dim": 2, "grad_bound": 1.0, "horizon": 10},
                "strategy": {"tag": "ogd", "eta": 0.2}, "adversary": {"tag": "gaussian_random"}}

        def parse(entry):
            path = tmp_path / "spec.yaml"
            path.write_text(yaml.safe_dump({**base, section: entry}))
            return parse_experiment_spec(path)

        parse(full)
        for extra in ("G", "T", "mystery"):
            with pytest.raises(ConfigError, match=f"unknown key '{extra}'"):
                parse({**full, extra: 1.0})
        for f in spec_fields:
            partial = {k: v for k, v in full.items() if k != f.name}
            if f.default is dataclasses.MISSING:
                with pytest.raises(ConfigError, match=f"missing required key '{f.name}'"):
                    parse(partial)
            else:
                parse(partial)


class TestRunCommand:
    def test_minimal_run(self, tmp_path, capsys):
        path, out = write_spec(tmp_path, MINIMAL_SPEC)
        code = main(["run", "--spec", str(path)])
        assert code == EXIT_OK
        assert (out / "run_s0-ogd_a0-fixed_direction_k000.csv").exists()
        assert (out / "run_s0-ogd_a0-fixed_direction_k000.json").exists()
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["all_hold"] and verdict["n_runs"] == 1 and verdict["n_checks"] == 2
        rows = list(csv.DictReader((out / "summary.csv").open()))
        assert len(rows) == 2 and all(r["holds"] == "True" for r in rows)

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        bad = MINIMAL_SPEC.replace(
            "tag: ogd\n  eta: 0.31622776601683794",
            "tag: adaptive_normal\n  eps: 1.0\n  a: 1.0")
        path, _ = write_spec(tmp_path, bad)
        code = main(["run", "--spec", str(path)])
        assert code == EXIT_CONFIG
        assert "3*pi*G^2/4" in capsys.readouterr().err

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        path, out = write_spec(tmp_path, MINIMAL_SPEC)
        assert main(["run", "--spec", str(path), "--seed", "-1"]) == EXIT_CONFIG
        assert "error: --seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_cardinality_and_seed_ladder(self, tmp_path):
        sweep = """\
game: {dim: 2, grad_bound: 1.0, horizon: 12, seed: 100}
strategy: {tag: ogd, eta: 0.2}
adversaries:
  - {tag: fixed_direction}
  - {tag: gaussian_random}
comparators:
  - {norm: 0.0, direction_seed: 0}
outputs: {dir: OUTDIR, format: json}
repeats: 3
"""
        path, out = write_spec(tmp_path, sweep)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        traces = sorted(out.glob("run_*.json"))
        assert len(traces) == 6
        seeds = {json.loads(p.read_text())["config"]["seed"] for p in traces}
        assert seeds == {100, 101, 102}

    def test_parallel_jobs_match_serial(self, tmp_path):
        sweep = """\
game: {dim: 2, grad_bound: 1.0, horizon: 8, seed: 5}
strategy: {tag: ogd, eta: 0.1}
adversaries:
  - {tag: gaussian_random}
comparators:
  - {norm: 1.0, direction_seed: 2}
outputs: {dir: OUTDIR, format: json}
repeats: 2
"""
        path, out = write_spec(tmp_path, sweep)
        assert main(["run", "--spec", str(path), "--jobs", "2"]) == EXIT_OK
        serial_out = tmp_path / "serial"
        assert main(["run", "--spec", str(path), "--jobs", "1", "--out", str(serial_out)]) == EXIT_OK
        for p in sorted(out.glob("run_*.json")):
            q = serial_out / p.name
            assert json.loads(p.read_text()) == json.loads(q.read_text())

    def test_bound_violation_exits_1(self, tmp_path):
        # whipsaw adversary drives measured regret(0) past the adaptive
        # envelope's additive constant (deterministic given the seed)
        sweep = """\
game: {dim: 2, grad_bound: 1.0, horizon: unknown, seed: 0}
strategy: {tag: adaptive_normal, eps: 1.0, a: 2.4}
adversary: {tag: parallel_minimax, sign_policy: alternate}
comparators:
  - {norm: 0.0, direction_seed: 0}
outputs: {dir: OUTDIR, format: csv}
repeats: 1
rounds: 200
"""
        path, out = write_spec(tmp_path, sweep)
        assert main(["run", "--spec", str(path)]) == EXIT_BOUND_VIOLATION
        verdict = json.loads((out / "verdict.json").read_text())
        assert not verdict["all_hold"] and len(verdict["violations"]) == 1


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashing_group_exits_4_and_the_others_finish(self, tmp_path, capsys, jobs):
        # adaptive_normal against one fixed line overflows float64 near round 3.4k
        sweep = """\
game: {dim: 2, grad_bound: 1.0, horizon: unknown, seed: 0}
strategy: {tag: adaptive_normal, eps: 1.0, a: 2.4}
adversaries:
  - {tag: fixed_direction}
  - {tag: gaussian_random}
comparators:
  - {norm: 0.0, direction_seed: 0}
  - {norm: 1.0, direction_seed: 1}
outputs: {dir: OUTDIR, format: csv}
repeats: 2
rounds: 4000
"""
        path, out = write_spec(tmp_path, sweep)
        assert main(["run", "--spec", str(path), "--jobs", str(jobs)]) == EXIT_CELL_ERROR
        assert "OverflowError" in capsys.readouterr().err
        verdict = json.loads((out / "verdict.json").read_text())
        assert not verdict["all_hold"] and verdict["n_runs"] == 4 and verdict["n_checks"] == 4
        errors = verdict["errors"]
        assert [e["run_id"] for e in errors] == [f"s0-adaptive_normal_a0-fixed_direction_k00{k}" for k in (0, 1)]
        assert all(e["status"] == "error" and e["message"].startswith("OverflowError") for e in errors)
        rows = list(csv.DictReader((out / "summary.csv").open()))
        assert [r["run_id"] for r in rows] == [f"s0-adaptive_normal_a1-gaussian_random_k00{k}"
                                               for k in (0, 0, 1, 1)]
        assert sorted(p.name for p in out.glob("run_*")) == [f"run_{r['run_id']}.csv" for r in rows[::2]]

    def test_trace_bytes_do_not_depend_on_the_repeat_count(self, tmp_path):
        sweep = """\
game: {dim: 3, grad_bound: 1.0, horizon: 40, seed: 11}
strategies:
  - {tag: normal_knownT, eps: 1.0, a: 2.4}
  - {tag: power, W: 1.0, p: 1.5}
adversaries:
  - {tag: orthogonal_minimax}
  - {tag: gaussian_random}
  - {tag: greedy_vs_comparator, comparator: [1.0, 0.0, 0.0]}
outputs: {dir: OUTDIR, format: both}
repeats: REPEATS
"""
        outs = []
        for repeats in (1, 20):
            (tmp_path / str(repeats)).mkdir()
            path, out = write_spec(tmp_path / str(repeats), sweep.replace("REPEATS", str(repeats)))
            assert main(["run", "--spec", str(path)]) == EXIT_OK
            outs.append(out)
        files = sorted(p.name for p in outs[0].glob("run_*"))
        assert len(files) == 12
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        assert main(["verify", "--lemma", "gaussian-dominance"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_one_round_regime_filter(self, capsys):
        assert main(["verify", "--lemma", "one-round", "--regime", "parallel"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "parallel" in out and "orthogonal" not in out

    def test_requires_selection(self, capsys):
        assert main(["verify"]) == EXIT_CONFIG

    def test_regime_suite(self, capsys):
        assert main(["verify", "--lemma", "regime"]) == EXIT_OK
        rows = [line for line in capsys.readouterr().out.splitlines() if line.endswith(("PASS", "FAIL"))]
        assert len(rows) == 24 and all(row.startswith("regime ") and row.endswith("PASS") for row in rows)

    def test_regime_row_fails_on_a_wrong_declaration(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class MislabelledPower(potentials.PowerPotential):
            regime = PARALLEL  # the power family is orthogonal

        players = [("mislabelled", PotentialPlayer(MislabelledPower(1.0, 1.5, 1.0, checks.REGIME_T))),
                   ("ogd", PotentialPlayer(potentials.QuadraticPotential(0.1, 1.0)))]
        monkeypatch.setattr(checks, "envelope_players", lambda T, G: players)
        rows = list(checks.regime())
        assert [row.ok for row in rows] == [False] * 4 + [True] * 4
        assert rows[0].label == "mislabelled t=1: orthogonal"


class TestCurvesCommand:
    def test_tidy_output_and_monotone_adaptive_bound(self, tmp_path):
        sweep = """\
game: {dim: 2, grad_bound: 1.0, horizon: unknown, seed: 1}
strategy: {tag: adaptive_normal, eps: 1.0, a: 2.5}
adversary: {tag: gaussian_random}
comparators:
  - {norm: 0.0, direction_seed: 0}
  - {norm: 2.0, direction_seed: 4}
outputs: {dir: OUTDIR, format: json}
repeats: 2
rounds: 30
"""
        path, out = write_spec(tmp_path, sweep)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        assert main(["curves", str(out)]) == EXIT_OK
        rows = list(csv.DictReader((out / "curves.csv").open()))
        assert len(rows) == 2 * 2 * 30  # runs x comparators x rounds
        by_run = {}
        for row in rows:
            if float(row["u_norm"]) == 2.0:
                by_run.setdefault(row["run_id"], []).append((int(row["t"]), float(row["bound_u"])))
        for series in by_run.values():
            series.sort()
            bounds = [b for _, b in series]
            assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))

    def test_every_row_matches_its_trace_and_entry_envelope(self, tmp_path):
        # two adaptive_normal entries that differ only in a: each run's bound_u
        # must come from its own entry's potential, not from the first one with its tag
        sweep = """\
game: {dim: 3, grad_bound: 1.0, horizon: unknown, seed: 2}
strategies:
  - {tag: ogd, eta: 0.2}
  - {tag: adaptive_normal, eps: 1.0, a: 2.5}
  - {tag: adaptive_normal, eps: 1.0, a: 3.0}
adversary: {tag: gaussian_random}
comparators:
  - {norm: 0.0, direction_seed: 0}
  - {norm: 2.0, direction_seed: 4}
outputs: {dir: OUTDIR, format: json}
repeats: 2
rounds: 25
"""
        path, out = write_spec(tmp_path, sweep)
        spec = parse_experiment_spec(path)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        assert main(["curves", str(out)]) == EXIT_OK
        expected = []
        for trace_path in sorted(out.glob("run_*.json")):
            run_id = trace_path.stem[len("run_"):]
            entry = spec.strategies[int(run_id.split("-", 1)[0][1:])]
            potential = build_strategy(entry, spec.game).potential
            trace = read_trace_json(trace_path)
            for comp in spec.comparators:
                u = comparator_vector(comp["norm"], comp["direction_seed"], spec.game.dim)
                u_norm = float(np.linalg.norm(u))
                regret_u = np.cumsum(np.einsum("td,td->t", trace.g, trace.w - u))
                for t in range(1, trace.n_rounds + 1):
                    expected.append((t, run_id, float(regret_u[t - 1]),
                                     regret_bound(potential, u_norm, t), u_norm))
        rows = [(int(r["t"]), r["run_id"], float(r["regret_u"]), float(r["bound_u"]),
                 float(r["u_norm"])) for r in csv.DictReader((out / "curves.csv").open())]
        assert len(expected) == 3 * 2 * 2 * 25  # entries x repeats x comparators x rounds
        assert rows == expected

    def test_missing_traces_exit_2(self, tmp_path, capsys):
        assert main(["curves", str(tmp_path)]) == EXIT_CONFIG
