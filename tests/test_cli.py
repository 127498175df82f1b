import csv
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from minimax_online import adversaries, checks, cli, engine, potentials
from minimax_online.cli import (
    ADVERSARIES,
    EXIT_BOUND_VIOLATION,
    EXIT_CELL_ERROR,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    POTENTIALS,
    ConfigError,
    build_adversary,
    build_strategy,
    comparator_vector,
    main,
    parse_experiment_spec,
    regret_bound,
)
from minimax_online.core import GameConfig
from minimax_online.engine import Trace, _states, read_trace_json, write_trace_json
from minimax_online.one_round import PARALLEL
from minimax_online.strategies import PotentialPlayer

ROOT = Path(__file__).resolve().parents[1]

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

    @pytest.mark.parametrize("tag", ["[]", "{a: 1}"], ids=["list", "mapping"])
    @pytest.mark.parametrize("kind,line", [("strategy", "tag: ogd"), ("adversary", "tag: fixed_direction")])
    def test_a_tag_that_is_not_a_string_is_a_config_error(self, tmp_path, capsys, kind, line, tag):
        # an unhashable tag is refused before the registry lookup: exit 2, one error line
        build = build_strategy if kind == "strategy" else build_adversary
        with pytest.raises(ConfigError, match=f"unknown {kind} tag"):
            build({"tag": yaml.safe_load(tag)}, GameConfig(dim=2, grad_bound=1.0))
        path, out = write_spec(tmp_path, MINIMAL_SPEC.replace(line, f"tag: {tag}"))
        with pytest.raises(ConfigError, match=f"unknown {kind} tag"):
            parse_experiment_spec(path)
        assert main(["run", "--spec", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"unknown {kind} tag" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        # block style: the third entry's own tag, not the first line that starts with "- tag:"
        ("game:\n  dim: 2\n  grad_bound: 1.0\n  horizon: unknown\nstrategies:\n  - tag: ogd\n    eta: 0.2\n"
         "  - tag: adaptive_normal\n    eps: 1.0\n    a: 2.5\n  - tag: mystery\nadversary: {tag: gaussian_random}\n"
         "rounds: 5\n", "line 11: unknown strategy tag 'mystery'"),
        # flow style: a key inside braces has its line too
        ("game: {dim: 2, grad_bound: 1.0, horizon: unknown}\nstrategies:\n  - {tag: ogd, eta: 0.1}\n"
         "  - {tag: ogd, eta: 0.2, bogus: 1}\nadversary: {tag: gaussian_random}\nrounds: 5\n",
         "line 4: unknown key 'bogus' in strategy ogd"),
        # the second comparator's own norm, not the first's
        ("game:\n  dim: 2\n  grad_bound: 1.0\n  horizon: 10\nstrategy:\n  tag: ogd\n  eta: 0.2\nadversary:\n"
         "  tag: gaussian_random\ncomparators:\n  - norm: 0.0\n    direction_seed: 0\n  - norm: -1.0\n"
         "    direction_seed: 1\n", "line 13: comparator norm must be >= 0"),
    ], ids=["block_tag", "flow_key", "second_comparator"])
    def test_an_error_names_the_line_of_the_key_at_fault(self, tmp_path, text, message):
        path, _ = write_spec(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            parse_experiment_spec(path)
        assert str(err.value) == message

    def test_a_spec_writes_the_same_json_and_pickles(self, tmp_path):
        # the entries keep their lines as attributes only: the same JSON, and they pickle
        path, _ = write_spec(tmp_path, MINIMAL_SPEC)
        spec = parse_experiment_spec(path)
        raw = yaml.safe_load(path.read_text())
        assert json.dumps(spec.strategies, indent=2) == json.dumps([raw["strategy"]], indent=2)
        again = pickle.loads(pickle.dumps(spec))
        assert again.strategies == spec.strategies and again.players == spec.players
        assert again.opponents == spec.opponents and again.strategies[0].lines == {"tag": 7, "eta": 8}

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
        ("{norm: 1.0, direction_seed: 1}", "{norm: abc}",
         "line 13: comparator norm must be a finite number, got 'abc'"),
        ("adversary:\n  tag: fixed_direction", "adversaries: [fixed_direction]",
         "adversary entry must be a mapping, got 'fixed_direction'"),
        ("eta: 0.31622776601683794", "eta: [0.3]", "strategy 'ogd': eta must be a finite number, got [0.3]"),
        ("seed: 3", "seed: -1", "line 5: game.seed must be >= 0"),
        ("direction_seed: 1}", "direction_seed: -1}", "line 13: comparator direction_seed must be >= 0"),
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


class TestExponentFloats:
    """PyYAML follows YAML 1.1, which reads 1e-3 as a string; the spec reader
    reads YAML 1.2's floats with an exponent as floats."""

    @pytest.mark.parametrize("spelling,value", [("1e-3", 1e-3), ("1E5", 1e5), ("2.5e-1", 0.25), (".5e1", 5.0),
                                                ("+3e0", 3.0), ("1.0e+05", 1e5)])
    def test_an_exponent_float_is_a_float(self, tmp_path, spelling, value):
        path, out = write_spec(tmp_path, MINIMAL_SPEC.replace("eta: 0.31622776601683794", f"eta: {spelling}"))
        assert parse_experiment_spec(path).strategies[0]["eta"] == value
        assert main(["run", "--spec", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("spelling", ['"0.5"', "'1e-3'", "1e", "e5", "1e400"])
    def test_a_quoted_or_malformed_number_is_still_refused(self, tmp_path, capsys, spelling):
        path, out = write_spec(tmp_path, MINIMAL_SPEC.replace("eta: 0.31622776601683794", f"eta: {spelling}"))
        assert main(["run", "--spec", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: strategy 'ogd': eta must be a finite number, got ")

    @pytest.mark.parametrize("name", ["adaptive_sweep.yaml", "minimal.yaml", "envelope_sweep.yaml"])
    def test_the_committed_specs_read_as_with_yaml_safe_load(self, name):
        path = ROOT / "scripts" / "specs" / name
        spec, raw = parse_experiment_spec(path), yaml.safe_load(path.read_text())
        assert (spec.strategies, spec.adversaries) == (raw.get("strategies", [raw.get("strategy")]),
                                                       raw.get("adversaries", [raw.get("adversary")]))
        assert [c["norm"] for c in spec.comparators] == [c["norm"] for c in raw["comparators"]]


class TestSeedRange:
    """make_rng keys each run's stream with one uint64, so every seed a run
    uses must lie in [0, 2**64 - 1]; one that does not is a config error (exit
    2, one error line), found before any group runs."""

    TOP = 2**64 - 1

    @pytest.mark.parametrize("edits,message", [
        ([("seed: 3", f"seed: {TOP + 1}")], f"line 5: game.seed must be <= {TOP}"),
        ([("seed: 3", f"seed: {TOP}"), ("repeats: 1", "repeats: 2")],
         f"line 5: game.seed + repeats - 1 must be <= {TOP}"),
        ([("direction_seed: 1}", f"direction_seed: {TOP + 1}}}")],
         f"line 13: comparator direction_seed must be <= {TOP}"),
    ], ids=["game_seed", "last_repeat_seed", "direction_seed"])
    def test_a_spec_seed_past_64_bits_exits_2(self, tmp_path, capsys, edits, message):
        spec = MINIMAL_SPEC
        for old, new in edits:
            spec = spec.replace(old, new)
        path, out = write_spec(tmp_path, spec)
        assert main(["run", "--spec", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("repeats,seed,code", [(1, TOP, EXIT_OK), (1, TOP + 1, EXIT_CONFIG),
                                                   (3, TOP - 1, EXIT_CONFIG)])
    def test_the_seed_override_and_its_repeats_fit_in_64_bits(self, tmp_path, capsys, repeats, seed, code):
        path, out = write_spec(tmp_path, MINIMAL_SPEC.replace("repeats: 1", f"repeats: {repeats}"))
        assert main(["run", "--spec", str(path), "--seed", str(seed)]) == code
        err = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert err == f"error: --seed must be <= {self.TOP - repeats + 1}\n"
            assert not out.exists()
        else:
            assert err == "" and json.loads((out / "verdict.json").read_text())["all_hold"]


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

    def test_an_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        path, _ = write_spec(tmp_path, MINIMAL_SPEC)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(["run", "--spec", str(path), "--out", str(taken)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {taken}: File exists\n"
        assert taken.read_text() == "not a directory"

    @pytest.mark.parametrize("name", ["summary.csv", "verdict.json", "sweep.json"])
    def test_a_sweep_file_that_cannot_be_written_exits_2(self, tmp_path, capsys, name):
        path, out = write_spec(tmp_path, MINIMAL_SPEC)
        (out / name).mkdir(parents=True)
        assert main(["run", "--spec", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {out / name}: Is a directory\n"

    def test_an_overflowing_power_envelope_is_vacuous(self, tmp_path):
        # u_norm**q = (1e150)**3 leaves float64: the bound is inf and holds, not a crashed group
        spec = MINIMAL_SPEC.replace("tag: ogd\n  eta: 0.31622776601683794", "tag: power\n  W: 1.0\n  p: 1.5")
        spec = spec.replace("{norm: 1.0, direction_seed: 1}", "{norm: 1.0e+150, direction_seed: 1}")
        path, out = write_spec(tmp_path, spec)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["all_hold"] and verdict["errors"] == [] and verdict["n_checks"] == 2
        rows = list(csv.DictReader((out / "summary.csv").open()))
        assert [(r["u_norm"], r["bound"], r["holds"]) for r in rows[1:]] == [("1e+150", "inf", "True")]

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

    def test_bound_violation_exits_1(self, tmp_path, monkeypatch):
        # the envelope is a theorem, so a violation needs a wrong one: without its slack
        # budget, the adaptive envelope at u = 0 is -beta_T, and the whipsaw adversary's
        # measured regret(0) is positive (deterministic given the seed)
        monkeypatch.setattr(potentials.AdaptiveNormalPotential, "budget", lambda self, t: 0.0 * t)
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
        assert main(["run", "--spec", str(path), "--jobs", "1"]) == EXIT_BOUND_VIOLATION  # the patch lives in this process
        verdict = json.loads((out / "verdict.json").read_text())
        assert not verdict["all_hold"] and len(verdict["violations"]) == 1


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashing_group_exits_4_and_the_others_finish(self, tmp_path, capsys, jobs):
        # adaptive_normal against one fixed line overflows float64 near round 3.4k;
        # ogd plays the same fixed_direction column from its block after the crash
        sweep = """\
game: {dim: 2, grad_bound: 1.0, horizon: unknown, seed: 0}
strategies:
  - {tag: adaptive_normal, eps: 1.0, a: 2.4}
  - {tag: ogd, eta: 0.1}
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
        assert not verdict["all_hold"] and verdict["n_runs"] == 8 and verdict["n_checks"] == 12
        errors = verdict["errors"]
        assert [e["run_id"] for e in errors] == [f"s0-adaptive_normal_a0-fixed_direction_k00{k}" for k in (0, 1)]
        assert all(e["status"] == "error" and e["message"].startswith("OverflowError") for e in errors)
        rows = list(csv.DictReader((out / "summary.csv").open()))
        groups = ["s0-adaptive_normal_a1-gaussian_random", "s1-ogd_a0-fixed_direction", "s1-ogd_a1-gaussian_random"]
        assert [r["run_id"] for r in rows] == [f"{group}_k00{k}" for group in groups for k in (0, 0, 1, 1)]
        assert sorted(p.name for p in out.glob("run_*")) == [f"run_{r['run_id']}.csv" for r in rows[::2]]

    def test_a_state_past_the_float64_range_is_an_overflow_under_any_warning_filter(self, tmp_path):
        # G = 1.7e308 along a fixed line: theta_2 overflows, and so does the play that answers it
        sweep = """\
game: {dim: 2, grad_bound: 1.7e308, horizon: unknown, seed: 0}
strategy: {tag: ogd, eta: 0.3}
adversary: {tag: fixed_direction}
outputs: {dir: OUTDIR, format: csv}
rounds: 5
"""
        path, out = write_spec(tmp_path, sweep)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--spec", str(path)]) == EXIT_CELL_ERROR
        errors = json.loads((out / "verdict.json").read_text())["errors"]
        assert [e["message"] for e in errors] == ["OverflowError: round 2: the play left the float64 range"]

    def test_an_internal_error_exits_5_with_its_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("broken subcommand")

        monkeypatch.setattr(cli, "cmd_run", broken)
        assert main(["run", "--spec", str(tmp_path / "spec.yaml")]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: broken subcommand\n")

    def test_one_envelope_call_per_group(self, tmp_path, monkeypatch):
        # the repeats of a group share their potential and T, so their envelopes too
        calls = []

        def counted(*args):
            calls.append(args)
            return regret_bound(*args)

        monkeypatch.setattr(cli, "regret_bound", counted)
        monkeypatch.setattr(engine, "regret_bound", counted)
        path, out = write_spec(tmp_path, CURVES_SPEC.replace("adversary: {tag: gaussian_random}", """\
adversaries:
  - {tag: gaussian_random}
  - {tag: fixed_direction}""").replace("repeats: 2", "repeats: 3"))
        assert main(["run", "--spec", str(path), "--jobs", "1"]) == EXIT_OK
        assert len(calls) == 2
        assert len(list(csv.DictReader((out / "summary.csv").open()))) == 6

    def test_a_play_blind_block_is_computed_once_per_column(self, tmp_path, monkeypatch):
        sweep = """\
game: {dim: 3, grad_bound: 1.0, horizon: 30, seed: 4}
strategies:
  - {tag: ogd, eta: 0.2}
  - {tag: power, W: 1.0, p: 1.5}
  - {tag: normal_knownT, eps: 1.0, a: 2.4}
adversaries:
  - {tag: orthogonal_minimax}
  - {tag: parallel_minimax, sign_policy: shrink}
  - {tag: greedy_vs_comparator, comparator: [1.0, 0.0, 0.0]}
outputs: {dir: OUTDIR, format: json}
repeats: 2
"""
        calls = []
        for cls in (adversaries.OrthogonalMinimax, adversaries.ParallelMinimax):
            def counted(self, rngs, rounds, dim, block=cls.gradient_block):
                calls.append(self.tag)
                return block(self, rngs, rounds, dim)
            monkeypatch.setattr(cls, "gradient_block", counted)
        columns = []

        def recorded(strategies, adversary, configs, rounds):
            groups = []
            columns.append((strategies, adversary.tag, configs, rounds, groups))

            def kept(group):
                def call():
                    groups.append(group())
                    return groups[-1]
                return call
            return [kept(group) for group in engine.run_column(strategies, adversary, configs, rounds)]
        monkeypatch.setattr(cli, "run_column", recorded)
        path, _ = write_spec(tmp_path, sweep)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        assert calls == ["orthogonal_minimax", "parallel_minimax"]  # one per column, not one per group
        spec = parse_experiment_spec(path)
        tags = [entry["tag"] for entry in spec.adversaries]
        assert [column[1] for column in columns] == tags  # one engine call per column
        assert [len(column[-1]) for column in columns] == [3, 3, 3]
        assert "run_games" not in vars(cli)  # no group is played alone
        monkeypatch.undo()
        for strategies, tag, configs, rounds, groups in columns:
            adversary = cli.build_adversary(spec.adversaries[tags.index(tag)], spec.game)
            for strategy, traces in zip(strategies, groups):
                own = engine.run_games(strategy, adversary, configs, rounds)
                assert len(traces) == len(own) == 2
                for shared, mine in zip(traces, own):
                    for key in ("w", "g", "theta", "losses"):
                        assert getattr(shared, key).tobytes() == getattr(mine, key).tobytes(), \
                            (shared.strategy_tag, shared.adversary_tag, key)

    def test_a_raising_block_fails_every_group_of_its_column(self, tmp_path, capsys, monkeypatch):
        calls = []

        def boom(self, rngs, rounds, dim):
            calls.append(self.tag)
            raise ValueError(f"no block of {rounds} rounds")
        monkeypatch.setattr(adversaries.ParallelMinimax, "gradient_block", boom)
        sweep = """\
game: {dim: 2, grad_bound: 1.0, horizon: unknown, seed: 0}
strategies:
  - {tag: ogd, eta: 0.2}
  - {tag: adaptive_normal, eps: 1.0, a: 2.4}
adversaries:
  - {tag: parallel_minimax}
  - {tag: orthogonal_minimax}
outputs: {dir: OUTDIR, format: csv}
repeats: 2
rounds: 20
"""
        path, out = write_spec(tmp_path, sweep)
        assert main(["run", "--spec", str(path)]) == EXIT_CELL_ERROR
        # a block that raised is not kept: each group's call asks again
        assert calls == ["parallel_minimax"] * 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: group s{si}-a0 raised ValueError: no block of 20 rounds" for si in (0, 1)]
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["errors"] == [
            {"run_id": f"s{si}-{tag}_a0-parallel_minimax_k00{k}", "seed": k, "status": "error",
             "message": "ValueError: no block of 20 rounds"}
            for si, tag in enumerate(("ogd", "adaptive_normal")) for k in (0, 1)]
        rows = list(csv.DictReader((out / "summary.csv").open()))
        assert [r["run_id"] for r in rows] == [f"s{si}-{tag}_a1-orthogonal_minimax_k00{k}"
                                               for si, tag in enumerate(("ogd", "adaptive_normal")) for k in (0, 1)]

    def test_a_group_that_raises_in_a_column_gets_its_own_error(self, tmp_path, capsys, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class RaisesAt(potentials.QuadraticPotential):
            """ogd's potential, which refuses to give a play at round k or later."""

            k: float = 1e9

            tag = "raises_at"

            def radial_diff(self, t, r):
                if np.max(t) >= self.k:
                    raise ValueError(f"no play at round {int(np.max(t))}")
                return super().radial_diff(t, r)

        monkeypatch.setitem(cli.POTENTIALS, "raises_at", RaisesAt)
        sweep = """\
game: {dim: 3, grad_bound: 1.0, horizon: 20, seed: 9}
strategies:
  - {tag: ogd, eta: 0.2}
  - {tag: raises_at, eta: 0.3, k: K}
  - {tag: power, W: 1.0, p: 1.5}
adversaries:
  - {tag: greedy_vs_comparator, comparator: [1.0, 0.0, 0.0]}
  - {tag: rademacher_line}
comparators:
  - {norm: 0.0, direction_seed: 0}
  - {norm: 1.0, direction_seed: 1}
outputs: {dir: OUTDIR, format: both}
repeats: 2
"""
        strategies = sweep.split("strategies:\n")[1].split("adversaries:")[0]
        outs = {}
        for name, k, text in (("column", 7, sweep), ("fine", 1e9, sweep),
                              ("alone", 7, sweep.replace(strategies, "  - {tag: raises_at, eta: 0.3, k: K}\n"))):
            (tmp_path / name).mkdir()
            path, outs[name] = write_spec(tmp_path / name, text.replace("K", repr(k)))
            assert main(["run", "--spec", str(path)]) == (EXIT_OK if name == "fine" else EXIT_CELL_ERROR)
            err = capsys.readouterr().err
            # the traceback is the group's own, with the column's error not chained to it
            assert err.count("Traceback") == (0 if name == "fine" else 2) and "During handling" not in err
        errors = {name: json.loads((outs[name] / "verdict.json").read_text())["errors"] for name in ("column", "alone")}
        # round by round the play of round 7 raises, as one block the whole game's plays
        assert [e["message"] for e in errors["column"]] == [e["message"] for e in errors["alone"]] == [
            f"ValueError: no play at round {t}" for t in (7, 7, 20, 20)]
        assert [e["run_id"][:3] for e in errors["column"]] == ["s1-"] * 4
        # the column's other groups keep their traces and summary rows, byte for byte
        files = sorted(p.name for p in outs["column"].glob("run_*"))
        assert files == sorted(p.name for p in outs["fine"].glob("run_s[02]-*")) and len(files) == 16
        for name in files:
            assert (outs["column"] / name).read_bytes() == (outs["fine"] / name).read_bytes(), name
        lines = {name: (outs[name] / "summary.csv").read_text().splitlines() for name in ("column", "fine")}
        assert lines["column"] == [line for line in lines["fine"] if ",raises_at," not in line]

    def test_a_column_is_played_once_when_one_of_its_groups_overflows(self, tmp_path, monkeypatch):
        # ogd's states pass 1.34e154, whose squares leave float64, at round 14; adaptive_normal's beta_1 = eps /
        # log(2)^2, about 2.08e308, leaves float64, so q_1 does at every x and the first play in both columns
        sweep = """\
game: {dim: 2, grad_bound: 1.0e+153, horizon: unknown, seed: 0}
strategies: [{tag: ogd, eta: 1.0e-154}, {tag: adaptive_normal, eps: 1.0e+308, a: 2.4e+306}]
adversaries: [{tag: greedy_vs_comparator, comparator: [1.0, 0.0]}, {tag: fixed_direction}]
outputs: {dir: OUTDIR, format: both}
repeats: 2
rounds: 20
"""
        calls = []

        def grads(self, t, theta, r, w, grads=adversaries.GreedyVsComparator.grads):
            calls.append(self.tag)
            return grads(self, t, theta, r, w)

        def gradient_block(self, rngs, rounds, dim, block=adversaries.FixedDirection.gradient_block):
            calls.append(self.tag)
            return block(self, rngs, rounds, dim)
        monkeypatch.setattr(adversaries.GreedyVsComparator, "grads", grads)
        monkeypatch.setattr(adversaries.FixedDirection, "gradient_block", gradient_block)
        outs = {}
        alone = sweep.replace(", {tag: adaptive_normal, eps: 1.0e+308, a: 2.4e+306}", "")
        for name, text in (("both", sweep), ("s0", alone)):
            (tmp_path / name).mkdir()
            path, outs[name] = write_spec(tmp_path / name, text)
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(["run", "--spec", str(path), "--jobs", "1"])
            assert code == (EXIT_CELL_ERROR if name == "both" else EXIT_OK)
            # one shared round loop and one block per column, whichever group fails
            assert calls == ["greedy_vs_comparator"] * 20 + ["fixed_direction"], name
        errors = json.loads((outs["both"] / "verdict.json").read_text())["errors"]
        assert [(e["run_id"][:3], e["message"]) for e in errors] == [
            ("s1-", "OverflowError: round 1: the play left the float64 range")] * 4
        files = sorted(p.name for p in outs["s0"].glob("run_*"))
        assert files == sorted(p.name for p in outs["both"].glob("run_*")) and len(files) == 8
        for name in files:
            assert (outs["both"] / name).read_bytes() == (outs["s0"] / name).read_bytes(), name
        lines = {name: (outs[name] / "summary.csv").read_text() for name in outs}
        assert lines["both"] == lines["s0"]

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

    def test_each_distinct_run_is_written_accounted_and_checked_once(self, tmp_path, monkeypatch):
        # fixed_direction and greedy_vs_comparator draw nothing, so each of their groups plays one run three
        # times; gaussian_random's repeats differ.  Every file and summary row is still that of its run alone
        sweep = """\
game: {dim: 3, grad_bound: 1.0, horizon: unknown, seed: 7}
strategies: [{tag: adaptive_normal, eps: 1.0, a: 2.4}, {tag: ogd, eta: 0.2}]
adversaries:
  - {tag: fixed_direction}
  - {tag: greedy_vs_comparator, comparator: [1.0, 0.0, 0.0]}
  - {tag: gaussian_random}
comparators: [{norm: 0.0}, {norm: 1.0, direction_seed: 1}, {norm: 10.0, direction_seed: 2}]
outputs: {dir: OUTDIR, format: both}
repeats: 3
rounds: 25
"""
        calls = dict.fromkeys(("attach_epsilon", "write_trace_csv", "verify_bound", "write_trace_json"), 0)
        for name in calls:
            def counted(*args, name=name, call=getattr(cli, name), **kwargs):
                calls[name] += 1
                return call(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        path, out = write_spec(tmp_path, sweep)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        # 2 strategies x (1 + 1 + 3) distinct runs, and a JSON trace for each of the 18 runs
        assert calls == {"attach_epsilon": 10, "write_trace_csv": 10, "verify_bound": 10, "write_trace_json": 18}
        monkeypatch.undo()
        spec = parse_experiment_spec(path)
        us = [comparator_vector(c["norm"], c["direction_seed"], spec.game.dim) for c in spec.comparators]
        ref, rows = tmp_path / "ref", []
        ref.mkdir()
        for si, player in enumerate(spec.players):
            for ai, opponent in enumerate(spec.opponents):
                for k in range(spec.repeats):
                    config = dataclasses.replace(spec.game, seed=spec.game.seed + k)
                    trace = engine.run_game(player, opponent, config, spec.rounds)
                    engine.attach_epsilon(trace, player.potential)
                    run_id = f"s{si}-{player.tag}_a{ai}-{opponent.tag}_k{k:03d}"
                    engine.write_trace_csv(trace, ref / f"run_{run_id}.csv")
                    engine.write_trace_json(trace, ref / f"run_{run_id}.json")
                    for comp, report in zip(spec.comparators, engine.verify_bound(trace, player, us)):
                        rows.append({"run_id": run_id, "strategy": player.tag, "adversary": opponent.tag,
                                     "seed": config.seed, "u_norm": report.u_norm,
                                     "direction_seed": comp["direction_seed"], "regret": report.regret_actual,
                                     "bound": report.regret_bound, "slack": report.slack, "holds": report.holds})
        files = sorted(p.name for p in ref.iterdir())
        assert files == sorted(p.name for p in out.glob("run_*")) and len(files) == 36
        for name in files:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name
        assert list(csv.DictReader((out / "summary.csv").open())) == [
            {key: str(value) for key, value in row.items()} for row in rows]

    def test_a_run_that_differs_only_in_the_sign_of_a_zero_is_written_anew(self, tmp_path):
        # 0.0 == -0.0, but they are spelled apart: a repeat is a run of the same bits, not of equal values
        path, out = write_spec(tmp_path, MINIMAL_SPEC.replace("format: both", "format: csv").replace(
            "dim: 2", "dim: 3").replace("repeats: 1", "repeats: 2"))
        spec = parse_experiment_spec(path)
        out.mkdir()
        first = engine.run_games(spec.players[0], spec.opponents[0], [spec.game], spec.rounds)[0]
        g = np.where(first.g == 0.0, -first.g, first.g)  # fixed_direction's zero coordinates, as -0.0
        second = dataclasses.replace(first, g=g, theta=_states(g))
        assert np.array_equal(first.g, second.g) and first.g.tobytes() != second.g.tobytes()
        cli._execute_cell((spec, 0, 0, lambda: [first, second], cli._comparators(spec.comparators, 3), str(out)))
        alone = tmp_path / "alone.csv"
        engine.write_trace_csv(engine.attach_epsilon(dataclasses.replace(second, eps=None), spec.players[0].potential),
                               alone)
        written = out / "run_s0-ogd_a0-fixed_direction_k001.csv"
        assert written.read_bytes() == alone.read_bytes()
        assert written.read_bytes() != (out / "run_s0-ogd_a0-fixed_direction_k000.csv").read_bytes()


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        assert main(["verify", "--lemma", "gaussian-dominance"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_one_round_runs_both_regimes(self, capsys):
        assert main(["verify", "--lemma", "one-round"]) == EXIT_OK
        rows = [line for line in capsys.readouterr().out.splitlines() if line.endswith(("PASS", "FAIL"))]
        labels = [row.split()[1] for row in rows]
        assert labels == ["orthogonal:"] * 2 + ["parallel:"] * 2 and all(row.endswith("PASS") for row in rows)

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


    def test_player_suite(self, capsys):
        assert main(["verify", "--lemma", "player"]) == EXIT_OK
        rows = [line for line in capsys.readouterr().out.splitlines() if line.endswith(("PASS", "FAIL"))]
        # two rows per (player, d): six players at d = 2, the four parallel-regime ones at d = 1
        assert len(rows) == 20 and all(row.startswith("player ") and row.endswith("PASS") for row in rows)
        assert all("<= 1e-09" in row for row in rows)

    def test_budget_suite(self, capsys):
        assert main(["verify", "--lemma", "budget"]) == EXIT_OK
        rows = [line for line in capsys.readouterr().out.splitlines() if line.endswith(("PASS", "FAIL"))]
        assert len(rows) == 24 and all(row.startswith("budget ") and row.endswith("PASS") for row in rows)

    def test_budget_rows_fail_on_the_old_adaptive_constant(self, monkeypatch):
        # eps (pi G^2 / a - 1) + beta_t, the envelope's old constant as a budget, leaves out eps_1
        pot = potentials.AdaptiveNormalPotential
        monkeypatch.setattr(pot, "budget", lambda self, t: self.eps * (np.pi * self.G ** 2 / self.a - 1.0)
                            + self.beta(t))
        rows = list(checks.budget())
        assert [row.ok for row in rows] == [not row.label.startswith("I adaptive") for row in rows]
        assert all(row.value > 0.05 for row in rows if not row.ok)

    def test_player_rows_fail_on_scaled_plays(self, monkeypatch):
        response = PotentialPlayer.response
        monkeypatch.setattr(PotentialPlayer, "response",
                            lambda self, t, theta, r, out=None: 1.001 * response(self, t, theta, r))
        rows = list(checks.player())
        # against a play off the minimax one, the best reply gains, and the two
        # parallel signs no longer pay the same; the orthogonal adversary's g is
        # orthogonal to any play along theta, so it gets the game value still
        assert [row.ok for row in rows if " player:" in row.label] == [False] * 10
        assert all(row.value >= 3e-7 for row in rows if " player:" in row.label)
        adversary = [row for row in rows if " adversary:" in row.label]
        assert [row.ok for row in adversary] == [row.label.startswith("C power") for row in adversary]
        assert all(row.value >= 1e-5 for row in adversary if not row.ok)

    @pytest.mark.parametrize("cls", [adversaries.OrthogonalMinimax, adversaries.ParallelMinimax])
    def test_adversary_rows_fail_on_short_gradients(self, monkeypatch, cls):
        grads = cls.grads
        monkeypatch.setattr(cls, "grads", lambda self, t, theta, r, rngs: 0.999 * grads(self, t, theta, r, rngs))
        rows = [row for row in checks.player() if " adversary:" in row.label]
        orthogonal = [row.label.startswith("C power") for row in rows]
        assert [not row.ok for row in rows] == [o == (cls is adversaries.OrthogonalMinimax) for o in orthogonal]


CURVES_SPEC = """\
game: {dim: 2, grad_bound: 1.0, horizon: unknown, seed: 1}
strategy: {tag: ogd, eta: 0.2}
adversary: {tag: gaussian_random}
comparators:
  - {norm: 1.0, direction_seed: 4}
outputs: {dir: OUTDIR, format: json}
repeats: 2
rounds: 6
"""


def edit_trace(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


def truncate(path):
    path.write_text(path.read_text()[:-30])
    return path


def overwrite(path):
    path.write_text("not a trace")
    return path


def overwrite_with_a_list(path):
    path.write_text("[]")
    return path


def truncate_in_g(path):
    """Cut the file halfway through its g array, so that g has no end."""
    text = path.read_bytes()
    start, stop = text.index(b'"g":'), text.index(b'"losses":')
    path.write_bytes(text[:(start + stop) // 2])
    return path


# each takes the path of a good trace, spoils it, and returns the spoiled file's path
UNREADABLE_TRACES = {
    "truncated": truncate,
    "truncated_in_g": truncate_in_g,
    "not_json": overwrite,
    "not_an_object": overwrite_with_a_list,
    "missing_key": lambda path: edit_trace(path, lambda d: d.pop("g")),
    "g_short_a_row": lambda path: edit_trace(path, lambda d: d["g"].pop()),
    "g_ragged": lambda path: edit_trace(path, lambda d: d["g"][2].append(0.5)),
    "object_in_g": lambda path: edit_trace(path, lambda d: d["g"][2].__setitem__(0, {})),
    "null_in_g": lambda path: edit_trace(path, lambda d: d["g"][2].__setitem__(0, None)),
    "null_in_losses": lambda path: edit_trace(path, lambda d: d["losses"].__setitem__(1, None)),
    "entry_not_in_sweep": lambda path: path.rename(path.with_name("run_s1-ogd_a0-gaussian_random_k000.json")),
    "comma_in_run_id": lambda path: path.rename(path.with_name(f"{path.stem},x.json")),
}


def reference_write_curves(trace_dir, path):
    """The row-by-row f-string writer whose bytes curves must match."""
    meta = json.loads((trace_dir / "sweep.json").read_text())
    game = GameConfig(**meta["game"])
    potentials = {f"s{i}": build_strategy(entry, game).potential for i, entry in enumerate(meta["strategies"])}
    comparators = [comparator_vector(c["norm"], c["direction_seed"], game.dim) for c in meta["comparators"]]
    with open(path, "w") as fh:
        fh.write("t,run_id,regret_u,bound_u,u_norm\n")
        for trace_path in sorted(trace_dir.glob("run_*.json")):
            run_id = trace_path.stem[len("run_"):]
            potential = potentials[run_id.split("-", 1)[0]]
            trace = read_trace_json(trace_path)
            for u in comparators:
                u_norm = float(np.linalg.norm(u))
                cumulative = np.cumsum(np.einsum("td,td->t", trace.g, trace.w - u[None, :])).tolist()
                for t, r in zip(range(1, trace.n_rounds + 1), cumulative):
                    fh.write(f"{t},{run_id},{r!r},{regret_bound(potential, u_norm, t)!r},{u_norm!r}\n")


def odd_spelling_trace(path):
    """Overwrite the trace at path with one of T = 40 rounds whose regrets
    against u = 0 run from 1e-10 through [1e-9, 1e-4) and on past 1e16."""
    regrets = np.concatenate((np.logspace(-10, -4.1, 30), np.logspace(16, 20, 10)))
    w, g = np.ones((40, 2)), np.zeros((40, 2))
    g[:, 0] = np.diff(regrets, prepend=0.0)
    trace = Trace(GameConfig(dim=2, grad_bound=1.0, seed=0), "stub", "stub", w, g, _states(g), g[:, 0].copy())
    write_trace_json(trace, path)
    return path


def cut_short(path, rounds=4):
    """Keep the first rounds rounds of the trace at path."""
    return edit_trace(path, lambda d: d.update({key: d[key][:rounds] for key in ("w", "g", "losses", "eps")}))


def percent_run_id(path):
    return path.rename(path.with_name("run_s0-%d%s%%_a0-gaussian_random_k000.json"))


# spec, then an edit of the last trace, as in UNREADABLE_TRACES
CURVES_BYTE_CASES = {
    # p = 1 has no bound past W: bound_u is inf for the norm 2 comparator
    "vacuous": ("""\
game: {dim: 2, grad_bound: 1.0, horizon: 30, seed: 4}
strategy: {tag: power, W: 1.0, p: 1.0}
adversary: {tag: gaussian_random}
comparators:
  - {norm: 0.5, direction_seed: 0}
  - {norm: 2.0, direction_seed: 4}
outputs: {dir: OUTDIR, format: json}
repeats: 2
""", None),
    # u_norm and bound_u near 1e17, regret_u tiny against u = 0
    "odd_spellings": (CURVES_SPEC.replace("{norm: 1.0, direction_seed: 4}",
                                          "{norm: 0.0, direction_seed: 0}\n  - {norm: 1.0e+17, direction_seed: 4}"),
                      odd_spelling_trace),
    "percent_run_id": (CURVES_SPEC, percent_run_id),
    # two traces of one entry, of 6 and 4 rounds: a template per T
    "cut_short": (CURVES_SPEC, cut_short),
    # two entries of one tag: a template per entry, not per tag
    "one_family_two_entries": (CURVES_SPEC.replace("strategy: {tag: ogd, eta: 0.2}", """\
strategies:
  - {tag: ogd, eta: 0.2}
  - {tag: ogd, eta: 0.5}"""), None),
    # u_norm and bound_u in [1e-9, 1e-4), both spelled through the odd-float path
    "tiny_comparators": (CURVES_SPEC.replace("eta: 0.2", "eta: 1.0e-6").replace(
        "{norm: 1.0, direction_seed: 4}", "{norm: 3.0e-6, direction_seed: 4}\n  - {norm: 3.0e-5, direction_seed: 5}"),
        None),
}


class TestCurvesCommand:
    @pytest.mark.parametrize("case", list(CURVES_BYTE_CASES))
    def test_matches_the_reference_writer_byte_for_byte(self, tmp_path, case):
        spec, edit = CURVES_BYTE_CASES[case]
        path, out = write_spec(tmp_path, spec)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        if edit is not None:
            edit(sorted(out.glob("run_*.json"))[-1])
        assert main(["curves", str(out)]) == EXIT_OK
        reference_write_curves(out, tmp_path / "ref.csv")
        assert (out / "curves.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_huge_comparator_norms_stay_finite_in_run_and_curves(self, tmp_path):
        # np.linalg.norm's squares overflow past about 1.34e154: a norm-1e155 comparator read as
        # u_norm = inf, with a vacuous inf envelope, and numpy warned
        sweep = """\
game: {dim: 3, grad_bound: 1.0, horizon: 20, seed: 0}
strategy: {tag: normal_knownT, eps: 1.0, a: 2.4}
adversary: {tag: gaussian_random}
comparators:
  - {norm: 1.0e153, direction_seed: 1}
  - {norm: 1.0e155, direction_seed: 2}
outputs: {dir: OUTDIR, format: json}
repeats: 1
"""
        path, out = write_spec(tmp_path, sweep)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a warning in a group exits 4, in curves 5
            assert main(["run", "--spec", str(path)]) == EXIT_OK
            assert main(["curves", str(out)]) == EXIT_OK
        rows = list(csv.DictReader((out / "summary.csv").open()))
        assert [float(row["u_norm"]) for row in rows] == pytest.approx([1e153, 1e155], rel=1e-15)
        assert [float(row["bound"]) for row in rows] == pytest.approx(
            regret_bound(potentials.NormalKnownTPotential(eps=1.0, a=2.4, G=1.0, T=20), [1e153, 1e155], 20),
            rel=1e-12)
        curves = list(csv.DictReader((out / "curves.csv").open()))
        assert len(curves) == 2 * 20
        assert all(np.isfinite([float(row[key]) for key in ("regret_u", "bound_u", "u_norm")]).all()
                   for row in curves)
        assert {float(row["u_norm"]) for row in curves} == {float(row["u_norm"]) for row in rows}

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

    @pytest.mark.parametrize("key,value,message", [
        ("direction_seed", TestSeedRange.TOP + 1, f"comparator direction_seed must be <= {TestSeedRange.TOP}"),
        # run refuses these comparators too; a negative norm would flip the comparator, nan write nan rows
        ("norm", -1.0, "comparator norm must be >= 0"),
        ("norm", float("nan"), "comparator norm must be a finite number, got nan"),
    ], ids=["direction_seed_past_64_bits", "negative_norm", "nan_norm"])
    def test_a_comparator_run_refuses_in_sweep_json_exits_2(self, tmp_path, capsys, key, value, message):
        path, out = write_spec(tmp_path, CURVES_SPEC)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        meta_path = out / "sweep.json"
        meta = json.loads(meta_path.read_text())
        meta["comparators"][0][key] = value
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["curves", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {meta_path}: ConfigError: {message}\n"
        assert not (out / "curves.csv").exists()

    @pytest.mark.parametrize("section,message", [
        ("strategies", "unknown key 'bogus' in strategy ogd"),
        ("comparators", "unknown key 'bogus' in comparators entry"),
    ])
    def test_an_unknown_key_in_sweep_json_exits_2(self, tmp_path, capsys, section, message):
        # curves checks sweep.json's entries with run's own checks
        path, out = write_spec(tmp_path, CURVES_SPEC)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        meta_path = out / "sweep.json"
        meta = json.loads(meta_path.read_text())
        meta[section][0]["bogus"] = 1
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["curves", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {meta_path}: ConfigError: {message}\n"
        assert not (out / "curves.csv").exists()

    def test_a_trace_past_its_entrys_horizon_exits_2(self, tmp_path, capsys):
        # a known-horizon envelope exists for t <= T only
        spec = CURVES_SPEC.replace("horizon: unknown", "horizon: 6").replace("{tag: ogd, eta: 0.2}",
                                                                             "{tag: power, W: 1.0, p: 1.5}")
        path, out = write_spec(tmp_path, spec)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        meta_path = out / "sweep.json"
        meta_path.write_text(meta_path.read_text().replace('"horizon": 6', '"horizon": 4'))
        capsys.readouterr()
        assert main(["curves", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(": round index 6 outside [1, 4]\n") and err.count("\n") == 1
        assert not (out / "curves.csv").exists()

    def test_missing_traces_exit_2(self, tmp_path, capsys):
        assert main(["curves", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("case", list(UNREADABLE_TRACES))
    def test_an_unreadable_trace_exits_2_and_keeps_curves_csv(self, tmp_path, capsys, case):
        path, out = write_spec(tmp_path, CURVES_SPEC)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        assert main(["curves", str(out)]) == EXIT_OK
        before = (out / "curves.csv").read_bytes()
        capsys.readouterr()
        bad = UNREADABLE_TRACES[case](sorted(out.glob("run_*.json"))[-1])  # the last one read
        assert main(["curves", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
        assert (out / "curves.csv").read_bytes() == before
        assert sorted(p.name for p in out.iterdir() if "curves" in p.name) == ["curves.csv"]

    @pytest.mark.parametrize("edit, reason", [
        (lambda meta: '{"game": {"dim": 2}', "JSONDecodeError: "),
        # sweep.json is checked as run checks a spec
        (lambda meta: json.dumps({**meta, "strategies": [1]}),
         "ConfigError: strategy entry must be a mapping, got 1\n"),
        (lambda meta: json.dumps({**meta, "game": {"dim": 0, "grad_bound": 1.0}}),
         "ConfigError: game: dim must be >= 1\n"),
    ])
    def test_an_unreadable_sweep_json_exits_2(self, tmp_path, capsys, edit, reason):
        path, out = write_spec(tmp_path, CURVES_SPEC)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        meta_path = out / "sweep.json"
        meta_path.write_text(edit(json.loads(meta_path.read_text())))
        assert main(["curves", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {meta_path}: {reason}")
        assert not (out / "curves.csv").exists()


    def test_an_out_in_a_missing_directory_exits_2(self, tmp_path, capsys):
        path, out = write_spec(tmp_path, CURVES_SPEC)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        capsys.readouterr()
        target = tmp_path / "missing" / "c.csv"
        assert main(["curves", str(out), "--out", str(target)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {target}: No such file or directory\n"
        assert not target.parent.exists()


class TestJobCount:
    @pytest.mark.parametrize("jobs", ["0", "-2", "many", "1.5"])
    def test_the_flag_must_be_a_positive_integer(self, tmp_path, capsys, jobs):
        path, out = write_spec(tmp_path, MINIMAL_SPEC)
        assert main(["run", "--spec", str(path), "--jobs", jobs]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --jobs must be an integer >= 1, got {jobs!r}\n"
        assert not out.exists()

    # perfbench still exports MINIMAX_ONLINE_JOBS, which --jobs no longer reads, even where it is no count
    @pytest.mark.parametrize("jobs", ["0", "-1", "many", ""])
    def test_the_variable_is_ignored(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setenv("MINIMAX_ONLINE_JOBS", jobs)
        path, out = write_spec(tmp_path, MINIMAL_SPEC)
        assert main(["run", "--spec", str(path)]) == EXIT_OK
        assert (out / "summary.csv").exists()


def run_child(code, *args):
    """Run code in a fresh interpreter, whose sys.modules holds only what it imported itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


REFEREE_CALLS = """
import numpy as np
from minimax_online import one_round, oracles
f = lambda x: np.abs(x) ** 1.5 / 1.5
oracles.conditional_value_recursive(oracles.RecursionSpec(f=f, G=1.0, T=2, dim=1, n_r=65, grid_n=129), 0, [0.0])
one = one_round.OneRoundSpec(h=lambda x: (x * x + 1.0) ** 0.75 / 1.5, theta=[1.0, 0.5], G=1.0)
one_round.solve_scalar_grid(one)
one_round.solve_orthogonal(one)
"""


class TestColdStart:
    def test_sweeps_and_referee_never_load_scipy_or_a_process_pool(self, tmp_path):
        run_child("""
import sys
from minimax_online import cli
spec, out = sys.argv[1:]
assert cli.main(["run", "--spec", spec, "--out", out]) == 0
assert cli.main(["curves", out]) == 0
""" + REFEREE_CALLS + """
loaded = [m for m in ("scipy", "concurrent.futures.process") if m in sys.modules]
assert not loaded, loaded
""", ROOT / "scripts" / "specs" / "minimal.yaml", tmp_path / "out")
        assert (tmp_path / "out" / "curves.csv").exists()

    @pytest.mark.parametrize("writer", ["csv", "json", "curves", "read"])
    def test_only_writing_floats_loads_orjson(self, tmp_path, writer):
        # both trace writers and curves write floats with orjson, and read_trace_json
        # reads them with it; importing the CLI, reading a spec, verify and the
        # referee load no orjson
        spec = ROOT / "scripts" / "specs" / "minimal.yaml"
        assert main(["run", "--spec", str(spec), "--format", "json", "--out", str(tmp_path / "traces")]) == 0
        run_child("""
import sys
from pathlib import Path
from minimax_online import cli
spec, traces, out, writer = sys.argv[1:]
assert "orjson" not in sys.modules
cli.parse_experiment_spec(spec)
assert cli.main(["verify", "--lemma", "one-round"]) == 0
""" + REFEREE_CALLS + """
assert "orjson" not in sys.modules
if writer == "curves":
    assert cli.main(["curves", traces, "--out", out + "/curves.csv"]) == 0
elif writer == "read":
    assert cli.read_trace_json(sorted(Path(traces).glob("run_*.json"))[0]).n_rounds == 10
else:
    assert cli.main(["run", "--spec", spec, "--format", writer, "--out", out + "/run"]) == 0
assert "orjson" in sys.modules
""", spec, tmp_path / "traces", tmp_path, writer)
        if writer == "curves":
            assert (tmp_path / "curves.csv").exists()
        elif writer != "read":
            assert list((tmp_path / "run").glob(f"run_*.{writer}"))

    def test_run_and_curves_load_only_what_they_run(self, tmp_path):
        # neither loads the one-round solvers, the oracles or the checks; curves reads no YAML
        spec = ROOT / "scripts" / "specs" / "minimal.yaml"
        assert main(["run", "--spec", str(spec), "--format", "json", "--out", str(tmp_path / "traces")]) == 0
        run_child("""
import sys
from minimax_online import cli
spec, traces, out = sys.argv[1:]
referee = ("minimax_online.one_round", "minimax_online.oracles", "minimax_online.checks")
assert cli.main(["curves", traces, "--out", out + "/curves.csv"]) == 0
loaded = [m for m in ("yaml",) + referee if m in sys.modules]
assert not loaded, loaded
assert cli.main(["run", "--spec", spec, "--out", out + "/run"]) == 0
loaded = [m for m in referee if m in sys.modules]
assert not loaded, loaded
""", spec, tmp_path / "traces", tmp_path)
        assert (tmp_path / "curves.csv").exists() and (tmp_path / "run" / "summary.csv").exists()

    def test_the_referee_never_loads_the_engine(self):
        run_child("import sys" + REFEREE_CALLS + """
loaded = [m for m in ("minimax_online.engine", "minimax_online.checks") if m in sys.modules]
assert not loaded, loaded
""")

    def test_every_package_export_resolves(self):
        # the names the package exported when its __init__ imported every module
        names = """GameConfig make_rng norm random_unit_vector unit_direction
            AdaptiveNormalPotential NormalKnownTPotential PowerPotential QuadraticPotential conjugate_numeric
            exp_conjugate_upper_bound regret_bound OneRoundSolution OneRoundSpec classify_regime solve_orthogonal
            solve_parallel solve_scalar_grid PotentialPlayer FixedDirection GaussianRandom GreedyVsComparator
            OrthogonalMinimax ParallelMinimax RademacherLine BoundReport Trace attach_epsilon
            comparator_grid epsilon_ledger read_trace_json regret run_game run_games verify_bound
            write_trace_csv write_trace_json RecursionSpec argmax_at_zero_check conditional_value_recursive
            gaussian_dominance_check gaussian_expectation rademacher_smoothing_exact
            __version__""".split()
        run_child("""
import importlib, sys
import minimax_online
assert not [m for m in sys.modules if m.startswith("minimax_online.")]
names = sys.argv[1:]
exec("from minimax_online import " + ", ".join(names))
for name in names[:-1]:
    obj = getattr(minimax_online, name)
    assert obj is getattr(importlib.import_module(obj.__module__), name), name
    assert name in dir(minimax_online) and name in minimax_online.__all__, name
try:
    minimax_online.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
""", *names)

    def test_quadrature_fallback_imports_scipy_when_it_runs(self):
        out = run_child("""
import sys
from minimax_online import oracles
assert "scipy" not in sys.modules
print(repr(oracles.gaussian_expectation(lambda x: abs(x), 0.0, 1.0)), "scipy.integrate" in sys.modules)
""")
        value, loaded = out.split()
        assert float(value) == pytest.approx(0.7978845608028654, rel=1e-10)  # E|Z| = sqrt(2 / pi)
        assert loaded == "True"


class TestBenchmarkHooks:
    def test_every_name_the_benchmark_tracer_wraps_exists(self):
        # perfbench/tracing.py wraps library functions and methods by name; a
        # name it wraps that is gone raises AttributeError.  In a child, so no
        # module of this process stays wrapped.
        run_child("""
import sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, instrument_cli, instrument_oracles
instrument_cli(Tracer())
instrument_oracles(Tracer())
""", ROOT / "perfbench")
