"""Benchmark of minimax-online, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  Each workload step runs in a fresh
child interpreter, one step at a time (a closed loop with one caller and
``--jobs 1``); BLAS and OpenMP threads are pinned to 1 in the children.

* ``--trace 0`` times the workload untraced, over and over until ``--seconds``
  is spent.  Other tenants of a shared host slow every process down by up to
  twice for periods from under a second to minutes (NOTES.md), so a step's
  time is its children's CPU time scaled to a reference host speed
  (``HostMeter``): a thread of the parent runs a fixed kernel every
  ``SAMPLE_S`` on the same vCPU as the child, and the step's CPU time is
  multiplied by ``REF_KERNEL_MS`` over the kernel's mean time.
  ``norm_time_s``, ``setup_s`` and ``peak_rss_mb`` are medians over the
  run; the raw wall and CPU times are printed before the result.
* ``--trace 1`` alternates untraced and traced iterations.  Traced children
  record spans around calls into each library module (see ``tracing.py``);
  the per-layer metrics are medians over traced iterations, and
  ``trace.overhead`` is the median scaled traced over the median scaled
  untraced iteration.

Every output is checked (``checks.py``); the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it report every metric with its unit, the metrics that
apply to one workload only, and the machine the numbers come from.
``--quick`` shrinks every workload for the self-test (``test_bench.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
CHILD = BENCH / "child.py"
ADAPTIVE_SPEC = ROOT / "scripts" / "specs" / "adaptive_sweep.yaml"
WIDE_SPEC = BENCH / "specs" / "sweep_wide_curves.yaml"

WORKLOADS = ("sweep_adaptive", "sweep_wide_curves", "oracle_referee")
SETUP_REPEATS = 5      # setup probes per run; setup_s is their median
# Sets the scale only: norm_time_s of sweep_adaptive then matches its wall
# time in a quiet period of a 2-vCPU Xeon VM (about 3.7 s)
REF_KERNEL_MS = 6.3
SAMPLE_S = 0.1         # HostMeter runs kernel_ms once per SAMPLE_S
MIN_ITERATIONS = 2     # untraced iterations per --trace 0 run, even past --seconds
CHILD_TIMEOUT_S = 50
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MB = 1e6


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float               # user + system time
    norm_s: float              # cpu_s at the reference host speed
    peak_rss_mb: float


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    norm_s: float
    peak_rss_mb: float
    outcome: object            # checks.Outcome
    out_bytes: int = 0
    spans: list = field(default_factory=list)
    trace_bytes: dict = field(default_factory=dict)
    rounds: int = 0
    layers: dict = field(default_factory=dict)  # per-layer metrics of a traced iteration


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update({var: "1" for var in THREAD_VARS})
    env["MINIMAX_ONLINE_JOBS"] = "1"
    return env


def kernel_ms() -> float:
    """CPU time of one run of a fixed kernel in the style of the workloads: a
    Python loop over small numpy vectors, with a 1001-point grid operation
    every tenth step.  About 5 ms on an idle core."""
    import numpy as np

    start = time.thread_time()
    small = np.zeros(4)
    grid = np.linspace(-1.0, 1.0, 1001)
    acc = 0.0
    for i in range(1500):
        small = small * 0.999 + float(i % 7)
        acc += float(np.linalg.norm(small))
        if i % 10 == 0:
            acc += float(np.max(np.sqrt(grid * grid + 0.5) - 0.25 * grid))
        cell = {"acc": acc, "i": i}
        acc = cell["acc"] * 0.5 + (cell["i"] & 3)
    return (time.thread_time() - start) * 1e3


class HostMeter:
    """How fast the host runs this vCPU while a child does: a thread runs
    ``kernel_ms`` once at the start and then once per SAMPLE_S until the
    meter stops.  ``main`` pins the parent, and so its children, to one vCPU,
    so kernel and child take turns on it and see the same slowdown from other
    tenants; both are measured in CPU time, so neither counts the other's
    turns."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        self.samples.append(kernel_ms())
        while not self._stop.wait(SAMPLE_S):
            self.samples.append(kernel_ms())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        return REF_KERNEL_MS / statistics.mean(self.samples)


def run_child(args, log: Path) -> Child:
    """Run ``python ARGS`` to completion under a HostMeter; wall and CPU time,
    CPU time at the reference host speed, and the child's own peak RSS."""
    with open(log, "ab") as err, HostMeter() as meter:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *map(str, args)], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    return Child(proc.returncode, wall, cpu, cpu * meter.scale(), usage.ru_maxrss * 1024 / MB)


class Sweep:
    """`minimax-online run` on a spec, optionally followed by `curves`."""

    def __init__(self, spec_path: Path, curves: bool, work: Path, quick: bool):
        from minimax_online.cli import parse_experiment_spec

        if quick:
            spec_path = shrink_spec(spec_path, work / "spec.yaml")
        self.spec_path = spec_path
        self.plan = checks.SweepPlan.from_spec(parse_experiment_spec(spec_path))
        self.curves = curves
        self.work = work

    def setup_args(self, seed: int) -> list:
        return [CHILD, "setup", "--spec", self.spec_path]

    def iterate(self, seed: int, traced: bool) -> Iteration:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        log = self.work / "stderr.log"
        spans = []

        def cli(*args):
            if traced:
                spans.append(self.work / f"spans_{args[0]}.npz")
                return run_child([CHILD, "cli", spans[-1], *args], log)
            return run_child(["-m", "minimax_online.cli", *args], log)

        run = cli("run", "--spec", self.spec_path, "--out", out, "--seed", seed, "--jobs", "1")
        outcome, regrets = checks.check_sweep(out, run.code, self.plan)
        children = [run]
        if self.curves:
            children.append(cli("curves", out))
            outcome.merge(checks.check_curves(out, children[-1].code, self.plan, regrets))
        files = list(out.iterdir()) if out.is_dir() else []
        return Iteration(
            wall_s=sum(c.wall_s for c in children),
            cpu_s=sum(c.cpu_s for c in children),
            norm_s=sum(c.norm_s for c in children),
            peak_rss_mb=max(c.peak_rss_mb for c in children),
            outcome=outcome,
            out_bytes=sum(f.stat().st_size for f in files),
            spans=spans,
            trace_bytes={fmt: sum(f.stat().st_size for f in files
                                  if f.name.startswith("run_") and f.suffix == "." + fmt)
                         for fmt in ("csv", "json")},
            rounds=self.plan.n_runs * self.plan.rounds,
        )


class OracleReferee:
    """Backward induction at d = 2 and d = 1, then one-round closed forms
    against the grid oracle (``child.oracle_job``)."""

    def __init__(self, work: Path, quick: bool):
        import child

        self.work = work
        self.quick = quick
        recursions = child.QUICK["recursions"] if quick else child.RECURSIONS
        per_regime = child.QUICK["per_regime"] if quick else child.ONE_ROUND_PER_REGIME
        self.expected_calls = len(recursions) + 2 * per_regime
        self.stages_2d = dict(recursions)[2]  # T - t stages, from t = 0

    def setup_args(self, seed: int) -> list:
        return [CHILD, "setup", "--oracle", "--seed", seed]

    def iterate(self, seed: int, traced: bool) -> Iteration:
        result = self.work / "oracle.json"
        result.unlink(missing_ok=True)
        args = [CHILD, "oracle", "--seed", seed, "--out", result]
        spans = [self.work / "spans_oracle.npz"] if traced else []
        args += ["--spans", spans[0]] if traced else []
        args += ["--quick"] if self.quick else []
        job = run_child(args, self.work / "stderr.log")
        outcome = checks.check_oracles(result, job.code, self.expected_calls)
        return Iteration(job.wall_s, job.cpu_s, job.norm_s, job.peak_rss_mb, outcome, spans=spans)


def shrink_spec(path: Path, dest: Path) -> Path:
    """The spec at 50 rounds and at most 2 repeats, for the self-test."""
    import yaml

    raw = yaml.safe_load(path.read_text())
    raw["rounds"] = 50
    raw["repeats"] = min(int(raw.get("repeats", 1)), 2)
    if raw["game"].get("horizon", "unknown") != "unknown":
        raw["game"]["horizon"] = 50
    dest.write_text(yaml.safe_dump(raw))
    return dest


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def loadavg() -> list:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def quartiles(values) -> tuple:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name: str, values, unit: str) -> str:
    lo, hi = quartiles(values)
    return (f"{name:40s} {statistics.median(values):.6g} {unit}  "
            f"(median of {len(values)}; quartiles {lo:.6g} .. {hi:.6g}; "
            f"values {' '.join(f'{v:.6g}' for v in values)})")


def measure(name: str, seed: int, seconds: int, traced_run: bool, quick: bool):
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    if name == "oracle_referee":
        workload = OracleReferee(work, quick)
    else:
        workload = Sweep(ADAPTIVE_SPEC if name == "sweep_adaptive" else WIDE_SPEC,
                         name == "sweep_wide_curves", work, quick)

    total = checks.Outcome()
    log = work / "stderr.log"
    run_child(workload.setup_args(seed), log)  # warm-up: bytecode caches
    setup, plain, traced, step_s = [], [], [], []

    def probe():
        child = run_child(workload.setup_args(seed), log)
        total.op(child.code == 0, f"setup probe exit {child.code}")
        setup.append(child)

    # one setup probe before each iteration spreads the probes over the run
    min_plain, min_traced = (1, 1) if traced_run else (1 if quick else MIN_ITERATIONS, 0)
    while True:
        use_trace = traced_run and len(plain) > len(traced)
        begun = time.perf_counter()
        probe()
        it = workload.iterate(seed, use_trace)
        step_s.append(time.perf_counter() - begun)
        total.merge(it.outcome)
        if use_trace:
            it.layers = tracing.layer_metrics(tracing.load_spans(it.spans), it.trace_bytes,
                                              it.rounds, getattr(workload, "stages_2d", 1))
        (traced if use_trace else plain).append(it)
        done = len(plain) >= min_plain and len(traced) >= min_traced
        if done and time.perf_counter() + statistics.median(step_s) > start + seconds:
            break
    while len(setup) < (1 if quick else SETUP_REPEATS):
        probe()
    return workload, setup, plain, traced, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="shrunken workloads (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "minimax_online").is_dir() or not ADAPTIVE_SPEC.is_file():
        print(f"error: run from a checkout of minimax-online: {SRC / 'minimax_online'} "
              f"or {ADAPTIVE_SPEC} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only once src/ is known to exist: both import the package
    global checks, tracing
    import checks
    import tracing

    # SIGTERM unwinds like an exception, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # HostMeter: children share the parent's vCPU
    load_before = loadavg()
    workload, setup, plain, traced, total = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    env = {**environment(), "nproc": len(cpus), "pinned_cpu": min(cpus),
           "loadavg_before": load_before, "loadavg_after": loadavg(),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "iterations": len(plain), "traced_iterations": len(traced),
           "host_slowdown": [round(it.cpu_s / it.norm_s, 3) for it in plain + traced]}
    print("environment " + json.dumps(env))

    times = [it.norm_s for it in plain]
    metrics = {}
    if not args.trace:
        metrics = {
            "norm_time_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(c.norm_s for c in setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(it.peak_rss_mb for it in plain), "unit": "MB"},
        }
        print(describe("norm_time_s", times, "s"))
        print(describe("setup_s", [c.norm_s for c in setup], "s"))
        print(describe("peak_rss_mb", [it.peak_rss_mb for it in plain], "MB"))
        print(describe("wall_s (raw, not gated)", [it.wall_s for it in plain], "s"))
        print(describe("cpu_s (raw, not gated)", [it.cpu_s for it in plain], "s"))
        print(describe("setup wall_s (raw, not gated)", [c.wall_s for c in setup], "s"))
    else:
        keys = traced[0].layers
        for key, (_, unit) in keys.items():
            values = [it.layers[key][0] for it in traced]
            metrics[key] = {"value": statistics.median(values), "unit": unit}
            print(describe(key, values, unit))
        overhead = statistics.median(it.norm_s for it in traced) / statistics.median(times)
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        print(f"{'trace.overhead':40s} {overhead:.4g} ratio  (median traced over median untraced)")
        top = tracing.top_modules({k: (v["value"], v["unit"]) for k, v in metrics.items()})
        print(f"top self time: {', '.join(top)}")

    # metrics of one workload only, reported here and not in the JSON line
    if isinstance(workload, Sweep):
        print(describe("out_mb", [it.out_bytes / MB for it in plain + traced], "MB"))
        print(describe("bound_violations",
                       [it.outcome.bound_violations for it in plain + traced], "count"))
    else:
        print(describe("max_rel_err", [it.outcome.max_rel_err for it in plain + traced], "1"))
    print(f"{'fail_frac':40s} {total.failed / total.attempted:.6g} 1  "
          f"({total.failed} of {total.attempted} operations)")
    for problem in total.problems[:20]:
        print(f"failed: {problem}")

    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
