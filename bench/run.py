#!/usr/bin/env python3
"""Benchmark of the beamspace package: three workloads, end to end or traced.

Usage, from the root of a checkout::

    python3 bench/run.py --workload mc_products --seed 42 --seconds 30 --trace 0

Each operation runs in a fresh interpreter on the checkout's own ``src``,
with every output under a temporary directory in ``bench/.work`` that is
removed at exit.  Operations repeat until ``--seconds`` have passed; every
output is checked (``checks.py``), and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it records the run's environment.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a traced replay (see ``child.py``).  ``NOTES.md`` says why each workload
and metric exists.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import OpResult, tally
from child import HAND_CONFIG, PATTERN_COMMANDS, TRACED, rx_flags

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")
CALIBRATE = str(HERE / "calibrate.py")
# Mean wall and CPU time of one calibrate.py on the reference host (2 shared
# vCPUs, Python 3.11, numpy 2.4): end-to-end timings are scaled to its speed.
CAL_REF_S = 0.55
CAL_REF_CPU_S = 0.48
DEFAULT_SEED = 42          # the hand config's own seed
CONFIRM_SEED = 7           # a second seed later claims must also hold on
SETUP_REPS = 7
RUN_LIMIT_S = 170.0        # every run ends within 180 s


@dataclass(frozen=True)
class Workload:
    scenarios: int          # Monte-Carlo scale; 0 when the workload runs no sweep
    threads: int = 2        # Monte-Carlo workers
    patterns: bool = False  # reads the measured-pattern config


# Why each workload exists: NOTES.md.
WORKLOADS = {
    "mc_products": Workload(10_000),
    "mc_kernel": Workload(200_000, threads=1),
    "pattern_analysis": Workload(0, patterns=True),
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.command_self_s": "s",
    "iokit.load_config_s": "s",
    "iokit.load_pattern_csv_s": "s",
    "iokit.pattern_rows_read": "count",
    "iokit.save_cdf_csv_s": "s",
    "iokit.cdf_rows_written": "count",
    "iokit.bytes_written_mb": "MB",
    "iokit.write_mb_per_s": "MB/s",
    "iokit.evm_csv_write_s": "s",
    "iokit.save_metrics_json_s": "s",
    "sphere.build_grid_s": "s",
    "sphere.integrate_power_s": "s",
    "patterns.generate_mirror_pair_s": "s",
    "patterns.generate_perturbation_s": "s",
    "patterns.apply_perturbation_s": "s",
    "patterns.perturbed_basis_s": "s",
    "patterns.evm_map_s": "s",
    "patterns.basis_correlation_db_s": "s",
    "patterns.power_imbalance_db_s": "s",
    "link.run_monte_carlo_s.t1": "s",
    "link.run_monte_carlo_s.t2": "s",
    "link.mc_thread_speedup": "ratio",
    "link.scenarios_per_s": "1/s",
    "link.summaries_s": "s",
    "link.error_samples": "count",
    "link.result_mb": "MB",
    "link.kept_frac": "fraction",
    "link.build_channel_s": "s",
    "link.constellation_at_angle_s": "s",
    "link.received_constellation_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_s": "s",
}
# Spans whose total time is the per-layer metric of the same name plus "_s";
# the other traced spans feed the metrics built in ``layer_metrics``.
TIMED_SPANS = [f"{layer}.{name}" for layer, names in TRACED.items() for name in names
               if name not in ("run_monte_carlo", "save_results")] + ["link.summaries"]


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


@dataclass
class OpSpec:
    command: str            # key of checks.OUTPUT_CHECKS, or a label
    child: list[str]        # child.py operation and its arguments
    out: Path | None = None
    scenarios: int = 0
    cli: bool = False       # run untraced as ``python -m beamspace.cli``

    def argv(self, spans: Path | None) -> list[str]:
        if spans is not None:
            return [CHILD, "--trace-out", str(spans)] + self.child
        if self.cli:
            return ["-m", "beamspace.cli"] + self.child[1:]
        return [CHILD] + self.child


@dataclass
class Pass:
    ops: list[OpResult] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)


class Runner:
    """Starts children one at a time, measures them, and checks their outputs."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONDONTWRITEBYTECODE="1",
        )
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.samples: dict[str, list[float]] = {}
        self._logs = 0

    def spawn(self, argv: list[str], command: str) -> OpResult:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("run time limit reached")
        self._logs += 1
        err_path = self.work / f"stderr.{self._logs}"
        with open(os.devnull, "wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")
        err_path.unlink()
        rss_mb = usage.ru_maxrss / 1024.0
        return OpResult(command=command, returncode=proc.returncode, stderr=stderr,
                        wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=rss_mb)

    def execute(self, spec: OpSpec, spans: Path | None = None) -> OpResult:
        """Run one operation, unchecked."""
        if spec.out is not None:
            spec.out.mkdir(parents=True, exist_ok=True)
        op = self.spawn(spec.argv(spans), spec.command)
        op.out, op.scenarios = spec.out, spec.scenarios
        return op

    def run(self, spec: OpSpec, spans: Path | None = None,
            ref_dir: Path | None = None) -> OpResult:
        """Run one operation and count it; its failure is recorded, not raised."""
        op = self.execute(spec, spans)
        attempted, _, messages = tally([op], ref_dir)
        self.attempted += attempted
        self.failures += messages
        self.peak_rss_mb = max(self.peak_rss_mb, op.rss_mb)
        return op

    def must(self, argv: list[str], what: str) -> None:
        """Run a preparation step the workload cannot go without."""
        op = self.spawn(argv, what)
        if op.returncode != 0:
            raise HarnessError(f"{what} failed (exit {op.returncode}):\n{op.stderr}")


def receive_angles(seed: int) -> list[str]:
    """Two nearby receive directions (degrees) drawn from the workload seed."""
    rng = random.Random(seed)
    theta = rng.uniform(30.0, 150.0)
    phi = rng.uniform(0.0, 360.0)
    phi2 = (phi + rng.uniform(3.0, 5.0)) % 360.0
    return [f"{theta:.3f}", f"{phi:.3f}", f"{theta:.3f}", f"{phi2:.3f}"]


def pattern_command(command: str, config: Path, out: Path, seed: int, rx: list[str]) -> OpSpec:
    argv = ["cli", command, "--config", str(config), "--out", str(out), "--seed", str(seed)]
    if command == "constellation":
        argv += rx_flags(rx)
    return OpSpec(command, argv, out=out, cli=True)


def pass_ops(name: str, seed: int, work: Path, out: Path, rx: list[str]) -> list[OpSpec]:
    """The operations of one pass of a workload, writing under ``out``."""
    n, threads = WORKLOADS[name].scenarios, WORKLOADS[name].threads
    common = ["--config", str(HAND_CONFIG), "--threads", str(threads), "--seed", str(seed)]
    if name == "mc_products":
        return [OpSpec("monte-carlo", ["cli", "monte-carlo", "--scenarios", str(n),
                                       "--out", str(out)] + common,
                       out=out, scenarios=n, cli=True)]
    if name == "mc_kernel":
        return [OpSpec("mc", ["mc", "--scenarios", str(n), "--out", str(out / "summary.json")]
                       + common, out=out, scenarios=n)]
    return [pattern_command(c, work / "pattern.json", out / c, seed, rx)
            for c in PATTERN_COMMANDS]


def prepare(runner: Runner, work: Path, seed: int, rx: list[str]) -> Path:
    """Write the measured-pattern inputs and the synthetic config's reference outputs."""
    runner.must([CHILD, "prepare", "--work", str(work)], "writing pattern CSVs")
    ref_dir = work / "reference"
    for command in PATTERN_COMMANDS:
        spec = pattern_command(command, HAND_CONFIG, ref_dir, seed, rx)
        spec.out.mkdir(parents=True, exist_ok=True)
        runner.must(spec.argv(None), f"reference {command}")
    return ref_dir


def run_pass(runner: Runner, name: str, seed: int, out: Path, rx: list[str],
             ref_dir: Path | None, traced: bool) -> Pass:
    result = Pass()
    for i, spec in enumerate(pass_ops(name, seed, runner.work, out, rx)):
        spans = runner.work / f"spans.{i}.json" if traced else None
        result.ops.append(runner.run(spec, spans, ref_dir))
        if spans is not None and spans.exists():
            result.records += json.loads(spans.read_text())
            spans.unlink()
    shutil.rmtree(out, ignore_errors=True)
    os.sync()  # write back now, not during the next pass
    return result


def repeat_passes(runner: Runner, seconds: float, one_pass) -> list:
    """Call ``one_pass`` until ``seconds`` have passed or the next would overrun."""
    done = []
    start = time.monotonic()
    while not done or time.monotonic() - start < seconds:
        last = time.monotonic()
        done.append(one_pass(len(done)))
        took = time.monotonic() - last
        if time.monotonic() + 2.0 * took > runner.deadline:
            break
    return done


def layer_metrics(records: list[dict], threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counts.

    Throughput and result sizes come from the sweep run on ``threads`` workers.
    """
    total: dict[str, float] = defaultdict(float)
    for r in records:
        total[r["name"]] += r["s"]
    m = {f"{name}_s": total[name] for name in TIMED_SPANS if name in total}
    if "cli.import" in total:
        m["cli.import_s"] = total["cli.import"]
    if "cli.command" in total:
        children = sum(r["s"] for r in records if r["parent"] == "cli.command")
        m["cli.command_self_s"] = total["cli.command"] - children
    loads = [r for r in records if r["name"] == "iokit.load_pattern_csv"]
    if loads:
        m["iokit.pattern_rows_read"] = sum(r["rows"] for r in loads)
    cdfs = [r for r in records if r["name"] == "iokit.save_cdf_csv"]
    if cdfs:
        m["iokit.cdf_rows_written"] = sum(r["rows"] for r in cdfs)
    evm = [r["s"] for r in records if r["name"] == "iokit.save_results" and r["evm"]]
    if evm:
        m["iokit.evm_csv_write_s"] = sum(evm)
    writes = [r for r in records if "bytes" in r]
    if writes:
        mb = sum(r["bytes"] for r in writes) / 1e6
        m["iokit.bytes_written_mb"] = mb
        m["iokit.write_mb_per_s"] = mb / sum(r["s"] for r in writes)
    for r in records:
        if r["name"] != "link.run_monte_carlo":
            continue
        m[f"link.run_monte_carlo_s.t{r['threads']}"] = r["s"]
        if r["threads"] == threads:
            m["link.scenarios_per_s"] = r["scenarios"] / r["s"]
            m["link.error_samples"] = r["samples"]
            m["link.result_mb"] = r["result_bytes"] / 1e6
            m["link.kept_frac"] = (r["scenarios"] - r["rejected"]) / r["scenarios"]
    return m


def top_span_s(records: list[dict]) -> float:
    """Time inside traced layer calls made directly by a command or a script."""
    return sum(r["s"] for r in records
               if r["parent"] in (None, "cli.command") and r["name"] != "cli.command")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*per_pass)
    return {k: statistics.median(m[k] for m in per_pass if k in m) for k in keys}


class Yardstick:
    """Operation times scaled to a reference host speed by ``calibrate.py``.

    The host's speed drifts with outside load, by up to 1.6x, in spells
    from under a second to minutes.  ``calibrate.py`` does fixed work of the
    same kinds as the operations (interpreter start, numpy, float
    formatting to a file) and runs after every operation, so over a run it
    samples the same spells.  A command's time is its mean over the run
    times ``CAL_REF_S`` over the calibrations' mean: the ratio of two means
    taken over the same moments cancels the share of the run the host spent
    slow.  The set-up, which is as short as a calibration and much like it,
    is scaled instead by the two calibrations around each repetition.
    """

    def __init__(self, runner: Runner):
        self.runner = runner
        self.cal = [self._calibrate()]
        self.ops: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.setup: list[tuple[float, float]] = []  # raw and scaled wall

    def _calibrate(self) -> tuple[float, float]:
        op = self.runner.spawn([CALIBRATE, str(self.runner.work)], "calibrate")
        if op.returncode != 0:
            raise HarnessError(f"calibration failed (exit {op.returncode}):\n{op.stderr}")
        return op.wall_s, op.cpu_s

    def time(self, op: OpResult, cleanup=None) -> None:
        """Record a finished operation; ``cleanup`` runs before the calibration after it."""
        if cleanup is not None:
            cleanup()
        self.cal.append(self._calibrate())
        if op.command == "setup":
            around = (self.cal[-2][0] + self.cal[-1][0]) / 2
            self.setup.append((op.wall_s, op.wall_s * CAL_REF_S / around))
        else:
            self.ops[op.command].append((op.wall_s, op.cpu_s))

    def scaled(self, command: str, cpu: bool = False) -> float:
        """Mean wall (or CPU) time of ``command`` at the reference speed."""
        i, ref = (1, CAL_REF_CPU_S) if cpu else (0, CAL_REF_S)
        mean = statistics.fmean(s[i] for s in self.ops[command])
        return mean * ref / statistics.fmean(c[i] for c in self.cal)


def measure_end_to_end(runner: Runner, name: str, seed: int, seconds: int,
                       rx: list[str], ref_dir: Path | None) -> dict:
    """End-to-end metrics of one pass, at the reference speed (``Yardstick``).

    A pass's wall and CPU time are the sums over its commands; the set-up
    runs ``SETUP_REPS`` times, one before each pass, and its median is taken.
    """
    config = runner.work / "pattern.json" if WORKLOADS[name].patterns else HAND_CONFIG
    setup = OpSpec("setup", ["setup", "--config", str(config)])
    stick = Yardstick(runner)

    def one_pass(i):
        if len(stick.setup) < SETUP_REPS:
            stick.time(runner.run(setup))
        for spec in pass_ops(name, seed, runner.work, runner.work / f"pass{i}", rx):
            op = runner.run(spec, None, ref_dir)
            # Written files go, and are written back, before the next calibration.
            stick.time(op, lambda: (shutil.rmtree(spec.out, ignore_errors=True), os.sync()))
        shutil.rmtree(runner.work / f"pass{i}", ignore_errors=True)

    repeat_passes(runner, seconds, one_pass)
    while len(stick.setup) < SETUP_REPS:
        stick.time(runner.run(setup))
    runner.samples = {"calibrate": stick.cal, "setup": stick.setup, **stick.ops}
    return {
        "wall_s": (sum(stick.scaled(c) for c in stick.ops), "s"),
        "setup_s": (statistics.median(s for _, s in stick.setup), "s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB"),
        "cpu_s": (sum(stick.scaled(c, cpu=True) for c in stick.ops), "s"),
    }


def measure_layers(runner: Runner, name: str, seed: int, seconds: int,
                   rx: list[str], ref_dir: Path | None) -> dict:
    """Per-layer metrics: untraced and traced passes in turn, then fill-in runs.

    Metrics of layers this workload's own commands do not reach come from
    the probe (every layer at 8,192 scenarios); an MC workload's sweep time
    on the worker count it does not use, from one extra sweep at its own scale.
    """
    def pair(i):
        plain = run_pass(runner, name, seed, runner.work / f"plain{i}", rx, ref_dir, False)
        traced = run_pass(runner, name, seed, runner.work / f"traced{i}", rx, ref_dir, True)
        return plain, traced

    pairs = repeat_passes(runner, seconds, pair)
    workload = WORKLOADS[name]
    metrics = median_metrics([layer_metrics(t.records, workload.threads) for _, t in pairs])
    fill_ins = []
    if workload.scenarios:
        other = 3 - workload.threads  # the sweep on the worker count the workload does not use
        fill_ins.append(OpSpec(f"mc-t{other}", [
            "mc", "--config", str(HAND_CONFIG), "--scenarios", str(workload.scenarios),
            "--threads", str(other), "--seed", str(seed)]))
    fill_ins.append(OpSpec("probe", ["probe", "--work", str(runner.work),
                                     "--seed", str(seed), "--rx"] + rx))
    for spec in fill_ins:
        spans = runner.work / "spans.fill.json"
        runner.run(spec, spans)
        if spans.exists():
            records = json.loads(spans.read_text())
            for key, value in layer_metrics(records, workload.threads).items():
                metrics.setdefault(key, value)
            spans.unlink()
    for scratch in ("probe_mc", "probe_pa"):
        shutil.rmtree(runner.work / scratch, ignore_errors=True)
    if "link.run_monte_carlo_s.t1" in metrics and "link.run_monte_carlo_s.t2" in metrics:
        metrics["link.mc_thread_speedup"] = (
            metrics["link.run_monte_carlo_s.t1"] / metrics["link.run_monte_carlo_s.t2"])
    plain_wall = statistics.median(p.wall_s for p, _ in pairs)
    metrics["trace.coverage"] = statistics.median(top_span_s(t.records) for _, t in pairs) / plain_wall
    metrics["trace.overhead_s"] = statistics.median(t.wall_s for _, t in pairs) - plain_wall
    runner.samples = {"plain_wall_s": [p.wall_s for p, _ in pairs],
                      "traced_wall_s": [t.wall_s for _, t in pairs]}
    runner.attempted += 1  # the trace itself: every per-layer metric must have a value
    missing = [k for k in PER_LAYER if k not in metrics]
    if missing:
        runner.failures.append(f"trace: no value for {', '.join(missing)}")
    return {k: (metrics[k], unit) for k, unit in PER_LAYER.items() if k in metrics}


@contextlib.contextmanager
def work_dir():
    """A fresh temporary directory under ``bench/.work``, removed afterwards."""
    parent = HERE / ".work"
    parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()  # only when no other run is using it


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args, passes_note: dict) -> dict:
    workload = WORKLOADS[args.workload]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "scenarios": workload.scenarios or None,
        "threads": workload.threads if workload.scenarios else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        **passes_note,
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="beamspace benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Unwind on SIGTERM too, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    missing = [p for p in (ROOT / "src" / "beamspace" / "cli.py", HAND_CONFIG) if not p.is_file()]
    if missing:
        print(f"error: not a beamspace checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        with work_dir() as work:
            runner = Runner(work, deadline)
            rx = receive_angles(args.seed)
            ref_dir = None
            if WORKLOADS[args.workload].patterns or args.trace:
                ref_dir = prepare(runner, work, args.seed, rx)
            measure = measure_layers if args.trace else measure_end_to_end
            metrics = measure(runner, args.workload, args.seed, args.seconds, rx, ref_dir)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for message in runner.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"environment": environment(args, {
        "rx_deg": rx, "failures": runner.failures[:5], "samples": runner.samples})}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
