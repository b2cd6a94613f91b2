"""One benchmark operation, run in a fresh interpreter by ``bench/run.py``.

Usage (``PYTHONPATH`` must point at the checkout's ``src``)::

    python3 bench/child.py [--trace-out SPANS.json] OP [OP ARGS]

Operations:

``setup --config C``
    import ``beamspace.cli``, load the config and build the grid, state
    patterns, perturbation and bases (the cost every command pays first).
``mc --config C --scenarios N --threads T --seed S --out SUMMARY.json``
    the same set-up, then ``run_monte_carlo`` and ``summaries()``; the
    summary is written in the layout of ``mc_report.json``.
``cli ARGV...``
    ``beamspace.cli.main(ARGV)``; exits with its return code.
``prepare --work W``
    write the hand scenario's four perturbed state patterns as pattern
    CSVs and a measured-pattern config ``W/pattern.json`` that uses them.
``probe --work W --seed S --rx RX1_THETA RX1_PHI RX2_THETA RX2_PHI``
    every layer at probe scale: an 8,192-scenario ``monte-carlo`` command,
    a direct sweep of the same size on one worker, and the three pattern
    commands on ``W/pattern.json``.  Only meaningful with ``--trace-out``.

With ``--trace-out`` the import of ``beamspace.cli`` is timed, and every
public function of ``sphere``, ``patterns``, ``link`` and ``iokit`` that
the per-layer metrics name is wrapped from outside with a timer.  Spans
(name, parent span, seconds, counts taken from return values and file
sizes) are kept in memory and written to SPANS.json when the operation
ends.  No program code is changed.

Only the standard library is imported before ``beamspace.cli``, so the
timed import includes numpy.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

HAND_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "hand_scenario.json"
PROBE_SCENARIOS = 8192  # two chunks, so the two-worker path runs
PATTERN_COMMANDS = ("metrics", "evm-map", "constellation")

# Public functions timed in a traced run, by module.
TRACED = {
    "sphere": ("build_grid", "integrate_power"),
    "patterns": (
        "generate_mirror_pair", "generate_perturbation", "apply_perturbation",
        "perturbed_basis", "evm_map", "basis_correlation_db", "power_imbalance_db",
    ),
    "link": (
        "run_monte_carlo", "build_channel", "constellation_at_angle",
        "received_constellation",
    ),
    "iokit": (
        "load_config", "load_pattern_csv", "save_cdf_csv", "save_results",
        "save_metrics_json",
    ),
}
WRITERS = ("iokit.save_cdf_csv", "iokit.save_results", "iokit.save_metrics_json")


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_load_pattern(fn, args, kwargs, result) -> dict:
    return {"rows": result.grid.n_theta * result.grid.n_phi}


def _count_save_cdf(fn, args, kwargs, result) -> dict:
    errors = _arguments(fn, args, kwargs)["errors"]
    return {"rows": len(errors), "bytes": os.path.getsize(result)}


def _count_save_results(fn, args, kwargs, result) -> dict:
    evm = _arguments(fn, args, kwargs).get("evm")
    return {"evm": evm is not None,
            "bytes": sum(os.path.getsize(p) for p in result.values())}


def _count_save_json(fn, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(result)}


def _count_monte_carlo(fn, args, kwargs, result) -> dict:
    errors = result.stream_errors
    return {
        "threads": int(_arguments(fn, args, kwargs)["threads"]),
        "scenarios": int(result.n_scenarios),
        "rejected": int(result.n_rejected),
        "samples": int(sum(e.size for e in errors)),
        "result_bytes": int(sum(e.nbytes for e in errors)),
    }


COUNTS = {
    "iokit.load_pattern_csv": _count_load_pattern,
    "iokit.save_cdf_csv": _count_save_cdf,
    "iokit.save_results": _count_save_results,
    "iokit.save_metrics_json": _count_save_json,
    "link.run_monte_carlo": _count_monte_carlo,
}


class Tracer:
    """Spans recorded around calls into the package, kept in memory."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._local = threading.local()

    def _stack(self) -> list[str]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def record(self, name: str, seconds: float) -> None:
        self.records.append({"name": name, "parent": None, "s": seconds})

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
            rec = {"name": name, "parent": parent, "s": seconds}
            if count is not None:
                rec.update(count(fn, args, kwargs, result))
            if name in WRITERS and parent in WRITERS:
                rec.pop("bytes", None)  # counted by the enclosing writer
            self.records.append(rec)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each traced function in every beamspace module that binds it."""
        import beamspace.link

        modules = [m for n, m in sys.modules.items()
                   if n == "beamspace" or n.startswith("beamspace.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"beamspace.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapped)
        result_cls = beamspace.link.MonteCarloResult
        result_cls.summaries = self.wrap("link.summaries", result_cls.summaries)
        cli = sys.modules["beamspace.cli"]
        cli.main = self.wrap("cli.command", cli.main)


def assemble(config):
    """Config, constellation, perturbed states and basis, via public functions."""
    import beamspace as bs

    cfg = bs.load_config(config)
    constellation = bs.PskConstellation(cfg.constellation_order, cfg.constellation_offset)
    ratios = constellation.ratio_set
    if cfg.pattern_files is not None:
        patterns = {k: bs.load_pattern_csv(p) for k, p in cfg.pattern_files.items()}
        free = bs.StatePatternSet(ratios=ratios, patterns=patterns)
        grid = free.grid
    else:
        grid = bs.build_grid(cfg.n_theta, cfg.n_phi)
        lobes = cfg.antenna_lobes if cfg.antenna_lobes is not None else bs.default_mirror_profile()
        free = bs.generate_mirror_pair(lobes, grid, ratios)
    psi = bs.generate_perturbation(cfg.perturbation_lobes, grid, ratios)
    states = bs.apply_perturbation(free, psi)
    return cfg, constellation, states, bs.perturbed_basis(states)


def _summary_json(mc) -> dict:
    """The tallies and per-stream tables of ``mc_report.json``."""
    s1, s2 = mc.summaries()
    return {
        "scenarios": mc.n_scenarios,
        "rejected": mc.n_rejected,
        "seed": mc.seed,
        "stream1": {"quantiles": {str(k): v for k, v in s1.quantiles.items()},
                    "exceedance": {str(k): v for k, v in s1.exceedance.items()}},
        "stream2": {"quantiles": {str(k): v for k, v in s2.quantiles.items()},
                    "exceedance": {str(k): v for k, v in s2.exceedance.items()}},
    }


def op_mc(config, scenarios: int, threads: int, seed: int, out: str | None) -> int:
    import beamspace as bs

    cfg, constellation, states, basis = assemble(config)
    mc = bs.run_monte_carlo(
        states, basis, constellation, n_scenarios=scenarios,
        separation_deg=cfg.separation_deg, seed=seed, threads=threads,
        condition_cap=cfg.condition_cap,
    )
    summary = _summary_json(mc)
    if out is not None:
        Path(out).write_text(json.dumps(summary))
    return 0


def op_prepare(work: Path) -> int:
    import beamspace as bs

    _, _, states, _ = assemble(HAND_CONFIG)
    hand = json.loads(HAND_CONFIG.read_text())
    files = {}
    for k in range(states.ratios.order):
        label = states.ratios.label(k)
        name = f"state_{k}.csv"
        bs.save_pattern_csv(states.state(k), work / name, state=label)
        files[label] = name
    config = {
        "grid": hand["grid"],
        "constellation": hand["constellation"],
        "antenna": {"pattern_files": files},
        "perturbation": {"lobes": []},
        "receive": hand["receive"],
        "monte_carlo": hand["monte_carlo"],
        "output": {"dir": "out"},
    }
    (work / "pattern.json").write_text(json.dumps(config, indent=2))
    return 0


def rx_flags(rx: list[str]) -> list[str]:
    """``constellation`` flags for two receive directions given as four degree strings."""
    return ["--rx1-theta", rx[0], "--rx1-phi", rx[1], "--rx2-theta", rx[2], "--rx2-phi", rx[3]]


def op_probe(work: Path, seed: int, rx: list[str]) -> int:
    import beamspace.cli as cli

    seed_arg = ["--seed", str(seed)]
    status = cli.main(["monte-carlo", "--config", str(HAND_CONFIG), "--threads", "2",
                       "--scenarios", str(PROBE_SCENARIOS), "--out", str(work / "probe_mc")]
                      + seed_arg)
    status |= op_mc(HAND_CONFIG, PROBE_SCENARIOS, 1, seed, None)
    for command in PATTERN_COMMANDS:
        argv = [command, "--config", str(work / "pattern.json"),
                "--out", str(work / "probe_pa")] + seed_arg
        status |= cli.main(argv + rx_flags(rx) if command == "constellation" else argv)
    return status


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", help="write spans of this operation here")
    ops = parser.add_subparsers(dest="op", required=True)
    p = ops.add_parser("setup")
    p.add_argument("--config", required=True)
    p = ops.add_parser("mc")
    p.add_argument("--config", required=True)
    p.add_argument("--scenarios", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p = ops.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = ops.add_parser("prepare")
    p.add_argument("--work", type=Path, required=True)
    p = ops.add_parser("probe")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rx", nargs=4, required=True)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    tracer = Tracer() if args.trace_out else None
    start = time.perf_counter()
    import beamspace.cli

    if tracer is not None:
        tracer.record("cli.import", time.perf_counter() - start)
        tracer.install()
    try:
        if args.op == "setup":
            assemble(args.config)
            return 0
        if args.op == "mc":
            return op_mc(args.config, args.scenarios, args.threads, args.seed, args.out)
        if args.op == "cli":
            return beamspace.cli.main(args.argv)
        if args.op == "prepare":
            return op_prepare(args.work)
        return op_probe(args.work, args.seed, args.rx)
    finally:
        if tracer is not None:
            Path(args.trace_out).write_text(json.dumps(tracer.records))


if __name__ == "__main__":
    raise SystemExit(main())
