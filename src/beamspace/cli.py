"""Batch command-line surface: metrics, evm-map, constellation, monte-carlo, selftest.

Every subcommand is a pure function of (config, seed); re-runs reproduce
output files byte for byte.  Exit codes: 0 success, 1 degenerate
computation (a ``DegenerateError``: a degenerate basis, angle or channel;
or every Monte-Carlo scenario rejected), 2 invalid input (an
``InvalidArgumentError``) or a missing file.  Only ``constellation``,
``monte-carlo`` and ``selftest`` import ``link``, and only when they run,
so the other commands start without it.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import BeamspaceError, DegenerateError, require_state_samples
from .iokit import (
    RunConfig,
    load_config,
    load_pattern_csv,
    save_constellation_csv,
    save_metrics_json,
    save_results,
)
from .modulation import PskConstellation
from .patterns import (
    StatePatternSet,
    _basis,
    _mirror_states,
    _perturbed,
    basis_correlation_db,
    default_mirror_profile,
    evm_map,
    generate_perturbation,
    perturbed_basis,
    power_imbalance_db,
)
from .sphere import POLARIZATIONS, build_grid, integrate_power, require_same_grid


@dataclass(frozen=True)
class Assembly:
    """Domain objects of one run configuration; ``free_space``, for ``metrics`` only, is what
    it reads of the free states: their powers by ratio index and their basis's metrics."""

    constellation: PskConstellation
    perturbed_states: StatePatternSet
    free_space: dict | None = None


def _free_states(cfg: RunConfig, ratios):
    """Each free state as (ratio index, pattern), made or read when the previous is taken."""
    if cfg.pattern_files is None:
        lobes = cfg.antenna_lobes if cfg.antenna_lobes is not None else default_mirror_profile()
        yield from _mirror_states(lobes, build_grid(cfg.n_theta, cfg.n_phi), ratios)
        return
    for k, path in cfg.pattern_files.items():
        state = load_pattern_csv(path)
        if k == 0:  # the files' grid, counted before the rest are read
            require_state_samples(ratios.order, *state.grid.shape, f"the grid of {path}")
        yield k, state
        del state


def _assemble(cfg: RunConfig, free_space: bool = False) -> Assembly:
    """The perturbed states, each free state multiplied by its factors as it is made and
    then dropped; with ``free_space``, what ``metrics`` reads of the free states on the way."""
    constellation = PskConstellation(cfg.constellation_order, cfg.constellation_offset)
    ratios = constellation.ratio_set
    perturbed, power, measured = {}, {}, {}
    for k, state in _free_states(cfg, ratios):
        if not perturbed:
            grid = state.grid
            factors = generate_perturbation(cfg.perturbation_lobes, grid, ratios)
        require_same_grid(grid, state.grid)
        if free_space:
            power[k] = integrate_power(state)
        perturbed[k] = _perturbed(state, factors[k])
        if free_space and k == 0:
            plus = state  # the free +1 state, held until the -1 state is made
        elif free_space and 2 * k == ratios.order:  # the -1 state: measure the free basis
            basis = _basis(plus, state)
            measured = {"basis_correlation_db": basis_correlation_db(basis),
                        "power_imbalance_db": power_imbalance_db(basis)}
            del plus, basis
        del state
    return Assembly(constellation=constellation,
                    perturbed_states=StatePatternSet(ratios=ratios, patterns=perturbed),
                    free_space={"power": power, **measured} if free_space else None)


def _rx_polarizations(cfg: RunConfig):
    return (POLARIZATIONS[cfg.rx_polarization],) * 2


def _load_config_with_overrides(args) -> RunConfig:
    """The config with each flag whose ``dest`` is a key path written over its key."""
    overrides = [(key, value) for key, value in vars(args).items()
                 if "." in key and value is not None]
    cfg = load_config(args.config, overrides)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=Path(args.out))
    return cfg


def cmd_metrics(args) -> int:
    cfg = _load_config_with_overrides(args)
    asm = _assemble(cfg, free_space=True)
    emap = evm_map(asm.perturbed_states)
    basis, free = perturbed_basis(asm.perturbed_states), asm.free_space
    ratios = asm.constellation.ratio_set
    state_power_ratio = {
        ratios.label(k): integrate_power(asm.perturbed_states.state(k)) / free["power"][k]
        for k in range(ratios.order)
    }
    metrics = {
        "basis_correlation_db": basis_correlation_db(basis),
        "power_imbalance_db": power_imbalance_db(basis),
        "free_space": {
            "basis_correlation_db": free["basis_correlation_db"],
            "power_imbalance_db": free["power_imbalance_db"],
        },
        "state_power_ratio": state_power_ratio,
        "average_evm_db": emap.average(),
        "evm_masked_fraction": emap.masked_fraction(),
        "grid": {"n_theta": asm.perturbed_states.grid.n_theta,
                 "n_phi": asm.perturbed_states.grid.n_phi},
        "constellation_order": asm.constellation.order,
    }
    written = save_results(cfg.out_dir, metrics=metrics)
    print(f"metrics written to {written['metrics']}")
    print(f"basis correlation: {metrics['basis_correlation_db']} dB")
    print(f"power imbalance:   {metrics['power_imbalance_db']} dB")
    return 0


def cmd_evm_map(args) -> int:
    cfg = _load_config_with_overrides(args)
    asm = _assemble(cfg)
    emap = evm_map(asm.perturbed_states)
    avg = emap.average()
    written = save_results(cfg.out_dir, evm=emap)
    print(f"evm map written to {written['evm_map']}")
    print(
        f"average EVM: {avg['db_of_rms']} dB (rms), "
        f"{avg['db_of_mean']} dB (mean), "
        f"{avg['mean_of_db']} dB (mean of dB)"
    )
    print(f"masked fraction: {emap.masked_fraction()}")
    return 0


def cmd_constellation(args) -> int:
    from .link import build_channel, constellation_at_angle, received_constellation

    cfg = _load_config_with_overrides(args)
    asm = _assemble(cfg)
    tx = constellation_at_angle(asm.perturbed_states, asm.constellation, *cfg.rx1,
                                condition_cap=cfg.condition_cap)
    scenario = build_channel(asm.perturbed_states, (cfg.rx1, cfg.rx2), asm.constellation,
                             rx_polarizations=_rx_polarizations(cfg))
    del asm  # the states go before the pairs are made and tabled
    rx = received_constellation(scenario, condition_cap=cfg.condition_cap)
    path = save_constellation_csv(cfg.out_dir / "constellation.csv", tx, rx)
    print(f"constellation written to {path} ({rx.k1.size} pairs per side)")
    print(f"channel condition number: {scenario.condition_number!r}")
    return 0


def cmd_monte_carlo(args) -> int:
    start = time.perf_counter()
    from .link import SKETCH_ALPHA, run_monte_carlo

    cfg = _load_config_with_overrides(args)
    asm = _assemble(cfg)
    mc = run_monte_carlo(
        asm.perturbed_states,
        perturbed_basis(asm.perturbed_states),
        asm.constellation,
        n_scenarios=cfg.scenarios,
        separation_deg=cfg.separation_deg,
        seed=cfg.seed,
        threads=cfg.threads,
        rx_polarizations=_rx_polarizations(cfg),
        condition_cap=cfg.condition_cap,
    )
    if mc.n_rejected == mc.n_scenarios:
        print("all scenarios were rejected as ill-conditioned", file=sys.stderr)
        return 1
    s1, s2 = mc.summaries()
    ratios = asm.constellation.ratio_set
    report = {
        "scenarios": mc.n_scenarios,
        "rejected": mc.n_rejected,
        "condition_number": {"quantiles": mc.conditions.summary().quantiles,
                             "min": float(mc.conditions.minimum),
                             "max": float(mc.conditions.maximum)},
        "seed": mc.seed,
        "separation_deg": list(mc.separation_deg),
        "sketch_alpha": SKETCH_ALPHA,  # every quantile's relative accuracy
        "stream1": {"quantiles": s1.quantiles, "exceedance": s1.exceedance},
        "stream2": {"quantiles": s2.quantiles, "exceedance": s2.exceedance},
        "ratio_quantiles": {
            f"stream{s + 1}": {ratios.label(k): mc.errors[s][k].summary().quantiles
                               for k in range(ratios.order)}
            for s in (0, 1)},
    }
    written = save_results(cfg.out_dir, mc=mc)
    report["seconds"] = elapsed = time.perf_counter() - start
    report_path = save_metrics_json(report, cfg.out_dir / "mc_report.json")
    print(f"cdfs written to {written['cdf_stream1']} and {written['cdf_stream2']}")
    print(f"report written to {report_path}")
    print(
        f"{mc.n_scenarios} scenarios ({mc.n_rejected} rejected) in {elapsed:.2f} s; "
        f"median error stream1={s1.quantiles[50.0]!r} stream2={s2.quantiles[50.0]!r}"
    )
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamspace",
        description="Beam-space MIMO link simulator under angular near-field perturbation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to config.json")
        p.add_argument("--seed", type=int, dest="monte_carlo.seed", metavar="N",
                       help="override monte_carlo.seed")
        p.add_argument("--out", help="output directory, relative to the working directory")
        p.add_argument("--threads", type=int, dest="monte_carlo.threads", metavar="N",
                       help="override monte_carlo.threads (checked; a sweep runs on one thread)")

    p = sub.add_parser("metrics", help="basis correlation/imbalance and state power ratios")
    add_common(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("evm-map", help="angular EVM map and its uniform average")
    add_common(p)
    p.set_defaults(func=cmd_evm_map)

    p = sub.add_parser("constellation", help="transmit- and receive-side I/Q points")
    add_common(p)
    for key in ("rx1.theta", "rx1.phi", "rx2.theta", "rx2.phi"):
        p.add_argument("--" + key.replace(".", "-"), type=float, dest=f"receive.{key}_deg",
                       metavar="DEG", help=f"override receive.{key}_deg")
    p.set_defaults(func=cmd_constellation)

    p = sub.add_parser("monte-carlo", help="seeded sweep producing per-stream error CDFs")
    add_common(p)
    p.add_argument("--scenarios", type=int, dest="monte_carlo.scenarios", metavar="N",
                   help="override monte_carlo.scenarios")
    p.set_defaults(func=cmd_monte_carlo)

    p = sub.add_parser("selftest", help="run the built-in verification suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    # The final collections at exit walk every tracked object and free none (the OS takes
    # the memory back), so exit freezes the heap first; one handler, however many calls.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateError as exc:
        print(f"degenerate computation: {exc}", file=sys.stderr)
        return 1
    except (BeamspaceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
