"""Built-in verification battery behind the ``selftest`` subcommand.

Each criterion is deterministic (fixed seeds), checks a contract of the
simulator at an explicit tolerance, and reports one pass/fail line.  The
EVM check compares against a brute-force re-implementation that shares no
code with the production path.
"""

from __future__ import annotations

import cmath
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .iokit import load_cdf_csv, load_pattern_csv, save_cdf_csv, save_pattern_csv
from .link import (
    build_channel,
    cdf_summary,
    constellation_at_angle,
    draw_geometries,
    received_constellation,
    run_monte_carlo,
)
from .modulation import PskConstellation
from .patterns import (
    GaussianLobe,
    PerturbationLobe,
    StatePatternSet,
    apply_perturbation,
    basis_correlation_db,
    default_mirror_profile,
    evm_at_angle,
    evm_map,
    example_perturbation,
    generate_mirror_pair,
    generate_perturbation,
    perturbed_basis,
    power_imbalance_db,
)
from .sphere import FOUR_PI, VectorPattern, build_grid, integrate_power

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _random_profile(rng: np.random.Generator) -> tuple[GaussianLobe, ...]:
    """Random 1-3 lobe mixed-polarization antenna profile."""
    lobes = []
    for _ in range(int(rng.integers(1, 4))):
        pol = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pol /= np.linalg.norm(pol)
        lobes.append(
            GaussianLobe(
                theta=float(rng.uniform(0.2, np.pi - 0.2)),
                phi=float(rng.uniform(0.0, 2.0 * np.pi)),
                width=float(rng.uniform(np.deg2rad(20.0), np.deg2rad(55.0))),
                amplitude=float(rng.uniform(0.5, 1.5)),
                phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                polarization=(complex(pol[0]), complex(pol[1])),
            )
        )
    return tuple(lobes)


def criterion_free_space_exactness() -> CriterionResult:
    """Identity perturbation: exact recovery and an identically zero EVM map."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    grid = build_grid(91, 180)
    con = PskConstellation.qpsk()
    worst_decode = 0.0
    worst_evm = 0.0
    for _ in range(100):
        states = generate_mirror_pair(_random_profile(rng), grid, con.ratio_set)
        basis = perturbed_basis(states)
        emap = evm_map(basis, states, con.ratio_set)
        worst_evm = max(worst_evm, float(np.max(emap.evm.values)))
        # one receive pair drawn like the Monte-Carlo sweep: rows (theta, phi)
        scenario = build_channel(basis, np.hstack(draw_geometries(rng, 1)), con)
        for p in received_constellation(states, scenario):
            worst_decode = max(worst_decode, abs(p.actual - p.ideal))
    elapsed = time.perf_counter() - start
    passed = worst_decode <= 1e-10 and worst_evm <= 1e-12 and elapsed < 10.0
    return CriterionResult(
        "free-space-exactness",
        passed,
        f"max decode error {worst_decode:.2e} (<=1e-10), max EVM {worst_evm:.2e} "
        f"(<=1e-12) over 100 profiles x all 16 pairs, {elapsed:.1f} s (<10 s)",
    )


def _random_asymmetric_perturbation(rng: np.random.Generator) -> tuple[PerturbationLobe, ...]:
    """Broad lobes hitting only the +-j states, visible at any angle."""
    lobes = []
    for k in (1, 3):
        lobes.append(
            PerturbationLobe(
                theta=float(rng.uniform(0.3, np.pi - 0.3)),
                phi=float(rng.uniform(0.0, 2.0 * np.pi)),
                width=float(rng.uniform(np.deg2rad(60.0), np.deg2rad(90.0))),
                amplitude=float(rng.uniform(0.25, 0.6)),
                phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                states=(k,),
            )
        )
    return tuple(lobes)


def _cluster_count(values: list[complex], tol: float) -> int:
    clusters: list[complex] = []
    for v in values:
        if not any(abs(v - c) <= tol for c in clusters):
            clusters.append(v)
    return len(clusters)


def criterion_dichotomy() -> CriterionResult:
    """+-1 pairs decode exactly; +-j pairs are displaced with 3 clusters per symbol."""
    rng = np.random.default_rng(1002)
    grid = build_grid(91, 180)
    con = PskConstellation.qpsk()
    states0 = generate_mirror_pair(default_mirror_profile(), grid, con.ratio_set)
    rx1 = (np.deg2rad(45.0), np.deg2rad(294.0))
    rx2 = (np.deg2rad(45.0), np.deg2rad(298.0))
    worst_pm1 = 0.0
    min_best_j = np.inf
    clusters_ok = True
    for _ in range(20):
        psi = generate_perturbation(_random_asymmetric_perturbation(rng), grid,
                                    con.ratio_set)
        s_hat = apply_perturbation(states0, psi)
        b_hat = perturbed_basis(s_hat)
        scenario = build_channel(b_hat, (rx1, rx2), con)
        best_j = 0.0
        for p in received_constellation(s_hat, scenario):
            error = abs(p.actual - p.ideal)
            if (p.k2 - p.k1) % con.order in (0, 2):
                worst_pm1 = max(worst_pm1, error)
            else:
                best_j = max(best_j, error)
        min_best_j = min(min_best_j, best_j)
        tx = constellation_at_angle(b_hat, s_hat, con, rx1[0], rx1[1])
        for stream in (1, 2):
            for sym in range(4):
                pts = [p.actual for p in tx
                       if p.stream == stream and (p.k1 if stream == 1 else p.k2) == sym]
                if _cluster_count(pts, 1e-6) != 3:
                    clusters_ok = False
    passed = worst_pm1 <= 1e-10 and min_best_j >= 1e-3 and clusters_ok
    return CriterionResult(
        "state-dichotomy",
        passed,
        f"max +-1 error {worst_pm1:.2e} (<=1e-10), min over runs of max +-j error "
        f"{min_best_j:.2e} (>=1e-3), 3-cluster structure {'ok' if clusters_ok else 'BROKEN'}",
    )


def criterion_common_factor() -> CriterionResult:
    """State-independent perturbation cancels out of the EVM entirely."""
    rng = np.random.default_rng(1003)
    grid = build_grid(91, 180)
    con = PskConstellation.qpsk()
    states0 = generate_mirror_pair(default_mirror_profile(), grid, con.ratio_set)
    worst = 0.0
    for _ in range(20):
        lobes = []
        for _ in range(int(rng.integers(1, 3))):
            lobes.append(
                PerturbationLobe(
                    theta=float(rng.uniform(0.2, np.pi - 0.2)),
                    phi=float(rng.uniform(0.0, 2.0 * np.pi)),
                    width=float(rng.uniform(np.deg2rad(25.0), np.deg2rad(80.0))),
                    amplitude=float(rng.uniform(-0.5, 0.8)),
                    phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                    states=None,
                    polarization=str(rng.choice(["both", "theta", "phi"])),
                )
            )
        psi = generate_perturbation(lobes, grid, con.ratio_set)
        s_hat = apply_perturbation(states0, psi)
        emap = evm_map(perturbed_basis(s_hat), s_hat, con.ratio_set)
        worst = max(worst, float(np.max(emap.evm.values)))
    passed = worst <= 1e-10
    return CriterionResult(
        "common-factor-cancellation",
        passed,
        f"max EVM {worst:.2e} (<=1e-10) over 20 state-independent perturbations",
    )


def criterion_mirror_orthogonality() -> CriterionResult:
    """Mirror-pair bases decorrelate; the default profile hits its imbalance band."""
    rng = np.random.default_rng(1004)
    grid = build_grid(91, 180)
    con = PskConstellation.qpsk()
    worst_corr = -np.inf
    for _ in range(30):
        states = generate_mirror_pair(_random_profile(rng), grid, con.ratio_set)
        corr = basis_correlation_db(perturbed_basis(states))
        worst_corr = max(worst_corr, corr)
    default_states = generate_mirror_pair(default_mirror_profile(), grid, con.ratio_set)
    imb = power_imbalance_db(perturbed_basis(default_states))
    passed = worst_corr <= -100.0 and abs(imb - 0.8) <= 0.2
    return CriterionResult(
        "mirror-orthogonality",
        passed,
        f"worst correlation {worst_corr:.1f} dB (<=-100), default imbalance "
        f"{imb:.3f} dB (0.8 +- 0.2)",
    )


def _evm_brute_force(basis_hat, s_hat, ratios, i, j) -> float:
    """Independent scalar re-implementation of the EVM definition."""
    num = 0.0
    den = 0.0
    for k in range(ratios.order):
        xbar = ratios.values[k]
        e = s_hat.state(k)
        for comp in ("e_theta", "e_phi"):
            b1 = getattr(basis_hat.b1, comp)[i, j]
            b2 = getattr(basis_hat.b2, comp)[i, j]
            ideal = b1 + xbar * b2
            num += abs(ideal - getattr(e, comp)[i, j]) ** 2
            den += abs(ideal) ** 2
    return cmath.sqrt(num / den).real


def criterion_evm_oracle() -> CriterionResult:
    """Production EVM matches a brute-force evaluation to 1e-12 relative."""
    rng = np.random.default_rng(1005)
    grid = build_grid(5, 8)
    con = PskConstellation.qpsk()
    worst = 0.0
    for _ in range(50):
        patterns = {
            k: VectorPattern(
                grid=grid,
                e_theta=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
                e_phi=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
            )
            for k in range(4)
        }
        s_hat = StatePatternSet(ratios=con.ratio_set, patterns=patterns)
        b_hat = perturbed_basis(s_hat)
        for i in range(grid.n_theta):
            for j in range(grid.n_phi):
                got = evm_at_angle(b_hat, s_hat, con.ratio_set, (i, j))
                want = _evm_brute_force(b_hat, s_hat, con.ratio_set, i, j)
                worst = max(worst, abs(got - want) / abs(want))
    passed = worst <= 1e-12
    return CriterionResult(
        "evm-oracle-equivalence",
        passed,
        f"max relative deviation {worst:.2e} (<=1e-12) over 50 random 5x8 inputs "
        "at every grid node",
    )


def criterion_quadrature() -> CriterionResult:
    """Weight total and the analytic cos^2 integral on the default grid."""
    grid = build_grid(91, 180)
    total_err = abs(float(np.sum(grid.weights)) - FOUR_PI) / FOUR_PI
    field = VectorPattern(
        grid=grid,
        e_theta=np.cos(grid.theta)[:, None] * np.ones((1, grid.n_phi)),
        e_phi=np.zeros(grid.shape),
    )
    cos2 = integrate_power(field)
    cos2_err = abs(cos2 - FOUR_PI / 3.0) / (FOUR_PI / 3.0)
    passed = total_err <= 1e-9 and cos2_err <= 1e-4
    return CriterionResult(
        "quadrature",
        passed,
        f"weight total off by {total_err:.2e} rel (<=1e-9), cos^2 integral off by "
        f"{cos2_err:.2e} rel (<=1e-4)",
    )


def criterion_monte_carlo_contract() -> CriterionResult:
    """Reproducibility across runs and worker counts, speed, CDF sanity, stream order."""
    grid = build_grid(91, 180)
    con = PskConstellation.qpsk()
    states0 = generate_mirror_pair(default_mirror_profile(), grid, con.ratio_set)
    psi = generate_perturbation(example_perturbation(), grid, con.ratio_set)
    s_hat = apply_perturbation(states0, psi)
    b_hat = perturbed_basis(s_hat)

    start = time.perf_counter()
    runs = [
        run_monte_carlo(s_hat, b_hat, con, n_scenarios=10_000,
                        separation_deg=(3.0, 5.0), seed=42, threads=t)
        for t in (1, 1, 2, 8)
    ]
    elapsed = time.perf_counter() - start

    identical = all(
        np.array_equal(runs[0].stream_errors[s], r.stream_errors[s])
        for r in runs[1:]
        for s in (0, 1)
    )
    cdf_ok = True
    for s in (1, 2):
        errors, probs = runs[0].cdf(s)
        cdf_ok &= bool(np.all(np.diff(errors) >= 0))
        cdf_ok &= bool(np.all((probs > 0) & (probs <= 1.0)))
        cdf_ok &= bool(np.all(np.diff(probs) > 0))
    s1, s2 = runs[0].summaries()
    stream_order = all(
        s2.quantiles[p] >= s1.quantiles[p] for p in (50.0, 75.0, 95.0, 99.0)
    )
    passed = identical and cdf_ok and stream_order and elapsed < 60.0
    return CriterionResult(
        "monte-carlo-contract",
        passed,
        f"bitwise identical across 1/1/2/8 workers: {identical}; CDFs monotone in "
        f"[0,1]: {cdf_ok}; stream2 at or right of stream1 from the median up "
        f"(medians {s2.quantiles[50.0]:.3e} vs {s1.quantiles[50.0]:.3e}): "
        f"{stream_order}; 4x10k scenarios in {elapsed:.1f} s (<60 s)",
    )


def criterion_io_round_trip() -> CriterionResult:
    """Pattern and CDF writers/readers are lossless at double precision."""
    rng = np.random.default_rng(1008)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        ok = True
        for trial in range(20):
            grid = build_grid(int(rng.integers(3, 12)), int(rng.integers(4, 16)))
            pattern = VectorPattern(
                grid=grid,
                e_theta=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
                e_phi=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
            )
            path = base / f"pattern_{trial}.csv"
            save_pattern_csv(pattern, path, state="+1")
            loaded = load_pattern_csv(path)
            ok &= bool(np.array_equal(loaded.e_theta, pattern.e_theta))
            ok &= bool(np.array_equal(loaded.e_phi, pattern.e_phi))
            ok &= loaded.grid.shape == grid.shape

            errors = np.sort(rng.exponential(0.1, size=int(rng.integers(5, 200))))
            probs = np.arange(1, errors.size + 1) / errors.size
            cpath = base / f"cdf_{trial}.csv"
            save_cdf_csv(cpath, errors, probs)
            re_err, re_probs = load_cdf_csv(cpath)
            ok &= bool(np.array_equal(re_err, errors))
            ok &= bool(np.array_equal(re_probs, probs))
            ok &= cdf_summary(re_err).quantiles == cdf_summary(errors).quantiles
    passed = bool(ok)
    return CriterionResult(
        "io-round-trip",
        passed,
        "20 random pattern and CDF instances reload bitwise"
        if passed else "round trip lost precision",
    )


CRITERIA = (
    criterion_free_space_exactness,
    criterion_dichotomy,
    criterion_common_factor,
    criterion_mirror_orthogonality,
    criterion_evm_oracle,
    criterion_quadrature,
    criterion_monte_carlo_contract,
    criterion_io_round_trip,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]
