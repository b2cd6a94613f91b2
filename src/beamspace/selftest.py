"""Built-in verification battery behind the ``selftest`` subcommand.

Each criterion is deterministic (fixed seeds), checks a contract of the
simulator at an explicit tolerance, and reports one pass/fail line.  The
EVM check compares ``evm_map`` at every node against a brute-force
re-implementation that shares no code with it.
"""

from __future__ import annotations

import cmath
import dataclasses
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import link
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


def _random_lobe(rng: np.random.Generator, cls, margin, width_deg, amplitude, **fixed):
    """A ``cls`` lobe drawn uniformly: theta at least ``margin`` from the poles, any phi,
    width (degrees) and amplitude in the given ranges, any phase."""
    return cls(theta=float(rng.uniform(margin, np.pi - margin)),
               phi=float(rng.uniform(0.0, 2.0 * np.pi)),
               width=float(rng.uniform(*np.deg2rad(width_deg))),
               amplitude=float(rng.uniform(*amplitude)),
               phase=float(rng.uniform(0.0, 2.0 * np.pi)), **fixed)


def _unit_polarization(rng: np.random.Generator) -> tuple[complex, complex]:
    pol = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    pol /= np.linalg.norm(pol)
    return (complex(pol[0]), complex(pol[1]))


def _random_profile(rng: np.random.Generator) -> tuple[GaussianLobe, ...]:
    """Random 1-3 lobe mixed-polarization antenna profile."""
    return tuple(_random_lobe(rng, GaussianLobe, 0.2, (20.0, 55.0), (0.5, 1.5),
                              polarization=_unit_polarization(rng))
                 for _ in range(int(rng.integers(1, 4))))


def _random_pattern(rng: np.random.Generator, grid) -> VectorPattern:
    def component():
        return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return VectorPattern(grid=grid, e_theta=component(), e_phi=component())


def _qpsk_states(lobes=None, perturbation=()):
    """QPSK, and on the default 91x180 grid the states of antenna ``lobes`` (default:
    the default profile) under the ``perturbation`` lobes, and their basis."""
    con = PskConstellation.qpsk()
    grid = build_grid(91, 180)
    free = generate_mirror_pair(lobes or default_mirror_profile(), grid, con.ratio_set)
    s_hat = apply_perturbation(free, generate_perturbation(perturbation, grid, con.ratio_set))
    return con, s_hat, perturbed_basis(s_hat)


def criterion_free_space_exactness() -> CriterionResult:
    """Identity perturbation: exact recovery and an identically zero EVM map."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_decode = 0.0
    worst_evm = 0.0
    for _ in range(100):
        con, states, basis = _qpsk_states(_random_profile(rng))
        emap = evm_map(basis, states)
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


def _cluster_count(values: list[complex], tol: float) -> int:
    clusters: list[complex] = []
    for v in values:
        if not any(abs(v - c) <= tol for c in clusters):
            clusters.append(v)
    return len(clusters)


def criterion_dichotomy() -> CriterionResult:
    """+-1 pairs decode exactly; +-j pairs are displaced with 3 clusters per symbol."""
    rng = np.random.default_rng(1002)
    rx1 = (np.deg2rad(45.0), np.deg2rad(294.0))
    rx2 = (np.deg2rad(45.0), np.deg2rad(298.0))
    worst_pm1 = 0.0
    min_best_j = np.inf
    clusters_ok = True
    for _ in range(20):
        # broad lobes hitting only the +-j states, visible at any angle
        con, s_hat, b_hat = _qpsk_states(perturbation=[
            _random_lobe(rng, PerturbationLobe, 0.3, (60.0, 90.0), (0.25, 0.6), states=(k,))
            for k in (1, 3)])
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
    worst = 0.0
    for _ in range(20):
        # every state; the polarization target is each lobe's last draw from the seed
        _, s_hat, b_hat = _qpsk_states(perturbation=[
            dataclasses.replace(_random_lobe(rng, PerturbationLobe, 0.2, (25.0, 80.0),
                                             (-0.5, 0.8)),
                                polarization=str(rng.choice(["both", "theta", "phi"])))
            for _ in range(int(rng.integers(1, 3)))])
        emap = evm_map(b_hat, s_hat)
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
    worst_corr = -np.inf
    for _ in range(30):
        worst_corr = max(worst_corr, basis_correlation_db(_qpsk_states(_random_profile(rng))[2]))
    imb = power_imbalance_db(_qpsk_states()[2])
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
    """The EVM map matches a brute-force evaluation at every node to 1e-12 relative."""
    rng = np.random.default_rng(1005)
    grid = build_grid(5, 8)
    con = PskConstellation.qpsk()
    worst = 0.0
    for _ in range(50):
        s_hat = StatePatternSet(ratios=con.ratio_set,
                                patterns={k: _random_pattern(rng, grid) for k in range(4)})
        b_hat = perturbed_basis(s_hat)
        emap = evm_map(b_hat, s_hat)
        for i in range(grid.n_theta):
            for j in range(grid.n_phi):
                got = emap.evm.values[i, j]
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
    con, s_hat, b_hat = _qpsk_states(perturbation=example_perturbation())
    # enough scenarios for two workers' shares, so threads 2 and 8 start a
    # pool wherever two CPUs are free
    n = 2 * link._SCENARIOS_PER_WORKER + 1
    start = time.perf_counter()
    runs = [
        run_monte_carlo(s_hat, b_hat, con, n_scenarios=n,
                        separation_deg=(3.0, 5.0), seed=42, threads=t)
        for t in (1, 1, 2, 8)
    ]
    elapsed = time.perf_counter() - start

    sketches = [{**link._sketch_arrays("error_", r.errors),
                 **link._sketch_arrays("condition_", r.conditions)} for r in runs]
    identical = all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for other in sketches[1:]
        for a, b in zip(sketches[0].values(), other.values())
    )
    workers = min(8, link._cpu_count(), n // link._SCENARIOS_PER_WORKER)
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
        f"sketches bitwise identical at threads 1/1/2/8 (up to {workers} workers): "
        f"{identical}; CDFs monotone in [0,1]: {cdf_ok}; stream2 at or right of "
        f"stream1 from the median up (medians {s2.quantiles[50.0]:.3e} vs "
        f"{s1.quantiles[50.0]:.3e}): {stream_order}; 4x{n:,} scenarios in "
        f"{elapsed:.1f} s (<60 s)",
    )


def criterion_io_round_trip() -> CriterionResult:
    """Pattern and CDF writers/readers are lossless at double precision."""
    rng = np.random.default_rng(1008)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        ok = True
        for trial in range(20):
            grid = build_grid(int(rng.integers(3, 12)), int(rng.integers(4, 16)))
            pattern = _random_pattern(rng, grid)
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
