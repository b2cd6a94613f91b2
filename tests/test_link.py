import dataclasses
import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamspace import (
    AngleOutOfRangeError,
    BasisPair,
    CdfSummary,
    InvalidArgumentError,
    PerturbationLobe,
    PskConstellation,
    RatioSetMismatchError,
    SingularChannelError,
    StatePatternSet,
    UndefinedRatioError,
    VectorPattern,
    apply_perturbation,
    build_channel,
    build_grid,
    cdf_summary,
    constellation_at_angle,
    default_mirror_profile,
    draw_geometries,
    generate_mirror_pair,
    generate_perturbation,
    great_circle_distance,
    great_circle_offset,
    link,
    load_cdf_csv,
    load_config,
    perturbed_basis,
    received_constellation,
    run_monte_carlo,
    save_results,
)
from beamspace.cli import _assemble
from beamspace.link import DEFAULT_CONDITION_CAP, PHI_POL, SKETCH_ALPHA, THETA_POL, Sketch
from helpers import (
    reference_condition_2x2,
    reference_responses,
    reference_zf_gains,
    sample_pattern,
    transmit_and_receive,
    upfront_errors,
    upfront_sweep,
    zero_pattern,
    zf_equalize,
)

QPSK = PskConstellation.qpsk()
RATIOS = QPSK.ratio_set
D = np.deg2rad


@pytest.fixture(scope="module")
def grid():
    return build_grid(91, 180)


@pytest.fixture(scope="module")
def free_states(grid):
    return generate_mirror_pair(default_mirror_profile(), grid, RATIOS)


@pytest.fixture(scope="module")
def free_basis(free_states):
    return perturbed_basis(free_states)


@pytest.fixture(scope="module")
def hand_states(grid, free_states):
    psi = generate_perturbation(
        [PerturbationLobe(theta=D(60), phi=D(310), width=D(65), amplitude=0.4,
                          phase=D(100), states=(1,)),
         PerturbationLobe(theta=D(100), phi=D(200), width=D(70), amplitude=0.3,
                          phase=D(-60), states=(3,))],
        grid, RATIOS)
    return apply_perturbation(free_states, psi)


@pytest.fixture(scope="module")
def hand_basis(hand_states):
    return perturbed_basis(hand_states)


RX1 = (D(45.0), D(294.0))
RX2 = (D(45.0), D(298.0))
# receive polarizations that sample theta only, phi only, both kinds, and
# complex (elliptical) mixtures of the two components
ELLIPTICAL = (np.array([1.0, 1.0j]) / np.sqrt(2.0), (np.cos(0.3), np.exp(0.7j) * np.sin(0.3)))
POLARIZATION_PAIRS = {"theta/theta": (THETA_POL, THETA_POL), "theta/phi": (THETA_POL, PHI_POL),
                      "phi/phi": (PHI_POL, PHI_POL), "elliptical": ELLIPTICAL}


def _mc_geometries(n, seed, separation_deg=(3.0, 5.0)):
    """Receive angles of the first ``n`` scenarios drawn by run_monte_carlo."""
    theta, phi = draw_geometries(np.random.default_rng(seed), n, separation_deg)
    return [((theta[0, s], phi[0, s]), (theta[1, s], phi[1, s])) for s in range(n)]


def _pair_errors_oracle(states, basis, con, geometries, pols=(THETA_POL, THETA_POL)):
    """Per-pair error magnitudes |x_hat - x| by transmit_and_receive + LAPACK.

    Returns one (scenario, k1, k2) array per stream.
    """
    m = con.order
    errors = np.empty((2, len(geometries), m, m))
    for s, angles in enumerate(geometries):
        scenario = build_channel(basis, angles, con, pols)
        for k1, x1 in enumerate(con.points):
            for k2, x2 in enumerate(con.points):
                y = transmit_and_receive(states, x1, x2, scenario)
                errors[:, s, k1, k2] = np.abs(zf_equalize(y, scenario) - [x1, x2])
    return errors


class TestBuildChannel:
    def test_zero_b2_is_flagged_singular(self, grid, free_basis):
        basis = BasisPair(b1=free_basis.b1, b2=zero_pattern(grid))
        scenario = build_channel(basis, (RX1, RX2), QPSK)
        assert np.all(scenario.channel[:, 1] == 0)
        assert scenario.singular
        with pytest.raises(SingularChannelError):
            zf_equalize(np.array([1.0, 1.0j]), scenario)

    def test_received_constellation_rejects_above_cap(self, grid, free_states, free_basis):
        singular = build_channel(BasisPair(b1=free_basis.b1, b2=zero_pattern(grid)),
                                 (RX1, RX2), QPSK)
        for cap in (1e8, np.inf):  # a singular channel is rejected even without a cap
            with pytest.raises(SingularChannelError, match="condition number inf"):
                received_constellation(free_states, singular, condition_cap=cap)
        scenario = build_channel(free_basis, (RX1, RX2), QPSK)
        cond = scenario.condition_number
        with pytest.raises(SingularChannelError, match=re.escape(f"number {cond:.3g} exceeds")):
            received_constellation(free_states, scenario, condition_cap=0.99 * cond)
        assert len(received_constellation(free_states, scenario, condition_cap=cond)) == 32

    def test_theta_receiver_with_phi_only_pattern_flagged(self, grid):
        rng = np.random.default_rng(0)
        phi_only = VectorPattern(
            grid=grid, e_theta=np.zeros(grid.shape),
            e_phi=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        basis = BasisPair(b1=phi_only, b2=phi_only)
        scenario = build_channel(basis, (RX1, RX2), QPSK)
        assert np.all(scenario.channel == 0)
        assert scenario.singular

    def test_entries_match_node_lookup_oracle(self, grid, free_basis):
        i1, j1 = 30, 40
        i2, j2 = 31, 42
        angles = ((grid.theta[i1], grid.phi[j1]), (grid.theta[i2], grid.phi[j2]))
        scenario = build_channel(free_basis, angles, QPSK)
        want = np.array([
            [free_basis.b1.e_theta[i1, j1], free_basis.b2.e_theta[i1, j1]],
            [free_basis.b1.e_theta[i2, j2], free_basis.b2.e_theta[i2, j2]],
        ])
        assert np.allclose(scenario.channel, want, rtol=1e-12, atol=0)

    def test_phi_polarized_receivers(self, grid, free_basis):
        i1, j1 = 50, 10
        angles = ((grid.theta[i1], grid.phi[j1]), RX2)
        pol = ((0.0, 1.0), (0.0, 1.0))
        scenario = build_channel(free_basis, angles, QPSK, rx_polarizations=pol)
        assert scenario.channel[0, 0] == pytest.approx(
            complex(free_basis.b1.e_phi[i1, j1]), rel=1e-12)

    def test_angle_outside_grid(self, free_basis):
        with pytest.raises(AngleOutOfRangeError):
            build_channel(free_basis, ((-0.2, 0.0), RX2), QPSK)

    def test_condition_number_recorded(self, free_basis):
        scenario = build_channel(free_basis, (RX1, RX2), QPSK)
        assert np.isfinite(scenario.condition_number)
        assert scenario.condition_number >= 1.0

    def test_condition_number_matches_svd_oracle(self, free_basis):
        from beamspace.link import _condition_2x2
        rng = np.random.default_rng(31)
        for _ in range(20):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert _condition_2x2(h)[0] == pytest.approx(np.linalg.cond(h), rel=1e-9)
        assert _condition_2x2(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)) == (np.inf, 0)
        batch = rng.standard_normal((3, 5, 2, 2)) + 1j * rng.standard_normal((3, 5, 2, 2))
        got, det = _condition_2x2(np.moveaxis(batch, (-2, -1), (0, 1)))  # matrix axes lead
        assert got.shape == det.shape == (3, 5)
        assert got == pytest.approx(np.linalg.cond(batch), rel=1e-9)
        assert det == pytest.approx(np.linalg.det(batch), rel=1e-12)
        batch[1, 2] = 1.0
        assert _condition_2x2(np.moveaxis(batch, (-2, -1), (0, 1)))[0][1, 2] == np.inf

    def test_nan_polarization_rejected(self, free_states, free_basis):
        from beamspace import LinkScenario
        pols = ((float("nan"), 0.0), THETA_POL)
        with pytest.raises(InvalidArgumentError, match="two unit 2-vectors"):
            run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=100, seed=1,
                            rx_polarizations=pols)
        with pytest.raises(InvalidArgumentError, match="two unit 2-vectors"):
            LinkScenario(rx_angles=np.array((RX1, RX2)),
                         rx_polarizations=np.array(pols, dtype=complex),
                         channel=np.eye(2, dtype=complex), condition_number=1.0,
                         constellation=QPSK)
        with pytest.raises(InvalidArgumentError, match="two unit 2-vectors"):
            build_channel(free_basis, (RX1, RX2), QPSK, pols)

    def test_scenario_polarization_must_be_unit(self, free_basis):
        from beamspace import LinkScenario
        with pytest.raises(InvalidArgumentError):
            LinkScenario(
                rx_angles=np.array([[1.0, 2.0], [1.0, 2.1]]),
                rx_polarizations=np.array([[2.0, 0.0], [1.0, 0.0]], dtype=complex),
                channel=np.eye(2, dtype=complex),
                condition_number=1.0,
                constellation=QPSK,
            )


class TestTransmitAndReceive:
    def test_free_space_consistency(self, free_states, free_basis):
        scenario = build_channel(free_basis, (RX1, RX2), QPSK)
        h = scenario.channel
        for x1 in QPSK.points:
            for x2 in QPSK.points:
                y = transmit_and_receive(free_states, x1, x2, scenario)
                want = h @ np.array([x1, x2])
                assert np.max(np.abs(y - want)) <= 1e-12

    def test_pm_one_consistency_under_any_perturbation(self, hand_states, hand_basis):
        scenario = build_channel(hand_basis, (RX1, RX2), QPSK)
        h = scenario.channel
        for x1, x2 in [(1, 1), (1j, 1j), (1, -1), (1j, -1j)]:
            y = transmit_and_receive(hand_states, x1, x2, scenario)
            want = h @ np.array([x1, x2])
            assert np.max(np.abs(y - want)) <= 1e-12

    def test_pm_j_residual_matches_direct_oracle(self, hand_states, hand_basis):
        scenario = build_channel(hand_basis, (RX1, RX2), QPSK)
        h = scenario.channel
        x1, x2 = 1.0, 1.0j
        y = transmit_and_receive(hand_states, x1, x2, scenario)
        residual = y - h @ np.array([x1, x2])
        assert np.max(np.abs(residual)) > 1e-3
        # direct evaluation: x1 * p^H (E_state - b1 - xbar*b2) at each angle
        want = np.empty(2, dtype=complex)
        for m in range(2):
            theta, phi = scenario.rx_angles[m]
            et_s, _ = sample_pattern(hand_states.state(1), theta, phi)
            et_b1, _ = sample_pattern(hand_basis.b1, theta, phi)
            et_b2, _ = sample_pattern(hand_basis.b2, theta, phi)
            want[m] = x1 * (et_s - et_b1 - 1j * et_b2)
        assert np.allclose(residual, want, rtol=1e-10, atol=1e-14)

    def test_ratio_not_in_alphabet(self, free_states, free_basis):
        scenario = build_channel(free_basis, (RX1, RX2), QPSK)
        with pytest.raises(RatioSetMismatchError):
            transmit_and_receive(free_states, 1.0, np.exp(0.3j), scenario)
        with pytest.raises(UndefinedRatioError):
            transmit_and_receive(free_states, 0.0, 1.0, scenario)


class TestZfEqualize:
    def test_inverts_exactly(self, free_states, free_basis):
        scenario = build_channel(free_basis, (RX1, RX2), QPSK)
        x = np.array([1.0j, -1.0])
        y = scenario.channel @ x
        xhat = zf_equalize(y, scenario)
        assert np.max(np.abs(xhat - x)) <= 1e-10

    def test_pm_one_decodes_exactly_under_perturbation(self, hand_states, hand_basis):
        scenario = build_channel(hand_basis, (RX1, RX2), QPSK)
        for x1, x2 in [(1, 1), (1j, 1j), (-1, 1), (1j, -1j)]:
            y = transmit_and_receive(hand_states, x1, x2, scenario)
            xhat = zf_equalize(y, scenario)
            assert np.max(np.abs(xhat - np.array([x1, x2]))) <= 1e-10

    def test_pm_j_three_cluster_structure(self, hand_states, hand_basis):
        scenario = build_channel(hand_basis, (RX1, RX2), QPSK)
        points = received_constellation(hand_states, scenario)
        for stream in (1, 2):
            for sym in range(4):
                cluster_values = [
                    p.actual for p in points
                    if p.stream == stream
                    and (p.k1 if stream == 1 else p.k2) == sym
                ]
                clusters: list[complex] = []
                for v in cluster_values:
                    if not any(abs(v - c) <= 1e-6 for c in clusters):
                        clusters.append(v)
                assert len(clusters) == 3

    def test_quantization_is_separate(self, hand_states, hand_basis):
        scenario = build_channel(hand_basis, (RX1, RX2), QPSK)
        y = transmit_and_receive(hand_states, 1.0, 1.0j, scenario)
        xhat = zf_equalize(y, scenario)
        assert np.max(np.abs(xhat - np.array([1.0, 1.0j]))) > 1e-6
        decided = QPSK.nearest(xhat)
        assert decided[0] in QPSK.points
        assert decided[1] in QPSK.points


class TestConstellationAtAngle:
    def test_free_space_actual_equals_ideal(self, free_states, free_basis):
        points = constellation_at_angle(free_basis, free_states, QPSK, *RX1)
        assert len(points) == 2 * 16
        for p in points:
            assert abs(p.actual - p.ideal) <= 1e-9

    def test_perturbed_dichotomy(self, hand_states, hand_basis):
        points = constellation_at_angle(hand_basis, hand_states, QPSK, *RX1)
        for p in points:
            ratio = (p.k2 - p.k1) % 4
            if ratio in (0, 2):
                assert abs(p.actual - p.ideal) <= 1e-10
        displaced = [abs(p.actual - p.ideal) for p in points
                     if (p.k2 - p.k1) % 4 in (1, 3)]
        assert max(displaced) > 1e-3


class TestGeometry:
    def test_offset_distance_preserved(self):
        rng = np.random.default_rng(7)
        theta = np.arccos(1 - 2 * rng.random(200))
        phi = 2 * np.pi * rng.random(200)
        dist = D(3.0) + D(2.0) * rng.random(200)
        bearing = 2 * np.pi * rng.random(200)
        theta2, phi2 = great_circle_offset(theta, phi, dist, bearing)
        got = great_circle_distance(theta, phi, theta2, phi2)
        assert np.max(np.abs(got - dist)) <= 1e-9

    def test_zero_bearing_heads_to_north_pole(self):
        theta2, phi2 = great_circle_offset(1.0, 2.0, 0.3, 0.0)
        assert theta2 == pytest.approx(0.7, abs=1e-12)
        assert phi2 == pytest.approx(2.0, abs=1e-12)

    def test_pole_crossing(self):
        theta2, phi2 = great_circle_offset(0.1, 1.0, 0.3, 0.0)
        assert theta2 == pytest.approx(0.2, abs=1e-12)
        assert phi2 == pytest.approx(1.0 + np.pi, abs=1e-9)

    def test_draw_geometries(self):
        n = 100_000
        theta, phi = draw_geometries(np.random.default_rng(19), n, (3.0, 5.0))
        assert theta.shape == phi.shape == (2, n)
        dist = great_circle_distance(theta[0], phi[0], theta[1], phi[1])
        assert np.all((dist >= D(3.0) - 1e-9) & (dist <= D(5.0) + 1e-9))
        assert np.all((theta >= 0.0) & (theta <= np.pi))
        assert np.all((phi >= 0.0) & (phi < 2 * np.pi))
        # area-uniform: cos(theta1) is uniform on [-1, 1], standard deviation 1/sqrt(3)
        assert abs(np.mean(np.cos(theta[0]))) <= 4.0 / np.sqrt(3.0 * n)
        again = draw_geometries(np.random.default_rng(19), n, (3.0, 5.0))
        assert np.array_equal(theta, again[0]) and np.array_equal(phi, again[1])
        for separation, count in [((0.0, 5.0), 10), ((5.0, 3.0), 10),
                                  ((float("nan"), 5.0), 10), ((3.0, 5.0), -1)]:
            with pytest.raises(InvalidArgumentError):
                draw_geometries(np.random.default_rng(0), count, separation)


class TestMonteCarlo:
    def test_identity_perturbation_step_cdf(self, free_states, free_basis):
        mc = run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=2000, seed=3)
        assert mc.n_rejected == 0
        assert mc.stream_errors[0][-1] <= 1e-10
        assert mc.stream_errors[1][-1] <= 1e-10

    def test_seeded_reproducibility(self, hand_states, hand_basis):
        a = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=500, seed=11)
        b = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=500, seed=11)
        for s in (0, 1):
            assert np.array_equal(a.stream_errors[s], b.stream_errors[s])
        c = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=500, seed=12)
        assert not np.array_equal(a.stream_errors[0], c.stream_errors[0])

    def test_worker_count_does_not_change_bytes(self, hand_states, hand_basis):
        runs = [run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=40_000,
                                seed=9, threads=t) for t in (1, 2, 8)]
        for r in runs[1:]:
            for s in (0, 1):
                assert runs[0].stream_errors[s].tobytes() == r.stream_errors[s].tobytes()

    def test_record_path_cross_check(self, hand_states, hand_basis):
        # the closed-form ratio-state kernel must agree with the per-pair
        # LAPACK path: each state's error, once per pair of that ratio
        for pols in POLARIZATION_PAIRS.values():
            mc = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=3, seed=21,
                                 rx_polarizations=pols)
            assert mc.n_rejected == 0
            errors = _pair_errors_oracle(hand_states, hand_basis, QPSK,
                                         _mc_geometries(3, seed=21), pols)
            for stream in (1, 2):
                want = np.sort(errors[stream - 1].ravel())
                got = np.repeat(mc.stream_errors[stream - 1], 4)
                assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_ratio_state_reduction_8psk_with_offset(self, grid):
        con = PskConstellation(8, phase_offset=0.3)
        ratios = con.ratio_set
        states = generate_mirror_pair(default_mirror_profile(), grid, ratios)
        psi = generate_perturbation(
            [PerturbationLobe(theta=D(50 + 10 * k), phi=D(290 - 25 * k), width=D(70),
                              amplitude=0.35, phase=D(47 * k), states=(k,))
             for k in range(8)], grid, ratios)
        s_hat = apply_perturbation(states, psi)
        b_hat = perturbed_basis(s_hat)
        mc = run_monte_carlo(s_hat, b_hat, con, n_scenarios=6, seed=8)
        assert mc.n_rejected == 0
        errors = _pair_errors_oracle(s_hat, b_hat, con, _mc_geometries(6, seed=8))
        k1 = np.arange(8)
        for e in errors:
            for k in range(8):
                # every pair of one ratio index has the same error magnitude
                same_ratio = e[:, k1, (k1 + k) % 8]
                assert np.allclose(same_ratio, same_ratio[:, :1], rtol=1e-12, atol=1e-12)
        assert np.max(errors[1]) > 1e-2
        for stream in (1, 2):
            want = np.sort(errors[stream - 1].ravel())
            got = np.repeat(mc.stream_errors[stream - 1], 8)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_ratio_index_recorded(self, hand_states, hand_basis):
        scenario = build_channel(hand_basis, (RX1, RX2), QPSK)
        points = received_constellation(hand_states, scenario)
        assert len(points) == 32
        magnitudes: dict[tuple[int, int], list[float]] = {}
        for p in points:
            assert p.stream in (1, 2)
            ratio_index = (p.k2 - p.k1) % 4
            magnitudes.setdefault((p.stream, ratio_index), []).append(abs(p.actual - p.ideal))
        # every (stream, ratio index) occurs, and the error magnitude is a function of it
        assert len(magnitudes) == 8
        for mags in magnitudes.values():
            assert len(mags) == 4
            assert np.allclose(mags, mags[0], rtol=1e-9, atol=1e-12)

    def test_invalid_arguments(self, free_states, free_basis):
        with pytest.raises(InvalidArgumentError):
            run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=0, seed=1)
        with pytest.raises(InvalidArgumentError):
            run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=10,
                            separation_deg=(0.0, 5.0), seed=1)
        with pytest.raises(InvalidArgumentError):
            run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=10,
                            separation_deg=(5.0, 3.0), seed=1)
        with pytest.raises(RatioSetMismatchError):
            run_monte_carlo(free_states, free_basis, PskConstellation(8),
                            n_scenarios=10, seed=1)

    @pytest.mark.parametrize("bad", [
        {"condition_cap": float("nan")}, {"condition_cap": 0.5}, {"condition_cap": 1.0},
        {"seed": 1.5}, {"n_scenarios": 2.5}, {"threads": 1.5},
    ])
    def test_untrusted_arguments_rejected(self, free_states, free_basis, bad):
        with pytest.raises(InvalidArgumentError, match=next(iter(bad))):
            run_monte_carlo(free_states, free_basis, QPSK, **({"n_scenarios": 10, "seed": 1} | bad))

    def test_scenario_limit(self, free_states, free_basis, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("geometries drawn for a sweep over the limit")

        # the sweep draws each chunk's slice through _uniforms, not draw_geometries
        monkeypatch.setattr(link, "draw_geometries", no_draw)
        monkeypatch.setattr(link, "_uniforms", no_draw)
        for n in (link.MAX_SCENARIOS + 1, 10**12):
            with pytest.raises(InvalidArgumentError, match="n_scenarios"):
                run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=n, seed=1)

    def test_thread_pool_capped(self, hand_states, hand_basis, monkeypatch):
        # the calling thread is one of the workers: the pool runs the others
        from beamspace import link
        executor, uniforms = link.concurrent.futures.ThreadPoolExecutor, link._uniforms
        sizes, ran = [], set()

        class Recorder(executor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        def recorded(*args):
            ran.add(threading.get_ident())
            return uniforms(*args)

        monkeypatch.setattr(link.concurrent.futures, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(link, "_uniforms", recorded)
        cpu_count, n = link._cpu_count, 3 * link._CHUNK  # three chunks
        serial = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=n, seed=4)
        for cpus, threads, workers in ((64, 100_000, 3), (64, 2, 2), (2, 100_000, 2),
                                       (1, 8, 1)):
            monkeypatch.setattr(link, "_cpu_count", lambda cpus=cpus: cpus)
            sizes.clear()
            ran.clear()
            mc = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=n, seed=4,
                                 threads=threads)
            assert sizes == ([] if workers == 1 else [workers - 1])  # pool + caller = workers
            assert threading.get_ident() in ran and len(ran) <= workers
            for s in (0, 1):
                assert mc.stream_errors[s].tobytes() == serial.stream_errors[s].tobytes()
        assert 1 <= cpu_count() <= (os.cpu_count() or 1)

    def test_degenerate_separation_interval_allowed(self, free_states, free_basis):
        # min == max is a valid (single-distance) interval
        mc = run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=50,
                             separation_deg=(4.0, 4.0), seed=3)
        assert mc.stream_errors[0].size == 50 * 4

    def test_grid_mismatch_rejected(self, free_states):
        from beamspace import GridMismatchError
        other = generate_mirror_pair(default_mirror_profile(), build_grid(11, 16),
                                     RATIOS)
        with pytest.raises(GridMismatchError):
            run_monte_carlo(free_states, perturbed_basis(other), QPSK,
                            n_scenarios=5, seed=1)

    def test_bad_polarizations_rejected(self, free_states, free_basis):
        with pytest.raises(InvalidArgumentError):
            run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=5, seed=1,
                            rx_polarizations=((2.0, 0.0), (1.0, 0.0)))

    def test_phi_polarized_receivers_give_different_streams(self, hand_states, hand_basis):
        from beamspace.link import PHI_POL
        a = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=200, seed=6)
        b = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=200, seed=6,
                            rx_polarizations=(PHI_POL, PHI_POL))
        assert not np.array_equal(a.stream_errors[0], b.stream_errors[0])

    def test_rejection_tally(self, grid, free_states):
        # force universal rejection with an impossible condition cap
        basis = perturbed_basis(free_states)
        mc = run_monte_carlo(free_states, basis, QPSK, n_scenarios=50, seed=5,
                             condition_cap=1.0 + 1e-12)
        assert mc.n_rejected == 50
        assert mc.stream_errors[0].size == 0

    def test_scale_invariance_of_error_geometry(self, grid, hand_states, hand_basis):
        c = 0.31 - 1.7j
        scaled_states = StatePatternSet(
            ratios=RATIOS,
            patterns={k: VectorPattern(grid=grid,
                                       e_theta=c * hand_states.state(k).e_theta,
                                       e_phi=c * hand_states.state(k).e_phi)
                      for k in range(4)})
        scaled_basis = perturbed_basis(scaled_states)
        a = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=300, seed=13)
        b = run_monte_carlo(scaled_states, scaled_basis, QPSK, n_scenarios=300, seed=13)
        for s in (0, 1):
            assert np.allclose(a.stream_errors[s], b.stream_errors[s],
                               rtol=1e-9, atol=1e-12)

    def test_mc_cdf_monotone_in_unit_interval(self, hand_states, hand_basis):
        mc = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=400, seed=2)
        for stream in (1, 2):
            errors, probs = mc.cdf(stream)
            assert np.all(np.diff(errors) >= 0)
            assert probs[0] > 0
            assert probs[-1] == 1.0
            assert np.all(np.diff(probs) > 0)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# counts around the 4,096-scenario chunk: one scenario, one short of a chunk,
# one chunk, one over, and three chunks plus a partial one
STREAM_COUNTS = (1, 4095, 4096, 4097, 3 * 4096 + 17)


@pytest.fixture(scope="module", params=["hand_scenario", "freespace", "hand_scenario_cap200"])
def shipped(request):
    """A shipped config's run parameters and assembly; ``_cap200`` rejects in most chunks."""
    name, _, cap = request.param.partition("_cap")
    cfg = load_config(CONFIGS / f"{name}.json")
    if cap:
        cfg = dataclasses.replace(cfg, condition_cap=float(cap))
    return cfg, _assemble(cfg)


class TestStreamedSweep:
    """Each chunk draws its own slice of the seeded stream: the bytes of an up-front draw."""

    @pytest.mark.parametrize("n", STREAM_COUNTS)
    def test_chunk_uniforms_are_slices_of_one_draw(self, n):
        whole = np.random.default_rng(42).random((4, n))
        for start in range(0, n, link._CHUNK):
            stop = min(start + link._CHUNK, n)
            assert link._uniforms(42, n, start, stop).tobytes() == whole[:, start:stop].tobytes()

    @pytest.mark.parametrize("n", STREAM_COUNTS)
    def test_streams_equal_upfront_sweep(self, shipped, n):
        cfg, asm = shipped
        args = (asm.perturbed_states, asm.perturbed_basis, asm.constellation)
        params = dict(separation_deg=cfg.separation_deg, condition_cap=cfg.condition_cap)
        *want, rejected = upfront_sweep(*args, n, cfg.seed, **params)
        if cfg.condition_cap == 200 and n > 1:
            assert 0 < rejected < n  # chunks reject, so their kept errors are shifted left
        for threads in (1, 2, 8):
            mc = run_monte_carlo(*args, n_scenarios=n, seed=cfg.seed, threads=threads, **params)
            assert mc.n_rejected == rejected
            for got, exact in zip(mc.stream_errors, want):
                assert got.dtype == exact.dtype and got.tobytes() == exact.tobytes()

    def test_working_memory_does_not_grow_with_n(self, hand_states, hand_basis):
        # numpy reports its buffers to tracemalloc; what a sweep holds beyond
        # its result is one chunk's working set, whatever the scenario count
        def traced(call):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = call()
                return result, tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        # a first sweep leaves about 0.8 MB of one-time state behind; keep it out
        run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=1, seed=5)
        working = {}
        for n in (20_000, 100_000):
            mc, peak = traced(lambda: run_monte_carlo(hand_states, hand_basis, QPSK,
                                                      n_scenarios=n, seed=5))
            assert mc.n_rejected == 0
            working[n] = peak - sum(e.nbytes for e in mc.stream_errors)
        assert abs(working[100_000] - working[20_000]) <= 2**20
        summaries, peak = traced(mc.summaries)
        assert peak < 64 * 1024
        assert summaries == tuple(cdf_summary(e) for e in mc.stream_errors)
        # above the exact limit the whole result is two sketches: nothing grows with n
        whole = {}
        for n in (150_000, 400_000):
            mc, whole[n] = traced(lambda: run_monte_carlo(hand_states, hand_basis, QPSK,
                                                          n_scenarios=n, seed=5))
            assert not mc.exact and sum(r.count for rows in mc.errors for r in rows) == 8 * n
            assert [e.size for e in mc.stream_errors] == [0, 0]
        assert abs(whole[400_000] - whole[150_000]) <= 2**20


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _kernel_angles(grid, n, at_nodes, seed):
    """(2, n) receive theta and phi: random grid nodes, or random geometries."""
    rng = np.random.default_rng(seed)
    if at_nodes:  # weights exactly one and zero; some receiver pairs share a node
        return (grid.theta[rng.integers(grid.n_theta, size=(2, n))],
                grid.phi[rng.integers(grid.n_phi, size=(2, n))])
    return draw_geometries(rng, n)


def _reference_points(states, basis, con, angles, pols):
    """The channel and the decoded points of one geometry by the reference kernel;
    None for the points when the channel is above the default cap."""
    angles = np.asarray(angles, dtype=float)
    pols = np.asarray(pols, dtype=complex)
    h = reference_responses((basis.b1, basis.b2), angles[:, :1], angles[:, 1:], pols)[0]
    f = reference_responses(tuple(states.state(k) for k in range(con.order)),
                            angles[:, :1], angles[:, 1:], pols)
    keep, g, _ = reference_zf_gains(h[None], f, DEFAULT_CONDITION_CAP)
    m = con.order
    points = [con.points[k1] * g[0, s, (k2 - k1) % m]
              for k1 in range(m) for k2 in range(m) for s in (0, 1)]
    return h, reference_condition_2x2(h)[0], points if keep[0] else None


@pytest.fixture(scope="module", params=["hand_scenario", "freespace"])
def shipped_assembly(request):
    return _assemble(load_config(CONFIGS / f"{request.param}.json"))


class TestScenarioLastKernel:
    """The kernel keeps scenarios on the last axis; its bits are those of the
    scenario-first reference in ``helpers``."""

    @pytest.mark.parametrize("pols", POLARIZATION_PAIRS.values(), ids=POLARIZATION_PAIRS)
    @pytest.mark.parametrize("n", (1, 4095, 4096, 4097))
    def test_responses_and_gains(self, shipped_assembly, pols, n):
        basis, states = shipped_assembly.perturbed_basis, shipped_assembly.perturbed_states
        patterns = (basis.b1, basis.b2) + tuple(states.state(k) for k in range(QPSK.order))
        pols = np.asarray(pols, dtype=complex)
        for at_nodes in (True, False):
            theta, phi = _kernel_angles(basis.grid, n, at_nodes, seed=n)
            resp = link._responses(patterns, theta, phi, pols)
            want = reference_responses(patterns, theta, phi, pols)
            _same_bits(resp, np.moveaxis(want, 0, -1))
            for cap in (DEFAULT_CONDITION_CAP, 200.0):
                keep, g, cond = link._zf_gains(resp[:, :2], resp[:, 2:], cap)
                want_keep, want_g, want_cond = reference_zf_gains(want[:, :, :2],
                                                                  want[:, :, 2:], cap)
                _same_bits(keep, want_keep)
                _same_bits(cond, want_cond)
                _same_bits(g, np.moveaxis(want_g, 0, -1))

    @pytest.mark.parametrize("pols", POLARIZATION_PAIRS.values(), ids=POLARIZATION_PAIRS)
    def test_build_channel_and_received_constellation(self, shipped_assembly, pols):
        basis, states = shipped_assembly.perturbed_basis, shipped_assembly.perturbed_states
        for at_nodes in (True, False):
            theta, phi = _kernel_angles(basis.grid, 16, at_nodes, seed=5)
            for s in range(16):
                angles = ((theta[0, s], phi[0, s]), (theta[1, s], phi[1, s]))
                scenario = build_channel(basis, angles, QPSK, pols)
                h, cond, points = _reference_points(states, basis, QPSK, angles, pols)
                _same_bits(scenario.channel, h)
                _same_bits(scenario.condition_number, cond)
                if points is None:
                    with pytest.raises(SingularChannelError):
                        received_constellation(states, scenario)
                    continue
                got = received_constellation(states, scenario)
                _same_bits([p.actual for p in got], points)

    def test_constellation_at_angle(self, shipped_assembly):
        basis, states = shipped_assembly.perturbed_basis, shipped_assembly.perturbed_states
        for at_nodes in (True, False):
            theta, phi = _kernel_angles(basis.grid, 16, at_nodes, seed=6)
            for angle in zip(theta[0], phi[0]):
                *_, points = _reference_points(states, basis, QPSK, (angle, angle),
                                               (THETA_POL, PHI_POL))
                if points is None:
                    with pytest.raises(SingularChannelError):
                        constellation_at_angle(basis, states, QPSK, *angle)
                    continue
                got = constellation_at_angle(basis, states, QPSK, *angle)
                _same_bits([p.actual for p in got], points)


def _assert_within_alpha(got: CdfSummary, want: CdfSummary):
    """Sketch quantiles within SKETCH_ALPHA (plus round-off) of the exact ones;
    count and exceedances exact."""
    assert got.count == want.count and got.exceedance == want.exceedance
    for p, q in want.quantiles.items():
        assert abs(got.quantiles[p] - q) <= (SKETCH_ALPHA + 1e-12) * abs(q), p


def _pooled(rows) -> Sketch:
    """A stream's sketch: an empty sketch merged with its ratio rows."""
    pooled = Sketch.empty(link._EXCEEDANCE_THRESHOLDS)
    for row in rows:
        pooled.merge(row)
    return pooled


class TestSketch:
    """The fixed-size error state every sweep builds, against exact samples."""

    def test_merge_order_and_order_statistics(self):
        rng = np.random.default_rng(3)
        values = np.exp(rng.normal(0.0, 30.0, (3, 5000)))  # 1e-60 .. 1e60
        values[rng.random(values.shape) < 0.05] = 0.0
        values[2] = 3.0  # one value only: a one-bucket row

        def sketch(part):
            s = Sketch.empty(link._EXCEEDANCE_THRESHOLDS)
            s.add(part)
            return s

        for row, exact in zip(values, np.sort(values)):  # each row its own sketch
            parts = np.split(row, [1, 700, 701, 2500])  # an empty part among them
            whole = link._sketch_arrays("", sketch(row))
            for order in (range(5), range(4, -1, -1), (2, 0, 4, 1, 3)):
                added, merged = sketch(parts[order[0]]), sketch(parts[order[0]])
                for i in order[1:]:
                    added.add(parts[i])
                    merged.merge(sketch(parts[i]))
                for arrays in (link._sketch_arrays("", added), link._sketch_arrays("", merged)):
                    assert arrays.keys() == whole.keys()
                    for name, a in whole.items():
                        assert arrays[name].dtype == a.dtype
                        assert arrays[name].tobytes() == a.tobytes(), name
            one = sketch(row)
            got = one.order_statistics(np.arange(exact.size))
            assert np.all(np.abs(got - exact) <= SKETCH_ALPHA * exact)
            assert got[0] == exact[0] and got[-1] == exact[-1]
            _assert_within_alpha(one.summary(), cdf_summary(exact))

    def test_quantiles_within_alpha_of_exact(self, shipped):
        # one run keeps the exact streams (1e5 is the exact limit) and builds the
        # sketches; the per-ratio samples and condition numbers come from the oracle
        cfg, asm = shipped
        args = (asm.perturbed_states, asm.perturbed_basis, asm.constellation)
        params = dict(separation_deg=cfg.separation_deg, condition_cap=cfg.condition_cap)
        n = 100_000
        mc = run_monte_carlo(*args, n_scenarios=n, seed=cfg.seed, **params)
        errors, conds, rejected = upfront_errors(*args, n, cfg.seed, **params)
        assert mc.exact and mc.n_rejected == rejected
        for s, exact in enumerate(mc.summaries()):
            _assert_within_alpha(_pooled(mc.errors[s]).summary(), exact)
            for k in range(asm.constellation.order):
                _assert_within_alpha(mc.errors[s][k].summary(), cdf_summary(errors[:, s, k]))
        got = mc.conditions.summary()
        assert got.count == n - rejected and got.exceedance == {}
        for p, q in got.quantiles.items():
            want = np.percentile(conds, p)
            assert abs(q - want) <= (SKETCH_ALPHA + 1e-12) * want
        assert (mc.conditions.minimum, mc.conditions.maximum) == (conds.min(), conds.max())

    def test_all_rejected_in_sketch_mode(self, free_states, free_basis, tmp_path):
        mc = run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=100_001, seed=5,
                             condition_cap=1.0 + 1e-12)
        assert not mc.exact and mc.n_rejected == 100_001
        assert all(r.count == 0 and r.counts.size == 0 for rows in mc.errors for r in rows)
        assert [a.size for a in mc.cdf(1)] == [0, 0]
        with pytest.raises(InvalidArgumentError):
            mc.summaries()
        with np.load(save_results(tmp_path, mc=mc)["sketch"]) as npz:
            assert npz["error_counts"].shape == (0,)
            assert np.array_equal(npz["error_offsets"], np.zeros(9))
            assert not npz["error_zeros"].any() and np.all(npz["error_min"] == np.inf)

    def test_sketch_npz_rebuilds_rows_and_streams(self, hand_states, hand_basis, tmp_path):
        # from sketch.npz alone: each row's sketch, and each stream's (its rows
        # merged) CDF as the same run wrote it; every row's store is tight
        mc = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=100_001, seed=9)
        written = save_results(tmp_path, mc=mc)
        with np.load(written["sketch"]) as npz:
            f = {name: npz[name] for name in npz.files}
        offsets, counts = f["error_offsets"], f["error_counts"]
        assert offsets.shape == (9,) and offsets[0] == 0 and offsets[-1] == counts.size

        def edge(key):  # the lower edge of a bucket key, as the README gives it
            return (np.int64(key) << 45).view(np.float64)

        for s in range(2):
            rows = []
            for k in range(4):
                store = counts[offsets[4 * s + k]:offsets[4 * s + k + 1]]
                assert store.size and store[0] > 0 and store[-1] > 0
                key0, top = f["error_key0"][s, k], f["error_max"][s, k]
                assert edge(key0 + store.size - 1) <= top < edge(key0 + store.size)
                if f["error_zeros"][s, k] == 0:
                    assert edge(key0) <= f["error_min"][s, k] < edge(key0 + 1)
                row = Sketch(tuple(f["error_thresholds"]), int(f["error_zeros"][s, k]),
                             f["error_above"][s, k], float(f["error_min"][s, k]), float(top),
                             int(key0), store)
                assert row.summary() == mc.errors[s][k].summary()
                rows.append(row)
            stream = _pooled(rows)
            n, i = stream.count, np.arange(1, 10_001)
            errors, probs = load_cdf_csv(written[f"cdf_stream{s + 1}"])
            _same_bits(stream.order_statistics((i * n + 9_999) // 10_000 - 1), errors)
            assert stream.summary() == mc.summaries()[s]

    def test_sketch_bytes_do_not_depend_on_threads(self, hand_states, hand_basis, tmp_path,
                                                   monkeypatch):
        # above the exact limit the CDFs and sketch.npz are read from the merged
        # sketches; eight workers run even on a machine with fewer CPUs
        monkeypatch.setattr(link, "_cpu_count", lambda: 64)
        for n in (100_001, 102_401):
            files = []
            for threads in (1, 2, 8):
                mc = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=n, seed=9,
                                     threads=threads)
                assert not mc.exact
                assert [(e.dtype, e.size) for e in mc.stream_errors] == [(np.float64, 0)] * 2
                written = save_results(tmp_path / f"{n}-{threads}", mc=mc)
                assert "errors" not in written
                files.append([written[k].read_bytes()
                              for k in ("sketch", "cdf_stream1", "cdf_stream2")])
            assert files[0] == files[1] == files[2]


_POLS = (THETA_POL, PHI_POL, (np.sqrt(0.5), 0.5 + 0.5j), (np.cos(0.3), np.exp(0.7j) * np.sin(0.3)))


def _geometries(phi1=st.floats(0.0, 2 * np.pi)):
    """Receiver 1, then receiver 2's distance and bearing from it, then both polarizations."""
    return st.tuples(st.floats(0.05, np.pi - 0.05), phi1, st.floats(D(3.0), D(5.0)),
                     st.floats(0.0, 2 * np.pi), st.sampled_from(_POLS), st.sampled_from(_POLS))


_geometry = _geometries()
# half of the draws put receiver 1 in the last azimuth cell of the 2-degree grid,
# where bilinear sampling wraps to phi = 0
_seam_geometry = _geometries(st.floats(0.0, 2 * np.pi)
                             | st.floats(2 * np.pi - D(2.0), 2 * np.pi, exclude_max=True))


def _decoded(states, basis, angles, pols):
    """The channel and the (ideal, actual) points of every symbol pair, in
    emitted order; no points when the channel is over the default cap."""
    scenario = build_channel(basis, angles, QPSK, pols)
    if not scenario.condition_number <= 1e8:
        return scenario, None
    points = received_constellation(states, scenario)
    return scenario, np.array([(p.ideal, p.actual) for p in points])


def _assert_round_off(a, b, scenario):
    """``b`` equals ``a`` up to round-off amplified by the channel's condition number."""
    bound = 16 * np.finfo(float).eps * scenario.condition_number * np.max(np.abs(a))
    assert np.max(np.abs(b - a)) <= bound


class TestMetamorphic:
    """Relations the decode must satisfy whatever the geometry."""

    @settings(max_examples=40, deadline=None)
    @given(geometry=_geometry)
    def test_receiver_swap(self, hand_states, hand_basis, geometry):
        # swapping the receivers swaps the rows of H and F and leaves G = H^-1 F
        theta1, phi1, dist, bearing, pol1, pol2 = geometry
        rx1 = (theta1, phi1)
        rx2 = great_circle_offset(theta1, phi1, dist, bearing)
        sa, a = _decoded(hand_states, hand_basis, (rx1, rx2), (pol1, pol2))
        sb, b = _decoded(hand_states, hand_basis, (rx2, rx1), (pol2, pol1))
        assert sb.channel.tobytes() == sa.channel[::-1].tobytes()
        assert (a is None) == (b is None)
        if a is not None:
            # not bitwise: numpy's complex multiply need not commute bitwise (it
            # may fuse a multiply-add), so the swapped determinant h10*h01 -
            # h11*h00 can differ from -(h00*h11 - h01*h10) in its last bits
            _assert_round_off(a, b, sa)

    @settings(max_examples=25, deadline=None)
    @given(geometry=_geometry, log_scale=st.floats(-2.0, 2.0), phase=st.floats(0.0, 2 * np.pi))
    def test_global_scale(self, grid, hand_states, geometry, log_scale, phase):
        # H and F scale together, so the decoded points move by round-off only
        theta1, phi1, dist, bearing, pol1, pol2 = geometry
        angles = ((theta1, phi1), great_circle_offset(theta1, phi1, dist, bearing))
        c = 10.0 ** log_scale * np.exp(1j * phase)
        scaled = StatePatternSet(
            ratios=RATIOS,
            patterns={k: VectorPattern(grid=grid, e_theta=c * hand_states.state(k).e_theta,
                                       e_phi=c * hand_states.state(k).e_phi)
                      for k in range(4)})
        sa, a = _decoded(hand_states, perturbed_basis(hand_states), angles, (pol1, pol2))
        _, b = _decoded(scaled, perturbed_basis(scaled), angles, (pol1, pol2))
        assert (a is None) == (b is None)
        if a is not None:
            _assert_round_off(a, b, sa)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), pols=st.tuples(st.sampled_from(_POLS), st.sampled_from(_POLS)),
           lobe=st.builds(PerturbationLobe, theta=st.floats(0.2, np.pi - 0.2),
                          phi=st.floats(0.0, 2 * np.pi), width=st.floats(D(25.0), D(80.0)),
                          amplitude=st.floats(0.05, 0.8), phase=st.floats(0.0, 2 * np.pi)))
    def test_common_factor_at_nodes(self, grid, hand_states, hand_basis, data, pols, lobe):
        # one angular factor c on every state scales row r of H and of F by
        # c(rx_r), which G = H^-1 F cancels; bilinear sampling is exact only at
        # the nodes (a sample of a product is not the product of samples), so
        # the receivers sit on nodes, up to 3 steps apart
        i1 = data.draw(st.integers(0, grid.n_theta - 1))
        j1 = data.draw(st.integers(0, grid.n_phi - 1))
        i2 = min(max(i1 + data.draw(st.integers(-3, 3)), 0), grid.n_theta - 1)
        j2 = (j1 + data.draw(st.integers(-3, 3))) % grid.n_phi
        angles = ((grid.theta[i1], grid.phi[j1]), (grid.theta[i2], grid.phi[j2]))
        factored = apply_perturbation(hand_states, generate_perturbation([lobe], grid, RATIOS))
        sa, a = _decoded(hand_states, hand_basis, angles, pols)
        _, b = _decoded(factored, perturbed_basis(factored), angles, pols)
        assert (a is None) == (b is None)
        if a is not None:
            _assert_round_off(a, b, sa)

    @settings(max_examples=40, deadline=None)
    @given(geometry=_seam_geometry, steps=st.integers(1, 179))
    def test_azimuth_rotation(self, grid, hand_states, hand_basis, geometry, steps):
        # rolling every state by whole azimuth steps rotates the antenna with
        # its perturbation; receivers rotated by the same angle see the same
        # field, up to the round-off of locating them in their new cells
        theta1, phi1, dist, bearing, pol1, pol2 = geometry
        angles = np.array(((theta1, phi1), great_circle_offset(theta1, phi1, dist, bearing)))
        rotated = StatePatternSet(
            ratios=RATIOS,
            patterns={k: VectorPattern(grid=grid,
                                       e_theta=np.roll(hand_states.state(k).e_theta, steps, 1),
                                       e_phi=np.roll(hand_states.state(k).e_phi, steps, 1))
                      for k in range(4)})
        moved = angles.copy()
        moved[:, 1] = np.mod(angles[:, 1] + steps * grid.phi_step, 2 * np.pi)
        sa, a = _decoded(hand_states, hand_basis, angles, (pol1, pol2))
        _, b = _decoded(rotated, perturbed_basis(rotated), moved, (pol1, pol2))
        assert (a is None) == (b is None)
        if a is not None:
            _assert_round_off(a, b, sa)


# summary inputs at the edges: signed zeros, extremes, every threshold and its neighbours
_SUMMARY_EDGES = (0.0, -0.0, 1e-300, 1e300, np.inf, np.nan, *link._EXCEEDANCE_THRESHOLDS,
                  *(np.nextafter(t, 0.0) for t in link._EXCEEDANCE_THRESHOLDS),
                  *(np.nextafter(t, 2.0) for t in link._EXCEEDANCE_THRESHOLDS))


class TestCdfSummary:
    def test_single_record(self):
        s = cdf_summary([0.37])
        assert all(v == 0.37 for v in s.quantiles.values())
        assert s.count == 1

    def test_textbook_median(self):
        s = cdf_summary([1.0, 2.0, 3.0, 4.0])
        assert s.quantiles[50.0] == pytest.approx(2.5)
        assert s.quantiles[25.0] == pytest.approx(1.75)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cdf_summary([])

    def test_exceedance_fractions(self):
        s = cdf_summary([0.5, 1.5, 2.5, 3.5])
        assert s.exceedance[1.0] == pytest.approx(0.75)

    def test_dkw_band_on_uniform_sample(self):
        # empirical CDF of 1e4 uniforms stays inside the 99% DKW band
        rng = np.random.default_rng(2024)
        n = 10_000
        values = np.sort(rng.random(n))
        emp = np.arange(1, n + 1) / n
        eps = np.sqrt(np.log(2 / 0.01) / (2 * n))
        assert np.max(np.abs(emp - values)) <= eps

    @settings(max_examples=200)
    @given(values=st.lists(st.sampled_from(_SUMMARY_EDGES) | st.floats(1e-300, 1e300),
                           min_size=1, max_size=40))
    @example(values=[0.37])
    @example(values=[1e-300, 1e300])
    @example(values=[1e-6, 1e-6, 1e-3, 1e-3, 1.0])
    @example(values=[-0.0, 0.0, -0.0, 1e-6])
    @example(values=[1.0, np.inf, np.inf])
    @example(values=[0.5, np.nan, 0.25])
    def test_sorted_summary_matches_numpy(self, values):
        # quantiles read off the sorted values are np.percentile's bits, and
        # exceedances np.mean(values > t)'s; where -0.0 and 0.0 tie, the sign
        # of a zero quantile follows the order np.percentile's partition left
        # them in, so there the two agree as numbers only
        values = np.array(values)
        s = cdf_summary(values)
        got = np.array(list(s.quantiles.values()))
        with np.errstate(invalid="ignore"):  # inf - inf
            want = np.percentile(values, list(s.quantiles))
        zeros = np.signbit(values[values == 0])
        if zeros.any() and not zeros.all():
            assert np.array_equal(got, want, equal_nan=True)
            assert np.all((got.view(np.int64) == want.view(np.int64)) | (got == 0))
        else:
            assert got.tobytes() == want.tobytes()
        for t, fraction in s.exceedance.items():
            assert np.float64(fraction).tobytes() == np.mean(values > t).tobytes()
        assert s.count == values.size

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 300))
    def test_quantiles_monotone(self, seed, n):
        rng = np.random.default_rng(seed)
        s = cdf_summary(rng.exponential(1.0, size=n))
        q = [s.quantiles[p] for p in (1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0)]
        assert all(a <= b + 1e-15 for a, b in zip(q, q[1:]))
