import dataclasses
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamspace import (
    BasisPair,
    CdfSummary,
    DegenerateError,
    InvalidArgumentError,
    PerturbationLobe,
    PskConstellation,
    StatePatternSet,
    VectorPattern,
    apply_perturbation,
    build_channel,
    build_grid,
    constellation_at_angle,
    default_mirror_profile,
    draw_geometries,
    generate_mirror_pair,
    generate_perturbation,
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
    basis_channel,
    pooled,
    reference_condition_2x2,
    reference_responses,
    reference_zf_gains,
    result_arrays,
    sample_pattern,
    sketch_rows,
    transmit_and_receive,
    upfront_errors,
    upfront_sketches,
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


def _pair_errors_oracle(states, con, geometries, pols=(THETA_POL, THETA_POL)):
    """Per-pair error magnitudes |x_hat - x| by transmit_and_receive + LAPACK.

    Returns one (scenario, k1, k2) array per stream.
    """
    m = con.order
    errors = np.empty((2, len(geometries), m, m))
    for s, angles in enumerate(geometries):
        scenario = build_channel(states, angles, con, pols)
        for k1, x1 in enumerate(con.points):
            for k2, x2 in enumerate(con.points):
                y = transmit_and_receive(states, x1, x2, scenario)
                errors[:, s, k1, k2] = np.abs(zf_equalize(y, states, scenario) - [x1, x2])
    return errors


def _assert_rows_match_pairs(mc, errors):
    """Each ratio row of a sweep against the oracle's errors of every pair of that
    ratio: the extremes to round-off, the other order statistics within alpha."""
    n, m = errors.shape[1:3]
    k1 = np.arange(m)
    for s, rows in enumerate(mc.errors):
        for k, row in enumerate(rows):
            want = np.sort(errors[s][:, k1, (k1 + k) % m], axis=0)  # (n, M): one column per k1
            got = row.order_statistics(np.arange(n))[:, None]
            assert row.count == n
            assert np.allclose(got[[0, -1]], want[[0, -1]], rtol=1e-9, atol=1e-12)
            assert np.allclose(got, want, rtol=SKETCH_ALPHA + 1e-9, atol=1e-12)


def _same_arrays(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name, a in want.items():
        _same_bits(got[name], a)


def _lobed_states(grid, con):
    """Mirror-pair states of ``con``'s alphabet, each state under its own lobe, and their basis."""
    ratios = con.ratio_set
    states = generate_mirror_pair(default_mirror_profile(), grid, ratios)
    psi = generate_perturbation(
        [PerturbationLobe(theta=D(50 + 10 * k), phi=D(290 - 25 * k), width=D(70),
                          amplitude=0.35, phase=D(47 * k), states=(k,))
         for k in range(con.order)], grid, ratios)
    s_hat = apply_perturbation(states, psi)
    return s_hat, perturbed_basis(s_hat)


def _with_states(s_hat, replaced: dict):
    """``s_hat`` with the patterns of ``replaced`` (ratio index -> pattern) swapped in."""
    return StatePatternSet(ratios=s_hat.ratios, patterns={**s_hat.patterns, **replaced})


class TestBuildChannel:
    def test_zero_b2_is_flagged_singular(self, free_states):
        # s+ == s- makes b2 = 0: A's two columns are equal, and H's second is zero
        states = _with_states(free_states, {2: free_states.state(0)})
        scenario = build_channel(states, (RX1, RX2), QPSK)
        assert np.all(scenario.responses[:, 0] == scenario.responses[:, 2])
        assert np.all(basis_channel(states, scenario)[:, 1] == 0)
        assert scenario.singular
        with pytest.raises(DegenerateError, match="condition number inf exceeds cap"):
            zf_equalize(np.array([1.0, 1.0j]), states, scenario)

    def test_received_constellation_rejects_above_cap(self, free_states):
        singular = build_channel(_with_states(free_states, {2: free_states.state(0)}),
                                 (RX1, RX2), QPSK)
        for cap in (1e8, np.inf):  # a singular channel is rejected even without a cap
            with pytest.raises(DegenerateError, match="condition number inf"):
                received_constellation(singular, condition_cap=cap)
        scenario = build_channel(free_states, (RX1, RX2), QPSK)
        cond = scenario.condition_number
        with pytest.raises(DegenerateError, match=re.escape(f"number {cond:.3g} exceeds")):
            received_constellation(scenario, condition_cap=0.99 * cond)
        assert received_constellation(scenario, condition_cap=cond).actual.shape == (2, 16)

    def test_theta_receiver_with_phi_only_pattern_flagged(self, grid):
        rng = np.random.default_rng(0)
        phi_only = {k: VectorPattern(
            grid=grid, e_theta=np.zeros(grid.shape),
            e_phi=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
            for k in range(4)}
        states = StatePatternSet(ratios=RATIOS, patterns=phi_only)
        scenario = build_channel(states, (RX1, RX2), QPSK)
        assert np.all(scenario.responses == 0)
        assert scenario.singular

    def test_entries_match_node_lookup_oracle(self, grid, hand_states):
        # at grid nodes the bilinear weights are exactly one and zero
        i1, j1 = 30, 40
        i2, j2 = 31, 42
        angles = ((grid.theta[i1], grid.phi[j1]), (grid.theta[i2], grid.phi[j2]))
        scenario = build_channel(hand_states, angles, QPSK)
        want = [[hand_states.state(k).e_theta[i, j] for k in range(4)]
                for i, j in ((i1, j1), (i2, j2))]
        assert np.array_equal(scenario.responses, want)

    def test_phi_polarized_receivers(self, grid, free_states):
        i1, j1 = 50, 10
        angles = ((grid.theta[i1], grid.phi[j1]), RX2)
        pol = ((0.0, 1.0), (0.0, 1.0))
        scenario = build_channel(free_states, angles, QPSK, rx_polarizations=pol)
        assert scenario.responses[0, 2] == pytest.approx(
            complex(free_states.state(2).e_phi[i1, j1]), rel=1e-12)

    def test_angle_outside_grid(self, free_states):
        with pytest.raises(InvalidArgumentError, match="theta outside grid coverage"):
            build_channel(free_states, ((-0.2, 0.0), RX2), QPSK)

    def test_condition_number_recorded(self, free_states):
        scenario = build_channel(free_states, (RX1, RX2), QPSK)
        assert np.isfinite(scenario.condition_number)
        assert scenario.condition_number >= 1.0

    def test_condition_number_is_the_basis_channels(self, shipped):
        # cond(A) of the +-1 states' responses equals cond(H) of the basis channel
        # the oracle samples itself, at the config's receivers, at random pairs and
        # at two co-located receivers of the transmit-side decode
        cfg, asm = shipped
        states, con = asm.perturbed_states, asm.constellation
        theta, phi = draw_geometries(np.random.default_rng(17), 20)
        geometries = [((cfg.rx1, cfg.rx2), (THETA_POL, THETA_POL))]
        geometries += [(((t1, p1), (t2, p2)), (THETA_POL, THETA_POL))
                       for t1, t2, p1, p2 in zip(*theta, *phi)]
        geometries += [(((t, p), (t, p)), (THETA_POL, PHI_POL)) for t, p in zip(theta[0], phi[0])]
        for angles, pols in geometries:
            scenario = build_channel(states, angles, con, pols)
            want = np.linalg.cond(basis_channel(states, scenario))
            assert scenario.condition_number == pytest.approx(want, rel=1e-9)

    def test_mismatched_alphabet_rejected(self, free_states):
        with pytest.raises(InvalidArgumentError, match="constellation order does not match"):
            build_channel(free_states, (RX1, RX2), PskConstellation(8))
        with pytest.raises(InvalidArgumentError, match="constellation order does not match"):
            constellation_at_angle(free_states, PskConstellation(8), *RX1)

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
                         responses=np.ones((2, 4), dtype=complex), constellation=QPSK)
        with pytest.raises(InvalidArgumentError, match="two unit 2-vectors"):
            build_channel(free_states, (RX1, RX2), QPSK, pols)

    def test_scenario_polarization_must_be_unit(self):
        from beamspace import LinkScenario
        with pytest.raises(InvalidArgumentError):
            LinkScenario(
                rx_angles=np.array([[1.0, 2.0], [1.0, 2.1]]),
                rx_polarizations=np.array([[2.0, 0.0], [1.0, 0.0]], dtype=complex),
                responses=np.ones((2, 4), dtype=complex),
                constellation=QPSK,
            )

    @pytest.mark.parametrize("responses,message", [
        (np.ones((3, 4), dtype=complex), "2 x M responses"),
        (np.ones((2, 8), dtype=complex), "2 x M responses"),
        (np.array([[1.0, np.nan, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], dtype=complex),
         "must be finite"),
    ])
    def test_scenario_responses_must_be_finite_2xm(self, responses, message):
        from beamspace import LinkScenario
        with pytest.raises(InvalidArgumentError, match=message):
            LinkScenario(rx_angles=np.array((RX1, RX2)),
                         rx_polarizations=np.array((THETA_POL, THETA_POL)),
                         responses=responses, constellation=QPSK)
        ok = LinkScenario(rx_angles=np.array((RX1, RX2)),
                          rx_polarizations=np.array((THETA_POL, THETA_POL)),
                          responses=np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, -1.0, 0.0]]),
                          constellation=QPSK)
        assert ok.condition_number == 1.0 and not ok.responses.flags.writeable


class TestTransmitAndReceive:
    def test_free_space_consistency(self, free_states):
        scenario = build_channel(free_states, (RX1, RX2), QPSK)
        h = basis_channel(free_states, scenario)
        for x1 in QPSK.points:
            for x2 in QPSK.points:
                y = transmit_and_receive(free_states, x1, x2, scenario)
                want = h @ np.array([x1, x2])
                assert np.max(np.abs(y - want)) <= 1e-12

    def test_pm_one_consistency_under_any_perturbation(self, hand_states):
        scenario = build_channel(hand_states, (RX1, RX2), QPSK)
        h = basis_channel(hand_states, scenario)
        for x1, x2 in [(1, 1), (1j, 1j), (1, -1), (1j, -1j)]:
            y = transmit_and_receive(hand_states, x1, x2, scenario)
            want = h @ np.array([x1, x2])
            assert np.max(np.abs(y - want)) <= 1e-12

    def test_pm_j_residual_matches_direct_oracle(self, hand_states, hand_basis):
        scenario = build_channel(hand_states, (RX1, RX2), QPSK)
        h = basis_channel(hand_states, scenario)
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

    def test_ratio_not_in_alphabet(self, free_states):
        scenario = build_channel(free_states, (RX1, RX2), QPSK)
        with pytest.raises(InvalidArgumentError, match="not in the 4-PSK ratio alphabet"):
            transmit_and_receive(free_states, 1.0, np.exp(0.3j), scenario)
        with pytest.raises(ZeroDivisionError, match="x1 = 0"):
            transmit_and_receive(free_states, 0.0, 1.0, scenario)


class TestZfEqualize:
    def test_inverts_exactly(self, free_states):
        scenario = build_channel(free_states, (RX1, RX2), QPSK)
        x = np.array([1.0j, -1.0])
        y = basis_channel(free_states, scenario) @ x
        xhat = zf_equalize(y, free_states, scenario)
        assert np.max(np.abs(xhat - x)) <= 1e-10

    def test_pm_one_decodes_exactly_under_perturbation(self, hand_states):
        scenario = build_channel(hand_states, (RX1, RX2), QPSK)
        for x1, x2 in [(1, 1), (1j, 1j), (-1, 1), (1j, -1j)]:
            y = transmit_and_receive(hand_states, x1, x2, scenario)
            xhat = zf_equalize(y, hand_states, scenario)
            assert np.max(np.abs(xhat - np.array([x1, x2]))) <= 1e-10

    @pytest.mark.parametrize("con", [PskConstellation(4, phase_offset=0.3), PskConstellation(8)])
    def test_pm_one_pairs_decode_as_sent(self, grid, con):
        # on the receive side and at one angle, a +-1 pair's actual points are its
        # sent symbols bit for bit (a zero's sign too), while the other pairs move
        s_hat, _ = _lobed_states(grid, con)
        scenario = build_channel(s_hat, (RX1, RX2), con)
        m = con.order
        for pairs in (received_constellation(scenario),
                      constellation_at_angle(s_hat, con, *RX1)):
            pm1 = np.isin((pairs.k2 - pairs.k1) % m, (0, m // 2))
            assert np.count_nonzero(pm1) == 2 * m
            assert pairs.actual[:, pm1].tobytes() == pairs.ideal[:, pm1].tobytes()
            assert np.max(np.abs(pairs.actual - pairs.ideal)) > 1e-3

    def test_pm_j_three_cluster_structure(self, hand_states):
        scenario = build_channel(hand_states, (RX1, RX2), QPSK)
        pairs = received_constellation(scenario)
        for stream in (1, 2):
            for sym in range(4):
                cluster_values = pairs.actual[stream - 1][
                    (pairs.k1 if stream == 1 else pairs.k2) == sym]
                clusters: list[complex] = []
                for v in cluster_values:
                    if not any(abs(v - c) <= 1e-6 for c in clusters):
                        clusters.append(v)
                assert len(clusters) == 3

    def test_quantization_is_separate(self, hand_states):
        scenario = build_channel(hand_states, (RX1, RX2), QPSK)
        y = transmit_and_receive(hand_states, 1.0, 1.0j, scenario)
        xhat = zf_equalize(y, hand_states, scenario)
        assert np.max(np.abs(xhat - np.array([1.0, 1.0j]))) > 1e-6
        decided = QPSK.nearest(xhat)
        assert decided[0] in QPSK.points
        assert decided[1] in QPSK.points


class TestConstellationAtAngle:
    def test_free_space_actual_equals_ideal(self, free_states):
        pairs = constellation_at_angle(free_states, QPSK, *RX1)
        assert pairs.actual.shape == pairs.ideal.shape == (2, 16)
        assert np.max(np.abs(pairs.actual - pairs.ideal)) <= 1e-9

    def test_perturbed_dichotomy(self, hand_states):
        pairs = constellation_at_angle(hand_states, QPSK, *RX1)
        pm1 = np.isin((pairs.k2 - pairs.k1) % 4, (0, 2))
        assert np.array_equal(pairs.actual[:, pm1], pairs.ideal[:, pm1])
        assert np.max(np.abs(pairs.actual - pairs.ideal)[:, ~pm1]) > 1e-3


def _distance(theta1, phi1, theta2, phi2):
    """Great-circle angle between two directions, by the spherical law of cosines."""
    cosd = np.cos(theta1) * np.cos(theta2) + np.sin(theta1) * np.sin(theta2) * np.cos(phi1 - phi2)
    return np.arccos(np.clip(cosd, -1.0, 1.0))


def _step(theta1, phi1, dist, bearing):
    """``link._angles`` of the uniforms that put receiver 1 at (theta1, phi1) and
    receiver 2 one step of ``dist`` radians along ``bearing`` from it, by the
    separation (d, d) degrees: (2,) theta and phi, receiver 1 first."""
    u = np.array([[(1.0 - np.cos(theta1)) / 2.0], [phi1 / (2 * np.pi)], [0.5],
                  [bearing / (2 * np.pi)]])
    theta, phi = link._angles(u, (np.rad2deg(dist),) * 2)
    return theta[:, 0], phi[:, 0]


def _wrapped_reference(u, separation):
    """The transform of ``draw_geometries`` with its azimuth wrapped by ``np.mod``,
    and receiver 2's azimuth before the wrap."""
    lo, hi = separation
    theta1, phi1 = np.arccos(1.0 - 2.0 * u[0]), 2.0 * np.pi * u[1]
    dist = np.deg2rad(lo) + (np.deg2rad(hi) - np.deg2rad(lo)) * u[2]
    bearing = 2.0 * np.pi * u[3]
    ct1, st1, cd, sd = np.cos(theta1), np.sin(theta1), np.cos(dist), np.sin(dist)
    ct2 = np.clip(ct1 * cd + st1 * sd * np.cos(bearing), -1.0, 1.0)
    phi2 = phi1 + np.arctan2(np.sin(bearing) * sd * st1, cd - ct1 * ct2)
    return (np.stack([theta1, np.arccos(ct2)]),
            np.stack([phi1, np.mod(phi2, 2.0 * np.pi)])), phi2


class TestGeometry:
    def test_offset_distance_preserved(self):
        u = np.random.default_rng(7).random((4, 200))
        theta, phi = link._angles(u, (3.0, 5.0))
        got = _distance(theta[0], phi[0], theta[1], phi[1])
        assert np.max(np.abs(got - (D(3.0) + (D(5.0) - D(3.0)) * u[2]))) <= 1e-9

    def test_zero_bearing_heads_to_north_pole(self):
        theta, phi = _step(1.0, 2.0, 0.3, 0.0)
        assert theta[0] == pytest.approx(1.0, abs=1e-12) and phi[0] == pytest.approx(2.0)
        assert theta[1] == pytest.approx(0.7, abs=1e-12)
        assert phi[1] == pytest.approx(2.0, abs=1e-12)

    def test_pole_crossing(self):
        theta, phi = _step(0.1, 1.0, 0.3, 0.0)
        assert theta[1] == pytest.approx(0.2, abs=1e-12)
        assert phi[1] == pytest.approx(1.0 + np.pi, abs=1e-9)

    @pytest.mark.parametrize("separation", [(3.0, 5.0), (0.1, 179.0)])
    def test_wrap_is_np_mod_bit_for_bit(self, separation):
        # a drawn chunk, then receiver 2 on the edges of the wrap: bearing 0 from the
        # equator heads due north, dphi = +0.0, so its azimuth before the wrap is 2 pi u1
        two_pi = 2.0 * np.pi
        u1 = np.array([-5e-324, -1e-17 / two_pi, -0.0, 0.0, np.nextafter(1.0, 0.0), 1.0])
        edges = np.stack([np.full(6, 0.5), u1, np.full(6, 0.5), np.zeros(6)])
        drawn = np.random.default_rng(11).random((4, link._CHUNK))
        for u in (drawn, edges):
            (want_theta, want_phi), before = _wrapped_reference(u, separation)
            theta, phi = link._angles(u, separation)
            assert theta.tobytes() == want_theta.tobytes()
            assert phi.tobytes() == want_phi.tobytes()
            if u is drawn:  # both branches of the wrap are taken
                assert (before < 0.0).any() and (before >= two_pi).any()
        # the edges: the negative denormal nearest 0 that 2 pi u1 reaches, about -1e-17,
        # zero (-0.0 + 0.0 is +0.0), the double below 2 pi and 2 pi itself
        assert before[0] == -6 * 5e-324 and before[1] == pytest.approx(-1e-17, rel=1e-15)
        assert before[2:].tolist() == [0.0, 0.0, np.nextafter(two_pi, 0.0), two_pi]

    def test_draw_geometries(self):
        n = 100_000
        theta, phi = draw_geometries(np.random.default_rng(19), n, (3.0, 5.0))
        assert theta.shape == phi.shape == (2, n)
        dist = _distance(theta[0], phi[0], theta[1], phi[1])
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
        assert mc.cdf(1)[0][-1] <= 1e-10  # the last row is the largest error, exactly
        assert mc.cdf(2)[0][-1] <= 1e-10

    def test_seeded_reproducibility(self, hand_states, hand_basis):
        a = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=500, seed=11)
        b = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=500, seed=11)
        _same_arrays(result_arrays(b), result_arrays(a))
        c = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=500, seed=12)
        assert not np.array_equal(a.cdf(1)[0], c.cdf(1)[0])

    def test_record_path_cross_check(self, hand_states, hand_basis):
        # the closed-form ratio-state kernel must agree with the per-pair
        # LAPACK path: each state's error, once per pair of that ratio
        for pols in POLARIZATION_PAIRS.values():
            mc = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=3, seed=21,
                                 rx_polarizations=pols)
            assert mc.n_rejected == 0
            _assert_rows_match_pairs(mc, _pair_errors_oracle(hand_states, QPSK,
                                                             _mc_geometries(3, seed=21), pols))

    def test_ratio_state_reduction_8psk_with_offset(self, grid):
        con = PskConstellation(8, phase_offset=0.3)
        s_hat, b_hat = _lobed_states(grid, con)
        mc = run_monte_carlo(s_hat, b_hat, con, n_scenarios=6, seed=8)
        assert mc.n_rejected == 0
        errors = _pair_errors_oracle(s_hat, con, _mc_geometries(6, seed=8))
        k1 = np.arange(8)
        for e in errors:
            for k in range(8):
                # every pair of one ratio index has the same error magnitude
                same_ratio = e[:, k1, (k1 + k) % 8]
                assert np.allclose(same_ratio, same_ratio[:, :1], rtol=1e-12, atol=1e-12)
        assert np.max(errors[1]) > 1e-2
        _assert_rows_match_pairs(mc, errors)

    def test_basis_path_decodes_pm1_exactly(self, shipped_assembly):
        # the sweep folds the +-1 rows as zeros by the basis identity; the
        # per-pair LAPACK path, decoding through the basis, computes them
        states = shipped_assembly.perturbed_states
        basis, con = perturbed_basis(states), shipped_assembly.constellation
        errors = _pair_errors_oracle(states, con, _mc_geometries(40, seed=42))
        k1 = np.arange(con.order)
        pm1 = [errors[s][:, k1, (k1 + k) % con.order] for s in range(2) for k in (0, 2)]
        assert np.max(pm1) <= 1e-10
        mc = run_monte_carlo(states, basis, con, n_scenarios=40, seed=42)
        assert mc.n_rejected == 0
        for rows in mc.errors:
            for k in (0, 2):
                assert rows[k].zeros == rows[k].count == 40 and rows[k].maximum == 0.0

    def test_ratio_index_recorded(self, hand_states):
        scenario = build_channel(hand_states, (RX1, RX2), QPSK)
        pairs = received_constellation(scenario)
        assert pairs.k1.shape == pairs.k2.shape == (16,)
        assert not any(a.flags.writeable for a in (pairs.k1, pairs.k2, pairs.ideal, pairs.actual))
        ratio_index = (pairs.k2 - pairs.k1) % 4
        errors = np.abs(pairs.actual - pairs.ideal)
        # every (stream, ratio index) occurs, and the error magnitude is a function of it
        for k in range(4):
            mags = errors[:, ratio_index == k]
            assert mags.shape == (2, 4)
            assert np.allclose(mags, mags[:, :1], rtol=1e-9, atol=1e-12)

    def test_invalid_arguments(self, free_states, free_basis):
        with pytest.raises(InvalidArgumentError):
            run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=0, seed=1)
        with pytest.raises(InvalidArgumentError):
            run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=10,
                            separation_deg=(0.0, 5.0), seed=1)
        with pytest.raises(InvalidArgumentError):
            run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=10,
                            separation_deg=(5.0, 3.0), seed=1)
        with pytest.raises(InvalidArgumentError, match="constellation order does not match"):
            run_monte_carlo(free_states, free_basis, PskConstellation(8),
                            n_scenarios=10, seed=1)

    @pytest.mark.parametrize("bad", [
        {"condition_cap": float("nan")}, {"condition_cap": 0.5}, {"condition_cap": 1.0},
        {"seed": 1.5}, {"n_scenarios": 2.5}, {"threads": 1.5}, {"seed": -1}, {"threads": 0},
        {"n_scenarios": True}, {"seed": True},
        # malformed scalars and sequences, not a raw TypeError or ValueError
        {"condition_cap": "x"}, {"condition_cap": None}, {"separation_deg": ("a", 5)},
        {"separation_deg": None}, {"separation_deg": (3.0, 4.0, 5.0)}, {"rx_polarizations": "x"},
        # numbers float() reads from a string are still strings
        {"condition_cap": "1e8"}, {"separation_deg": ("3", "5")}, {"separation_deg": "35"},
        {"separation_deg": b"35"},
    ])
    def test_untrusted_arguments_rejected(self, free_states, free_basis, bad):
        with pytest.raises(InvalidArgumentError, match=next(iter(bad))):
            run_monte_carlo(free_states, free_basis, QPSK, **({"n_scenarios": 10, "seed": 1} | bad))

    @pytest.mark.parametrize("call, named", [
        (lambda s: draw_geometries(np.random.default_rng(0), 3, ("a", 5)), "separation_deg"),
        (lambda s: draw_geometries(np.random.default_rng(0), 3, None), "separation_deg"),
        (lambda s: build_channel(s, "x", QPSK), "rx_angles"),
        (lambda s: build_channel(s, (RX1,), QPSK), "rx_angles"),
        (lambda s: build_channel(s, (RX1, RX2), QPSK, "x"), "rx_polarizations"),
        (lambda s: constellation_at_angle(s, QPSK, "a", 1.0), "rx_angles"),
        (lambda s: received_constellation(build_channel(s, (RX1, RX2), QPSK), "x"),
         "condition_cap"),
        # a cap of 1 or less, or NaN, is refused as run_monte_carlo refuses it, before any solve
        *((lambda s, cap=cap: received_constellation(build_channel(s, (RX1, RX2), QPSK), cap),
           "condition_cap must exceed 1") for cap in (0.5, 1.0, float("nan"))),
        (lambda s: constellation_at_angle(s, QPSK, 0.8, 1.0, 1.0), "condition_cap must exceed 1"),
        # a number is never a string, not even one float() reads
        (lambda s: received_constellation(build_channel(s, (RX1, RX2), QPSK), "1e8"),
         "condition_cap"),
        (lambda s: constellation_at_angle(s, QPSK, "0.8", 1.0), "rx_angles"),
        (lambda s: draw_geometries(np.random.default_rng(0), 3, ("3", "5")), "separation_deg"),
        (lambda s: draw_geometries(np.random.default_rng(0), 3, b"35"), "separation_deg"),
        (lambda s: build_channel(s, [["0.8", "1.0"], ["0.8", "1.07"]], QPSK), "rx_angles"),
        (lambda s: build_channel(s, [[0.8, b"1.0"], [0.8, 1.07]], QPSK), "rx_angles"),
    ], ids=["draw_geometries-('a', 5)", "draw_geometries-None", "build_channel-'x'",
            "build_channel-one-row", "build_channel-pols-'x'", "constellation_at_angle-'a'",
            "received_constellation-cap-'x'", "received_constellation-cap-0.5",
            "received_constellation-cap-1.0", "received_constellation-cap-nan",
            "constellation_at_angle-cap-1.0", "received_constellation-cap-'1e8'",
            "constellation_at_angle-'0.8'", "draw_geometries-('3', '5')", "draw_geometries-b'35'",
            "build_channel-strings", "build_channel-bytes"])
    def test_untrusted_link_arguments_rejected(self, free_states, call, named):
        with pytest.raises(InvalidArgumentError, match=named):
            call(free_states)

    def test_scenario_limit(self, free_states, free_basis, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("geometries drawn for a sweep over the limit")

        # the sweep draws each chunk's slice through _uniforms, not draw_geometries
        monkeypatch.setattr(link, "draw_geometries", no_draw)
        monkeypatch.setattr(link, "_uniforms", no_draw)
        for n in (link.MAX_SCENARIOS + 1, 10**12):
            with pytest.raises(InvalidArgumentError, match="n_scenarios"):
                run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=n, seed=1)

    def test_sweep_runs_on_the_calling_thread(self, hand_states, hand_basis, monkeypatch,
                                              sweep_log):
        # eight threads over 300,001 scenarios start no thread and never import
        # concurrent.futures: every chunk runs on the calling thread, in order
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t))[1])
        monkeypatch.setitem(sys.modules, "concurrent.futures", None)  # importing it raises
        n = 300_001
        run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=n, seed=4, threads=8)
        assert started == [] and sweep_log.threads == {threading.get_ident()}
        assert sweep_log.chunks == [(s, min(s + link._CHUNK, n)) for s in range(0, n, link._CHUNK)]

    def test_stream_must_be_one_or_two(self, hand_states, hand_basis):
        mc = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=10, seed=1)
        for stream in (0, -1, 3, True, 1.0):
            with pytest.raises(InvalidArgumentError, match="stream"):
                mc.cdf(stream)

    def test_degenerate_separation_interval_allowed(self, free_states, free_basis):
        # min == max is a valid (single-distance) interval
        mc = run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=50,
                             separation_deg=(4.0, 4.0), seed=3)
        assert mc.summaries()[0].count == 50 * 4

    def test_grid_mismatch_rejected(self, free_states):
        other = generate_mirror_pair(default_mirror_profile(), build_grid(11, 16),
                                     RATIOS)
        with pytest.raises(InvalidArgumentError, match="grids differ"):
            run_monte_carlo(free_states, perturbed_basis(other), QPSK,
                            n_scenarios=5, seed=1)

    def test_basis_of_other_states_rejected(self, free_states, free_basis, hand_states,
                                             hand_basis):
        # the sweep decodes through the +-1 states of s_hat, so a basis built from
        # anything else on the same grid would be ignored: it is refused instead
        psi = generate_perturbation([PerturbationLobe(theta=D(60), phi=D(310), width=D(65),
                                                      amplitude=0.4, phase=D(100), states=(0,))],
                                    grid=free_states.grid, ratios=RATIOS)
        plus_one = apply_perturbation(free_states, psi)
        swapped = BasisPair(b1=hand_basis.b2, b2=hand_basis.b1)
        # the check runs one field component at a time: a wrong b2 alone, and one
        # flipped bit in one component of b2, are refused too
        wrong_b2 = BasisPair(b1=hand_basis.b1, b2=perturbed_basis(plus_one).b2)
        one_bit = hand_basis.b2.e_phi.copy()
        one_bit.view(np.int64).flat[-1] ^= 1
        flipped = BasisPair(b1=hand_basis.b1, b2=VectorPattern(
            grid=hand_basis.grid, e_theta=hand_basis.b2.e_theta, e_phi=one_bit))
        for states, basis in ((hand_states, perturbed_basis(plus_one)),
                              (plus_one, hand_basis), (hand_states, swapped),
                              (hand_states, wrong_b2), (hand_states, flipped)):
            with pytest.raises(InvalidArgumentError, match="perturbed_basis"):
                run_monte_carlo(states, basis, QPSK, n_scenarios=5, seed=1)
        # hand_states perturbs only the +-j states: its basis is the free one, bit for bit
        run_monte_carlo(hand_states, free_basis, QPSK, n_scenarios=5, seed=1)

    def test_bpsk_sweep_is_exact_zeros(self, grid):
        # BPSK has only the +-1 states: every row holds one exact zero per kept
        # channel, and the condition numbers are the per-pair path's
        bpsk = PskConstellation(2)
        free = generate_mirror_pair(default_mirror_profile(), grid, bpsk.ratio_set)
        psi = generate_perturbation(
            [PerturbationLobe(theta=D(60), phi=D(310), width=D(65), amplitude=0.4,
                              phase=D(100), states=(1,))], grid, bpsk.ratio_set)
        s_hat = apply_perturbation(free, psi)
        b_hat = perturbed_basis(s_hat)
        n, cap = 3000, 500.0
        mc = run_monte_carlo(s_hat, b_hat, bpsk, n_scenarios=n, seed=4, condition_cap=cap)
        kept = mc.conditions.count
        assert 0 < kept < n and mc.n_rejected == n - kept
        for rows in mc.errors:
            assert len(rows) == 2
            for row in rows:
                assert row.zeros == row.count == kept and row.counts.size == 0
                assert row.minimum == row.maximum == 0.0 and not row.above.any()
        conds = np.array([build_channel(s_hat, angles, bpsk).condition_number
                          for angles in _mc_geometries(n, seed=4)])
        conds = conds[conds <= cap]
        assert conds.size == kept
        assert np.allclose([mc.conditions.minimum, mc.conditions.maximum],
                           [conds.min(), conds.max()], rtol=1e-9, atol=0)

    def test_bad_polarizations_rejected(self, free_states, free_basis):
        with pytest.raises(InvalidArgumentError):
            run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=5, seed=1,
                            rx_polarizations=((2.0, 0.0), (1.0, 0.0)))

    def test_phi_polarized_receivers_give_different_streams(self, hand_states, hand_basis):
        from beamspace.link import PHI_POL
        a = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=200, seed=6)
        b = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=200, seed=6,
                            rx_polarizations=(PHI_POL, PHI_POL))
        assert not np.array_equal(a.cdf(1)[0], b.cdf(1)[0])

    def test_rejection_tally(self, grid, free_states):
        # force universal rejection with an impossible condition cap
        basis = perturbed_basis(free_states)
        mc = run_monte_carlo(free_states, basis, QPSK, n_scenarios=50, seed=5,
                             condition_cap=1.0 + 1e-12)
        assert mc.n_rejected == 50
        assert all(r.count == 0 for rows in mc.errors for r in rows)

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
        for rows_a, rows_b in zip(a.errors, b.errors):
            for ra, rb in zip(rows_a, rows_b):  # the extremes are exact, the rest within alpha
                assert np.allclose([rb.minimum, rb.maximum], [ra.minimum, ra.maximum],
                                   rtol=1e-9, atol=1e-12)
        for s in (1, 2):  # near-equal errors can fall in neighbouring buckets
            assert np.allclose(b.cdf(s)[0], a.cdf(s)[0], rtol=2 * SKETCH_ALPHA, atol=1e-12)

    def test_mc_cdf_monotone_in_unit_interval(self, hand_states, hand_basis):
        mc = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=400, seed=2)
        for stream in (1, 2):
            errors, probs = mc.cdf(stream)
            assert np.all(np.diff(errors) >= 0)
            assert probs[0] > 0
            assert probs[-1] == 1.0
            assert np.all(np.diff(probs) > 0)


class SweepLog:
    """What a test's sweeps run: the (start, stop) of each chunk and the
    threads that drew them."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.chunks, self.threads = [], set()


@pytest.fixture
def sweep_log(monkeypatch):
    log, uniforms = SweepLog(), link._uniforms

    def recorded(seed, n, start, stop):
        log.chunks.append((start, stop))
        log.threads.add(threading.get_ident())
        return uniforms(seed, n, start, stop)

    monkeypatch.setattr(link, "_uniforms", recorded)
    return log


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# counts around chunk edges: one scenario; one short of four 1,024-scenario chunks
# (the chunk size the stream test patches in), four, one over, and twelve plus a
# partial one; then one short of a _CHUNK, one _CHUNK and one over
STREAM_COUNTS = (1, 4095, 4096, 4097, 3 * 4096 + 17,
                 link._CHUNK - 1, link._CHUNK, link._CHUNK + 1)
# around 8,192 scenarios, and three and twelve of them plus a partial one
CHUNK_COUNTS = (8191, 8193, 3 * 8192 + 17, 100_001)


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
    def test_streams_equal_upfront_sweep(self, shipped, n, monkeypatch, sweep_log):
        # _CHUNK-scenario chunks, then 1,024-scenario chunks, all on the calling
        # thread at any thread count; merging sketches adds integers, so the
        # sweep's rows are the bits of one add per row
        cfg, asm = shipped
        args = (asm.perturbed_states, perturbed_basis(asm.perturbed_states), asm.constellation)
        params = dict(separation_deg=cfg.separation_deg, condition_cap=cfg.condition_cap)
        want, rejected = upfront_sketches(*args, n, cfg.seed, **params)
        if cfg.condition_cap == 200 and n > 1:
            assert 0 < rejected < n  # chunks reject some of their scenarios
        for threads in (1, 2, 8):
            if threads > 1:
                monkeypatch.setattr(link, "_CHUNK", 1024)
            sweep_log.clear()
            mc = run_monte_carlo(*args, n_scenarios=n, seed=cfg.seed, threads=threads, **params)
            assert sweep_log.threads == {threading.get_ident()}
            assert mc.n_rejected == rejected
            _same_arrays(result_arrays(mc), want)

    @pytest.mark.parametrize("n", CHUNK_COUNTS)
    def test_chunk_size_does_not_change_bytes(self, shipped, n, monkeypatch):
        cfg, asm = shipped
        args = (asm.perturbed_states, perturbed_basis(asm.perturbed_states), asm.constellation)
        params = dict(separation_deg=cfg.separation_deg, condition_cap=cfg.condition_cap)
        runs = []
        for size in (link._CHUNK, link._CHUNK // 2 + 1):
            monkeypatch.setattr(link, "_CHUNK", size)
            runs.append(run_monte_carlo(*args, n_scenarios=n, seed=cfg.seed, **params))
        a, b = runs
        assert a.n_rejected == b.n_rejected
        _same_arrays(result_arrays(b), result_arrays(a))

    def test_working_memory_does_not_grow_with_n(self, hand_states, hand_basis):
        # numpy reports its buffers to tracemalloc; a sweep holds one chunk's
        # working set and its result is 2M + 1 sketches, whatever the scenario count
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
        whole = {}
        for n in (20_000, 100_000, 150_000, 400_000):
            mc, whole[n] = traced(lambda: run_monte_carlo(hand_states, hand_basis, QPSK,
                                                          n_scenarios=n, seed=5))
            assert mc.n_rejected == 0
            assert sum(r.count for rows in mc.errors for r in rows) == 8 * n
        assert max(whole.values()) - min(whole.values()) <= 2**20
        # a stream's summary merges its rows into one store of some 10^4 keys here
        summaries, peak = traced(mc.summaries)
        assert peak < 256 * 1024
        assert [s.count for s in summaries] == [4 * 400_000] * 2


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


def _reference_points(states, con, angles, pols):
    """The responses (2, M) in ratio order, the condition number of A and the
    decoded points (2 streams, M^2 pairs in k1-major order) of one geometry by
    the reference kernel, in state coordinates: the +-1 pairs as sent, the
    others x1 times the gains T^-1 A^-1 F, with A the responses to the +1 and
    -1 states; None for the points when the channel is above the default cap.
    Each product is re = ar br - ai bi, im = ar bi + ai br in Python floats,
    every operation rounded on its own."""
    angles = np.asarray(angles, dtype=float)
    pols = np.asarray(pols, dtype=complex)
    theta, phi = angles[:, :1], angles[:, 1:]
    m = con.order
    f = reference_responses(tuple(states.state(k) for k in range(m)), theta, phi, pols)
    order = [0, m // 2, *(k for k in range(m) if k not in (0, m // 2))]  # +1, -1, the others
    f = f[..., order]
    # A contiguous, so that its four squared magnitudes are summed in row order
    cond = reference_condition_2x2(np.ascontiguousarray(f[0, :, :2]))[0]
    _, y, _ = reference_zf_gains(f[..., :2], f[..., 2:], np.inf)
    g = dict(zip(order[2:], zip(y[0, 0] + y[0, 1], y[0, 0] - y[0, 1])))
    x = con.points.tolist()

    def times(a, b):
        return complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)

    points = np.array([[times(x[k1], g[(k2 - k1) % m][s]) if (k2 - k1) % m in g
                         else (x[k1], x[k2])[s] for k1 in range(m) for k2 in range(m)]
                        for s in (0, 1)])
    responses = np.empty((2, m), dtype=complex)
    responses[:, order] = f[0]
    return responses, cond, points if cond <= DEFAULT_CONDITION_CAP else None


@pytest.fixture(scope="module", params=["hand_scenario", "freespace"])
def shipped_assembly(request):
    return _assemble(load_config(CONFIGS / f"{request.param}.json"))


class TestScenarioLastKernel:
    """The kernel keeps scenarios on the last axis; its bits are those of the
    scenario-first reference in ``helpers``."""

    @pytest.mark.parametrize("pols", POLARIZATION_PAIRS.values(), ids=POLARIZATION_PAIRS)
    @pytest.mark.parametrize("n", (1, 4095, 4096, 4097))
    def test_responses_and_gains(self, shipped_assembly, pols, n):
        states = shipped_assembly.perturbed_states
        basis = perturbed_basis(states)
        patterns = (basis.b1, basis.b2) + tuple(states.state(k) for k in range(QPSK.order))
        pols = np.asarray(pols, dtype=complex)
        for at_nodes in (True, False):
            theta, phi = _kernel_angles(basis.grid, n, at_nodes, seed=n)
            resp = link._responses(patterns, theta, phi, pols)
            want = reference_responses(patterns, theta, phi, pols)
            _same_bits(resp, np.moveaxis(want, 0, -1))
            for cap in (DEFAULT_CONDITION_CAP, 200.0):
                # _decode's solve is the reference's, then the map back G = T^-1 y
                keep, g, cond = link._decode(resp, cap)
                want_keep, y, want_cond = reference_zf_gains(want[:, :, :2], want[:, :, 2:], cap)
                _same_bits(keep, want_keep)
                _same_bits(cond, want_cond)
                y = np.moveaxis(y, 0, -1)
                _same_bits(g, np.stack([y[0] + y[1], y[0] - y[1]]))

    @pytest.mark.parametrize("pols", POLARIZATION_PAIRS.values(), ids=POLARIZATION_PAIRS)
    def test_build_channel_and_received_constellation(self, shipped_assembly, pols):
        states = shipped_assembly.perturbed_states
        for at_nodes in (True, False):
            theta, phi = _kernel_angles(states.grid, 16, at_nodes, seed=5)
            for s in range(16):
                angles = ((theta[0, s], phi[0, s]), (theta[1, s], phi[1, s]))
                scenario = build_channel(states, angles, QPSK, pols)
                responses, cond, points = _reference_points(states, QPSK, angles, pols)
                _same_bits(scenario.responses, responses)
                _same_bits(scenario.condition_number, cond)
                if points is None:
                    with pytest.raises(DegenerateError, match="exceeds cap"):
                        received_constellation(scenario)
                    continue
                got = received_constellation(scenario)
                _same_bits(got.actual, points)
                pm1 = np.isin((got.k2 - got.k1) % 4, (0, 2))
                assert np.array_equal(got.actual[:, pm1], got.ideal[:, pm1])

    def test_constellation_at_angle(self, shipped_assembly):
        states = shipped_assembly.perturbed_states
        for at_nodes in (True, False):
            theta, phi = _kernel_angles(states.grid, 16, at_nodes, seed=6)
            for angle in zip(theta[0], phi[0]):
                *_, points = _reference_points(states, QPSK, (angle, angle),
                                               (THETA_POL, PHI_POL))
                if points is None:
                    with pytest.raises(DegenerateError, match="exceeds cap"):
                        constellation_at_angle(states, QPSK, *angle)
                    continue
                got = constellation_at_angle(states, QPSK, *angle)
                _same_bits(got.actual, points)

    def test_non_exact_alphabet(self, grid):
        # QPSK's points are exact units; 8-PSK off the axes is not, so a product
        # rounded unlike the explicit formula (numpy's array complex multiply) shows here
        con = PskConstellation(8, phase_offset=0.3)
        s_hat, _ = _lobed_states(grid, con)
        theta, phi = _kernel_angles(grid, 8, False, seed=7)
        for rx1, rx2 in zip(zip(theta[0], phi[0]), zip(theta[1], phi[1])):
            *_, points = _reference_points(s_hat, con, (rx1, rx2), (THETA_POL, THETA_POL))
            _same_bits(received_constellation(build_channel(s_hat, (rx1, rx2), con)).actual,
                       points)
            *_, points = _reference_points(s_hat, con, (rx1, rx1), (THETA_POL, PHI_POL))
            _same_bits(constellation_at_angle(s_hat, con, *rx1).actual, points)


def _assert_within_alpha(got: CdfSummary, values):
    """A sketch's summary against the exact ``values``: quantiles within SKETCH_ALPHA
    (plus round-off) of np.percentile's; count and exceedances exact."""
    values = np.ravel(values)
    assert got.count == values.size
    assert got.exceedance == {t: np.mean(values > t) for t in link._EXCEEDANCE_THRESHOLDS}
    for p, q in got.quantiles.items():
        want = np.percentile(values, p)
        assert abs(q - want) <= (SKETCH_ALPHA + 1e-12) * abs(want), p


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
            _assert_within_alpha(one.summary(), exact)

    def test_order_statistics_stay_within_row_extremes(self):
        # every value in the bucket [1, 1 + 2^-7): its midpoint 1 + 2^-8 lies above
        # the largest of `low` and below the smallest of `high`, so only the clip
        # keeps an interior order statistic, and a CDF row, inside the row's range
        low = 1.0 + np.arange(8) * 1e-4
        high = 1.0 + 2.0**-7 - np.arange(1, 9) * 1e-4

        def sketch(values):
            s = Sketch.empty(link._EXCEEDANCE_THRESHOLDS)
            s.add(values)
            assert s.counts.size == 1
            return s

        for values in (low, high):
            got = sketch(values).order_statistics(np.arange(values.size))
            assert np.all((values.min() <= got) & (got <= values.max()))
        mc = link.MonteCarloResult(n_scenarios=8, n_rejected=0, seed=0, separation_deg=(3.0, 5.0),
                                   errors=((sketch(low), sketch(low[::2])),
                                           (sketch(high), sketch(high[1::2]))),
                                   conditions=Sketch.empty())
        for stream, values in ((1, low), (2, high)):
            errors, _ = mc.cdf(stream)
            assert errors.size == 12 and np.all(errors <= values.max())

    def test_quantiles_within_alpha_of_exact(self, shipped):
        # the exact samples and condition numbers come from the oracle
        cfg, asm = shipped
        args = (asm.perturbed_states, perturbed_basis(asm.perturbed_states), asm.constellation)
        params = dict(separation_deg=cfg.separation_deg, condition_cap=cfg.condition_cap)
        n = 100_000
        mc = run_monte_carlo(*args, n_scenarios=n, seed=cfg.seed, **params)
        errors, conds, rejected = upfront_errors(*args, n, cfg.seed, **params)
        assert mc.n_rejected == rejected
        for s, got in enumerate(mc.summaries()):
            _assert_within_alpha(got, errors[:, s])
            for k in range(asm.constellation.order):
                _assert_within_alpha(mc.errors[s][k].summary(), errors[:, s, k])
        got = mc.conditions.summary()
        assert got.count == n - rejected and got.exceedance == {}
        for p, q in got.quantiles.items():
            want = np.percentile(conds, p)
            assert abs(q - want) <= (SKETCH_ALPHA + 1e-12) * want
        assert (mc.conditions.minimum, mc.conditions.maximum) == (conds.min(), conds.max())

    def test_all_rejected_leaves_empty_sketches(self, free_states, free_basis, tmp_path):
        # a full chunk and a partial one
        mc = run_monte_carlo(free_states, free_basis, QPSK, n_scenarios=5_001, seed=5,
                             condition_cap=1.0 + 1e-12)
        assert mc.n_rejected == 5_001
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
        mc = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=5_001, seed=9)
        written = save_results(tmp_path, mc=mc)
        with np.load(written["sketch"]) as npz:
            f = {name: npz[name] for name in npz.files}
        offsets, counts = f["error_offsets"], f["error_counts"]
        assert offsets.shape == (9,) and offsets[0] == 0 and offsets[-1] == counts.size
        for name in ("key0", "zeros", "min", "max"):  # the one condition row: one value each
            assert f[f"condition_{name}"].shape == (1,)

        def edge(key):  # the lower edge of a bucket key, as the README gives it
            return (np.int64(key) << 45).view(np.float64)

        (condition,) = sketch_rows(f, "condition_")
        assert condition.summary() == mc.conditions.summary()
        rows = sketch_rows(f, "error_")
        for s in range(2):
            for k, row in enumerate(rows[s]):
                store, key0 = row.counts, row.key0
                if k in (0, 2):  # +-1: one exact zero per kept channel, and no store
                    assert store.size == 0 and row.zeros == condition.count
                    assert row.minimum == row.maximum == 0.0
                else:
                    assert store.size and store[0] > 0 and store[-1] > 0
                    assert edge(key0 + store.size - 1) <= row.maximum < edge(key0 + store.size)
                    if row.zeros == 0:
                        assert edge(key0) <= row.minimum < edge(key0 + 1)
                assert row.summary() == mc.errors[s][k].summary()
            stream = pooled(rows[s])
            n, i = stream.count, np.arange(1, 10_001)
            errors, probs = load_cdf_csv(written[f"cdf_stream{s + 1}"])
            _same_bits(stream.order_statistics((i * n + 9_999) // 10_000 - 1), errors)
            assert stream.summary() == mc.summaries()[s]

    def test_sketch_bytes_do_not_depend_on_threads(self, hand_states, hand_basis, tmp_path,
                                                   monkeypatch, sweep_log):
        # the CDFs and sketch.npz are read from the merged sketches of eight and
        # twelve 512-scenario chunks plus a partial one, all on the calling thread
        monkeypatch.setattr(link, "_CHUNK", 512)
        for n in (8 * 512 + 1, 12 * 512 + 257):
            files = []
            sweep_log.clear()
            for threads in (1, 2, 8):
                mc = run_monte_carlo(hand_states, hand_basis, QPSK, n_scenarios=n, seed=9,
                                     threads=threads)
                assert mc.stream_errors == ()
                written = save_results(tmp_path / f"{n}-{threads}", mc=mc)
                assert sorted(written) == ["cdf_stream1", "cdf_stream2", "sketch"]
                files.append([written[k].read_bytes()
                              for k in ("sketch", "cdf_stream1", "cdf_stream2")])
            assert files[0] == files[1] == files[2]
            assert sweep_log.threads == {threading.get_ident()}


_POLS = (THETA_POL, PHI_POL, (np.sqrt(0.5), 0.5 + 0.5j), (np.cos(0.3), np.exp(0.7j) * np.sin(0.3)))


def _receivers(draw):
    """(2, 2) receive angles, receiver 1's row first, from ``link._angles`` of one draw."""
    *u, d, pol1, pol2 = draw
    theta, phi = link._angles(np.array(u)[:, None], (d, d))
    return np.stack([theta[:, 0], phi[:, 0]], axis=1), pol1, pol2


def _geometries(u1=st.floats(0.0, 1.0, exclude_max=True)):
    """Receive angles from four uniforms and a separation (d, d) degrees, receiver 1
    at least 0.05 rad from the poles, then both polarizations."""
    margin = (1.0 - np.cos(0.05)) / 2.0  # the u0 of theta1 = 0.05
    return st.tuples(st.floats(margin, 1.0 - margin), u1, st.floats(0.0, 1.0),
                     st.floats(0.0, 1.0, exclude_max=True), st.floats(3.0, 5.0),
                     st.sampled_from(_POLS), st.sampled_from(_POLS)).map(_receivers)


_geometry = _geometries()
# half of the draws put receiver 1 in the last azimuth cell of the 2-degree grid,
# where bilinear sampling wraps to phi = 0
_seam_geometry = _geometries(st.floats(0.0, 1.0, exclude_max=True)
                             | st.floats(1.0 - 1.0 / 180.0, 1.0, exclude_max=True))


def _decoded(states, angles, pols):
    """The scenario and the (ideal, actual) points of every symbol pair, in
    emitted order; no points when the channel is over the default cap."""
    scenario = build_channel(states, angles, QPSK, pols)
    if not scenario.condition_number <= 1e8:
        return scenario, None
    pairs = received_constellation(scenario)
    return scenario, np.stack([pairs.ideal, pairs.actual])


def _assert_round_off(a, b, scenario):
    """``b`` equals ``a`` up to round-off amplified by the channel's condition number."""
    bound = 16 * np.finfo(float).eps * scenario.condition_number * np.max(np.abs(a))
    assert np.max(np.abs(b - a)) <= bound


class TestMetamorphic:
    """Relations the decode must satisfy whatever the geometry."""

    @settings(max_examples=40, deadline=None)
    @given(geometry=_geometry)
    def test_receiver_swap(self, hand_states, geometry):
        # swapping the receivers swaps the rows of A and F and leaves G = H^-1 F
        (rx1, rx2), pol1, pol2 = geometry
        sa, a = _decoded(hand_states, (rx1, rx2), (pol1, pol2))
        sb, b = _decoded(hand_states, (rx2, rx1), (pol2, pol1))
        assert sb.responses.tobytes() == sa.responses[::-1].tobytes()
        assert (a is None) == (b is None)
        if a is not None:
            # not bitwise: numpy's complex multiply need not commute bitwise (it
            # may fuse a multiply-add), so the swapped determinant h10*h01 -
            # h11*h00 can differ from -(h00*h11 - h01*h10) in its last bits
            _assert_round_off(a, b, sa)

    @settings(max_examples=25, deadline=None)
    @given(geometry=_geometry, log_scale=st.floats(-2.0, 2.0), phase=st.floats(0.0, 2 * np.pi))
    def test_global_scale(self, grid, hand_states, geometry, log_scale, phase):
        # A and F scale together, so the decoded points move by round-off only
        angles, pol1, pol2 = geometry
        c = 10.0 ** log_scale * np.exp(1j * phase)
        scaled = StatePatternSet(
            ratios=RATIOS,
            patterns={k: VectorPattern(grid=grid, e_theta=c * hand_states.state(k).e_theta,
                                       e_phi=c * hand_states.state(k).e_phi)
                      for k in range(4)})
        sa, a = _decoded(hand_states, angles, (pol1, pol2))
        _, b = _decoded(scaled, angles, (pol1, pol2))
        assert (a is None) == (b is None)
        if a is not None:
            _assert_round_off(a, b, sa)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), pols=st.tuples(st.sampled_from(_POLS), st.sampled_from(_POLS)),
           lobe=st.builds(PerturbationLobe, theta=st.floats(0.2, np.pi - 0.2),
                          phi=st.floats(0.0, 2 * np.pi), width=st.floats(D(25.0), D(80.0)),
                          amplitude=st.floats(0.05, 0.8), phase=st.floats(0.0, 2 * np.pi)))
    def test_common_factor_at_nodes(self, grid, hand_states, data, pols, lobe):
        # one angular factor c on every state scales row r of A and of F by
        # c(rx_r), which G = T^-1 A^-1 F cancels; bilinear sampling is exact only at
        # the nodes (a sample of a product is not the product of samples), so
        # the receivers sit on nodes, up to 3 steps apart
        i1 = data.draw(st.integers(0, grid.n_theta - 1))
        j1 = data.draw(st.integers(0, grid.n_phi - 1))
        i2 = min(max(i1 + data.draw(st.integers(-3, 3)), 0), grid.n_theta - 1)
        j2 = (j1 + data.draw(st.integers(-3, 3))) % grid.n_phi
        angles = ((grid.theta[i1], grid.phi[j1]), (grid.theta[i2], grid.phi[j2]))
        factored = apply_perturbation(hand_states, generate_perturbation([lobe], grid, RATIOS))
        sa, a = _decoded(hand_states, angles, pols)
        _, b = _decoded(factored, angles, pols)
        assert (a is None) == (b is None)
        if a is not None:
            _assert_round_off(a, b, sa)

    @settings(max_examples=40, deadline=None)
    @given(geometry=_seam_geometry, steps=st.integers(1, 179))
    def test_azimuth_rotation(self, grid, hand_states, geometry, steps):
        # rolling every state by whole azimuth steps rotates the antenna with
        # its perturbation; receivers rotated by the same angle see the same
        # field, up to the round-off of locating them in their new cells
        angles, pol1, pol2 = geometry
        rotated = StatePatternSet(
            ratios=RATIOS,
            patterns={k: VectorPattern(grid=grid,
                                       e_theta=np.roll(hand_states.state(k).e_theta, steps, 1),
                                       e_phi=np.roll(hand_states.state(k).e_phi, steps, 1))
                      for k in range(4)})
        moved = angles.copy()
        moved[:, 1] = np.mod(angles[:, 1] + steps * grid.phi_step, 2 * np.pi)
        sa, a = _decoded(hand_states, angles, (pol1, pol2))
        _, b = _decoded(rotated, moved, (pol1, pol2))
        assert (a is None) == (b is None)
        if a is not None:
            _assert_round_off(a, b, sa)


# summary inputs at the edges: signed zeros, extremes, every threshold and its neighbours
_SUMMARY_EDGES = (0.0, -0.0, 1e-300, 1e300, *link._EXCEEDANCE_THRESHOLDS,
                  *(np.nextafter(t, 0.0) for t in link._EXCEEDANCE_THRESHOLDS),
                  *(np.nextafter(t, 2.0) for t in link._EXCEEDANCE_THRESHOLDS))


def _summary(values) -> CdfSummary:
    """``Sketch.summary`` of ``values``."""
    s = Sketch.empty(link._EXCEEDANCE_THRESHOLDS)
    s.add(np.asarray(values, dtype=float))
    return s.summary()


def _midpoints(values) -> np.ndarray:
    """Each nonzero value moved to its sketch bucket's midpoint, where a sketch's
    order statistics of it are exact."""
    v = np.asarray(values, dtype=float)
    return np.where(v == 0, v, ((v.view(np.int64) >> 45 << 45) | 1 << 44).view(np.float64))


class TestCdfSummary:
    """``Sketch.summary``, the one summary of every product."""

    def test_single_record(self):
        s = _summary([0.37])
        assert all(v == 0.37 for v in s.quantiles.values())
        assert s.count == 1

    def test_textbook_median(self):
        values = _midpoints([1.0, 2.0, 3.0, 4.0])
        s = _summary(values)
        for p, want in ((50.0, 2.5), (25.0, 1.75)):
            assert s.quantiles[p] == np.percentile(values, p)
            assert s.quantiles[p] == pytest.approx(want, rel=SKETCH_ALPHA)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Sketch.empty(link._EXCEEDANCE_THRESHOLDS).summary()

    def test_exceedance_fractions(self):
        s = _summary([0.5, 1.5, 2.5, 3.5])
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
    @example(values=[0.0, 0.0, 0.0])
    def test_sorted_summary_matches_numpy(self, values):
        # on bucket midpoints every order statistic is exact, so the quantiles
        # are np.percentile's bits, and exceedances np.mean(values > t)'s; a
        # sketch counts -0.0 as a zero and reads zeros back as 0.0, so where
        # a -0.0 is among the values the two agree as numbers only
        values = _midpoints(values)
        s = _summary(values)
        got = np.array(list(s.quantiles.values()))
        want = np.percentile(values, list(s.quantiles))
        if np.signbit(values[values == 0]).any():
            assert np.array_equal(got, want)
            assert np.all((got.view(np.int64) == want.view(np.int64)) | (got == 0))
        else:
            assert got.tobytes() == want.tobytes()
        for t, fraction in s.exceedance.items():
            assert np.float64(fraction).tobytes() == np.mean(values > t).tobytes()
        assert s.count == values.size

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 300))
    def test_quantiles_monotone(self, seed, n):
        rng = np.random.default_rng(seed)
        s = _summary(rng.exponential(1.0, size=n))
        q = [s.quantiles[p] for p in (1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0)]
        assert all(a <= b + 1e-15 for a, b in zip(q, q[1:]))
