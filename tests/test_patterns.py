import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from beamspace import (
    BasisPair,
    DegenerateError,
    EvmMap,
    GaussianLobe,
    InvalidArgumentError,
    PerturbationLobe,
    PskConstellation,
    StatePatternSet,
    VectorPattern,
    apply_perturbation,
    basis_correlation_db,
    build_grid,
    default_mirror_profile,
    evm_map,
    generate_mirror_pair,
    generate_perturbation,
    integrate_power,
    perturbed_basis,
    power_imbalance_db,
)
from beamspace.patterns import _lobe_profile

QPSK = PskConstellation.qpsk()
RATIOS = QPSK.ratio_set


def _random_pattern(grid, rng):
    return VectorPattern(
        grid=grid,
        e_theta=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
        e_phi=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
    )


def _random_states(grid, rng):
    return StatePatternSet(
        ratios=RATIOS, patterns={k: _random_pattern(grid, rng) for k in range(4)}
    )


def _pm_one_states(grid, e_plus, e_minus):
    """A QPSK state set with the given +-1 states; the +-j states are random."""
    rng = np.random.default_rng(99)
    return StatePatternSet(ratios=RATIOS, patterns={
        0: e_plus, 1: _random_pattern(grid, rng), 2: e_minus, 3: _random_pattern(grid, rng)})


def _sum(a, alpha, b):
    """The pattern a + alpha * b, computed here."""
    return VectorPattern(grid=a.grid, e_theta=a.e_theta + alpha * b.e_theta,
                         e_phi=a.e_phi + alpha * b.e_phi)


def _inner(a, b):
    """The weighted full-sphere inner product <a, b>, conjugate-linear in a."""
    return complex(np.sum(a.grid.weights * (np.conj(a.e_theta) * b.e_theta
                                            + np.conj(a.e_phi) * b.e_phi)))


def _gaussian_psi(grid, rng, states=None, polarization="both"):
    lobe = PerturbationLobe(
        theta=float(rng.uniform(0.3, np.pi - 0.3)),
        phi=float(rng.uniform(0, 2 * np.pi)),
        width=float(rng.uniform(0.4, 1.2)),
        amplitude=float(rng.uniform(0.1, 0.6)),
        phase=float(rng.uniform(0, 2 * np.pi)),
        states=states,
        polarization=polarization,
    )
    return generate_perturbation([lobe], grid, RATIOS)


class TestComputeBasis:
    """The basis of the +-1 states, read through ``perturbed_basis``."""

    def test_equal_patterns_make_b2_vanish(self, small_grid):
        rng = np.random.default_rng(0)
        e = _random_pattern(small_grid, rng)
        basis = perturbed_basis(_pm_one_states(small_grid, e, e))
        assert np.array_equal(basis.b1.e_theta, e.e_theta)
        assert np.all(basis.b2.e_theta == 0)
        assert np.all(basis.b2.e_phi == 0)

    def test_opposite_patterns_make_b1_vanish(self, small_grid):
        rng = np.random.default_rng(1)
        e = _random_pattern(small_grid, rng)
        minus = VectorPattern(grid=small_grid, e_theta=-e.e_theta, e_phi=-e.e_phi)
        basis = perturbed_basis(_pm_one_states(small_grid, e, minus))
        assert np.all(basis.b1.e_theta == 0)
        assert np.array_equal(basis.b2.e_theta, e.e_theta)

    def test_algebraic_round_trip(self, small_grid):
        # b1 + b2 and b1 - b2 give back the +-1 states to the last rounding, and bit for
        # bit where b1 +- b2 is exact (equal or opposite states: one member is zero)
        rng = np.random.default_rng(2)
        e_plus = _random_pattern(small_grid, rng)
        e_minus = _random_pattern(small_grid, rng)
        basis = perturbed_basis(_pm_one_states(small_grid, e_plus, e_minus))
        re_plus = _sum(basis.b1, 1.0, basis.b2)
        re_minus = _sum(basis.b1, -1.0, basis.b2)
        assert np.allclose(re_plus.e_theta, e_plus.e_theta, rtol=1e-12, atol=1e-14)
        assert np.allclose(re_minus.e_phi, e_minus.e_phi, rtol=1e-12, atol=1e-14)
        for e_minus in (e_plus, VectorPattern(grid=small_grid, e_theta=-e_plus.e_theta,
                                              e_phi=-e_plus.e_phi)):
            basis = perturbed_basis(_pm_one_states(small_grid, e_plus, e_minus))
            for sign, e in ((1.0, e_plus), (-1.0, e_minus)):
                back = _sum(basis.b1, sign, basis.b2)
                assert np.array_equal(back.e_theta, e.e_theta)
                assert np.array_equal(back.e_phi, e.e_phi)

    def test_grid_mismatch(self, small_grid):
        # +-1 states on two grids never meet: neither a state set nor a basis takes them
        rng = np.random.default_rng(3)
        e, other = _random_pattern(small_grid, rng), _random_pattern(build_grid(6, 8), rng)
        with pytest.raises(InvalidArgumentError, match="grids differ"):
            _pm_one_states(small_grid, e, other)
        with pytest.raises(InvalidArgumentError, match="grids differ"):
            BasisPair(b1=e, b2=other)


class TestSynthesizePattern:
    """The states of ``generate_mirror_pair`` other than +-1 are b1 + ratio * b2."""

    def test_unit_pair_recovers_plus_state(self, small_grid):
        states = generate_mirror_pair(default_mirror_profile(), small_grid, RATIOS)
        basis = perturbed_basis(states)
        for k, sign in ((0, 1.0), (2, -1.0)):
            got = _sum(basis.b1, sign, basis.b2)
            assert np.allclose(got.e_theta, states.state(k).e_theta, rtol=1e-12, atol=1e-14)
            assert np.allclose(got.e_phi, states.state(k).e_phi, rtol=1e-12, atol=1e-14)

    def test_quarter_ratio_matches_pointwise_arithmetic(self, small_grid):
        states = generate_mirror_pair(default_mirror_profile(), small_grid, RATIOS)
        basis = perturbed_basis(states)
        got = states.state(1)  # the +j state
        i, j = 3, 6
        want = complex(basis.b1.e_theta[i, j]) + 1j * complex(basis.b2.e_theta[i, j])
        assert complex(got.e_theta[i, j]) == pytest.approx(want, rel=1e-15)


class TestApplyPerturbation:
    def test_identity_is_exact(self, small_grid):
        rng = np.random.default_rng(7)
        states = _random_states(small_grid, rng)
        out = apply_perturbation(states, generate_perturbation((), small_grid, RATIOS))
        for k in range(4):
            assert np.array_equal(out.state(k).e_theta, states.state(k).e_theta)
            assert np.array_equal(out.state(k).e_phi, states.state(k).e_phi)

    def test_uniform_half_quarters_power(self, small_grid):
        rng = np.random.default_rng(8)
        states = _random_states(small_grid, rng)
        half = np.full(small_grid.shape, 0.5, dtype=complex)
        factor = VectorPattern(grid=small_grid, e_theta=half, e_phi=half)
        out = apply_perturbation(states, {k: factor for k in range(4)})
        for k in range(4):
            assert integrate_power(out.state(k)) == pytest.approx(
                integrate_power(states.state(k)) / 4.0, rel=1e-12)

    def test_gaussian_lobe_pointwise_oracle(self, small_grid):
        rng = np.random.default_rng(9)
        states = _random_states(small_grid, rng)
        psi = _gaussian_psi(small_grid, rng)
        out = apply_perturbation(states, psi)
        for _ in range(10):
            k = int(rng.integers(0, 4))
            i = int(rng.integers(0, small_grid.n_theta))
            j = int(rng.integers(0, small_grid.n_phi))
            want = complex(psi[k].e_theta[i, j]) * complex(states.state(k).e_theta[i, j])
            assert complex(out.state(k).e_theta[i, j]) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("field", ["identity", "no-lobes"])
    def test_unity_factor_passes_components_through(self, small_grid, field):
        # a unity field built by hand, or the generator's lobe-free field
        states = _random_states(small_grid, np.random.default_rng(11))
        ones = np.ones(small_grid.shape, complex)
        unity = VectorPattern(grid=small_grid, e_theta=ones, e_phi=ones)
        psi = ({k: unity for k in range(4)}
               if field == "identity" else generate_perturbation([], small_grid, RATIOS))
        out = apply_perturbation(states, psi)
        for k in range(4):
            assert np.shares_memory(out.state(k).e_theta, states.state(k).e_theta)
            assert np.shares_memory(out.state(k).e_phi, states.state(k).e_phi)

    def test_only_the_perturbed_component_is_new(self, small_grid):
        rng = np.random.default_rng(12)
        states = _random_states(small_grid, rng)
        psi = _gaussian_psi(small_grid, rng, states=(2,), polarization="phi")
        out = apply_perturbation(states, psi)
        assert len({id(a) for f in psi.values() for a in (f.e_theta, f.e_phi)}) == 2
        for k in range(4):
            for name in ("e_theta", "e_phi"):
                shared = np.shares_memory(getattr(out.state(k), name),
                                          getattr(states.state(k), name))
                assert shared == ((k, name) != (2, "e_phi"))

    def test_pass_through_keeps_signed_zeros(self, small_grid):
        # a multiply by 1+0j turns the real part of -0.0-0.0j into +0.0
        states = _random_states(small_grid, np.random.default_rng(13))
        e = states.state(0)
        e_theta = e.e_theta.copy()
        e_theta[0, 0] = complex(-0.0, -0.0)
        patterns = dict(states.patterns)
        patterns[0] = VectorPattern(grid=small_grid, e_theta=e_theta, e_phi=e.e_phi)
        states = StatePatternSet(ratios=RATIOS, patterns=patterns)
        out = apply_perturbation(states, generate_perturbation([], small_grid, RATIOS))
        zero = out.state(0).e_theta[0, 0]
        assert zero == 0 and np.signbit(zero.real) and np.signbit(zero.imag)

    def test_key_and_grid_mismatch(self, small_grid):
        rng = np.random.default_rng(10)
        states = _random_states(small_grid, rng)
        bpsk_psi = generate_perturbation((), small_grid, PskConstellation(2).ratio_set)
        with pytest.raises(InvalidArgumentError, match=r"do not cover ratio indices 0\.\.3"):
            apply_perturbation(states, bpsk_psi)
        psi = generate_perturbation((), small_grid, RATIOS)
        with pytest.raises(InvalidArgumentError, match=r"keys \[0, 1, 2, 3, 4\] do not cover"):
            apply_perturbation(states, {**psi, 4: psi[0]})
        other_psi = generate_perturbation((), build_grid(6, 8), RATIOS)
        with pytest.raises(InvalidArgumentError, match="grids differ"):
            apply_perturbation(states, other_psi)
        # one factor off the grid is enough
        with pytest.raises(InvalidArgumentError, match="grids differ"):
            apply_perturbation(states, {**psi, 3: other_psi[3]})


class TestPerturbedBasis:
    def test_identity_reproduces_basis(self, small_grid):
        rng = np.random.default_rng(11)
        states = generate_mirror_pair(
            [GaussianLobe(theta=1.0, phi=0.9, width=0.5, polarization=(1.0, 0.4j))],
            small_grid, RATIOS)
        b0 = perturbed_basis(states)
        b1 = perturbed_basis(
            apply_perturbation(states, generate_perturbation((), small_grid, RATIOS)))
        assert np.array_equal(b0.b1.e_theta, b1.b1.e_theta)
        assert np.array_equal(b0.b2.e_phi, b1.b2.e_phi)

    def test_state_independent_factor_scales_basis(self, small_grid):
        rng = np.random.default_rng(12)
        states = _random_states(small_grid, rng)
        psi = _gaussian_psi(small_grid, rng, states=None)
        b0 = perturbed_basis(states)
        b_hat = perturbed_basis(apply_perturbation(states, psi))
        assert np.allclose(b_hat.b1.e_theta, psi[0].e_theta * b0.b1.e_theta,
                           rtol=1e-13, atol=1e-14)
        assert np.allclose(b_hat.b2.e_phi, psi[0].e_phi * b0.b2.e_phi,
                           rtol=1e-13, atol=1e-14)

    def test_distinct_factors_match_expansion_oracle(self, small_grid):
        rng = np.random.default_rng(13)
        states = _random_states(small_grid, rng)
        psi = generate_perturbation(
            [PerturbationLobe(theta=1.2, phi=2.0, width=0.8, amplitude=0.4,
                              phase=0.7, states=(0,)),
             PerturbationLobe(theta=2.0, phi=4.0, width=0.6, amplitude=-0.3,
                              phase=0.2, states=(2,))],
            small_grid, RATIOS)
        s_hat = apply_perturbation(states, psi)
        b_hat = perturbed_basis(s_hat)
        psi_p = psi[0].e_theta
        psi_m = psi[2].e_theta
        want_b1 = 0.5 * (psi_p * states.state(0).e_theta + psi_m * states.state(2).e_theta)
        want_b2 = 0.5 * (psi_p * states.state(0).e_theta - psi_m * states.state(2).e_theta)
        assert np.allclose(b_hat.b1.e_theta, want_b1, rtol=1e-13, atol=1e-14)
        assert np.allclose(b_hat.b2.e_theta, want_b2, rtol=1e-13, atol=1e-14)

    def test_reconstruction_identity_for_pm_one(self, small_grid):
        # the +-1 states are reproduced identically whatever the perturbation
        rng = np.random.default_rng(14)
        states = _random_states(small_grid, rng)
        s_hat = apply_perturbation(states, _gaussian_psi(small_grid, rng, states=(0,)))
        b_hat = perturbed_basis(s_hat)
        plus = _sum(b_hat.b1, 1.0, b_hat.b2)
        minus = _sum(b_hat.b1, -1.0, b_hat.b2)
        assert np.max(np.abs(plus.e_theta - s_hat.state(0).e_theta)) <= 1e-14
        assert np.max(np.abs(plus.e_phi - s_hat.state(0).e_phi)) <= 1e-14
        assert np.max(np.abs(minus.e_theta - s_hat.state(2).e_theta)) <= 1e-14

    def test_requires_even_order(self, small_grid):
        rng = np.random.default_rng(15)
        tri = PskConstellation(3).ratio_set
        patterns = {k: _random_pattern(small_grid, rng) for k in range(3)}
        states = StatePatternSet(ratios=tri, patterns=patterns)
        with pytest.raises(InvalidArgumentError, match="ratio -1 requires an even order, got 3"):
            perturbed_basis(states)


class TestEvm:
    def test_free_space_evm_is_zero(self, small_grid):
        states = generate_mirror_pair(
            [GaussianLobe(theta=1.1, phi=0.7, width=0.6, polarization=(0.8, 0.6j))],
            small_grid, RATIOS)
        emap = evm_map(states)
        assert np.max(emap.values) <= 1e-12

    def test_state_independent_perturbation_cancels(self, small_grid):
        rng = np.random.default_rng(16)
        states = generate_mirror_pair(
            [GaussianLobe(theta=1.3, phi=0.5, width=0.7, polarization=(1.0, 0.3))],
            small_grid, RATIOS)
        s_hat = apply_perturbation(states, _gaussian_psi(small_grid, rng, states=None))
        emap = evm_map(s_hat)
        assert np.max(emap.values) <= 1e-10

    def test_pm_one_numerator_terms_vanish_and_bruteforce(self, small_grid):
        # perturb only the +j state; +-1 contributions stay identically zero
        states = generate_mirror_pair(
            [GaussianLobe(theta=1.0, phi=5.2, width=0.8, polarization=(1.0, 0.2j))],
            small_grid, RATIOS)
        eps_lobe = PerturbationLobe(theta=1.4, phi=1.0, width=0.9,
                                    amplitude=0.05, states=(1,))
        psi = generate_perturbation([eps_lobe], small_grid, RATIOS)
        s_hat = apply_perturbation(states, psi)
        b_hat = perturbed_basis(s_hat)
        i, j = 2, 4
        num = {}
        den_total = 0.0
        for k, xbar in enumerate(RATIOS.values):
            term = 0.0
            for comp in ("e_theta", "e_phi"):
                ideal = (getattr(b_hat.b1, comp)[i, j]
                         + xbar * getattr(b_hat.b2, comp)[i, j])
                term += abs(ideal - getattr(s_hat.state(k), comp)[i, j]) ** 2
                den_total += abs(ideal) ** 2
            num[k] = term
        assert num[0] == 0.0
        assert num[2] == 0.0
        assert num[1] > 0.0
        brute = np.sqrt(sum(num.values()) / den_total)
        got = evm_map(s_hat).values[i, j]
        assert got == pytest.approx(brute, rel=1e-12)

    def test_degenerate_angle_raises_and_is_masked(self, small_grid):
        # theta*(pi - theta) vanishes exactly at both poles: zero power there
        t = small_grid.theta
        shape = (t * (np.pi - t))[:, None] * np.ones((1, small_grid.n_phi))
        e = VectorPattern(grid=small_grid, e_theta=shape.astype(complex),
                          e_phi=np.zeros(small_grid.shape))
        # every state is e; its basis is (e, 0), so each state decomposes as e + r * 0
        states = StatePatternSet(ratios=RATIOS, patterns=dict.fromkeys(range(4), e))
        emap = evm_map(states)
        assert emap.degenerate_mask[0, 0]
        assert emap.degenerate_mask[-1, 0]
        assert not emap.degenerate_mask[2, 3]
        assert emap.masked_fraction() == pytest.approx(2.0 / small_grid.n_theta, rel=1e-12)
        everywhere = EvmMap(grid=small_grid, values=emap.values,
                            degenerate_mask=np.ones(small_grid.shape, bool))
        with pytest.raises(DegenerateError, match="every angle of the EVM map is degenerate"):
            everywhere.average()

    def test_arrays_must_match_grid_shape(self, small_grid):
        ok, wrong = np.zeros(small_grid.shape), np.zeros(small_grid.shape[::-1])
        for values, mask, named in ((wrong, ok, "values"), (ok, ok[:-1], "degenerate_mask")):
            with pytest.raises(InvalidArgumentError, match=f"EVM {named} must match grid shape"):
                EvmMap(grid=small_grid, values=values, degenerate_mask=mask)

    def test_masked_fraction_zero_for_nonvanishing_basis(self, default_grid):
        states = generate_mirror_pair(default_mirror_profile(), default_grid, RATIOS)
        emap = evm_map(states)
        assert emap.masked_fraction() == 0.0

    def test_average_matches_weighted_mean_oracle(self, small_grid):
        rng = np.random.default_rng(17)
        states = generate_mirror_pair(default_mirror_profile(), small_grid, RATIOS)
        s_hat = apply_perturbation(states, _gaussian_psi(small_grid, rng, states=(1,)))
        emap = evm_map(s_hat)
        w = small_grid.weights
        v = emap.values
        mean = float((w * v).sum() / w.sum())
        rms = float(np.sqrt((w * v * v).sum() / w.sum()))
        avg = emap.average()
        assert avg["mean_linear"] == pytest.approx(mean, rel=1e-12)
        assert avg["rms_linear"] == pytest.approx(rms, rel=1e-12)
        assert avg["db_of_rms"] == pytest.approx(20 * np.log10(rms), rel=1e-12)

    def test_global_scale_invariance(self, small_grid):
        rng = np.random.default_rng(18)
        states = _random_states(small_grid, rng)
        c = 0.7 - 1.3j
        scaled = StatePatternSet(
            ratios=RATIOS,
            patterns={k: VectorPattern(grid=small_grid,
                                       e_theta=c * states.state(k).e_theta,
                                       e_phi=c * states.state(k).e_phi)
                      for k in range(4)})
        m1 = evm_map(states)
        m2 = evm_map(scaled)
        assert np.allclose(m1.values, m2.values, rtol=1e-12, atol=1e-13)


class TestBasisMetrics:
    def test_mirror_pair_orthogonal(self, default_grid):
        rng = np.random.default_rng(19)
        for _ in range(5):
            lobes = [GaussianLobe(
                theta=float(rng.uniform(0.3, np.pi - 0.3)),
                phi=float(rng.uniform(0, 2 * np.pi)),
                width=float(rng.uniform(0.3, 1.0)),
                amplitude=float(rng.uniform(0.5, 1.5)),
                phase=float(rng.uniform(0, 2 * np.pi)),
                polarization=(complex(rng.standard_normal(), rng.standard_normal()),
                              complex(rng.standard_normal(), rng.standard_normal())),
            ) for _ in range(2)]
            basis = perturbed_basis(generate_mirror_pair(lobes, default_grid, RATIOS))
            assert basis_correlation_db(basis) <= -100.0
            p1 = integrate_power(basis.b1)
            p2 = integrate_power(basis.b2)
            assert abs(_inner(basis.b1, basis.b2)) <= 1e-10 * np.sqrt(p1 * p2)

    def test_identical_patterns_zero_db(self, small_grid):
        rng = np.random.default_rng(20)
        b = _random_pattern(small_grid, rng)
        basis = BasisPair(b1=b, b2=b)
        assert basis_correlation_db(basis) == pytest.approx(0.0, abs=1e-12)
        assert power_imbalance_db(basis) == pytest.approx(0.0, abs=1e-12)

    def test_matches_integral_oracle(self, small_grid):
        rng = np.random.default_rng(21)
        states = _random_states(small_grid, rng)
        basis = perturbed_basis(states)
        p1 = integrate_power(basis.b1)
        p2 = integrate_power(basis.b2)
        ip = _inner(basis.b1, basis.b2)
        want_corr = 20 * np.log10(abs(ip) / np.sqrt(p1 * p2))
        want_imb = abs(10 * np.log10(p1 / p2))
        assert basis_correlation_db(basis) == pytest.approx(want_corr, abs=1e-6)
        assert power_imbalance_db(basis) == pytest.approx(want_imb, abs=1e-6)

    def test_correlation_upper_bound(self, small_grid):
        rng = np.random.default_rng(22)
        for _ in range(10):
            basis = perturbed_basis(_random_states(small_grid, rng))
            assert basis_correlation_db(basis) <= 0.0

    def test_zero_power_member_raises(self, small_grid):
        rng = np.random.default_rng(23)
        b = _random_pattern(small_grid, rng)
        zero = VectorPattern(grid=small_grid, e_theta=np.zeros(small_grid.shape),
                             e_phi=np.zeros(small_grid.shape))
        with pytest.raises(DegenerateError, match=r"basis pattern with \(numerically\) zero"):
            basis_correlation_db(BasisPair(b1=b, b2=zero))
        with pytest.raises(DegenerateError, match=r"basis pattern with \(numerically\) zero"):
            power_imbalance_db(BasisPair(b1=zero, b2=b))


class TestGenerators:
    def test_mirror_pattern_is_involution_and_flips_phi(self, small_grid):
        # the -1 state is the +1 state reflected about phi = 0: azimuth node j goes to
        # node -j mod n_phi and the phi component changes sign; reflecting twice is the identity
        lobe = GaussianLobe(theta=1.1, phi=0.7, width=0.6, polarization=(0.8, 0.6j))
        states = generate_mirror_pair([lobe], small_grid, RATIOS)
        p, m = states.state(0), states.state(2)
        mirror = (-np.arange(small_grid.n_phi)) % small_grid.n_phi
        assert np.array_equal(m.e_theta, p.e_theta[:, mirror])
        assert np.array_equal(m.e_phi, -p.e_phi[:, mirror])
        assert np.array_equal(m.e_theta[:, mirror], p.e_theta)
        assert np.array_equal(-m.e_phi[:, mirror], p.e_phi)
        # phi = 0 column is fixed up to the sign flip of the phi component
        assert np.array_equal(m.e_theta[:, 0], p.e_theta[:, 0])
        assert np.array_equal(m.e_phi[:, 0], -p.e_phi[:, 0])
        assert np.any(m.e_theta != p.e_theta)  # an off-plane lobe: not its own mirror

    def test_empty_profile_rejected(self, small_grid):
        with pytest.raises(InvalidArgumentError):
            generate_mirror_pair([], small_grid, RATIOS)

    def test_odd_order_rejected(self, small_grid):
        tri = PskConstellation(3).ratio_set
        with pytest.raises(InvalidArgumentError, match="mirror pair generation needs an even"):
            generate_mirror_pair(default_mirror_profile(), small_grid, tri)

    def test_on_plane_theta_lobe_degenerates_b2(self, small_grid):
        lobe = GaussianLobe(theta=np.pi / 2, phi=0.0, width=0.6,
                            polarization=(1.0, 0.0))
        states = generate_mirror_pair([lobe], small_grid, RATIOS)
        basis = perturbed_basis(states)
        assert integrate_power(basis.b2) <= 1e-30 * integrate_power(basis.b1)
        with pytest.raises(DegenerateError, match=r"basis pattern with \(numerically\) zero"):
            power_imbalance_db(basis)
        with pytest.raises(DegenerateError, match=r"basis pattern with \(numerically\) zero"):
            basis_correlation_db(basis)

    def test_default_profile_calibration(self, default_grid):
        basis = perturbed_basis(
            generate_mirror_pair(default_mirror_profile(), default_grid, RATIOS))
        assert power_imbalance_db(basis) == pytest.approx(0.8, abs=0.2)
        assert basis_correlation_db(basis) <= -100.0

    def test_free_space_set_satisfies_decomposition(self, small_grid):
        states = generate_mirror_pair(default_mirror_profile(), small_grid, RATIOS)
        basis = perturbed_basis(states)
        for k, r in enumerate(RATIOS.values):
            want = _sum(basis.b1, r, basis.b2)
            if k in (1, 3):
                # the +-j states are stored exactly as synthesized
                assert np.array_equal(want.e_theta, states.state(k).e_theta)
                assert np.array_equal(want.e_phi, states.state(k).e_phi)
            else:
                # the stored +-1 states are the lobe fields themselves;
                # reconstruction agrees to the last rounding
                assert np.allclose(want.e_theta, states.state(k).e_theta,
                                   rtol=1e-15, atol=1e-16)
                assert np.allclose(want.e_phi, states.state(k).e_phi,
                                   rtol=1e-15, atol=1e-16)

    def test_perturbation_empty_spec_is_identity(self, small_grid):
        psi = generate_perturbation([], small_grid, RATIOS)
        for k in range(4):
            assert np.all(psi[k].e_theta == 1.0)
            assert np.all(psi[k].e_phi == 1.0)
        # one unity map, shared by every state and polarization
        assert len({id(f) for f in psi.values()}) == 1
        assert psi[0].e_theta is psi[0].e_phi

    def test_perturbation_negative_half_at_center(self, small_grid):
        # center placed exactly on a grid node
        i, j = 2, 3
        lobe = PerturbationLobe(theta=float(small_grid.theta[i]),
                                phi=float(small_grid.phi[j]),
                                width=0.5, amplitude=-0.5)
        psi = generate_perturbation([lobe], small_grid, RATIOS)
        assert abs(psi[0].e_theta[i, j]) == pytest.approx(0.5, rel=1e-12)

    def test_perturbation_invalid_width(self, small_grid):
        with pytest.raises(InvalidArgumentError):
            PerturbationLobe(theta=1.0, phi=1.0, width=0.0, amplitude=0.1)
        with pytest.raises(InvalidArgumentError):
            GaussianLobe(theta=1.0, phi=1.0, width=-0.2)

    def test_perturbation_lobe_rejects_non_finite(self):
        # an infinite width would spread a constant bump over the whole sphere
        for field in ("theta", "phi", "width", "amplitude", "phase"):
            for bad in (np.inf, -np.inf, np.nan):
                params = dict(theta=1.0, phi=1.0, width=0.5, amplitude=0.2, phase=0.0)
                params[field] = bad
                with pytest.raises(InvalidArgumentError):
                    PerturbationLobe(**params)

    def test_perturbation_lobe_rejects_repeated_state(self):
        # a repeated index would add the bump twice: a lobe of twice the amplitude
        with pytest.raises(InvalidArgumentError):
            PerturbationLobe(theta=1.0, phi=1.0, width=0.5, amplitude=0.3, states=(0, 0))
        assert PerturbationLobe(theta=1.0, phi=1.0, width=0.5, amplitude=0.3,
                                states=(2, 0)).states == (2, 0)

    @pytest.mark.parametrize("state", [1.7, 1.0, True, "1", None])
    def test_perturbation_lobe_rejects_non_integer_state(self, state):
        # int() would have turned 1.7, 1.0, True and "1" into state 1
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            PerturbationLobe(theta=1.0, phi=1.0, width=0.5, amplitude=0.3, states=(state,))
        states = PerturbationLobe(theta=1.0, phi=1.0, width=0.5, amplitude=0.3,
                                  states=(np.int64(1), 0)).states
        assert states == (1, 0) and type(states[0]) is int

    def test_factors_are_shared_by_lobe_subset(self, small_grid):
        # at order 8, a lobe on every state and a theta-only lobe on state 3 touch the
        # components in two subsets, {0} and {0, 1}: two sums, two patterns
        ratios8 = PskConstellation(8).ratio_set
        lobes = [PerturbationLobe(theta=1.2, phi=0.4, width=0.8, amplitude=0.4, phase=0.3),
                 PerturbationLobe(theta=2.0, phi=4.0, width=0.6, amplitude=-0.3, phase=1.1,
                                  states=(3,), polarization="theta")]
        psi = generate_perturbation(lobes, small_grid, ratios8)
        b0, b1 = (_lobe_profile(small_grid, lobe) for lobe in lobes)
        assert len({id(a) for f in psi.values() for a in (f.e_theta, f.e_phi)}) == 2
        assert len({id(f) for f in psi.values()}) == 2
        for k in range(8):
            # the sum in lobe order, bit for bit
            want = (1.0 + b0) + b1 if k == 3 else 1.0 + b0
            assert psi[k].e_theta.tobytes() == want.tobytes()
            assert psi[k].e_phi.tobytes() == (1.0 + b0).tobytes()
            # the first lobe's theta and phi factors are one array
            assert (psi[k].e_theta is psi[k].e_phi) == (k != 3)
            assert psi[k].e_phi is psi[0].e_phi

    def test_perturbation_unknown_state_rejected(self, small_grid):
        lobe = PerturbationLobe(theta=1.0, phi=1.0, width=0.5, amplitude=0.2,
                                states=(7,))
        with pytest.raises(InvalidArgumentError, match="targets unknown state index 7"):
            generate_perturbation([lobe], small_grid, RATIOS)

    def test_two_state_asymmetric_spec_gives_positive_evm(self, small_grid):
        states = generate_mirror_pair(default_mirror_profile(), small_grid, RATIOS)
        psi = generate_perturbation(
            [PerturbationLobe(theta=1.2, phi=5.5, width=0.8, amplitude=0.4,
                              states=(1, 3))],
            small_grid, RATIOS)
        s_hat = apply_perturbation(states, psi)
        emap = evm_map(s_hat)
        assert float(np.max(emap.values)) > 1e-6

    def test_lobe_profile_uses_great_circle_distance(self, small_grid):
        lobe = GaussianLobe(theta=1.0, phi=2.0, width=0.5, amplitude=1.0,
                            polarization=(1.0, 0.0))
        states = generate_mirror_pair([lobe], small_grid, RATIOS)
        i, j = 3, 5
        t, p = small_grid.theta[i], small_grid.phi[j]
        d = np.arccos(np.cos(t) * np.cos(1.0) + np.sin(t) * np.sin(1.0) * np.cos(p - 2.0))
        want = np.exp(-d * d / (2 * 0.5 * 0.5))
        assert abs(states.state(0).e_theta[i, j]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("shape", [(7, 13), (91, 180), (37, 101)])
    def test_lobe_profile_is_the_meshgrid_profile_bit_for_bit(self, shape):
        # the profile on the grid's axes against every node's angles as a meshgrid:
        # each node's operations in one order, so the same bits
        grid = build_grid(*shape)
        t, p = np.meshgrid(grid.theta, grid.phi, indexing="ij")
        rng = np.random.default_rng(shape[0])
        lobes = [*default_mirror_profile(), *(
            PerturbationLobe(theta=rng.uniform(0.0, np.pi), phi=rng.uniform(0.0, 2 * np.pi),
                             width=rng.uniform(0.05, 1.5), amplitude=rng.uniform(-1.0, 1.0),
                             phase=rng.uniform(-np.pi, np.pi)) for _ in range(8))]
        for lobe in lobes:
            cosd = (np.cos(t) * np.cos(lobe.theta)
                    + np.sin(t) * np.sin(lobe.theta) * np.cos(p - lobe.phi))
            d = np.arccos(np.clip(cosd, -1.0, 1.0))
            want = (lobe.amplitude * np.exp(1j * lobe.phase)
                    * np.exp(-(d * d) / (2.0 * lobe.width * lobe.width)))
            assert _lobe_profile(grid, lobe).tobytes() == want.tobytes()

    @pytest.mark.parametrize("make, named", [
        (lambda: GaussianLobe(theta=np.nan, phi=0.0, width=0.5), "lobe theta"),
        (lambda: GaussianLobe(theta=1.0, phi=0.0, width=0.5, amplitude=np.inf), "amplitude"),
        (lambda: GaussianLobe(theta=1.0, phi=0.0, width=0.5, polarization=(np.nan, 1.0)),
         "lobe polarization"),
        (lambda: GaussianLobe(theta=1.0, phi=0.0, width=0.0), "lobe width must be positive"),
        (lambda: PerturbationLobe(theta=1.0, phi=0.0, width=0.5, amplitude=0.2,
                                  polarization="x"), "polarization must be one of"),
        (lambda: PerturbationLobe(theta=1.0, phi=0.0, width=-0.5, amplitude=0.2),
         "perturbation lobe width must be positive"),
    ])
    def test_lobe_parameters_checked(self, make, named):
        with pytest.raises(InvalidArgumentError, match=named):
            make()


class TestOtherOrders:
    def test_bpsk_is_immune_to_any_perturbation(self, small_grid):
        # with only the +-1 states, the perturbed basis reconstructs every
        # state identically, so the radiated constellation never distorts
        rng = np.random.default_rng(30)
        bpsk = PskConstellation(2).ratio_set
        states = generate_mirror_pair(default_mirror_profile(), small_grid, bpsk)
        lobes = [PerturbationLobe(theta=1.1, phi=2.3, width=0.7, amplitude=0.5,
                                  phase=1.0, states=(0,)),
                 PerturbationLobe(theta=2.0, phi=5.0, width=0.9, amplitude=-0.4,
                                  phase=2.0, states=(1,))]
        psi = generate_perturbation(lobes, small_grid, bpsk)
        s_hat = apply_perturbation(states, psi)
        emap = evm_map(s_hat)
        assert float(np.max(emap.values)) <= 1e-12

    def test_8psk_distorts_non_pm_one_states(self, small_grid):
        ratios8 = PskConstellation(8).ratio_set
        states = generate_mirror_pair(default_mirror_profile(), small_grid, ratios8)
        assert set(states.patterns) == set(range(8))
        free = evm_map(states)
        assert float(np.max(free.values)) <= 1e-12
        psi = generate_perturbation(
            [PerturbationLobe(theta=1.2, phi=0.4, width=0.8, amplitude=0.4,
                              states=(1, 3, 5))],
            small_grid, ratios8)
        s_hat = apply_perturbation(states, psi)
        emap = evm_map(s_hat)
        assert float(np.max(emap.values)) > 1e-3


# Strengths of one perturbation, a decade apart: small enough for the first-order term to
# dominate (the second is about 0.1% at 1e-3), far above round-off.
_WEAK = (1e-5, 1e-4, 1e-3)


class TestFirstOrderPhysics:
    """Weak perturbations act to first order: the EVM is linear in their strength."""

    @pytest.mark.parametrize("target", ["theta", "phi", "both"])
    @pytest.mark.parametrize("order", [4, 8])
    # no explain phase: on a failure it re-runs the slow EVM maps for tens of seconds
    @settings(max_examples=8, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.explain])
    @given(data=st.data())
    def test_evm_steps_20_db_per_decade(self, order, target, data):
        # a sign, factor or conjugation error in generating, applying or decomposing
        # the perturbation breaks this; a common factor, which cancels, would not show it
        ratios = PskConstellation(order).ratio_set
        grid = build_grid(19, 36)
        states = generate_mirror_pair(default_mirror_profile(), grid, ratios)
        lobes = data.draw(st.lists(st.builds(
            PerturbationLobe, theta=st.floats(0.2, np.pi - 0.2), phi=st.floats(0.0, 2 * np.pi),
            width=st.floats(0.4, 1.4), amplitude=st.floats(0.1, 1.0),
            phase=st.floats(0.0, 2 * np.pi), polarization=st.just(target),
            # never every state: a lobe on all of them is a common factor
            states=st.sets(st.integers(0, order - 1), min_size=1, max_size=order - 1).map(
                sorted)), min_size=1, max_size=3))
        db = [evm_map(apply_perturbation(states, generate_perturbation(
                  [dataclasses.replace(lobe, amplitude=s * lobe.amplitude) for lobe in lobes],
                  grid, ratios))).average()["db_of_rms"]
              for s in _WEAK]
        assert np.all(np.abs(np.diff(db) - 20.0) <= 0.05), db


class TestStatePatternSetValidation:
    def test_keys_must_cover_ratio_set(self, small_grid):
        rng = np.random.default_rng(25)
        patterns = {k: _random_pattern(small_grid, rng) for k in range(3)}
        with pytest.raises(InvalidArgumentError, match=r"state keys \[0, 1, 2\] do not cover"):
            StatePatternSet(ratios=RATIOS, patterns=patterns)

    def test_zero_power_state_rejected(self, small_grid):
        rng = np.random.default_rng(26)
        patterns = {k: _random_pattern(small_grid, rng) for k in range(4)}
        patterns[2] = VectorPattern(grid=small_grid,
                                    e_theta=np.zeros(small_grid.shape),
                                    e_phi=np.zeros(small_grid.shape))
        with pytest.raises(InvalidArgumentError):
            StatePatternSet(ratios=RATIOS, patterns=patterns)

    def test_identity_field_constructible(self, small_grid):
        psi = generate_perturbation((), small_grid, RATIOS)
        assert set(psi) == {0, 1, 2, 3}
        with pytest.raises(TypeError):
            psi[0] = psi[1]  # a read-only mapping
