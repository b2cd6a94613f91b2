import numpy as np
import pytest

from beamspace import (
    BasisPair,
    DegenerateAngleError,
    DegenerateBasisError,
    GaussianLobe,
    GridMismatchError,
    InvalidArgumentError,
    PerturbationField,
    PerturbationLobe,
    PskConstellation,
    RatioSetMismatchError,
    ScalarAngularMap,
    StatePatternSet,
    UndefinedRatioError,
    VectorPattern,
    apply_perturbation,
    basis_correlation_db,
    build_grid,
    compute_basis,
    default_mirror_profile,
    evm_at_angle,
    evm_map,
    generate_mirror_pair,
    generate_perturbation,
    great_circle_distance,
    inner_product,
    integrate_power,
    lincomb,
    mirror_pattern,
    perturbed_basis,
    power_imbalance_db,
    synthesize_pattern,
)

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
    def test_equal_patterns_make_b2_vanish(self, small_grid):
        rng = np.random.default_rng(0)
        e = _random_pattern(small_grid, rng)
        basis = compute_basis(e, e)
        assert np.array_equal(basis.b1.e_theta, e.e_theta)
        assert np.all(basis.b2.e_theta == 0)
        assert np.all(basis.b2.e_phi == 0)

    def test_opposite_patterns_make_b1_vanish(self, small_grid):
        rng = np.random.default_rng(1)
        e = _random_pattern(small_grid, rng)
        minus = lincomb(-1.0, e, 0.0, e)
        basis = compute_basis(e, minus)
        assert np.all(basis.b1.e_theta == 0)
        assert np.array_equal(basis.b2.e_theta, e.e_theta)

    def test_algebraic_round_trip(self, small_grid):
        rng = np.random.default_rng(2)
        e_plus = _random_pattern(small_grid, rng)
        e_minus = _random_pattern(small_grid, rng)
        basis = compute_basis(e_plus, e_minus)
        re_plus = lincomb(1.0, basis.b1, 1.0, basis.b2)
        re_minus = lincomb(1.0, basis.b1, -1.0, basis.b2)
        assert np.allclose(re_plus.e_theta, e_plus.e_theta, rtol=1e-12, atol=1e-14)
        assert np.allclose(re_minus.e_phi, e_minus.e_phi, rtol=1e-12, atol=1e-14)

    def test_grid_mismatch(self, small_grid):
        rng = np.random.default_rng(3)
        with pytest.raises(GridMismatchError):
            compute_basis(_random_pattern(small_grid, rng),
                          _random_pattern(build_grid(6, 8), rng))


class TestSynthesizePattern:
    def test_unit_pair_recovers_plus_state(self, small_grid):
        rng = np.random.default_rng(4)
        e_plus = _random_pattern(small_grid, rng)
        e_minus = _random_pattern(small_grid, rng)
        basis = compute_basis(e_plus, e_minus)
        got = synthesize_pattern(basis, 1.0, 1.0)
        assert np.allclose(got.e_theta, e_plus.e_theta, rtol=1e-12, atol=1e-14)
        got_minus = synthesize_pattern(basis, 1.0, -1.0)
        assert np.allclose(got_minus.e_theta, e_minus.e_theta, rtol=1e-12, atol=1e-14)

    def test_quarter_ratio_matches_pointwise_arithmetic(self, small_grid):
        rng = np.random.default_rng(5)
        basis = BasisPair(b1=_random_pattern(small_grid, rng),
                          b2=_random_pattern(small_grid, rng))
        got = synthesize_pattern(basis, 1.0, 1.0j)
        i, j = 3, 6
        want = complex(basis.b1.e_theta[i, j]) + 1j * complex(basis.b2.e_theta[i, j])
        assert complex(got.e_theta[i, j]) == pytest.approx(want, rel=1e-15)

    def test_zero_x1_rejected(self, small_grid):
        rng = np.random.default_rng(6)
        basis = BasisPair(b1=_random_pattern(small_grid, rng),
                          b2=_random_pattern(small_grid, rng))
        with pytest.raises(UndefinedRatioError):
            synthesize_pattern(basis, 0.0, 1.0)


class TestApplyPerturbation:
    def test_identity_is_exact(self, small_grid):
        rng = np.random.default_rng(7)
        states = _random_states(small_grid, rng)
        out = apply_perturbation(states, PerturbationField.identity(small_grid, RATIOS))
        for k in range(4):
            assert np.array_equal(out.state(k).e_theta, states.state(k).e_theta)
            assert np.array_equal(out.state(k).e_phi, states.state(k).e_phi)

    def test_uniform_half_quarters_power(self, small_grid):
        rng = np.random.default_rng(8)
        states = _random_states(small_grid, rng)
        half = ScalarAngularMap(grid=small_grid,
                                values=np.full(small_grid.shape, 0.5, dtype=complex))
        psi = PerturbationField(ratios=RATIOS,
                                factors={k: (half, half) for k in range(4)})
        out = apply_perturbation(states, psi)
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
            f_theta, _ = psi.factors[k]
            want = complex(f_theta.values[i, j]) * complex(states.state(k).e_theta[i, j])
            assert complex(out.state(k).e_theta[i, j]) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("field", ["identity", "no-lobes"])
    def test_unity_factor_passes_components_through(self, small_grid, field):
        states = _random_states(small_grid, np.random.default_rng(11))
        psi = (PerturbationField.identity(small_grid, RATIOS) if field == "identity"
               else generate_perturbation([], small_grid, RATIOS))
        out = apply_perturbation(states, psi)
        for k in range(4):
            assert np.shares_memory(out.state(k).e_theta, states.state(k).e_theta)
            assert np.shares_memory(out.state(k).e_phi, states.state(k).e_phi)

    def test_only_the_perturbed_component_is_new(self, small_grid):
        rng = np.random.default_rng(12)
        states = _random_states(small_grid, rng)
        psi = _gaussian_psi(small_grid, rng, states=(2,), polarization="phi")
        out = apply_perturbation(states, psi)
        assert len({id(f) for pair in psi.factors.values() for f in pair}) == 2
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
        bpsk_psi = PerturbationField.identity(small_grid, PskConstellation(2).ratio_set)
        with pytest.raises(RatioSetMismatchError):
            apply_perturbation(states, bpsk_psi)
        other_psi = PerturbationField.identity(build_grid(6, 8), RATIOS)
        with pytest.raises(GridMismatchError):
            apply_perturbation(states, other_psi)


class TestPerturbedBasis:
    def test_identity_reproduces_basis(self, small_grid):
        rng = np.random.default_rng(11)
        states = generate_mirror_pair(
            [GaussianLobe(theta=1.0, phi=0.9, width=0.5, polarization=(1.0, 0.4j))],
            small_grid, RATIOS)
        b0 = perturbed_basis(states)
        b1 = perturbed_basis(
            apply_perturbation(states, PerturbationField.identity(small_grid, RATIOS)))
        assert np.array_equal(b0.b1.e_theta, b1.b1.e_theta)
        assert np.array_equal(b0.b2.e_phi, b1.b2.e_phi)

    def test_state_independent_factor_scales_basis(self, small_grid):
        rng = np.random.default_rng(12)
        states = _random_states(small_grid, rng)
        psi = _gaussian_psi(small_grid, rng, states=None)
        b0 = perturbed_basis(states)
        b_hat = perturbed_basis(apply_perturbation(states, psi))
        f_theta, f_phi = psi.factors[0]
        assert np.allclose(b_hat.b1.e_theta, f_theta.values * b0.b1.e_theta,
                           rtol=1e-13, atol=1e-14)
        assert np.allclose(b_hat.b2.e_phi, f_phi.values * b0.b2.e_phi,
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
        psi_p = psi.factors[0][0].values
        psi_m = psi.factors[2][0].values
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
        plus = lincomb(1.0, b_hat.b1, 1.0, b_hat.b2)
        minus = lincomb(1.0, b_hat.b1, -1.0, b_hat.b2)
        assert np.max(np.abs(plus.e_theta - s_hat.state(0).e_theta)) <= 1e-14
        assert np.max(np.abs(plus.e_phi - s_hat.state(0).e_phi)) <= 1e-14
        assert np.max(np.abs(minus.e_theta - s_hat.state(2).e_theta)) <= 1e-14

    def test_requires_even_order(self, small_grid):
        rng = np.random.default_rng(15)
        tri = PskConstellation(3).ratio_set
        patterns = {k: _random_pattern(small_grid, rng) for k in range(3)}
        states = StatePatternSet(ratios=tri, patterns=patterns)
        with pytest.raises(RatioSetMismatchError):
            perturbed_basis(states)


class TestEvm:
    def test_free_space_evm_is_zero(self, small_grid):
        states = generate_mirror_pair(
            [GaussianLobe(theta=1.1, phi=0.7, width=0.6, polarization=(0.8, 0.6j))],
            small_grid, RATIOS)
        basis = perturbed_basis(states)
        emap = evm_map(basis, states, RATIOS)
        assert np.max(emap.evm.values) <= 1e-12
        for i in (0, 2, 4):
            assert evm_at_angle(basis, states, RATIOS, (i, 3)) <= 1e-12

    def test_state_independent_perturbation_cancels(self, small_grid):
        rng = np.random.default_rng(16)
        states = generate_mirror_pair(
            [GaussianLobe(theta=1.3, phi=0.5, width=0.7, polarization=(1.0, 0.3))],
            small_grid, RATIOS)
        s_hat = apply_perturbation(states, _gaussian_psi(small_grid, rng, states=None))
        emap = evm_map(perturbed_basis(s_hat), s_hat, RATIOS)
        assert np.max(emap.evm.values) <= 1e-10

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
        got = evm_at_angle(b_hat, s_hat, RATIOS, (i, j))
        assert got == pytest.approx(brute, rel=1e-12)

    def test_degenerate_angle_raises_and_is_masked(self, small_grid):
        # theta*(pi - theta) vanishes exactly at both poles: zero power there
        t = small_grid.theta
        shape = (t * (np.pi - t))[:, None] * np.ones((1, small_grid.n_phi))
        e = VectorPattern(grid=small_grid, e_theta=shape.astype(complex),
                          e_phi=np.zeros(small_grid.shape))
        basis = compute_basis(e, e)
        states = StatePatternSet(
            ratios=RATIOS,
            patterns={k: synthesize_pattern(basis, 1.0, r)
                      for k, r in enumerate(RATIOS.values)})
        with pytest.raises(DegenerateAngleError):
            evm_at_angle(basis, states, RATIOS, (0, 0))
        emap = evm_map(basis, states, RATIOS)
        assert emap.degenerate_mask[0, 0]
        assert emap.degenerate_mask[-1, 0]
        assert not emap.degenerate_mask[2, 3]
        assert emap.masked_fraction() == pytest.approx(2.0 / small_grid.n_theta, rel=1e-12)

    def test_masked_fraction_zero_for_nonvanishing_basis(self, default_grid):
        states = generate_mirror_pair(default_mirror_profile(), default_grid, RATIOS)
        emap = evm_map(perturbed_basis(states), states, RATIOS)
        assert emap.masked_fraction() == 0.0

    def test_average_matches_weighted_mean_oracle(self, small_grid):
        rng = np.random.default_rng(17)
        states = generate_mirror_pair(default_mirror_profile(), small_grid, RATIOS)
        s_hat = apply_perturbation(states, _gaussian_psi(small_grid, rng, states=(1,)))
        emap = evm_map(perturbed_basis(s_hat), s_hat, RATIOS)
        w = small_grid.weights
        v = emap.evm.values
        mean = float((w * v).sum() / w.sum())
        rms = float(np.sqrt((w * v * v).sum() / w.sum()))
        avg = emap.average()
        assert avg["mean_linear"] == pytest.approx(mean, rel=1e-12)
        assert avg["rms_linear"] == pytest.approx(rms, rel=1e-12)
        assert avg["db_of_rms"] == pytest.approx(20 * np.log10(rms), rel=1e-12)

    def test_map_matches_scalar_path(self, small_grid):
        rng = np.random.default_rng(27)
        s_hat = _random_states(small_grid, rng)
        b_hat = perturbed_basis(s_hat)
        emap = evm_map(b_hat, s_hat, RATIOS)
        for _ in range(10):
            i = int(rng.integers(0, small_grid.n_theta))
            j = int(rng.integers(0, small_grid.n_phi))
            assert emap.evm.values[i, j] == pytest.approx(
                evm_at_angle(b_hat, s_hat, RATIOS, (i, j)), rel=1e-13)

    def test_index_out_of_range(self, small_grid):
        rng = np.random.default_rng(28)
        s_hat = _random_states(small_grid, rng)
        b_hat = perturbed_basis(s_hat)
        with pytest.raises(InvalidArgumentError):
            evm_at_angle(b_hat, s_hat, RATIOS, (small_grid.n_theta, 0))

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
        m1 = evm_map(perturbed_basis(states), states, RATIOS)
        m2 = evm_map(perturbed_basis(scaled), scaled, RATIOS)
        assert np.allclose(m1.evm.values, m2.evm.values, rtol=1e-12, atol=1e-13)


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
            assert abs(inner_product(basis.b1, basis.b2)) <= 1e-10 * np.sqrt(p1 * p2)

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
        ip = inner_product(basis.b1, basis.b2)
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
        with pytest.raises(DegenerateBasisError):
            basis_correlation_db(BasisPair(b1=b, b2=zero))
        with pytest.raises(DegenerateBasisError):
            power_imbalance_db(BasisPair(b1=zero, b2=b))


class TestGenerators:
    def test_mirror_pattern_is_involution_and_flips_phi(self, small_grid):
        rng = np.random.default_rng(24)
        p = _random_pattern(small_grid, rng)
        m = mirror_pattern(p)
        back = mirror_pattern(m)
        assert np.array_equal(back.e_theta, p.e_theta)
        assert np.array_equal(back.e_phi, p.e_phi)
        # phi = 0 column is fixed up to the sign flip of the phi component
        assert np.array_equal(m.e_theta[:, 0], p.e_theta[:, 0])
        assert np.array_equal(m.e_phi[:, 0], -p.e_phi[:, 0])

    def test_empty_profile_rejected(self, small_grid):
        with pytest.raises(InvalidArgumentError):
            generate_mirror_pair([], small_grid, RATIOS)

    def test_odd_order_rejected(self, small_grid):
        tri = PskConstellation(3).ratio_set
        with pytest.raises(RatioSetMismatchError):
            generate_mirror_pair(default_mirror_profile(), small_grid, tri)

    def test_on_plane_theta_lobe_degenerates_b2(self, small_grid):
        lobe = GaussianLobe(theta=np.pi / 2, phi=0.0, width=0.6,
                            polarization=(1.0, 0.0))
        states = generate_mirror_pair([lobe], small_grid, RATIOS)
        basis = perturbed_basis(states)
        assert integrate_power(basis.b2) <= 1e-30 * integrate_power(basis.b1)
        with pytest.raises(DegenerateBasisError):
            power_imbalance_db(basis)
        with pytest.raises(DegenerateBasisError):
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
            want = synthesize_pattern(basis, 1.0, r)
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
            assert np.all(psi.factors[k][0].values == 1.0)
            assert np.all(psi.factors[k][1].values == 1.0)
        # one unity map, shared by every state and polarization
        assert len({id(f) for pair in psi.factors.values() for f in pair}) == 1

    def test_perturbation_negative_half_at_center(self, small_grid):
        # center placed exactly on a grid node
        i, j = 2, 3
        lobe = PerturbationLobe(theta=float(small_grid.theta[i]),
                                phi=float(small_grid.phi[j]),
                                width=0.5, amplitude=-0.5)
        psi = generate_perturbation([lobe], small_grid, RATIOS)
        assert abs(psi.factors[0][0].values[i, j]) == pytest.approx(0.5, rel=1e-12)

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

    def test_perturbation_unknown_state_rejected(self, small_grid):
        lobe = PerturbationLobe(theta=1.0, phi=1.0, width=0.5, amplitude=0.2,
                                states=(7,))
        with pytest.raises(RatioSetMismatchError):
            generate_perturbation([lobe], small_grid, RATIOS)

    def test_two_state_asymmetric_spec_gives_positive_evm(self, small_grid):
        states = generate_mirror_pair(default_mirror_profile(), small_grid, RATIOS)
        psi = generate_perturbation(
            [PerturbationLobe(theta=1.2, phi=5.5, width=0.8, amplitude=0.4,
                              states=(1, 3))],
            small_grid, RATIOS)
        s_hat = apply_perturbation(states, psi)
        emap = evm_map(perturbed_basis(s_hat), s_hat, RATIOS)
        assert float(np.max(emap.evm.values)) > 1e-6

    def test_lobe_profile_uses_great_circle_distance(self, small_grid):
        lobe = GaussianLobe(theta=1.0, phi=2.0, width=0.5, amplitude=1.0,
                            polarization=(1.0, 0.0))
        states = generate_mirror_pair([lobe], small_grid, RATIOS)
        i, j = 3, 5
        d = great_circle_distance(small_grid.theta[i], small_grid.phi[j], 1.0, 2.0)
        want = np.exp(-d * d / (2 * 0.5 * 0.5))
        assert abs(states.state(0).e_theta[i, j]) == pytest.approx(want, rel=1e-12)


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
        emap = evm_map(perturbed_basis(s_hat), s_hat, bpsk)
        assert float(np.max(emap.evm.values)) <= 1e-12

    def test_8psk_distorts_non_pm_one_states(self, small_grid):
        ratios8 = PskConstellation(8).ratio_set
        states = generate_mirror_pair(default_mirror_profile(), small_grid, ratios8)
        assert set(states.patterns) == set(range(8))
        free = evm_map(perturbed_basis(states), states, ratios8)
        assert float(np.max(free.evm.values)) <= 1e-12
        psi = generate_perturbation(
            [PerturbationLobe(theta=1.2, phi=0.4, width=0.8, amplitude=0.4,
                              states=(1, 3, 5))],
            small_grid, ratios8)
        s_hat = apply_perturbation(states, psi)
        emap = evm_map(perturbed_basis(s_hat), s_hat, ratios8)
        assert float(np.max(emap.evm.values)) > 1e-3


class TestStatePatternSetValidation:
    def test_keys_must_cover_ratio_set(self, small_grid):
        rng = np.random.default_rng(25)
        patterns = {k: _random_pattern(small_grid, rng) for k in range(3)}
        with pytest.raises(RatioSetMismatchError):
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
        psi = PerturbationField.identity(small_grid, RATIOS)
        assert set(psi.factors) == {0, 1, 2, 3}
