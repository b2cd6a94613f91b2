import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beamspace import (
    FOUR_PI,
    AngleOutOfRangeError,
    GridMismatchError,
    InvalidArgumentError,
    VectorPattern,
    build_grid,
    great_circle_distance,
    inner_product,
    integrate_power,
    lincomb,
    same_grid,
)
from helpers import sample_pattern, uniform_pattern, zero_pattern


def _random_pattern(grid, rng):
    return VectorPattern(
        grid=grid,
        e_theta=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
        e_phi=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
    )


def _weights_oracle(theta, n_phi):
    """Plain-python recomputation of the documented quadrature weights."""
    n = len(theta)
    h = math.pi / (n - 1)
    c = h * h / 12.0
    rows = []
    for i, t in enumerate(theta):
        if i == 0 or i == n - 1:
            w = (1.0 - math.sin(h) / h) * (1.0 + c) - c
        else:
            w = 2.0 * math.sin(t) * (1.0 - math.cos(h)) / h * (1.0 + c)
        rows.append(w * 2.0 * math.pi / n_phi)
    return rows


class TestBuildGrid:
    def test_default_grid_weight_total(self, default_grid):
        assert abs(float(np.sum(default_grid.weights)) - FOUR_PI) <= 1e-9 * FOUR_PI

    def test_coarse_grid_weight_total_and_oracle(self):
        grid = build_grid(3, 4)
        total = float(np.sum(grid.weights))
        assert abs(total - FOUR_PI) <= 2e-2 * FOUR_PI
        oracle = _weights_oracle(list(grid.theta), grid.n_phi)
        for i in range(3):
            for j in range(4):
                assert grid.weights[i, j] == pytest.approx(oracle[i], rel=1e-12)

    def test_minimum_counts(self):
        with pytest.raises(InvalidArgumentError):
            build_grid(2, 180)
        with pytest.raises(InvalidArgumentError):
            build_grid(91, 3)

    def test_non_integer_counts(self):
        with pytest.raises(InvalidArgumentError):
            build_grid(5.5, 8)

    def test_angles_strictly_increasing_and_ranges(self, default_grid):
        assert np.all(np.diff(default_grid.theta) > 0)
        assert np.all(np.diff(default_grid.phi) > 0)
        assert default_grid.theta[0] == 0.0
        assert default_grid.theta[-1] == pytest.approx(np.pi, abs=0)
        assert default_grid.phi[0] == 0.0
        assert default_grid.phi[-1] < 2 * np.pi

    def test_weights_positive_with_small_pole_rows(self, default_grid):
        assert np.all(default_grid.weights > 0)
        interior = default_grid.weights[1:-1].min()
        assert default_grid.weights[0, 0] < interior
        assert default_grid.weights[-1, 0] < interior

    @pytest.mark.parametrize("n_theta,n_phi", [(6, 8), (11, 16), (25, 36)])
    def test_refinement_does_not_degrade_weight_total(self, n_theta, n_phi):
        coarse = abs(float(np.sum(build_grid(n_theta, n_phi).weights)) - FOUR_PI)
        fine = abs(float(np.sum(build_grid(2 * n_theta, 2 * n_phi).weights)) - FOUR_PI)
        # the totals are exact by construction; allow a roundoff floor
        assert fine <= coarse + 1e-12 * FOUR_PI

    def test_grids_are_immutable(self, small_grid):
        with pytest.raises(ValueError):
            small_grid.weights[0, 0] = 1.0


class TestIntegratePower:
    def test_constant_unit_field(self, default_grid):
        p = uniform_pattern(default_grid, 1.0, 0.0)
        assert integrate_power(p) == pytest.approx(FOUR_PI, rel=1e-9)

    def test_zero_field(self, default_grid):
        assert integrate_power(zero_pattern(default_grid)) == 0.0

    def test_cos_theta_field_analytic(self, default_grid):
        # int cos^2(theta) sin(theta) dtheta dphi = 4*pi/3
        e_theta = np.cos(default_grid.theta)[:, None] * np.ones((1, default_grid.n_phi))
        p = VectorPattern(grid=default_grid, e_theta=e_theta,
                          e_phi=np.zeros(default_grid.shape))
        value = integrate_power(p)
        assert value == pytest.approx(FOUR_PI / 3.0, abs=1e-4)
        assert value == pytest.approx(FOUR_PI / 3.0, rel=1e-4)


class TestInnerProduct:
    def test_self_inner_product_is_power(self, small_grid):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = _random_pattern(small_grid, rng)
            ip = inner_product(p, p)
            assert ip.imag == pytest.approx(0.0, abs=1e-12 * abs(ip))
            assert ip.real == pytest.approx(integrate_power(p), rel=1e-12)

    def test_orthogonal_constant_polarizations(self, small_grid):
        a = uniform_pattern(small_grid, 1.0, 0.0)
        b = uniform_pattern(small_grid, 0.0, 1.0)
        assert inner_product(a, b) == 0.0

    def test_matches_bruteforce_loop(self, small_grid):
        rng = np.random.default_rng(4)
        a = _random_pattern(small_grid, rng)
        b = _random_pattern(small_grid, rng)
        total = 0j
        for i in range(small_grid.n_theta):
            for j in range(small_grid.n_phi):
                w = small_grid.weights[i, j]
                total += w * (
                    complex(a.e_theta[i, j]).conjugate() * complex(b.e_theta[i, j])
                    + complex(a.e_phi[i, j]).conjugate() * complex(b.e_phi[i, j])
                )
        got = inner_product(a, b)
        assert abs(got - total) <= 1e-12 * abs(total)

    def test_conjugate_symmetry(self, small_grid):
        rng = np.random.default_rng(5)
        a = _random_pattern(small_grid, rng)
        b = _random_pattern(small_grid, rng)
        lhs = inner_product(a, b)
        rhs = inner_product(b, a).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_grid_mismatch(self, small_grid):
        other = build_grid(5, 9)
        rng = np.random.default_rng(6)
        with pytest.raises(GridMismatchError):
            inner_product(_random_pattern(small_grid, rng), _random_pattern(other, rng))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(seed)
        grid = build_grid(int(rng.integers(3, 8)), int(rng.integers(4, 10)))
        a = _random_pattern(grid, rng)
        b = _random_pattern(grid, rng)
        lhs = abs(inner_product(a, b)) ** 2
        rhs = integrate_power(a) * integrate_power(b)
        assert lhs <= rhs * (1 + 1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_sesquilinearity(self, seed):
        rng = np.random.default_rng(seed)
        grid = build_grid(4, 6)
        a, b, c = (_random_pattern(grid, rng) for _ in range(3))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        lhs = inner_product(a, lincomb(alpha, b, beta, c))
        rhs = alpha * inner_product(a, b) + beta * inner_product(a, c)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
        lhs2 = inner_product(lincomb(alpha, b, beta, c), a)
        rhs2 = (alpha.conjugate() * inner_product(b, a)
                + beta.conjugate() * inner_product(c, a))
        assert abs(lhs2 - rhs2) <= 1e-12 * max(abs(lhs2), 1.0)


class TestLincomb:
    def test_identity(self, small_grid):
        rng = np.random.default_rng(7)
        a = _random_pattern(small_grid, rng)
        b = _random_pattern(small_grid, rng)
        out = lincomb(1.0, a, 0.0, b)
        assert np.array_equal(out.e_theta, a.e_theta)
        assert np.array_equal(out.e_phi, a.e_phi)

    def test_cancellation(self, small_grid):
        rng = np.random.default_rng(8)
        a = _random_pattern(small_grid, rng)
        out = lincomb(1.0, a, -1.0, a)
        assert np.all(out.e_theta == 0)
        assert np.all(out.e_phi == 0)

    def test_pointwise_scalar_oracle(self, small_grid):
        rng = np.random.default_rng(9)
        a = _random_pattern(small_grid, rng)
        b = _random_pattern(small_grid, rng)
        out = lincomb(2.0, a, 3.0j, b)
        i, j = 2, 5
        want = 2.0 * complex(a.e_theta[i, j]) + 3.0j * complex(b.e_theta[i, j])
        assert complex(out.e_theta[i, j]) == pytest.approx(want, rel=1e-15)

    def test_grid_mismatch(self, small_grid):
        rng = np.random.default_rng(10)
        with pytest.raises(GridMismatchError):
            lincomb(1.0, _random_pattern(small_grid, rng), 1.0,
                    _random_pattern(build_grid(6, 8), rng))


class TestSamplePattern:
    def test_exact_at_grid_nodes(self, small_grid):
        rng = np.random.default_rng(11)
        p = _random_pattern(small_grid, rng)
        for i in (0, 2, small_grid.n_theta - 1):
            for j in (0, 3, small_grid.n_phi - 1):
                et, ep = sample_pattern(p, small_grid.theta[i], small_grid.phi[j])
                assert complex(et) == complex(p.e_theta[i, j])
                assert complex(ep) == complex(p.e_phi[i, j])

    def test_bilinear_between_nodes_oracle(self, small_grid):
        rng = np.random.default_rng(12)
        p = _random_pattern(small_grid, rng)
        i, j = 1, 2
        ft, fp = 0.25, 0.6
        theta = small_grid.theta[i] * (1 - ft) + small_grid.theta[i + 1] * ft
        phi = small_grid.phi[j] * (1 - fp) + small_grid.phi[j + 1] * fp
        ftx = (theta - small_grid.theta[i]) / (small_grid.theta[i + 1] - small_grid.theta[i])
        fpx = (phi - small_grid.phi[j]) / (small_grid.phi[j + 1] - small_grid.phi[j])
        want = ((1 - ftx) * (1 - fpx) * p.e_theta[i, j]
                + (1 - ftx) * fpx * p.e_theta[i, j + 1]
                + ftx * (1 - fpx) * p.e_theta[i + 1, j]
                + ftx * fpx * p.e_theta[i + 1, j + 1])
        et, _ = sample_pattern(p, theta, phi)
        assert complex(et) == pytest.approx(complex(want), rel=1e-14)

    def test_phi_wraparound(self, small_grid):
        rng = np.random.default_rng(13)
        p = _random_pattern(small_grid, rng)
        et1, _ = sample_pattern(p, 1.0, 0.1)
        et2, _ = sample_pattern(p, 1.0, 0.1 + 2 * np.pi)
        assert complex(et1) == pytest.approx(complex(et2), rel=1e-14)

    def test_interpolation_is_linear_in_field(self, small_grid):
        rng = np.random.default_rng(14)
        a = _random_pattern(small_grid, rng)
        b = _random_pattern(small_grid, rng)
        theta, phi = 0.7, 2.1
        ab = lincomb(1.0, a, 2.0j, b)
        want = (sample_pattern(a, theta, phi)[0]
                + 2.0j * sample_pattern(b, theta, phi)[0])
        got = sample_pattern(ab, theta, phi)[0]
        assert complex(got) == pytest.approx(complex(want), rel=1e-13)

    def test_array_arguments_broadcast(self, small_grid):
        rng = np.random.default_rng(15)
        p = _random_pattern(small_grid, rng)
        theta = np.array([0.3, 1.1, 2.9])
        phi = np.array([0.1, 4.0, 6.0])
        et, ep = sample_pattern(p, theta, phi)
        assert et.shape == (3,)
        for k in range(3):
            et1, _ = sample_pattern(p, theta[k], phi[k])
            assert complex(et[k]) == complex(et1)

    def test_out_of_range_theta(self, small_grid):
        p = zero_pattern(small_grid)
        with pytest.raises(AngleOutOfRangeError):
            sample_pattern(p, -0.5, 0.0)
        with pytest.raises(AngleOutOfRangeError):
            sample_pattern(p, np.pi + 0.5, 0.0)
        with pytest.raises(AngleOutOfRangeError):
            sample_pattern(p, np.nan, 0.0)


def _stencil_reference(grid, theta, phi):
    """bilinear_stencil's indices by binary search, as they were computed before
    the uniform-grid index arithmetic; the weight formulas are the same."""
    tq = np.clip(theta, 0.0, np.pi)
    it = np.clip(np.searchsorted(grid.theta, tq, side="right") - 1, 0, grid.n_theta - 2)
    ft = (tq - grid.theta[it]) / (grid.theta[it + 1] - grid.theta[it])
    pq = np.mod(phi, 2.0 * np.pi)
    j0 = np.clip(np.searchsorted(grid.phi, pq, side="right") - 1, 0, grid.n_phi - 1)
    j1 = (j0 + 1) % grid.n_phi
    upper = np.where(j1 == 0, 2.0 * np.pi, grid.phi[j1])
    fp = (pq - grid.phi[j0]) / (upper - grid.phi[j0])
    row0 = it * grid.n_phi
    row1 = row0 + grid.n_phi
    nodes = (row0 + j0, row0 + j1, row1 + j0, row1 + j1)
    weights = ((1.0 - ft) * (1.0 - fp), (1.0 - ft) * fp, ft * (1.0 - fp), ft * fp)
    return nodes, weights


def _edge_angles(nodes, period_end):
    """Every node, every cell midpoint and both float neighbours of each node."""
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    return np.concatenate([nodes, mids, [0.5 * (nodes[-1] + period_end)],
                           np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
                           [0.0, period_end, np.nextafter(period_end, 0.0)]])


class TestBilinearStencil:
    @pytest.mark.parametrize("shape", [(91, 180), (361, 720), (3, 4), (7, 13)])
    def test_index_arithmetic_matches_binary_search_bitwise(self, shape):
        from beamspace.sphere import bilinear_stencil
        grid = build_grid(*shape)
        theta = _edge_angles(grid.theta, np.pi)  # its nextafter ends lie 1 ulp outside [0, pi]
        phi = _edge_angles(grid.phi, 2.0 * np.pi)
        n = max(theta.size, phi.size)
        # the two axes are indexed independently, so pairing covers every angle
        batches = [(np.resize(theta, n), np.resize(phi, n)),
                   (np.resize(theta[::-1], n), np.resize(phi, n))]
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for _ in range(4):
            batches.append((rng.random(250_000) * np.pi, rng.random(250_000) * 2 * np.pi))
        for t, p in batches:
            got_nodes, got_weights = bilinear_stencil(grid, t, p)
            want_nodes, want_weights = _stencil_reference(grid, t, p)
            for got, want in zip(got_nodes + got_weights, want_nodes + want_weights):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_scalar_angles(self, small_grid):
        from beamspace.sphere import bilinear_stencil
        got = bilinear_stencil(small_grid, small_grid.theta[2], np.nextafter(2 * np.pi, 0))
        want = _stencil_reference(small_grid, small_grid.theta[2], np.nextafter(2 * np.pi, 0))
        assert [np.ndim(a) for a in got[0] + got[1]] == [0] * 8
        assert [float(a) for a in got[0] + got[1]] == [float(a) for a in want[0] + want[1]]


class TestValidation:
    def test_pattern_requires_finite_values(self, small_grid):
        bad = np.ones(small_grid.shape, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(InvalidArgumentError):
            VectorPattern(grid=small_grid, e_theta=bad, e_phi=np.zeros(small_grid.shape))

    def test_pattern_shape_must_match_grid(self, small_grid):
        with pytest.raises(InvalidArgumentError):
            VectorPattern(grid=small_grid, e_theta=np.zeros((2, 2)),
                          e_phi=np.zeros((2, 2)))

    def test_same_grid(self, small_grid):
        assert same_grid(small_grid, small_grid)
        assert same_grid(small_grid, build_grid(5, 8))
        assert not same_grid(small_grid, build_grid(5, 9))


def test_great_circle_distance_basics():
    assert great_circle_distance(0.0, 0.0, np.pi, 0.0) == pytest.approx(np.pi)
    assert great_circle_distance(np.pi / 2, 0.0, np.pi / 2, np.pi / 2) == pytest.approx(np.pi / 2)
    assert great_circle_distance(1.0, 2.0, 1.0, 2.0) == 0.0
