"""Spherical grids and complex two-polarization vector fields.

All angles are radians in memory; degrees appear only at file and CLI
boundaries.  Far fields are sampled on an equiangular (theta, phi) grid
covering the full sphere, poles included.  Quadrature is a product rule:
exact periodic rectangle weights in azimuth, and in the polar angle a
trapezoidal rule whose sin(theta) surface factor is integrated
analytically over each cell, plus a small pole-mass redistribution that
cancels the leading error term.  The weight total is 4*pi to machine
precision on every grid size, and smooth integrands converge at fourth
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AngleOutOfRangeError, GridMismatchError, InvalidArgumentError

__all__ = [
    "FOUR_PI",
    "SphericalGrid",
    "VectorPattern",
    "ScalarAngularMap",
    "build_grid",
    "same_grid",
    "require_same_grid",
    "integrate_power",
    "inner_product",
    "lincomb",
    "bilinear_stencil",
    "apply_stencil",
    "great_circle_distance",
]

FOUR_PI = 4.0 * np.pi
# Unit polarization vectors in (theta-hat, phi-hat) components.
THETA_POL = (1.0 + 0.0j, 0.0j)
PHI_POL = (0.0j, 1.0 + 0.0j)

# Relative tolerance for grid regularity checks (uniform spacing, span).
_GRID_TOL = 1e-9


def _polar_weights(theta: np.ndarray) -> np.ndarray:
    """Weights for integrating f(theta)*sin(theta) over [0, pi].

    Trapezoidal rule with the sin(theta) factor folded into the weights
    analytically (hat-function moments), so the total is exactly 2.  The
    pole-mass redistribution below removes the leading O(h^2) error of
    the piecewise-linear interpolant without changing the total.
    """
    n = theta.size
    h = np.pi / (n - 1)
    w = np.empty(n)
    w[1:-1] = 2.0 * np.sin(theta[1:-1]) * (1.0 - np.cos(h)) / h
    w[0] = w[-1] = 1.0 - np.sin(h) / h
    c = h * h / 12.0
    w *= 1.0 + c
    w[0] -= c
    w[-1] -= c
    return w


def _check_uniform(values: np.ndarray, step: float, name: str) -> None:
    # the node positions bound bilinear_stencil's index guess to one cell
    if values.size > 1 and (
            np.max(np.abs(np.diff(values) - step)) > _GRID_TOL * max(step, 1.0)
            or np.max(np.abs(values - np.arange(values.size) * step)) > 0.5 * step):
        raise InvalidArgumentError(f"{name} samples are not uniformly spaced")


@dataclass(frozen=True, eq=False)
class SphericalGrid:
    """Equiangular discretization of the full sphere with quadrature weights.

    Attributes:
        theta: (n_theta,) polar angles in radians, uniform over [0, pi],
            both poles included, strictly increasing.
        phi: (n_phi,) azimuth angles in radians, uniform over [0, 2*pi),
            strictly increasing, period closed by wraparound.
        weights: (n_theta, n_phi) per-sample solid-angle weights in
            steradians; strictly positive, summing to 4*pi.

    Instances are immutable and safe to share across workers.
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        theta = np.ascontiguousarray(self.theta, dtype=float)
        phi = np.ascontiguousarray(self.phi, dtype=float)
        weights = np.ascontiguousarray(self.weights, dtype=float)

        if theta.ndim != 1 or theta.size < 2:
            raise InvalidArgumentError("theta must be a 1-d array of at least 2 samples")
        if phi.ndim != 1 or phi.size < 1:
            raise InvalidArgumentError("phi must be a non-empty 1-d array")
        if np.any(np.diff(theta) <= 0) or np.any(np.diff(phi) <= 0):
            raise InvalidArgumentError("grid angles must be strictly increasing")
        if abs(theta[0]) > _GRID_TOL or abs(theta[-1] - np.pi) > _GRID_TOL:
            raise InvalidArgumentError("theta must span [0, pi] inclusive")
        if phi[0] < 0.0 or phi[-1] >= 2.0 * np.pi:
            raise InvalidArgumentError("phi must lie in [0, 2*pi)")
        _check_uniform(theta, np.pi / (theta.size - 1), "theta")
        _check_uniform(phi, 2.0 * np.pi / phi.size, "phi")
        if abs(phi[0]) > _GRID_TOL:
            raise InvalidArgumentError("phi must start at 0")
        if weights.shape != (theta.size, phi.size):
            raise InvalidArgumentError("weights shape must be (n_theta, n_phi)")
        if np.any(weights <= 0.0):
            raise InvalidArgumentError("quadrature weights must be strictly positive")

        for name, arr in (("theta", theta), ("phi", phi), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_theta(self) -> int:
        return self.theta.size

    @property
    def n_phi(self) -> int:
        return self.phi.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.theta.size, self.phi.size)

    @property
    def theta_step(self) -> float:
        return np.pi / (self.theta.size - 1)

    @property
    def phi_step(self) -> float:
        return 2.0 * np.pi / self.phi.size


def build_grid(n_theta: int, n_phi: int) -> SphericalGrid:
    """Build the default equiangular full-sphere grid.

    Args:
        n_theta: number of polar samples including both poles; >= 3.
        n_phi: number of azimuth samples over [0, 2*pi); >= 4.

    Returns:
        SphericalGrid whose weights sum to 4*pi to machine precision.
    """
    if int(n_theta) != n_theta or int(n_phi) != n_phi:
        raise InvalidArgumentError("grid sample counts must be integers")
    n_theta, n_phi = int(n_theta), int(n_phi)
    if n_theta < 3:
        raise InvalidArgumentError(f"n_theta must be >= 3, got {n_theta}")
    if n_phi < 4:
        raise InvalidArgumentError(f"n_phi must be >= 4, got {n_phi}")
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    weights = np.outer(_polar_weights(theta), np.full(n_phi, 2.0 * np.pi / n_phi))
    return SphericalGrid(theta=theta, phi=phi, weights=weights)


def same_grid(a: SphericalGrid, b: SphericalGrid) -> bool:
    """True when the two grids have identical samples."""
    if a is b:
        return True
    return (
        a.shape == b.shape
        and np.array_equal(a.theta, b.theta)
        and np.array_equal(a.phi, b.phi)
    )


def require_same_grid(a: SphericalGrid, b: SphericalGrid) -> None:
    if not same_grid(a, b):
        raise GridMismatchError(
            f"grids differ: {a.shape} vs {b.shape} or unequal samples"
        )


@dataclass(frozen=True, eq=False)
class VectorPattern:
    """Complex far-field samples with theta-hat and phi-hat components.

    Both components are (n_theta, n_phi) complex arrays on one shared
    grid; every value must be finite.
    """

    grid: SphericalGrid
    e_theta: np.ndarray
    e_phi: np.ndarray

    def __post_init__(self) -> None:
        e_theta = np.ascontiguousarray(self.e_theta, dtype=complex)
        e_phi = np.ascontiguousarray(self.e_phi, dtype=complex)
        if e_theta.shape != self.grid.shape or e_phi.shape != self.grid.shape:
            raise InvalidArgumentError(
                f"pattern shape must match grid shape {self.grid.shape}"
            )
        if not (np.all(np.isfinite(e_theta)) and np.all(np.isfinite(e_phi))):
            raise InvalidArgumentError("pattern values must be finite")
        for name, arr in (("e_theta", e_theta), ("e_phi", e_phi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class ScalarAngularMap:
    """One finite scalar (real or complex) per grid point."""

    grid: SphericalGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values)
        if not np.issubdtype(values.dtype, np.number):
            values = values.astype(float)
        if values.shape != self.grid.shape:
            raise InvalidArgumentError(
                f"map shape must match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("map values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def integrate_power(p: VectorPattern) -> float:
    """Total radiated power: sum of w * (|e_theta|^2 + |e_phi|^2)."""
    return float(
        np.sum(p.grid.weights * (np.abs(p.e_theta) ** 2 + np.abs(p.e_phi) ** 2))
    )


def inner_product(a: VectorPattern, b: VectorPattern) -> complex:
    """Weighted full-sphere inner product, conjugate-linear in ``a``."""
    require_same_grid(a.grid, b.grid)
    return complex(
        np.sum(
            a.grid.weights
            * (np.conj(a.e_theta) * b.e_theta + np.conj(a.e_phi) * b.e_phi)
        )
    )


def lincomb(alpha: complex, a: VectorPattern, beta: complex, b: VectorPattern) -> VectorPattern:
    """Pointwise linear combination alpha*a + beta*b."""
    require_same_grid(a.grid, b.grid)
    return VectorPattern(
        grid=a.grid,
        e_theta=alpha * a.e_theta + beta * b.e_theta,
        e_phi=alpha * a.e_phi + beta * b.e_phi,
    )


def _cell(nodes: np.ndarray, x: np.ndarray, step: float, last: int) -> np.ndarray:
    """Index of the last node <= x, clipped to [0, last], for x >= 0.

    Equal to ``clip(searchsorted(nodes, x, side="right") - 1, 0, last)``:
    the uniform-grid guess ``floor(x / step)`` is at most one cell off
    (every node lies within half a step of ``i * step``), and one compare
    against the node on each side corrects it.
    """
    i = np.minimum((x / step).astype(np.intp), last)
    i = np.maximum(i - (nodes[i] > x), 0)
    return np.minimum(i + (nodes.take(i + 1, mode="clip") <= x), last)


def bilinear_stencil(grid: SphericalGrid, theta, phi):
    """Flat node indices and weights of the bilinear sample at each angle.

    Periodic in phi and exact at grid nodes (the node's weight is exactly
    one and the others exactly zero).  The cell of each angle is found by
    arithmetic on the uniform grid, ``floor(angle / step)`` clipped, then
    checked against the grid's own node values, so it is the last node at
    or below the angle, as a binary search would find it.  Accepts
    scalars or broadcast-compatible arrays of radians; apply the result
    to any number of fields on ``grid`` with :func:`apply_stencil`.

    Raises:
        AngleOutOfRangeError: theta outside [0, pi] or non-finite input.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
        raise AngleOutOfRangeError("sample angles must be finite")
    if np.any(theta < -1e-12) or np.any(theta > np.pi + 1e-12):
        raise AngleOutOfRangeError("theta outside grid coverage [0, pi]")
    tq = np.clip(theta, 0.0, np.pi)
    it = _cell(grid.theta, tq, grid.theta_step, grid.n_theta - 2)
    ft = (tq - grid.theta[it]) / (grid.theta[it + 1] - grid.theta[it])
    pq = np.mod(phi, 2.0 * np.pi)
    j0 = _cell(grid.phi, pq, grid.phi_step, grid.n_phi - 1)
    j1 = (j0 + 1) % grid.n_phi
    # last azimuth cell wraps to phi = 2*pi
    upper = np.where(j1 == 0, 2.0 * np.pi, grid.phi[j1])
    fp = (pq - grid.phi[j0]) / (upper - grid.phi[j0])
    row0 = it * grid.n_phi
    row1 = row0 + grid.n_phi
    nodes = (row0 + j0, row0 + j1, row1 + j0, row1 + j1)
    weights = ((1.0 - ft) * (1.0 - fp), (1.0 - ft) * fp, ft * (1.0 - fp), ft * fp)
    return nodes, weights


def apply_stencil(stencil, fields: np.ndarray) -> np.ndarray:
    """Bilinear samples of fields (..., n_theta, n_phi) at a stencil's angles.

    Returns an array of shape (..., *angle shape).
    """
    (n00, n01, n10, n11), (w00, w01, w10, w11) = stencil
    flat = fields.reshape(fields.shape[:-2] + (-1,))
    return (w00 * flat.take(n00, axis=-1) + w01 * flat.take(n01, axis=-1)
            + w10 * flat.take(n10, axis=-1) + w11 * flat.take(n11, axis=-1))


def great_circle_distance(theta1, phi1, theta2, phi2) -> np.ndarray:
    """Central angle between two solid angles given as polar/azimuth radians."""
    cosd = np.cos(theta1) * np.cos(theta2) + np.sin(theta1) * np.sin(theta2) * np.cos(
        np.asarray(phi1) - np.asarray(phi2)
    )
    return np.arccos(np.clip(cosd, -1.0, 1.0))
