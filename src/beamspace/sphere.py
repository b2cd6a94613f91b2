"""Spherical grids and complex two-polarization vector fields.

All angles are radians in memory; degrees appear only at file and CLI
boundaries.  Far fields are sampled on an equiangular (theta, phi) grid
covering the full sphere, poles included; a grid is its two sample counts,
so grids of one shape are interchangeable.  Quadrature is a product rule:
exact periodic rectangle weights in azimuth, and in the polar angle a
trapezoidal rule whose sin(theta) surface factor is integrated
analytically over each cell, plus a small pole-mass redistribution that
cancels the leading error term.  The weight total is 4*pi to machine
precision on every grid size, and smooth integrands converge at fourth
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, require_whole

__all__ = [
    "FOUR_PI",
    "SphericalGrid",
    "VectorPattern",
    "build_grid",
    "require_same_grid",
    "integrate_power",
    "bilinear_stencil",
    "apply_stencil",
]

FOUR_PI = 4.0 * np.pi
# Unit polarization vectors in (theta-hat, phi-hat) components.
THETA_POL = (1.0 + 0.0j, 0.0j)
PHI_POL = (0.0j, 1.0 + 0.0j)
POLARIZATIONS = {"theta": THETA_POL, "phi": PHI_POL}  # by config name


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


@dataclass(frozen=True, eq=False)
class SphericalGrid:
    """Equiangular discretization of the full sphere with quadrature weights.

    A grid is its two sample counts; the samples follow from them.

    Attributes:
        n_theta: number of polar samples including both poles; >= 3.
        n_phi: number of azimuth samples over [0, 2*pi); >= 4.
        theta: (n_theta,) polar angles in radians, ``linspace(0, pi,
            n_theta)``, both poles included.
        phi: (n_phi,) azimuth angles in radians, ``i * 2*pi / n_phi``, the
            period closed by wraparound.
        weights: (n_theta, n_phi) per-sample solid-angle weights in
            steradians; strictly positive, summing to 4*pi to machine
            precision.

    Every node lies within half a step of ``i * step`` (``bilinear_stencil``
    relies on it), and two grids of one shape hold bitwise-equal samples.
    Instances and their arrays are immutable and safe to share across
    workers.

    Raises:
        InvalidArgumentError: a count is not integral or below its minimum.
    """

    n_theta: int
    n_phi: int
    theta: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n_theta, n_phi = require_whole(self.n_theta, "n_theta"), require_whole(self.n_phi, "n_phi")
        if n_theta < 3:
            raise InvalidArgumentError(f"n_theta must be >= 3, got {n_theta}")
        if n_phi < 4:
            raise InvalidArgumentError(f"n_phi must be >= 4, got {n_phi}")
        theta = np.linspace(0.0, np.pi, n_theta)
        phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
        weights = np.outer(_polar_weights(theta), np.full(n_phi, 2.0 * np.pi / n_phi))
        for arr in (theta, phi, weights):
            arr.setflags(write=False)
        for name, value in zip(("n_theta", "n_phi", "theta", "phi", "weights"),
                               (n_theta, n_phi, theta, phi, weights)):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_theta, self.n_phi)

    @property
    def theta_step(self) -> float:
        return np.pi / (self.n_theta - 1)

    @property
    def phi_step(self) -> float:
        return 2.0 * np.pi / self.n_phi


def build_grid(n_theta: int, n_phi: int) -> SphericalGrid:
    """The equiangular full-sphere grid of ``n_theta`` x ``n_phi`` samples.

    Equal to ``SphericalGrid(n_theta, n_phi)``; see there for the samples,
    the weights and the checks on the counts.
    """
    return SphericalGrid(n_theta, n_phi)


def require_same_grid(a: SphericalGrid, b: SphericalGrid) -> None:
    if a.shape != b.shape:
        raise InvalidArgumentError(f"grids differ: {a.shape} vs {b.shape}")


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


def integrate_power(p: VectorPattern) -> float:
    """Total radiated power: sum of w * (|e_theta|^2 + |e_phi|^2)."""
    return float(
        np.sum(p.grid.weights * (np.abs(p.e_theta) ** 2 + np.abs(p.e_phi) ** 2))
    )


def _cell(nodes: np.ndarray, x: np.ndarray, step: float, last: int) -> np.ndarray:
    """Index of the last node <= x, clipped to [0, last], for x >= 0.

    Equal to ``clip(searchsorted(nodes, x, side="right") - 1, 0, last)``:
    the uniform-grid guess ``floor(x / step)`` is at most one cell off, and
    one compare against the node on each side corrects it.  That needs every
    node within half a step of ``i * step``, which ``SphericalGrid`` holds by
    construction (its tests state it); nothing checks it at run time.
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
        InvalidArgumentError: theta outside [0, pi] or non-finite input.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
        raise InvalidArgumentError("sample angles must be finite")
    lo, hi = np.min(theta, initial=1.0), np.max(theta, initial=1.0)  # initial: empty input passes
    if lo < -1e-12 or hi > np.pi + 1e-12:
        raise InvalidArgumentError("theta outside grid coverage [0, pi]")
    # the clip and the mod are identities strictly inside their ranges (the mod maps -0.0 to 0.0)
    tq = theta if 0.0 < lo and hi <= np.pi else np.clip(theta, 0.0, np.pi)
    inside = 0.0 < np.min(phi, initial=1.0) and np.max(phi, initial=1.0) < 2.0 * np.pi
    pq = phi if inside else np.mod(phi, 2.0 * np.pi)
    it = _cell(grid.theta, tq, grid.theta_step, grid.n_theta - 2)
    ft = _fraction(tq, grid.theta[it], grid.theta[it + 1])
    j0 = _cell(grid.phi, pq, grid.phi_step, grid.n_phi - 1)
    wrap = j0 == grid.n_phi - 1  # the last cell wraps to phi = 2*pi at node 0
    j1 = np.where(wrap, 0, j0 + 1)
    fp = _fraction(pq, grid.phi[j0], np.where(wrap, 2.0 * np.pi, grid.phi[j1]))
    row0, row1 = it * grid.n_phi, (it + 1) * grid.n_phi
    gt, gp = 1.0 - ft, 1.0 - fp
    w00, w11 = gt * gp, ft * fp
    gt *= fp  # in place, so four weight arrays are live, not six; a product's operand
    gp *= ft  # order leaves its bits, so these are (1 - ft) * fp and ft * (1 - fp)
    return (row0 + j0, row0 + j1, row1 + j0, row1 + j1), (w00, gt, gp, w11)


def _fraction(q, lower, upper):
    """Where ``q`` lies between ``lower`` and ``upper``; the edges are freed on return."""
    return (q - lower) / (upper - lower)


def apply_stencil(stencil, fields: np.ndarray) -> np.ndarray:
    """Bilinear samples of fields (..., n_theta, n_phi) at a stencil's angles.

    Returns an array of shape (..., *angle shape).
    """
    (n00, n01, n10, n11), (w00, w01, w10, w11) = stencil
    flat = fields.reshape(fields.shape[:-2] + (-1,))
    out = w00 * flat.take(n00, axis=-1)
    for nodes, w in ((n01, w01), (n10, w10), (n11, w11)):
        out += w * flat.take(nodes, axis=-1)  # the sum's order, with fewer temporaries
    return out

