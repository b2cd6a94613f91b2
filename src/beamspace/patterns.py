"""Beam-space pattern algebra.

A single-feed load-modulated antenna multiplexes two PSK streams by
mapping them onto a pair of virtual basis patterns: the half-sum and
half-difference of its +1 and -1 state patterns.  This module implements
that decomposition, per-state angular perturbation of the radiated
fields, the resulting transmit-side error vector magnitude over the
sphere, and the full-sphere basis quality metrics (power imbalance and
correlation).  Synthetic generators stand in for a measured antenna: a
mirror-image Gaussian-lobe pattern pair and lobe-based perturbation
factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateError, InvalidArgumentError, require_float, require_integer
from .modulation import RatioSet
from .sphere import (
    THETA_POL,
    SphericalGrid,
    VectorPattern,
    integrate_power,
    require_same_grid,
)

__all__ = [
    "BasisPair",
    "StatePatternSet",
    "EvmMap",
    "GaussianLobe",
    "PerturbationLobe",
    "apply_perturbation",
    "perturbed_basis",
    "evm_map",
    "basis_correlation_db",
    "power_imbalance_db",
    "generate_mirror_pair",
    "generate_perturbation",
    "default_mirror_profile",
    "example_perturbation",
]


@dataclass(frozen=True, eq=False)
class BasisPair:
    """The two virtual basis patterns of the equivalent MIMO model."""

    b1: VectorPattern
    b2: VectorPattern

    def __post_init__(self) -> None:
        require_same_grid(self.b1.grid, self.b2.grid)

    @property
    def grid(self) -> SphericalGrid:
        return self.b1.grid


@dataclass(frozen=True, eq=False)
class StatePatternSet:
    """Embedded radiation pattern per antenna state, keyed by ratio index.

    Keys must cover the full ratio alphabet.  All patterns share one grid
    and each radiates nonzero total power.
    """

    ratios: RatioSet
    patterns: Mapping[int, VectorPattern]

    def __post_init__(self) -> None:
        patterns = dict(self.patterns)
        if set(patterns) != set(range(self.ratios.order)):
            raise InvalidArgumentError(
                f"state keys {sorted(patterns)} do not cover ratio indices "
                f"0..{self.ratios.order - 1}"
            )
        grid = patterns[0].grid
        for k, p in patterns.items():
            require_same_grid(grid, p.grid)
            if integrate_power(p) <= 0.0:
                raise InvalidArgumentError(
                    f"state {self.ratios.label(k)} has zero total power"
                )
        object.__setattr__(self, "patterns", MappingProxyType(patterns))

    @property
    def grid(self) -> SphericalGrid:
        return self.patterns[0].grid

    def state(self, k: int) -> VectorPattern:
        return self.patterns[k]


def _lincomb(alpha: complex, a: VectorPattern, beta: complex, b: VectorPattern) -> VectorPattern:
    """Pointwise linear combination alpha*a + beta*b."""
    require_same_grid(a.grid, b.grid)
    return VectorPattern(
        grid=a.grid,
        e_theta=alpha * a.e_theta + beta * b.e_theta,
        e_phi=alpha * a.e_phi + beta * b.e_phi,
    )


def _basis(e_plus: VectorPattern, e_minus: VectorPattern) -> BasisPair:
    """Half-sum and half-difference of the +1 and -1 state patterns."""
    return BasisPair(b1=_lincomb(0.5, e_plus, 0.5, e_minus),
                     b2=_lincomb(0.5, e_plus, -0.5, e_minus))


def apply_perturbation(s: StatePatternSet, factors: Mapping[int, VectorPattern]) -> StatePatternSet:
    """Multiply each state pattern's components pointwise by those of ``factors[k]``.

    The keys must cover the ratio alphabet and every factor lie on the
    states' grid.  A component whose factor is 1 everywhere passes
    through uncopied.
    """
    if set(factors) != set(range(s.ratios.order)):
        raise InvalidArgumentError(
            f"perturbation keys {sorted(factors)} do not cover ratio indices "
            f"0..{s.ratios.order - 1}"
        )
    return StatePatternSet(ratios=s.ratios,
                           patterns={k: _perturbed(p, factors[k]) for k, p in s.patterns.items()})


def _perturbed(p: VectorPattern, factor: VectorPattern) -> VectorPattern:
    """State ``p`` with each component multiplied pointwise by that of ``factor``."""
    require_same_grid(p.grid, factor.grid)
    return VectorPattern(grid=p.grid, e_theta=_scaled(factor.e_theta, p.e_theta),
                         e_phi=_scaled(factor.e_phi, p.e_phi))


def _scaled(factor: np.ndarray, component: np.ndarray) -> np.ndarray:
    """``factor * component``; the read-only ``component`` itself where the factor is 1."""
    return component if np.all(factor == 1) else factor * component


def perturbed_basis(s_hat: StatePatternSet) -> BasisPair:
    """Basis reconstructed from the (possibly perturbed) +-1 states; needs an even order.

    By construction b1 + b2 and b1 - b2 reproduce the +-1 state patterns
    identically, whatever the perturbation did to them.
    """
    return _basis(s_hat.state(s_hat.ratios.plus_one_index),
                  s_hat.state(s_hat.ratios.minus_one_index))


_EVM_ZERO = 1e-15  # below the double-precision resolution of the power ratio


@dataclass(frozen=True, eq=False)
class EvmMap:
    """Linear EVM per grid node, with a sidecar mask of degenerate angles.

    Angles where the normalizing power vanishes carry value 0 in ``values``
    and True in ``degenerate_mask``; they are excluded from averages, not
    interpolated.  Both arrays are read-only and of the grid's shape.
    """

    grid: SphericalGrid
    values: np.ndarray
    degenerate_mask: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("values", float), ("degenerate_mask", bool)):
            arr = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            if arr.shape != self.grid.shape:
                raise InvalidArgumentError(f"EVM {name} must match grid shape {self.grid.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def masked_fraction(self) -> float:
        return float(np.mean(self.degenerate_mask))

    def average(self) -> dict[str, float]:
        """Uniform solid-angle statistics of the map.

        Returns mean and rms of the linear EVM plus three dB conventions:
        20*log10 of the mean, 20*log10 of the rms, and the solid-angle
        mean of 20*log10(EVM).  Zero EVM maps report -inf dB.
        """
        ok = ~self.degenerate_mask
        w = self.grid.weights[ok]
        total = float(np.sum(w))
        if total == 0.0:
            raise DegenerateError("every angle of the EVM map is degenerate")
        v = self.values[ok]
        mean = float(np.sum(w * v) / total)
        rms = float(np.sqrt(np.sum(w * v * v) / total))
        with np.errstate(divide="ignore"):
            v_db = 20.0 * np.log10(v)
            mean_of_db = float(np.sum(w * v_db) / total) if v.size else -np.inf
        return {
            "mean_linear": mean,
            "rms_linear": rms,
            "db_of_mean": _db20(mean),
            "db_of_rms": _db20(rms),
            "mean_of_db": mean_of_db,
        }


def evm_map(s_hat: StatePatternSet) -> EvmMap:
    """Error vector magnitude of the radiated constellation at every grid node.

    At each angle the deviation of each state pattern from its reconstruction
    on ``perturbed_basis(s_hat)`` is summed over the states and both
    polarization components, normalized by the total reconstructed power
    there.  Angles where that power vanishes are masked; values below the
    double-precision resolution of the ratio report as exactly zero, so an
    unperturbed run yields an identically zero map.
    """
    basis = perturbed_basis(s_hat)
    b1, b2 = basis.b1, basis.b2
    num = den = 0.0
    for k, xbar in enumerate(s_hat.ratios.values):
        e = s_hat.state(k)
        ideal_t = b1.e_theta + xbar * b2.e_theta
        ideal_p = b1.e_phi + xbar * b2.e_phi
        num += np.abs(ideal_t - e.e_theta) ** 2 + np.abs(ideal_p - e.e_phi) ** 2
        den += np.abs(ideal_t) ** 2 + np.abs(ideal_p) ** 2
    mask = den == 0.0
    values = np.zeros(s_hat.grid.shape)
    ok = ~mask
    values[ok] = np.sqrt(num[ok] / den[ok])
    values[values < _EVM_ZERO] = 0.0
    return EvmMap(grid=s_hat.grid, values=values, degenerate_mask=mask)


def _db20(x: float) -> float:
    return 20.0 * np.log10(x) if x > 0.0 else -np.inf


_CORRELATION_ZERO = 1e-15  # normalized magnitudes below double resolution


def _basis_powers(basis: BasisPair) -> tuple[float, float]:
    """Total powers of both basis members, rejecting numerically zero ones.

    A member whose power is zero or at roundoff level relative to its
    partner (a degenerate symmetric profile) carries no usable stream.
    """
    p1 = integrate_power(basis.b1)
    p2 = integrate_power(basis.b2)
    if min(p1, p2) <= _CORRELATION_ZERO**2 * max(p1, p2):
        raise DegenerateError(
            "basis pattern with (numerically) zero power; metrics undefined"
        )
    return p1, p2


def basis_correlation_db(basis: BasisPair) -> float:
    """Magnitude of the normalized full-sphere basis inner product, in dB.

    The inner product is the quadrature sum of conj(b1) * b2 over both
    polarization components; swapping b1 and b2 conjugates it, so the
    result does not change.  Numerically orthogonal bases (normalized
    magnitude below the double precision resolution of the integral)
    report -inf.  The magnitude is clamped at 1 so roundoff cannot push
    the result above 0 dB.
    """
    p1, p2 = _basis_powers(basis)
    b1, b2 = basis.b1, basis.b2
    ip = complex(np.sum(b1.grid.weights * (np.conj(b1.e_theta) * b2.e_theta
                                           + np.conj(b1.e_phi) * b2.e_phi)))
    mag = min(abs(ip) / np.sqrt(p1 * p2), 1.0)
    if mag < _CORRELATION_ZERO:
        return -np.inf
    return _db20(mag)


def power_imbalance_db(basis: BasisPair) -> float:
    """Unsigned dB ratio of the total powers of the two basis patterns."""
    p1, p2 = _basis_powers(basis)
    return float(abs(10.0 * np.log10(p1 / p2)))


@dataclass(frozen=True)
class GaussianLobe:
    """One complex Gaussian beam: center, angular width, amplitude, phase.

    The scalar profile amplitude*exp(1j*phase)*exp(-d^2 / (2*width^2)),
    with d the great-circle angle from the lobe center, multiplies the
    fixed complex polarization vector (theta-hat, phi-hat).  Angles are
    radians.
    """

    theta: float
    phi: float
    width: float
    amplitude: float = 1.0
    phase: float = 0.0
    polarization: tuple[complex, complex] = THETA_POL

    def __post_init__(self) -> None:
        _check_fields(self, "lobe")
        try:
            pol = tuple(map(complex, self.polarization))
        except (TypeError, ValueError):
            pol = ()
        if len(pol) != 2 or not np.all(np.isfinite(pol)):
            raise InvalidArgumentError("lobe polarization must be two finite complex numbers, "
                                       f"got {self.polarization!r}")
        object.__setattr__(self, "polarization", pol)


def _check_fields(lobe, kind: str) -> None:
    """A lobe's center, width, amplitude and phase as finite floats, its width positive."""
    for name in ("theta", "phi", "width", "amplitude", "phase"):
        object.__setattr__(lobe, name, require_float(getattr(lobe, name), f"{kind} {name}"))
    if not lobe.width > 0.0:
        raise InvalidArgumentError(f"{kind} width must be positive")


def _lobe_profile(grid: SphericalGrid, lobe) -> np.ndarray:
    """A lobe's complex Gaussian at every node, formed on the grid's axes: a meshgrid's
    operations in its order, so its bits, but cos and sin of n_theta + n_phi angles."""
    t, p = grid.theta[:, None], grid.phi[None, :]
    cosd = np.cos(t) * np.cos(lobe.theta) + np.sin(t) * np.sin(lobe.theta) * np.cos(p - lobe.phi)
    d = np.arccos(np.clip(cosd, -1.0, 1.0))
    w = lobe.width
    return lobe.amplitude * np.exp(1j * lobe.phase) * np.exp(-(d * d) / (2.0 * w * w))


def generate_mirror_pair(
    lobes: Sequence[GaussianLobe], grid: SphericalGrid, ratios: RatioSet
) -> StatePatternSet:
    """Synthetic free-space antenna states from a Gaussian-lobe profile.

    The +1 state is the lobe sum, the -1 state its mirror image about the
    phi = 0 plane (azimuth 2*pi - phi, an exact index permutation on the
    uniform grid, with the phi-hat component negated; this makes the basis
    patterns orthogonal by symmetry), and every other state k is
    b1 + ratio_k * b2 on the resulting basis, so that the free-space set
    decomposes onto it identically.
    """
    return StatePatternSet(ratios=ratios, patterns=dict(_mirror_states(lobes, grid, ratios)))


def _mirror_states(lobes: Sequence[GaussianLobe], grid: SphericalGrid, ratios: RatioSet):
    """The states of ``generate_mirror_pair``, one (ratio index, pattern) at a time: +1,
    -1, then the others in index order, each made when the previous one is taken."""
    if len(lobes) == 0:
        raise InvalidArgumentError("profile needs at least one lobe")
    if ratios.order % 2:
        raise InvalidArgumentError("mirror pair generation needs an even ratio order")
    e_theta = np.zeros(grid.shape, dtype=complex)
    e_phi = np.zeros(grid.shape, dtype=complex)
    for lobe in lobes:
        g = _lobe_profile(grid, lobe)
        e_theta += g * lobe.polarization[0]
        e_phi += g * lobe.polarization[1]
    mirror = (-np.arange(grid.n_phi)) % grid.n_phi
    e_plus = VectorPattern(grid=grid, e_theta=e_theta, e_phi=e_phi)
    e_minus = VectorPattern(grid=grid, e_theta=e_theta[:, mirror], e_phi=-e_phi[:, mirror])
    del e_theta, e_phi, g
    yield ratios.plus_one_index, e_plus
    yield ratios.minus_one_index, e_minus
    basis = _basis(e_plus, e_minus)
    del e_plus, e_minus
    for k, xbar in enumerate(ratios.values):
        if k not in (ratios.plus_one_index, ratios.minus_one_index):
            yield k, _lincomb(1.0, basis.b1, xbar, basis.b2)


def default_mirror_profile() -> tuple[GaussianLobe, ...]:
    """Three-lobe profile calibrated on the default 91x180 grid.

    A broad theta-polarized lobe centered on the symmetry plane feeds the
    even (half-sum) basis pattern only, so that pattern dominates the
    theta polarization everywhere, while the off-plane lobes carry most
    of their power in the phi polarization.  The free-space basis power
    imbalance is 0.82 dB; the basis correlation is at numerical zero.
    """
    d = np.deg2rad
    return (
        GaussianLobe(theta=d(90.0), phi=d(0.0), width=d(75.0),
                     amplitude=0.36, phase=0.0, polarization=THETA_POL),
        GaussianLobe(theta=d(75.0), phi=d(40.0), width=d(35.0),
                     amplitude=1.0, phase=0.0, polarization=(0.32, 1.0j)),
        GaussianLobe(theta=d(115.0), phi=d(65.0), width=d(45.0),
                     amplitude=0.5, phase=d(70.0), polarization=(0.25, 0.9)),
    )


_POLARIZATION_TARGETS = ("theta", "phi", "both")


@dataclass(frozen=True)
class PerturbationLobe:
    """One Gaussian bump added on top of the unity perturbation baseline.

    ``states`` lists the ratio indices the bump applies to (None = all
    states); ``polarization`` selects which field components it scales.
    """

    theta: float
    phi: float
    width: float
    amplitude: float
    phase: float = 0.0
    states: tuple[int, ...] | None = None
    polarization: str = "both"

    def __post_init__(self) -> None:
        _check_fields(self, "perturbation lobe")
        if self.polarization not in _POLARIZATION_TARGETS:
            raise InvalidArgumentError(
                f"polarization must be one of {_POLARIZATION_TARGETS}"
            )
        if self.states is not None:
            object.__setattr__(self, "states", tuple(
                require_integer(k, "perturbation lobe state") for k in self.states))
            if len(set(self.states)) < len(self.states):  # a repeat would add the bump twice
                raise InvalidArgumentError(f"perturbation lobe lists a state twice: {self.states}")


def generate_perturbation(
    lobes: Sequence[PerturbationLobe], grid: SphericalGrid, ratios: RatioSet
) -> Mapping[int, VectorPattern]:
    """Perturbation factor pattern per ratio index: 1 + the sum of its lobes' bumps.

    ``factors[k]`` multiplies the theta-hat and phi-hat components of state
    k pointwise (a diagonal model; cross-polarizing coupling is not
    represented).  Each distinct subset of lobes is summed once, its bumps
    added in lobe order with one bump alive at a time: components touched
    by the same lobes share one read-only array, states with the same pair
    of subsets share one pattern, and every component no lobe touches is
    one unity map.  An empty lobe list yields the identity.
    """
    touched = {k: ([], []) for k in range(ratios.order)}  # lobe indices per theta, phi
    for i, lobe in enumerate(lobes):
        for k in range(ratios.order) if lobe.states is None else lobe.states:
            if not 0 <= k < ratios.order:
                raise InvalidArgumentError(f"perturbation lobe targets unknown state index {k}")
            for pol, subset in zip(("theta", "phi"), touched[k]):
                if lobe.polarization in (pol, "both"):
                    subset.append(i)
    pairs = {k: (tuple(t), tuple(p)) for k, (t, p) in touched.items()}
    sums = dict.fromkeys(s for pair in pairs.values() for s in pair)  # None: no bump yet
    for i, lobe in enumerate(lobes):
        bump = _lobe_profile(grid, lobe)
        for s, f in sums.items():
            if i in s:
                sums[s] = 1.0 + bump if f is None else np.add(f, bump, out=f)
    if () in sums:
        sums[()] = np.ones(grid.shape, dtype=complex)
    patterns = {pair: VectorPattern(grid=grid, e_theta=sums[pair[0]], e_phi=sums[pair[1]])
                for pair in set(pairs.values())}
    return MappingProxyType({k: patterns[pair] for k, pair in pairs.items()})


def example_perturbation() -> tuple[PerturbationLobe, ...]:
    """Documented hand-style perturbation used by the sample configuration.

    An absorbing shadow common to every antenna state models the bulk of
    the hand, and one shared angular region scales each state by its own
    complex strength on top of it.  The +-1 states stay exactly decodable
    whatever their factors, while the +-j states are displaced; the
    relative phases are chosen so the second decoded stream consistently
    absorbs the larger error.
    """
    d = np.deg2rad
    hand = dict(theta=d(70.0), phi=d(345.0), width=d(60.0))
    return (
        PerturbationLobe(**hand, amplitude=0.30, phase=0.0, states=(0,)),
        PerturbationLobe(**hand, amplitude=0.20, phase=d(180.0), states=(2,)),
        PerturbationLobe(**hand, amplitude=0.354, phase=d(74.0), states=(1,)),
        PerturbationLobe(**hand, amplitude=0.304, phase=d(-99.5), states=(3,)),
        PerturbationLobe(theta=d(85.0), phi=d(355.0), width=d(75.0),
                         amplitude=0.45, phase=d(180.0), states=None),
    )
