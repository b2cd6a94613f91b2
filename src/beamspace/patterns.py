"""Beam-space pattern algebra.

A single-feed load-modulated antenna multiplexes two PSK streams by
mapping them onto a pair of virtual basis patterns: the half-sum and
half-difference of its +1 and -1 state patterns.  This module implements
that decomposition, per-state angular perturbation of the radiated
fields, the resulting transmit-side error vector magnitude over the
sphere, and the full-sphere basis quality metrics (power imbalance and
correlation).  Synthetic generators stand in for a measured antenna: a
mirror-image Gaussian-lobe pattern pair and a lobe-based perturbation
field.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateAngleError,
    DegenerateBasisError,
    InvalidArgumentError,
    RatioSetMismatchError,
    UndefinedRatioError,
)
from .modulation import RatioSet
from .sphere import (
    THETA_POL,
    ScalarAngularMap,
    SphericalGrid,
    VectorPattern,
    great_circle_distance,
    inner_product,
    integrate_power,
    lincomb,
    require_same_grid,
)

__all__ = [
    "BasisPair",
    "StatePatternSet",
    "PerturbationField",
    "EvmMap",
    "GaussianLobe",
    "PerturbationLobe",
    "compute_basis",
    "synthesize_pattern",
    "apply_perturbation",
    "perturbed_basis",
    "evm_at_angle",
    "evm_map",
    "basis_correlation_db",
    "power_imbalance_db",
    "mirror_pattern",
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
            raise RatioSetMismatchError(
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

    def plus_minus_one(self) -> tuple[VectorPattern, VectorPattern]:
        """The +1 and -1 state patterns; requires an even-order alphabet."""
        return (
            self.patterns[self.ratios.plus_one_index],
            self.patterns[self.ratios.minus_one_index],
        )


@dataclass(frozen=True, eq=False)
class PerturbationField:
    """Per-state, per-polarization complex angular factors.

    ``factors[k]`` holds a (theta-hat, phi-hat) pair of complex maps by
    which the state-k pattern components are multiplied pointwise.  The
    factor is a diagonal per-polarization model; cross-polarizing
    coupling is not represented.
    """

    ratios: RatioSet
    factors: Mapping[int, tuple[ScalarAngularMap, ScalarAngularMap]]

    def __post_init__(self) -> None:
        factors = dict(self.factors)
        if set(factors) != set(range(self.ratios.order)):
            raise RatioSetMismatchError(
                f"perturbation keys {sorted(factors)} do not cover ratio indices "
                f"0..{self.ratios.order - 1}"
            )
        grid = factors[0][0].grid
        for pair in factors.values():
            require_same_grid(grid, pair[0].grid)
            require_same_grid(grid, pair[1].grid)
        object.__setattr__(self, "factors", MappingProxyType(factors))

    @property
    def grid(self) -> SphericalGrid:
        return self.factors[0][0].grid

    @classmethod
    def identity(cls, grid: SphericalGrid, ratios: RatioSet) -> "PerturbationField":
        """The no-perturbation field: unity factors for every state."""
        ones = ScalarAngularMap(grid=grid, values=np.ones(grid.shape, dtype=complex))
        return cls(ratios=ratios, factors={k: (ones, ones) for k in range(ratios.order)})


def compute_basis(e_plus: VectorPattern, e_minus: VectorPattern) -> BasisPair:
    """Half-sum and half-difference of the +1 and -1 state patterns."""
    require_same_grid(e_plus.grid, e_minus.grid)
    return BasisPair(
        b1=lincomb(0.5, e_plus, 0.5, e_minus),
        b2=lincomb(0.5, e_plus, -0.5, e_minus),
    )


def synthesize_pattern(basis: BasisPair, x1: complex, x2: complex) -> VectorPattern:
    """Instantaneous radiated pattern x1*b1 + x2*b2 for a symbol pair."""
    if x1 == 0:
        raise UndefinedRatioError("x1 = 0 leaves the symbol ratio x2/x1 undefined")
    return lincomb(x1, basis.b1, x2, basis.b2)


def apply_perturbation(s: StatePatternSet, psi: PerturbationField) -> StatePatternSet:
    """Multiply each state pattern pointwise by its perturbation factor.

    A component whose factor is 1 everywhere passes through uncopied.
    """
    if psi.ratios.order != s.ratios.order:
        raise RatioSetMismatchError(
            f"perturbation order {psi.ratios.order} != state order {s.ratios.order}"
        )
    require_same_grid(s.grid, psi.grid)
    out = {}
    for k, p in s.patterns.items():
        f_theta, f_phi = psi.factors[k]
        out[k] = VectorPattern(
            grid=p.grid,
            e_theta=_scaled(f_theta.values, p.e_theta),
            e_phi=_scaled(f_phi.values, p.e_phi),
        )
    return StatePatternSet(ratios=s.ratios, patterns=out)


def _scaled(factor: np.ndarray, component: np.ndarray) -> np.ndarray:
    """``factor * component``; the read-only ``component`` itself where the factor is 1."""
    return component if np.all(factor == 1) else factor * component


def perturbed_basis(s_hat: StatePatternSet) -> BasisPair:
    """Basis reconstructed from the (possibly perturbed) +-1 states.

    By construction b1 + b2 and b1 - b2 reproduce the +-1 state patterns
    identically, whatever the perturbation did to them.
    """
    e_plus, e_minus = s_hat.plus_minus_one()
    return compute_basis(e_plus, e_minus)


def _evm_terms(basis_hat: BasisPair, s_hat: StatePatternSet, ratios: RatioSet,
               node=...):
    """Numerator and denominator powers of the EVM ratio.

    Maps over the whole grid by default; scalars at one ``node`` index.
    """
    b1, b2 = basis_hat.b1, basis_hat.b2
    num = den = 0.0
    for k, xbar in enumerate(ratios.values):
        e = s_hat.state(k)
        ideal_t = b1.e_theta[node] + xbar * b2.e_theta[node]
        ideal_p = b1.e_phi[node] + xbar * b2.e_phi[node]
        num += (np.abs(ideal_t - e.e_theta[node]) ** 2
                + np.abs(ideal_p - e.e_phi[node]) ** 2)
        den += np.abs(ideal_t) ** 2 + np.abs(ideal_p) ** 2
    return num, den


def _check_ratio_compat(s_hat: StatePatternSet, ratios: RatioSet) -> None:
    if ratios.order != s_hat.ratios.order:
        raise RatioSetMismatchError(
            f"ratio order {ratios.order} != state order {s_hat.ratios.order}"
        )


_EVM_ZERO = 1e-15  # below the double-precision resolution of the power ratio


def evm_at_angle(
    basis_hat: BasisPair,
    s_hat: StatePatternSet,
    ratios: RatioSet,
    omega: tuple[int, int],
) -> float:
    """Error vector magnitude of the radiated constellation at one grid node.

    The deviation of each state pattern from its basis reconstruction is
    summed over states and both polarization components, normalized by
    the total reconstructed power at the same angle.  Values below the
    double-precision resolution of that ratio report as exactly zero.

    Raises:
        DegenerateAngleError: the normalizing power vanishes at ``omega``.
    """
    _check_ratio_compat(s_hat, ratios)
    require_same_grid(basis_hat.grid, s_hat.grid)
    i, j = omega
    nt, npz = basis_hat.grid.shape
    if not (0 <= i < nt and 0 <= j < npz):
        raise InvalidArgumentError(f"grid index {omega} outside shape {(nt, npz)}")
    num, den = _evm_terms(basis_hat, s_hat, ratios, (i, j))
    if den == 0.0:
        raise DegenerateAngleError(f"zero constellation power at grid index {omega}")
    value = float(np.sqrt(num / den))
    return value if value >= _EVM_ZERO else 0.0


@dataclass(frozen=True, eq=False)
class EvmMap:
    """Angular EVM map with a sidecar mask of degenerate angles.

    Angles where the normalizing power vanishes carry value 0 in ``evm``
    and True in ``degenerate_mask``; they are excluded from averages, not
    interpolated.
    """

    evm: ScalarAngularMap
    degenerate_mask: np.ndarray

    @property
    def grid(self) -> SphericalGrid:
        return self.evm.grid

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
            raise DegenerateAngleError("every angle of the EVM map is degenerate")
        v = np.asarray(self.evm.values, dtype=float)[ok]
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


def evm_map(basis_hat: BasisPair, s_hat: StatePatternSet, ratios: RatioSet) -> EvmMap:
    """EVM evaluated at every grid node; degenerate angles masked.

    As in :func:`evm_at_angle`, sub-resolution values report as zero, so
    an unperturbed run yields an identically zero map.
    """
    _check_ratio_compat(s_hat, ratios)
    require_same_grid(basis_hat.grid, s_hat.grid)
    num, den = _evm_terms(basis_hat, s_hat, ratios)
    mask = den == 0.0
    values = np.zeros(basis_hat.grid.shape)
    ok = ~mask
    values[ok] = np.sqrt(num[ok] / den[ok])
    values[values < _EVM_ZERO] = 0.0
    return EvmMap(
        evm=ScalarAngularMap(grid=basis_hat.grid, values=values),
        degenerate_mask=mask,
    )


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
        raise DegenerateBasisError(
            "basis pattern with (numerically) zero power; metrics undefined"
        )
    return p1, p2


def basis_correlation_db(basis: BasisPair) -> float:
    """Magnitude of the normalized full-sphere basis inner product, in dB.

    Numerically orthogonal bases (normalized magnitude below the double
    precision resolution of the integral) report -inf.  The magnitude is
    clamped at 1 so roundoff cannot push the result above 0 dB.
    """
    p1, p2 = _basis_powers(basis)
    mag = min(abs(inner_product(basis.b1, basis.b2)) / np.sqrt(p1 * p2), 1.0)
    if mag < _CORRELATION_ZERO:
        return -np.inf
    return _db20(mag)


def power_imbalance_db(basis: BasisPair) -> float:
    """Unsigned dB ratio of the total powers of the two basis patterns."""
    p1, p2 = _basis_powers(basis)
    return float(abs(10.0 * np.log10(p1 / p2)))


def mirror_pattern(p: VectorPattern) -> VectorPattern:
    """Reflect a pattern about the phi = 0 plane.

    Azimuth maps to 2*pi - phi (an exact index permutation on the uniform
    grid) and the phi-hat component changes sign.
    """
    idx = (-np.arange(p.grid.n_phi)) % p.grid.n_phi
    return VectorPattern(
        grid=p.grid, e_theta=p.e_theta[:, idx], e_phi=-p.e_phi[:, idx]
    )


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
        if not self.width > 0.0:
            raise InvalidArgumentError("lobe width must be positive")
        vals = (self.theta, self.phi, self.width, self.amplitude, self.phase,
                *self.polarization)
        if not np.all(np.isfinite(np.asarray(vals, dtype=complex))):
            raise InvalidArgumentError("lobe parameters must be finite")
        object.__setattr__(
            self, "polarization",
            (complex(self.polarization[0]), complex(self.polarization[1])),
        )


def _lobe_profile(grid: SphericalGrid, theta0, phi0, width, amplitude, phase) -> np.ndarray:
    t, p = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    d = great_circle_distance(t, p, theta0, phi0)
    return amplitude * np.exp(1j * phase) * np.exp(-(d * d) / (2.0 * width * width))


def generate_mirror_pair(
    lobes: Sequence[GaussianLobe], grid: SphericalGrid, ratios: RatioSet
) -> StatePatternSet:
    """Synthetic free-space antenna states from a Gaussian-lobe profile.

    The +1 state is the lobe sum, the -1 state its mirror image about the
    phi = 0 plane (which makes the basis patterns orthogonal by symmetry),
    and every other state is synthesized from the resulting basis so that
    the free-space set decomposes onto it identically.
    """
    if len(lobes) == 0:
        raise InvalidArgumentError("profile needs at least one lobe")
    if ratios.order % 2:
        raise RatioSetMismatchError("mirror pair generation needs an even ratio order")
    e_theta = np.zeros(grid.shape, dtype=complex)
    e_phi = np.zeros(grid.shape, dtype=complex)
    for lobe in lobes:
        g = _lobe_profile(grid, lobe.theta, lobe.phi, lobe.width, lobe.amplitude, lobe.phase)
        e_theta += g * lobe.polarization[0]
        e_phi += g * lobe.polarization[1]
    e_plus = VectorPattern(grid=grid, e_theta=e_theta, e_phi=e_phi)
    e_minus = mirror_pattern(e_plus)
    basis = compute_basis(e_plus, e_minus)
    patterns: dict[int, VectorPattern] = {
        ratios.plus_one_index: e_plus,
        ratios.minus_one_index: e_minus,
    }
    for k, xbar in enumerate(ratios.values):
        if k not in patterns:
            patterns[k] = synthesize_pattern(basis, 1.0, xbar)
    return StatePatternSet(ratios=ratios, patterns=patterns)


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
        if not self.width > 0.0:
            raise InvalidArgumentError("perturbation lobe width must be positive")
        if not np.all(np.isfinite((self.theta, self.phi, self.width, self.amplitude, self.phase))):
            raise InvalidArgumentError("perturbation lobe parameters must be finite")
        if self.polarization not in _POLARIZATION_TARGETS:
            raise InvalidArgumentError(
                f"polarization must be one of {_POLARIZATION_TARGETS}"
            )
        if self.states is not None:
            object.__setattr__(self, "states", tuple(int(k) for k in self.states))
            if len(set(self.states)) < len(self.states):  # a repeat would add the bump twice
                raise InvalidArgumentError(f"perturbation lobe lists a state twice: {self.states}")


def generate_perturbation(
    lobes: Sequence[PerturbationLobe], grid: SphericalGrid, ratios: RatioSet
) -> PerturbationField:
    """Perturbation factors 1 + sum of Gaussian bumps per state and pol.

    An empty lobe list yields the identity field.  Every factor no lobe
    touches is one shared read-only unity map.
    """
    f_theta = dict.fromkeys(range(ratios.order))  # None: no lobe yet, the unity factor
    f_phi = dict(f_theta)
    for lobe in lobes:
        states = range(ratios.order) if lobe.states is None else lobe.states
        for k in states:
            if not 0 <= k < ratios.order:
                raise RatioSetMismatchError(
                    f"perturbation lobe targets unknown state index {k}"
                )
        bump = _lobe_profile(grid, lobe.theta, lobe.phi, lobe.width,
                             lobe.amplitude, lobe.phase)
        for k in states:
            if lobe.polarization in ("theta", "both"):
                f_theta[k] = (1.0 if f_theta[k] is None else f_theta[k]) + bump
            if lobe.polarization in ("phi", "both"):
                f_phi[k] = (1.0 if f_phi[k] is None else f_phi[k]) + bump
    unity = ScalarAngularMap(grid=grid, values=np.ones(grid.shape, dtype=complex))
    factors = {
        k: tuple(unity if f is None else ScalarAngularMap(grid=grid, values=f)
                 for f in (f_theta[k], f_phi[k]))
        for k in range(ratios.order)
    }
    return PerturbationField(ratios=ratios, factors=factors)


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
