"""Single-path LOS link simulation with zero-forcing recovery.

A two-element receive array samples the transmitted far field at two
nearby solid angles, and a scenario holds each receiver's response to each
antenna state.  The channel is that of the perturbed basis, which models a
receiver whose pilot-derived channel estimate has absorbed the
perturbation.  Decoding is a plain zero-forcing inverse, so symbol pairs
whose ratio is +-1 always recover exactly while the other states land away
from their ideal constellation points.

For unit-modulus PSK the antenna radiates x1 times the state pattern of
ratio index k = (k2 - k1) mod M, so zero forcing returns x1 * g_k, with
G = H^-1 F and F the receivers' responses to the M states.  H = A T with
A the +-1 states' responses and T = [[1, 1], [1, -1]] / 2: G = T^-1 A^-1
F, whose +-1 gains are exactly (1, 1) and (1, -1): a +-1 pair decodes as
sent.  One batched solve (``_decode``) takes the responses in ``_order``,
+-1 first, and solves the M - 2 others for every decode path, scenarios
last: responses are (2 receivers, M states, n) and G (2 streams, M - 2,
n).  The transmit-side constellation at one angle is that decode at two
co-located receivers; each side's M^2 pairs are one ``SymbolPairs``
record of arrays, gathered from the M - 2 gains by ratio index.

The Monte-Carlo sweep draws the receive geometries of
``draw_geometries(np.random.default_rng(seed), n)`` and takes, per
accepted geometry, one noiseless error per stream and ratio state:
|g1_k - 1| and |g2_k - r_k|, exactly zero for the +-1 states by the basis
identity (``run_monte_carlo``).  Scenarios are processed in chunks; each
chunk jumps the seeded PCG64 stream ahead to its own columns of the draw.
Every chunk folds its errors into a fixed-size ``Sketch`` per stream and
ratio state (exact zero, exceedance and extreme values, and log-bucketed
counts with relative accuracy ``SKETCH_ALPHA``); the stream summaries and
CDFs read a stream's M sketches merged.  The arithmetic is elementwise over
scenarios and merging sketches adds integers, so results are bitwise
independent of the chunk size, and memory is one chunk's working set
whatever the scenario count.  The chunks run one after another on the
calling thread.

Every product is noiseless: the receiver sees the radiated field exactly,
so the errors are those of the perturbation and the zero-forcing decode
alone.

Of the commands, only ``constellation``, ``monte-carlo`` and ``selftest``
import this module.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DEFAULT_CONDITION_CAP, MAX_SCENARIOS, DegenerateError,
                     InvalidArgumentError, require_condition_cap, require_integer)
from .modulation import PskConstellation, RatioSet
from .patterns import BasisPair, StatePatternSet, perturbed_basis
from .sphere import PHI_POL, THETA_POL, apply_stencil, bilinear_stencil, require_same_grid

__all__ = [
    "SKETCH_ALPHA",
    "LinkScenario",
    "SymbolPairs",
    "MonteCarloResult",
    "Sketch",
    "CdfSummary",
    "build_channel",
    "received_constellation",
    "constellation_at_angle",
    "draw_geometries",
    "run_monte_carlo",
]

# Scenarios per chunk; the output bytes do not depend on it.
_CHUNK = 8192
_CDF_LEVELS = 10_000  # rows of MonteCarloResult.cdf at most


@dataclass(frozen=True, eq=False)
class LinkScenario:
    """Receive geometry, polarizations, and the receivers' responses to the M states.

    ``condition_number`` is cond(A) (inf if singular) of the +-1 states' responses A,
    equal to cond(H) of the basis channel H = A T."""

    rx_angles: np.ndarray         # (2, 2) [(theta, phi)] radians
    rx_polarizations: np.ndarray  # (2, 2) complex unit vectors in (theta, phi)
    responses: np.ndarray         # (2, M) complex: receiver, then ratio index
    constellation: PskConstellation
    condition_number: float = field(init=False)

    def __post_init__(self) -> None:
        angles = np.ascontiguousarray(self.rx_angles, dtype=float)
        pols = _unit_polarizations(self.rx_polarizations)
        responses = np.ascontiguousarray(self.responses, dtype=complex)
        if angles.shape != (2, 2) or responses.shape != (2, self.constellation.order):
            raise InvalidArgumentError("a scenario needs 2x2 rx_angles and 2 x M responses")
        if not np.all(np.isfinite(responses)):
            raise InvalidArgumentError("responses must be finite")
        for name, arr in (("rx_angles", angles), ("rx_polarizations", pols),
                          ("responses", responses)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # a batch of one: a lone 2x2 matrix's numpy scalars can round unlike array loops
        a = responses[:, _order(self.constellation.ratio_set)[:2], None]
        object.__setattr__(self, "condition_number", float(_condition_2x2(a)[0][0]))

    @property
    def singular(self) -> bool:
        return not np.isfinite(self.condition_number)


def _unit_polarizations(pols) -> np.ndarray:
    """Two receive polarizations as a (2, 2) complex array of unit 2-vectors."""
    with contextlib.suppress(TypeError, ValueError):  # not numbers
        pols = np.ascontiguousarray(pols, dtype=complex)
        # written so that NaN fails: every comparison with NaN is False
        if pols.shape == (2, 2) and np.all(np.abs(np.linalg.norm(pols, axis=1) - 1.0) <= 1e-6):
            return pols
    raise InvalidArgumentError("rx_polarizations must be two unit 2-vectors")


def _condition_2x2(h: np.ndarray):
    """2-norm condition numbers (inf if singular) and determinants of 2x2 matrices.

    ``h[i, j]`` is entry (i, j): the matrix axes lead and any batch axes
    follow.
    """
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    abs_det = np.abs(det)
    a2 = np.abs(h) ** 2
    f2 = a2[0, 0] + a2[0, 1] + a2[1, 0] + a2[1, 1]
    s2max = 0.5 * (f2 + np.sqrt(np.maximum(f2 * f2 - 4.0 * abs_det ** 2, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(abs_det > 0.0, s2max / abs_det, np.inf)[()], det


def _responses(patterns, theta, phi, pols) -> np.ndarray:
    """Responses p_r^H e(theta_r, phi_r) of two receivers to each pattern.

    ``theta`` and ``phi`` are (2, n) receive angles and ``pols`` the two
    receive polarizations; each receiver's bilinear stencil serves every
    pattern and is freed before the next one is built.  A field component
    whose polarization weight is zero is not sampled.  Returns a
    (2, len(patterns), n) complex array: receiver, pattern, then scenario,
    so every row a product writes or reads is contiguous.
    """
    out = np.empty((2, len(patterns), np.shape(theta)[1]), dtype=complex)
    for rx in range(2):
        nodes, weights = bilinear_stencil(patterns[0].grid, theta[rx], phi[rx])
        # the complex weights once, not a cast inside each product with a field
        stencil = (nodes, tuple(w.astype(complex) for w in weights))
        del nodes, weights
        pt, pp = np.conj(pols[rx])
        for k, p in enumerate(patterns):
            if pt and pp:
                np.add(pt * apply_stencil(stencil, p.e_theta),
                       pp * apply_stencil(stencil, p.e_phi), out=out[rx, k])
            elif pt:
                np.multiply(pt, apply_stencil(stencil, p.e_theta), out=out[rx, k])
            else:
                np.multiply(pp, apply_stencil(stencil, p.e_phi), out=out[rx, k])
        del stencil
    return out


def _decode(resp: np.ndarray, condition_cap: float):
    """Cap mask (n,), gains G (2, M - 2, kept) and condition numbers (n,) in state coordinates.

    ``resp`` holds (2, M, n) responses in ``_order``, freed once solved.  A
    holds the +-1 states' responses, y = A^-1 F the others' (in closed form, for
    cond(A) <= ``condition_cap``) and G = T^-1 y = (y0 + y1, y0 - y1).  cond(A) =
    cond(H), as T is sqrt(1/2) times an orthogonal matrix.
    """
    a, f = resp[:, :2], resp[:, 2:]
    cond, det = _condition_2x2(a)
    keep = np.isfinite(cond) & (cond <= condition_cap)
    if not keep.all():
        a, f, det = a[..., keep], f[..., keep], det[keep]
    y, scratch = np.empty_like(f), np.empty_like(f[0])
    for r, c in ((0, 1), (1, 0)):  # y[r] = (a[c, c] f[r] - a[r, c] f[c]) / det, in that order
        np.multiply(a[c, c], f[r], out=y[r])
        np.subtract(y[r], np.multiply(a[r, c], f[c], out=scratch), out=y[r])
        np.divide(y[r], det, out=y[r])
    del resp, a, f, det, scratch  # resp is the largest: free it before the map back allocates
    y[0], y[1] = y[0] + y[1], y[0] - y[1]
    return keep, y, cond


def _order(ratios: RatioSet) -> list[int]:
    """Ratio indices +1, -1, then the others: the order ``_decode`` takes the states in."""
    pm1 = (ratios.plus_one_index, ratios.minus_one_index)
    return [*pm1, *(k for k in range(ratios.order) if k not in pm1)]


def _states(s_hat: StatePatternSet, constellation: PskConstellation):
    """``_order`` and the states' patterns in it; checked against the alphabet."""
    if constellation.order != s_hat.ratios.order:
        raise InvalidArgumentError("constellation order does not match the state-pattern alphabet")
    order = _order(s_hat.ratios)
    return order, tuple(s_hat.state(k) for k in order)


def build_channel(
    s_hat: StatePatternSet,
    rx_angles,
    constellation: PskConstellation,
    rx_polarizations=(THETA_POL, THETA_POL),
) -> LinkScenario:
    """Responses p_r^H . e_k of each receiver r to each state k of ``s_hat``.

    ``rx_angles`` holds one (theta, phi) row per receiver and
    ``rx_polarizations`` two unit 2-vectors in (theta, phi) components.
    The state patterns are sampled bilinearly at the two receive solid
    angles and projected onto the receive polarization vectors; the link
    is noiseless.  Singular geometries are flagged through
    ``condition_number`` (inf), not raised; rejection happens at
    equalization time.

    Raises:
        InvalidArgumentError: the alphabet differs from the states' or is odd.
        InvalidArgumentError: the angles are not two rows of two numbers, or the
            polarizations not two unit 2-vectors.
    """
    _states(s_hat, constellation)  # the alphabet check
    angles = _reals(rx_angles)
    if np.shape(angles) != (2, 2):
        raise InvalidArgumentError(f"rx_angles must be two (theta, phi) rows, got {rx_angles!r}")
    pols = _unit_polarizations(rx_polarizations)
    resp = _responses([s_hat.state(k) for k in range(constellation.order)],
                      angles[:, :1], angles[:, 1:], pols)
    return LinkScenario(rx_angles=angles, rx_polarizations=pols, responses=resp[..., 0],
                        constellation=constellation)


@dataclass(frozen=True, eq=False)
class SymbolPairs:
    """Ideal and actual I/Q points of both streams for each symbol pair, read-only."""

    k1: np.ndarray      # (M^2,) int: pair i is (k1[i], k2[i]), k1-major
    k2: np.ndarray      # (M^2,) int
    ideal: np.ndarray   # (2, M^2) complex: stream, then pair
    actual: np.ndarray  # (2, M^2) complex

    def __post_init__(self) -> None:
        for a in (self.k1, self.k2, self.ideal, self.actual):
            a.setflags(write=False)


def received_constellation(
    scenario: LinkScenario,
    condition_cap: float = DEFAULT_CONDITION_CAP,
) -> SymbolPairs:
    """Equalized constellation for every symbol pair, noiselessly.

    Zero forcing on H = A T, solved from ``scenario.responses`` in state
    coordinates (``_decode``, as the sweep solves): a +-1 pair decodes as
    sent, and any other pair as x1 * g_k with k = (k2 - k1) mod M.

    Raises:
        DegenerateError: channel singular or conditioned above the cap.
        InvalidArgumentError: the cap is not a number above 1.
    """
    condition_cap = require_condition_cap(condition_cap)
    order = _order(scenario.constellation.ratio_set)
    keep, g, cond = _decode(scenario.responses[:, order, None], condition_cap)
    if not keep[0]:
        raise DegenerateError(f"channel condition number {cond[0]:.3g} "
                              f"exceeds cap {condition_cap:.3g}")
    points, m = scenario.constellation.points, len(order)
    k1, k2 = np.divmod(np.arange(m * m), m)
    ideal = np.stack([points[k1], points[k2]])
    gains = np.zeros((2, m), dtype=complex)  # (g1_k, g2_k) by ratio index k
    gains[:, order[2:]] = g[..., 0]
    k = (k2 - k1) % m
    x, y = ideal[0], gains[:, k]
    actual = np.empty_like(ideal)  # x * y, each real multiply and sum rounded alone
    actual.real = x.real * y.real - x.imag * y.imag
    actual.imag = x.real * y.imag + x.imag * y.real
    return SymbolPairs(k1, k2, ideal, np.where((k == order[0]) | (k == order[1]), ideal, actual))


def constellation_at_angle(
    s_hat: StatePatternSet,
    constellation: PskConstellation,
    theta: float,
    phi: float,
    condition_cap: float = DEFAULT_CONDITION_CAP,
) -> SymbolPairs:
    """Transmit-side constellation observed in the radiated field at one angle.

    The physical field of each symbol pair is decomposed onto the two
    basis patterns sampled at the same angle (a 2x2 solve across the two
    polarization components, i.e. the receive decode at two co-located
    THETA/PHI receivers); ideal points are the transmitted symbols.

    Raises:
        DegenerateError: the basis polarization matrix at the angle
            is singular or conditioned above the cap.
    """
    scenario = build_channel(s_hat, ((theta, phi), (theta, phi)), constellation,
                             (THETA_POL, PHI_POL))
    return received_constellation(scenario, condition_cap)


def draw_geometries(rng: np.random.Generator, n: int, separation_deg=(3.0, 5.0)):
    """``n`` random two-receiver geometries as (2, n) theta and phi arrays in radians.

    Receiver 1 is area-uniform on the sphere; receiver 2 lies at a great-circle
    distance uniform in ``separation_deg`` (degrees) along a uniform bearing.
    The draw consumes ``rng.random((4, n))``.
    """
    n, separation = require_integer(n, "n"), _separation(separation_deg)
    if n < 0:
        raise InvalidArgumentError(f"geometries need n >= 0, got n={n}")
    return _angles(rng.random((4, n)), separation)


def _reals(value) -> np.ndarray | None:
    """``value`` as a float array if numpy reads it as numbers (bool, int or float), else None:
    never from strings or bytes."""
    with contextlib.suppress(TypeError, ValueError):  # ragged
        arr = np.asarray(value)
        if arr.dtype.kind in "biuf":
            return arr.astype(float)
    return None


def _separation(separation_deg) -> tuple[float, float]:
    pair = _reals(separation_deg)
    lo, hi = map(float, pair) if np.shape(pair) == (2,) else (math.nan, math.nan)
    if not 0.0 < lo <= hi:  # NaN fails
        raise InvalidArgumentError("separation_deg must be (min, max) with 0 < min <= max, "
                                   f"got {separation_deg!r}")
    return lo, hi


def _angles(u: np.ndarray, separation: tuple[float, float]):
    """Two-receiver angles from (4, n) uniforms: the transform of ``draw_geometries``."""
    lo, hi = separation
    theta1 = np.arccos(1.0 - 2.0 * u[0])
    phi1 = 2.0 * np.pi * u[1]
    dist = np.deg2rad(lo) + (np.deg2rad(hi) - np.deg2rad(lo)) * u[2]
    bearing = 2.0 * np.pi * u[3]  # of receiver 2's great-circle step; 0 heads north
    ct1, st1 = np.cos(theta1), np.sin(theta1)
    cd, sd = np.cos(dist), np.sin(dist)
    ct2 = np.clip(ct1 * cd + st1 * sd * np.cos(bearing), -1.0, 1.0)
    phi2 = phi1 + np.arctan2(np.sin(bearing) * sd * st1, cd - ct1 * ct2)  # in [-pi, 3 pi)
    # np.mod(phi2, 2 pi) bit for bit, in place: the subtract is exact, the add rounds as the
    # mod does, and no sum is -0.0 (phi1 >= +0.0), where the two would differ; a False mask
    # adds or subtracts +0.0, which leaves every value but -0.0 as it is
    two_pi = 2.0 * np.pi
    low, high = phi2 < 0.0, phi2 >= two_pi
    phi2 += two_pi * low
    phi2 -= two_pi * high
    return np.stack([theta1, np.arccos(ct2)]), np.stack([phi1, phi2])


@dataclass(frozen=True)
class CdfSummary:
    """Quantiles and threshold-exceedance fractions of one error stream."""

    count: int
    quantiles: dict[float, float]
    exceedance: dict[float, float]


_QUANTILES = (1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0)
_EXCEEDANCE_THRESHOLDS = tuple(10.0 ** e for e in range(-6, 1))
_Q = np.true_divide(_QUANTILES, 100)  # the fractions np.percentile interpolates at


_MANTISSA_BITS = 7
_SHIFT = 52 - _MANTISSA_BITS  # a bucket key is a double's bit pattern shifted by this
SKETCH_ALPHA = 2.0 ** -(_MANTISSA_BITS + 1)  # relative accuracy of a bucket's midpoint


@dataclass(eq=False)
class Sketch:
    """Mergeable, fixed-size summary of one row of non-negative values.

    It holds the count of exact zeros, the exact count above each of
    ``thresholds``, the exact minimum and maximum, and counts of the
    positive values in logarithmic buckets (DDSketch: Masson, Rim and Lee,
    PVLDB 12(12), 2019).  A value's bucket key is its bit pattern shifted
    right by 52 - 7: each power of two splits into 128 buckets of equal
    width, and a bucket's midpoint lies within ``SKETCH_ALPHA`` = 2^-8
    relative of every normal double in it.  The key is integer arithmetic,
    so it is the same on every platform, unlike a logarithm at bucket edges.
    ``counts[i]`` counts the key ``key0 + i``; the dense store spans the
    keys this sketch has seen.  ``merge`` adds counts and takes minima and
    maxima, so a merged sketch does not depend on the merge order.
    """

    thresholds: tuple[float, ...]
    zeros: int
    above: np.ndarray  # (len(thresholds),) int64
    minimum: float     # inf while empty
    maximum: float     # -inf while empty
    key0: int
    counts: np.ndarray  # (keys,) int64

    @classmethod
    def empty(cls, thresholds=()) -> Sketch:
        """A sketch of no values; ``thresholds`` ascending."""
        return cls(tuple(thresholds), 0, np.zeros(len(thresholds), dtype=np.int64),
                   math.inf, -math.inf, 0, np.zeros(0, dtype=np.int64))

    def add(self, values: np.ndarray) -> None:
        """Fold ``values`` (1-D), non-negative and finite, into this sketch."""
        v = np.sort(np.asarray(values, dtype=float))
        if v.size:
            below = np.searchsorted(v, (0.0,) + self.thresholds, side="right")
            keys = v[below[0]:].view(np.int64) >> _SHIFT  # of the positive values
            key0 = int(keys[0]) if keys.size else 0
            self.merge(Sketch(self.thresholds, int(below[0]), v.size - below[1:], float(v[0]),
                              float(v[-1]), key0, np.bincount(keys - key0)))

    def merge(self, other: Sketch) -> None:
        """Add the values ``other`` sketches to this sketch, in place."""
        self.zeros += other.zeros
        self.above = self.above + other.above
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        width = other.counts.size
        if width:
            lo, hi = other.key0, other.key0 + width
            if self.counts.size:
                lo, hi = min(lo, self.key0), max(hi, self.key0 + self.counts.size)
            if hi - lo != self.counts.size:  # grow the store (from nothing, if empty)
                grown = np.zeros(hi - lo, dtype=np.int64)
                grown[self.key0 - lo:self.key0 - lo + self.counts.size] = self.counts
                self.key0, self.counts = lo, grown
            self.counts[other.key0 - lo:other.key0 - lo + width] += other.counts

    @property
    def count(self) -> int:
        """Number of values sketched."""
        return self.zeros + int(self.counts.sum())

    def order_statistics(self, ranks) -> np.ndarray:
        """Estimates of the sorted values at 0-based ``ranks``.

        Rank -1 is the largest.  Zeros, the smallest and the largest value
        are exact; any other value is its bucket's midpoint, clipped to
        [minimum, maximum], within ``SKETCH_ALPHA`` relative of the value.
        """
        n = self.count
        ranks = np.asarray(ranks)
        ranks = np.where(ranks < 0, ranks + n, ranks)
        bucket = np.searchsorted(np.cumsum(self.counts), ranks - self.zeros, side="right")
        keys = np.asarray(self.key0 + bucket, dtype=np.int64)
        mid = ((keys << _SHIFT) | (1 << (_SHIFT - 1))).view(np.float64)
        values = np.where(ranks < self.zeros, 0.0, np.clip(mid, self.minimum, self.maximum))
        return np.where(ranks == 0, self.minimum, np.where(ranks == n - 1, self.maximum, values))

    def summary(self) -> CdfSummary:
        """Count, exceedance fractions (exact) and quantiles of the sketched values.

        Each quantile is ``np.percentile``'s linear method (virtual index (n - 1) q,
        the lerp's ``t >= 0.5`` branch) at two neighbouring order statistics:
        within ``SKETCH_ALPHA`` relative of the exact one, and its bits where those are.
        """
        n = self.count
        if n == 0:
            raise InvalidArgumentError("cdf summary needs at least one record")
        v = (n - 1) * _Q
        top = v >= n - 1
        lo = np.where(top, -1, np.floor(v)).astype(np.intp)
        a, b = self.order_statistics(lo), self.order_statistics(np.where(top, -1, lo + 1))
        t = v - lo
        d = b - a
        q = a + d * t
        np.subtract(b, d * (1 - t), out=q, where=t >= 0.5)
        return CdfSummary(
            count=n,
            quantiles={p: float(x) for p, x in zip(_QUANTILES, q)},
            exceedance={x: int(c) / n for x, c in zip(self.thresholds, self.above)},
        )


def _sketch_arrays(prefix: str, sketches) -> dict[str, np.ndarray]:
    """Sketches, one per row of any row shape, as the named arrays of ``sketch.npz``.

    ``counts`` is the rows' stores one after another: row r (in C order) is
    ``counts[offsets[r]:offsets[r + 1]]``, whose entry i counts the positive
    values in [edge(key0[r] + i), edge(key0[r] + i + 1)), with
    edge(key) = ``(key << 45).view(float64)``.
    """
    rows = np.array(sketches, dtype=object)
    flat = rows.ravel()

    def per_row(field, dtype):
        first = np.shape(getattr(flat[0], field))
        return np.array([getattr(s, field) for s in flat], dtype).reshape(rows.shape + first)

    return {prefix + name: a for name, a in (
        ("counts", np.concatenate([s.counts for s in flat])),
        ("offsets", np.cumsum([0] + [s.counts.size for s in flat], dtype=np.int64)),
        ("key0", per_row("key0", np.int64)), ("zeros", per_row("zeros", np.int64)),
        ("thresholds", np.array(flat[0].thresholds, dtype=float)),
        ("above", per_row("above", np.int64)), ("min", per_row("minimum", float)),
        ("max", per_row("maximum", float)))}


def _npz_arrays(errors, conditions: Sketch) -> dict[str, np.ndarray]:
    """The arrays of ``sketch.npz``: ``errors`` (rows of any shape) as ``error_*``,
    then ``conditions`` as ``condition_*``, its one-row scalars with shape (1,)."""
    arrays = {**_sketch_arrays("error_", errors), **_sketch_arrays("condition_", conditions)}
    return {name: np.atleast_1d(a) for name, a in arrays.items()}


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    """Error and condition-number sketches of a sweep.

    ``errors[s][k]`` sketches the errors of stream s + 1 at ratio index k
    over every kept scenario; ``conditions`` the condition numbers of the
    kept channels.  ``summaries`` and ``cdf`` read a stream's M sketches
    merged, so their errors lie within ``SKETCH_ALPHA`` relative of the
    exact ones.
    """

    n_scenarios: int
    n_rejected: int
    seed: int
    separation_deg: tuple[float, float]
    errors: tuple[tuple[Sketch, ...], tuple[Sketch, ...]]
    conditions: Sketch

    @property
    def stream_errors(self) -> tuple:
        """No arrays: a sweep keeps no error samples.  Only the trace counter
        of ``bench/child.py`` reads this, until it counts sketches (ROADMAP
        item 1)."""
        return ()

    def _pooled(self, stream: int) -> Sketch:
        """Stream 1's or 2's M ratio sketches merged into one."""
        if require_integer(stream, "stream") not in (1, 2):
            raise InvalidArgumentError(f"stream must be 1 or 2, got {stream}")
        pooled = Sketch.empty(_EXCEEDANCE_THRESHOLDS)
        for row in self.errors[stream - 1]:
            pooled.merge(row)
        return pooled

    def cdf(self, stream: int) -> tuple[np.ndarray, np.ndarray]:
        """Empirical CDF of n errors at m = min(n, _CDF_LEVELS) levels.

        Row i = 1..m is (the ``ceil(i*n/m)``-th smallest error, i/m): every
        order statistic when n <= m, else within 1/m of the exact CDF, finer
        than its 95% DKW band (+-1.1e-3 at 1.4e6 scenarios).  The errors are
        the merged sketch's estimates, within ``SKETCH_ALPHA`` relative.
        """
        pooled = self._pooled(stream)
        n = pooled.count
        m = min(n, _CDF_LEVELS)
        i = np.arange(1, m + 1)
        # integer ceil; a float ceil can be 1 off
        return pooled.order_statistics((i * n + m - 1) // m - 1), i / m

    def summaries(self) -> tuple[CdfSummary, CdfSummary]:
        """Each stream's ``Sketch.summary``, its M ratio sketches merged."""
        return self._pooled(1).summary(), self._pooled(2).summary()


def _uniforms(seed: int, n: int, start: int, stop: int) -> np.ndarray:
    """Columns [start, stop) of ``np.random.default_rng(seed).random((4, n))``.

    Row r, column c is draw r*n + c of the seeded PCG64 stream, and PCG64
    jumps ahead by any number of draws at once, so a chunk draws its own
    slice without drawing what comes before it; the bytes are the same.
    """
    bits = np.random.PCG64(seed)
    rng = np.random.Generator(bits)
    u = np.empty((4, stop - start))
    for r in range(4):
        bits.advance(start if r == 0 else n - (stop - start))  # to column start of row r
        rng.random(out=u[r])
    return u


def run_monte_carlo(
    s_hat: StatePatternSet,
    basis_hat: BasisPair,
    constellation: PskConstellation,
    n_scenarios: int,
    separation_deg: tuple[float, float] = (3.0, 5.0),
    seed: int = 0,
    threads: int = 1,
    rx_polarizations=(THETA_POL, THETA_POL),
    condition_cap: float = DEFAULT_CONDITION_CAP,
) -> MonteCarloResult:
    """Seeded sweep over random single-path LOS receive geometries.

    The geometries are ``draw_geometries(np.random.default_rng(seed),
    n_scenarios, separation_deg)``, drawn chunk by chunk.  Each accepted
    geometry contributes one noiseless error per stream and ratio state:
    for unit-modulus PSK every symbol pair with that ratio has exactly
    this error magnitude, so M samples per geometry give the same
    empirical CDF as all M^2 pairs.  Geometries whose channel condition
    number exceeds ``condition_cap`` are rejected and tallied.

    ``basis_hat`` must be bitwise ``perturbed_basis(s_hat)`` (else
    InvalidArgumentError, after the grid check); it is checked one field
    component at a time and otherwise unused.  Each chunk decodes in state
    coordinates (``_decode``, the decode of ``received_constellation``
    too): it samples the M states and solves only the M - 2 other than +-1,
    and each +-1 row is one exact zero per kept channel.  Every chunk folds
    its errors and condition numbers into one set of sketches, chunk after
    chunk of ``_CHUNK`` scenarios on the calling thread.  Identical (seed,
    parameters) give bitwise-identical output; ``threads`` is checked and
    changes nothing.  At most ``MAX_SCENARIOS`` scenarios.  Memory is one
    chunk's working set and 2(M - 2) + 1 sketches.
    """
    n = require_integer(n_scenarios, "n_scenarios")
    seed = require_integer(seed, "seed")
    threads = require_integer(threads, "threads")
    if not 1 <= n <= MAX_SCENARIOS:
        raise InvalidArgumentError(f"n_scenarios must be in [1, {MAX_SCENARIOS}], got {n}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    condition_cap = require_condition_cap(condition_cap)
    if threads < 1:
        raise InvalidArgumentError("threads must be >= 1")
    order, states = _states(s_hat, constellation)
    require_same_grid(s_hat.grid, basis_hat.grid)
    want = perturbed_basis(s_hat)
    if not all(np.array_equal(getattr(getattr(want, b), c).view(np.int64),
                              getattr(getattr(basis_hat, b), c).view(np.int64))
               for b in ("b1", "b2") for c in ("e_theta", "e_phi")):
        raise InvalidArgumentError("basis_hat must be perturbed_basis(s_hat)")
    del want
    pols = _unit_polarizations(rx_polarizations)
    separation = _separation(separation_deg)
    pm1, solved, m = order[:2], order[2:], constellation.order
    ratios = np.asarray(constellation.ratio_set.values)[solved]
    ideal = np.stack([np.ones(m - 2), ratios])[..., None]  # what G should be: (2, M - 2, 1)

    def chunk(start: int, sketches: list[Sketch]) -> None:
        # the angles and then the responses go in as temporaries, each freed once used
        keep, g, cond = _decode(_responses(
            states, *_angles(_uniforms(seed, n, start, min(start + _CHUNK, n)), separation),
            pols), condition_cap)
        e = np.abs(np.subtract(g, ideal, out=g))  # (2, M - 2, kept): sketch rows, values last
        del g
        for sketch, values in zip(sketches, (*e[0], *e[1], cond[keep])):
            sketch.add(values)

    # one sketch per stream and solved ratio index, stream 1's first, then the condition numbers'
    sketches = [Sketch.empty(_EXCEEDANCE_THRESHOLDS) for _ in solved * 2] + [Sketch.empty()]
    for start in range(0, n, _CHUNK):
        chunk(start, sketches)
    kept = sketches[-1].count  # the condition sketch counts the kept channels

    def stream(rows) -> tuple[Sketch, ...]:
        """A stream's rows in ratio order, each +-1 row one exact zero per kept channel
        (as ``Sketch.add`` folds zeros)."""
        rows = dict(zip(solved, rows))
        for k in pm1:
            rows[k] = Sketch.empty(_EXCEEDANCE_THRESHOLDS)
            if kept:
                rows[k].zeros, rows[k].minimum, rows[k].maximum = kept, 0.0, 0.0
        return tuple(rows[k] for k in range(m))

    return MonteCarloResult(
        n_scenarios=n,
        n_rejected=n - kept,
        seed=seed,
        separation_deg=separation,
        errors=(stream(sketches[:m - 2]), stream(sketches[m - 2:-1])),
        conditions=sketches[-1],
    )
