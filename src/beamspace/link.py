"""Single-path LOS link simulation with zero-forcing recovery.

A two-element receive array samples the transmitted far field at two
nearby solid angles.  The channel matrix holds the response of each
receiver to each virtual basis pattern; it is built from the perturbed
basis, which models a receiver whose pilot-derived channel estimate has
absorbed the perturbation.  Decoding is a plain zero-forcing inverse, so
symbol pairs whose ratio is +-1 always recover exactly while the other
states land away from their ideal constellation points.

For unit-modulus PSK the antenna radiates x1 times the state pattern of
ratio index k = (k2 - k1) mod M, so zero forcing returns x1 * g_k, with
G = H^-1 F and F the receivers' responses to the M states.  One batched
kernel computes G for every decode path; the transmit-side constellation
at one angle is that decode at two co-located receivers.  The kernel's
arrays keep the scenario axis last and contiguous: the responses are
(2 receivers, M + 2 patterns, n), H is (2, 2, n) and G (2 streams, M, n).

The Monte-Carlo sweep draws the receive geometries of
``draw_geometries(np.random.default_rng(seed), n)`` and takes, per
accepted geometry, one noiseless error per stream and ratio state:
|g1_k - 1| and |g2_k - r_k|.  Scenarios are processed in chunks; each
chunk jumps the seeded PCG64 stream ahead to its own columns of the draw.
Every chunk folds its errors into a fixed-size ``Sketch`` per stream and
ratio state (exact zero, exceedance and extreme values, and log-bucketed
counts with relative accuracy ``SKETCH_ALPHA``); the stream summaries and
CDFs read a stream's M sketches merged.  The arithmetic is elementwise over
scenarios and merging sketches adds integers, so results are bitwise
independent of the chunk size and the worker count, and memory is
O(workers x chunk) whatever the scenario count.  The scenario count sets
both, so a thread pool starts only where it pays.

Every product is noiseless: the receiver sees the radiated field exactly,
so the errors are those of the perturbation and the zero-forcing decode
alone.

Of the commands, only ``constellation``, ``monte-carlo`` and ``selftest``
import this module, and a sweep imports ``concurrent.futures`` only when
more than one worker runs.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import (DEFAULT_CONDITION_CAP, MAX_SCENARIOS, InvalidArgumentError,
                     RatioSetMismatchError, SingularChannelError)
from .modulation import PskConstellation
from .patterns import BasisPair, StatePatternSet
from .sphere import PHI_POL, THETA_POL, apply_stencil, bilinear_stencil, require_same_grid

__all__ = [
    "SKETCH_ALPHA",
    "LinkScenario",
    "ConstellationPoint",
    "MonteCarloResult",
    "Sketch",
    "CdfSummary",
    "build_channel",
    "received_constellation",
    "constellation_at_angle",
    "great_circle_offset",
    "draw_geometries",
    "run_monte_carlo",
    "cdf_summary",
]

# Scenarios per chunk on one worker, and on several: each of a chunk's ~300
# short numpy calls hands the GIL over, so workers on 4,096-scenario chunks
# mostly take turns.  The output bytes depend on neither size.
_CHUNK = 4096
_POOL_CHUNK = 8192
# A sweep starts a worker per this many scenarios at most: below it the pool
# costs more wall time than it saves.
_SCENARIOS_PER_WORKER = 150_000
_CDF_LEVELS = 10_000  # rows of MonteCarloResult.cdf at most


@dataclass(frozen=True, eq=False)
class LinkScenario:
    """Receive geometry, polarizations, and the derived channel matrix."""

    rx_angles: np.ndarray         # (2, 2) [(theta, phi)] radians
    rx_polarizations: np.ndarray  # (2, 2) complex unit vectors in (theta, phi)
    channel: np.ndarray           # (2, 2) complex
    condition_number: float
    constellation: PskConstellation

    def __post_init__(self) -> None:
        angles = np.ascontiguousarray(self.rx_angles, dtype=float)
        pols = _unit_polarizations(self.rx_polarizations)
        channel = np.ascontiguousarray(self.channel, dtype=complex)
        if angles.shape != (2, 2) or channel.shape != (2, 2):
            raise InvalidArgumentError("scenario arrays must all be 2x2")
        if not np.all(np.isfinite(channel)):
            raise InvalidArgumentError("channel matrix must be finite")
        for name, arr in (("rx_angles", angles), ("rx_polarizations", pols),
                          ("channel", channel)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def singular(self) -> bool:
        return not np.isfinite(self.condition_number)


def _unit_polarizations(pols) -> np.ndarray:
    """Two receive polarizations as a (2, 2) complex array of unit 2-vectors."""
    pols = np.ascontiguousarray(pols, dtype=complex)
    # written so that NaN fails: every comparison with NaN is False
    if pols.shape != (2, 2) or not np.all(np.abs(np.linalg.norm(pols, axis=1) - 1.0) <= 1e-6):
        raise InvalidArgumentError("rx_polarizations must be two unit 2-vectors")
    return pols


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
    receive polarizations; one bilinear stencil serves both receivers.  A
    field component whose polarization weight is zero is not sampled.
    Returns a (2, len(patterns), n) complex array: receiver, pattern, then
    scenario, so every row a product writes or reads is contiguous.
    """
    nodes, weights = bilinear_stencil(patterns[0].grid, theta, phi)
    out = np.empty((2, len(patterns), np.shape(theta)[1]), dtype=complex)
    for rx in range(2):
        # the complex weights once, not a cast inside each product with a field
        stencil = (tuple(i[rx] for i in nodes), tuple(w[rx].astype(complex) for w in weights))
        pt, pp = np.conj(pols[rx])
        for k, p in enumerate(patterns):
            if pt and pp:
                out[rx, k] = (pt * apply_stencil(stencil, p.e_theta)
                              + pp * apply_stencil(stencil, p.e_phi))
            elif pt:
                out[rx, k] = pt * apply_stencil(stencil, p.e_theta)
            else:
                out[rx, k] = pp * apply_stencil(stencil, p.e_phi)
    return out


def _zf_gains(h: np.ndarray, f: np.ndarray, condition_cap: float):
    """Condition cap and closed-form zero-forcing gains G = H^-1 F.

    ``h`` is (2, 2, n) and ``f`` (2, M, n), scenarios last.  Returns the
    (n,) mask of channels conditioned within the cap, G (2, M, kept) for
    them and the (n,) condition numbers.
    """
    cond, det = _condition_2x2(h)
    keep = np.isfinite(cond) & (cond <= condition_cap)
    if not keep.all():
        h, f, det = h[..., keep], f[..., keep], det[keep]
    g, scratch = np.empty_like(f), np.empty_like(f[0])
    # g[r] = (a * fa - b * fb) / det in that operation order, written in place
    for r, (a, fa, b, fb) in enumerate(((h[1, 1], f[0], h[0, 1], f[1]),
                                        (h[0, 0], f[1], h[1, 0], f[0]))):
        np.subtract(np.multiply(a, fa, out=g[r]), np.multiply(b, fb, out=scratch), out=g[r])
        np.divide(g[r], det, out=g[r])
    return keep, g, cond


def build_channel(
    basis_hat: BasisPair,
    rx_angles,
    constellation: PskConstellation,
    rx_polarizations=(THETA_POL, THETA_POL),
) -> LinkScenario:
    """Channel matrix entries p_m^H . b_n at each receive angle.

    ``rx_angles`` holds one (theta, phi) row per receiver and
    ``rx_polarizations`` two unit 2-vectors in (theta, phi) components.
    The basis patterns are sampled bilinearly at the two receive solid
    angles and projected onto the receive polarization vectors; the link
    is noiseless.  Singular geometries are flagged through
    ``condition_number`` (inf), not raised; rejection happens at
    equalization time.

    Raises:
        InvalidArgumentError: the polarizations are not two unit 2-vectors.
    """
    angles = np.asarray(rx_angles, dtype=float)
    pols = np.asarray(rx_polarizations, dtype=complex)
    # a batch of one: the entries of a lone 2x2 matrix would be numpy scalars,
    # whose arithmetic can round differently from the array loops'
    h = _responses((basis_hat.b1, basis_hat.b2), angles[:, :1], angles[:, 1:], pols)
    return LinkScenario(
        rx_angles=angles,
        rx_polarizations=pols,
        channel=h[..., 0],
        condition_number=float(_condition_2x2(h)[0][0]),
        constellation=constellation,
    )


@dataclass(frozen=True)
class ConstellationPoint:
    """Ideal and actual I/Q location of one stream for one symbol pair."""

    stream: int
    k1: int
    k2: int
    ideal: complex
    actual: complex


def _states(s_hat: StatePatternSet, constellation: PskConstellation):
    """The M state patterns in ratio-index order, checked against the alphabet."""
    if constellation.order != s_hat.ratios.order:
        raise RatioSetMismatchError(
            "constellation order does not match the state-pattern alphabet"
        )
    return tuple(s_hat.state(k) for k in range(s_hat.ratios.order))


def _pair_points(constellation: PskConstellation, g: np.ndarray):
    """Expand ratio-state gains to every symbol pair: x_hat = x1 * g_k."""
    points = constellation.points
    m = constellation.order
    out = []
    for k1 in range(m):
        for k2 in range(m):
            x1, k = points[k1], (k2 - k1) % m
            out.append(ConstellationPoint(1, k1, k2, complex(x1), complex(x1 * g[0, k])))
            out.append(ConstellationPoint(2, k1, k2, complex(points[k2]),
                                          complex(x1 * g[1, k])))
    return out


def received_constellation(
    s_hat: StatePatternSet,
    scenario: LinkScenario,
    condition_cap: float = DEFAULT_CONDITION_CAP,
) -> list[ConstellationPoint]:
    """Equalized constellation for every symbol pair, noiselessly.

    Raises:
        SingularChannelError: channel singular or conditioned above the cap.
    """
    angles = scenario.rx_angles
    f = _responses(_states(s_hat, scenario.constellation), angles[:, :1],
                   angles[:, 1:], scenario.rx_polarizations)
    keep, g, cond = _zf_gains(scenario.channel[..., None], f, condition_cap)
    if not keep[0]:
        raise SingularChannelError(f"channel condition number {cond[0]:.3g} "
                                   f"exceeds cap {condition_cap:.3g}")
    return _pair_points(scenario.constellation, g[..., 0])


def constellation_at_angle(
    basis_hat: BasisPair,
    s_hat: StatePatternSet,
    constellation: PskConstellation,
    theta: float,
    phi: float,
    condition_cap: float = DEFAULT_CONDITION_CAP,
) -> list[ConstellationPoint]:
    """Transmit-side constellation observed in the radiated field at one angle.

    The physical field of each symbol pair is decomposed onto the two
    basis patterns sampled at the same angle (a 2x2 solve across the two
    polarization components, i.e. the receive decode at two co-located
    receivers); ideal points are the transmitted symbols.

    Raises:
        SingularChannelError: the basis polarization matrix at the angle
            is singular or conditioned above the cap.
    """
    require_same_grid(basis_hat.grid, s_hat.grid)
    scenario = build_channel(basis_hat, ((theta, phi), (theta, phi)), constellation,
                             (THETA_POL, PHI_POL))
    return received_constellation(s_hat, scenario, condition_cap)


def great_circle_offset(theta, phi, distance, bearing):
    """Destination of a great-circle step from (theta, phi).

    Bearing 0 heads toward the north pole (decreasing theta); angles are
    radians.  Vectorized over all inputs.
    """
    ct1 = np.cos(theta)
    st1 = np.sin(theta)
    cd, sd = np.cos(distance), np.sin(distance)
    ct2 = np.clip(ct1 * cd + st1 * sd * np.cos(bearing), -1.0, 1.0)
    theta2 = np.arccos(ct2)
    dphi = np.arctan2(np.sin(bearing) * sd * st1, cd - ct1 * ct2)
    return theta2, np.mod(phi + dphi, 2.0 * np.pi)


def draw_geometries(rng: np.random.Generator, n: int, separation_deg=(3.0, 5.0)):
    """``n`` random two-receiver geometries as (2, n) theta and phi arrays in radians.

    Receiver 1 is area-uniform on the sphere; receiver 2 lies at a great-circle
    distance uniform in ``separation_deg`` (degrees) along a uniform bearing.
    The draw consumes ``rng.random((4, n))``.
    """
    n, separation = _integer(n, "n"), _separation(separation_deg)
    if n < 0:
        raise InvalidArgumentError(f"geometries need n >= 0, got n={n}")
    return _angles(rng.random((4, n)), separation)


def _separation(separation_deg) -> tuple[float, float]:
    lo, hi = map(float, separation_deg)
    if not 0.0 < lo <= hi:  # NaN fails
        raise InvalidArgumentError("geometries need a separation interval with "
                                   f"0 < min <= max, got ({lo}, {hi})")
    return lo, hi


def _angles(u: np.ndarray, separation: tuple[float, float]):
    """Two-receiver angles from (4, n) uniforms: the transform of ``draw_geometries``."""
    lo, hi = separation
    theta1 = np.arccos(1.0 - 2.0 * u[0])
    phi1 = 2.0 * np.pi * u[1]
    dist = np.deg2rad(lo) + (np.deg2rad(hi) - np.deg2rad(lo)) * u[2]
    theta2, phi2 = great_circle_offset(theta1, phi1, dist, 2.0 * np.pi * u[3])
    return np.stack([theta1, theta2]), np.stack([phi1, phi2])


@dataclass(frozen=True)
class CdfSummary:
    """Quantiles and threshold-exceedance fractions of one error stream."""

    count: int
    quantiles: dict[float, float]
    exceedance: dict[float, float]


_QUANTILES = (1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0)
_EXCEEDANCE_THRESHOLDS = tuple(10.0 ** e for e in range(-6, 1))
_Q = np.true_divide(_QUANTILES, 100)  # the fractions np.percentile interpolates at


def _summary(n: int, order, thresholds, above) -> CdfSummary:
    """Quantiles of n values from their order statistics, and exceedance counts.

    ``order(i)`` is the i-th smallest value (i = -1 the largest) for an
    integer array or scalar ``i``; ``above`` counts the values exceeding
    each of ``thresholds``.  The quantiles repeat the arithmetic of
    ``np.percentile``'s linear method (virtual index (n - 1) q, the lerp's
    ``t >= 0.5`` branch, NaN when any value is NaN) at the two neighbouring
    order statistics, so on exact order statistics they are the same bits;
    only a zero's sign can differ when -0.0 and 0.0 tie, as
    ``np.percentile``'s own follows its partition order.
    """
    if n == 0:
        raise InvalidArgumentError("cdf summary needs at least one record")
    v = (n - 1) * _Q
    top = v >= n - 1
    lo = np.where(top, -1, np.floor(v)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    t = v - lo
    a, b = order(lo), order(hi)
    with np.errstate(invalid="ignore"):  # inf - inf, as in np.percentile
        d = b - a
        q = a + d * t
        np.subtract(b, d * (1 - t), out=q, where=t >= 0.5)
    last = order(-1)
    if np.isnan(last):
        q[:] = last
    return CdfSummary(
        count=n,
        quantiles={p: float(x) for p, x in zip(_QUANTILES, q)},
        exceedance={t: int(c) / n for t, c in zip(thresholds, above)},
    )


def cdf_summary(records) -> CdfSummary:
    """Summary statistics of error magnitudes (linear interpolation quantiles).

    Quantiles are ``np.percentile``'s; exceedances are ``np.mean(values >
    t)``, counted by ``searchsorted``, where NaN sorts last and exceeds nothing.
    """
    e = np.sort(np.asarray(records, dtype=float).ravel())
    above = np.searchsorted(e, np.nan) - np.searchsorted(e, _EXCEEDANCE_THRESHOLDS, side="right")
    return _summary(e.size, e.__getitem__, _EXCEEDANCE_THRESHOLDS, above)


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
        """Fold ``values`` (1-D), non-negative and not NaN, into this sketch."""
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
        """``cdf_summary`` of the sketched values: count and exceedances exact,
        quantiles within ``SKETCH_ALPHA`` relative of the exact ones."""
        return _summary(self.count, self.order_statistics, self.thresholds, self.above)


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
        """A stream's M ratio sketches merged into one."""
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
        """``cdf_summary`` of each stream from its sketches: counts and
        exceedances exact, quantiles within ``SKETCH_ALPHA``."""
        return self._pooled(1).summary(), self._pooled(2).summary()


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    number exceeds ``condition_cap`` are rejected and tallied.  Every chunk
    folds its errors and condition numbers into sketches, and each worker
    merges its chunks' sketches as they finish.  Identical (seed,
    parameters) give bitwise-identical output for any ``threads``.  At most
    ``MAX_SCENARIOS`` scenarios; ``min(threads, CPUs this process may use,
    max(1, n_scenarios // _SCENARIOS_PER_WORKER))`` workers run, the calling
    thread being one of them and a thread pool the others, on chunks of
    ``_CHUNK`` scenarios if one worker runs and ``_POOL_CHUNK`` if more do.
    Memory is one chunk's working set and 2M + 1 sketches per worker.
    """
    n = _integer(n_scenarios, "n_scenarios")
    seed = _integer(seed, "seed")
    threads = _integer(threads, "threads")
    if not 1 <= n <= MAX_SCENARIOS:
        raise InvalidArgumentError(f"n_scenarios must be in [1, {MAX_SCENARIOS}], got {n}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    if not condition_cap > 1.0:
        raise InvalidArgumentError(f"condition_cap must exceed 1, got {condition_cap!r}")
    if threads < 1:
        raise InvalidArgumentError("threads must be >= 1")
    patterns = (basis_hat.b1, basis_hat.b2) + _states(s_hat, constellation)
    require_same_grid(s_hat.grid, basis_hat.grid)
    pols = _unit_polarizations(rx_polarizations)
    separation = _separation(separation_deg)
    ratios = np.asarray(constellation.ratio_set.values)
    m = len(ratios)
    ideal = np.stack([np.ones(m), ratios])[..., None]  # what G should be: (2, M, 1)
    workers = min(threads, _cpu_count(), max(1, n // _SCENARIOS_PER_WORKER))
    size = _CHUNK if workers == 1 else _POOL_CHUNK
    starts = range(0, n, size)

    def chunk(start: int, sketches: list[Sketch]) -> None:
        theta, phi = _angles(_uniforms(seed, n, start, min(start + size, n)), separation)
        resp = _responses(patterns, theta, phi, pols)
        keep, g, cond = _zf_gains(resp[:, :2], resp[:, 2:], condition_cap)
        e = np.abs(np.subtract(g, ideal, out=g))  # (2, M, kept): sketch rows, values last
        del resp, g  # the chunk's largest arrays: free them before the folds allocate
        for sketch, values in zip(sketches, (*e[0], *e[1], cond[keep])):
            sketch.add(values)

    def worker(w: int) -> list[Sketch]:
        """Chunks w, w + workers, ..., each folded into the worker's sketches: one
        per stream and ratio index, stream 1's first, then the condition numbers'."""
        sketches = [Sketch.empty(_EXCEEDANCE_THRESHOLDS) for _ in range(2 * m)] + [Sketch.empty()]
        for start in starts[w::workers]:
            chunk(start, sketches)
        return sketches

    if workers == 1:
        parts = [worker(0)]
    else:  # the calling thread is worker 0; the pool runs the others
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=workers - 1) as pool:
            others = pool.map(worker, range(1, workers))  # submitted before worker 0 starts
            parts = [worker(0), *others]
    sketches = parts[0]
    for part in parts[1:]:
        for sketch, other in zip(sketches, part):
            sketch.merge(other)
    return MonteCarloResult(
        n_scenarios=n,
        n_rejected=n - sketches[-1].count,  # the condition sketch counts the kept channels
        seed=seed,
        separation_deg=separation,
        errors=(tuple(sketches[:m]), tuple(sketches[m:2 * m])),
        conditions=sketches[-1],
    )
