"""Test helpers: link oracles, constant patterns and a metrics reader.

``transmit_and_receive`` and ``zf_equalize`` are the physical link pair by
pair: the antenna radiates x1 times the state pattern of the symbol ratio,
each receiver projects that field at its own angle, and LAPACK solves
H x = y.  They share no decode code with the package's batched kernel,
which is what makes them an oracle for it.

``upfront_errors`` is the Monte-Carlo sweep with every geometry drawn before
any chunk runs, the oracle the chunk-by-chunk draw and the sketches are
pinned to; ``upfront_sketches`` folds its errors into the rows of
``sketch.npz``.  ``result_arrays`` are those rows for a sweep's result, and
``sketch_rows`` and ``pooled`` rebuild sketches from them.

``reference_responses``, ``reference_condition_2x2`` and
``reference_zf_gains`` are the decode kernel with the scenario axis first:
(n, 2, K) responses from one stencil with real weights per receiver, and
2x2 matrices on the trailing axes.  The package's scenario-last kernel must
give the same bits.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from beamspace import (
    RatioSetMismatchError,
    SingularChannelError,
    UndefinedRatioError,
    VectorPattern,
    draw_geometries,
    link,
    ratio_label,
)
from beamspace.link import DEFAULT_CONDITION_CAP, THETA_POL, Sketch
from beamspace.sphere import apply_stencil, bilinear_stencil


def sample_pattern(p: VectorPattern, theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """A pattern's (e_theta, e_phi) at arbitrary solid angles.

    Bilinear between grid nodes, exact at the nodes, periodic in phi.
    Accepts scalars or broadcast-compatible arrays of radians.

    Raises:
        AngleOutOfRangeError: theta outside [0, pi] or non-finite input.
    """
    stencil = bilinear_stencil(p.grid, theta, phi)
    return apply_stencil(stencil, p.e_theta), apply_stencil(stencil, p.e_phi)


def parse_ratio_label(label: str, order: int) -> int:
    """Inverse of ``ratio_label``."""
    for k in range(order):
        if ratio_label(k, order) == label:
            return k
    raise RatioSetMismatchError(f"unknown ratio label {label!r} for order {order}")


def index_of(ratios, ratio: complex, tol: float = 1e-9) -> int:
    """Index of the member of ``ratios`` (a RatioSet) closest to ``ratio`` within ``tol``."""
    diffs = np.abs(np.asarray(ratios.values) - complex(ratio))
    k = int(np.argmin(diffs))
    if diffs[k] > tol:
        raise RatioSetMismatchError(
            f"ratio {ratio!r} is not in the {ratios.order}-PSK ratio alphabet"
        )
    return k


def transmit_and_receive(s_hat, x1, x2, scenario) -> np.ndarray:
    """Noiseless receive vector for one symbol pair radiated through the physical field."""
    if x1 == 0:
        raise UndefinedRatioError("x1 = 0 leaves the symbol ratio x2/x1 undefined")
    k = index_of(scenario.constellation.ratio_set, x2 / x1)
    angles, pols = scenario.rx_angles, scenario.rx_polarizations
    et, ep = sample_pattern(s_hat.state(k), angles[:, 0], angles[:, 1])
    return x1 * (np.conj(pols[:, 0]) * et + np.conj(pols[:, 1]) * ep)


def zf_equalize(y, scenario, condition_cap=DEFAULT_CONDITION_CAP) -> np.ndarray:
    """Zero-forcing estimate H^-1 y by a LAPACK solve.

    Raises:
        SingularChannelError: channel singular or conditioned above the cap.
    """
    if not scenario.condition_number <= condition_cap:
        raise SingularChannelError(f"channel condition number {scenario.condition_number:.3g} "
                                   f"exceeds cap {condition_cap:.3g}")
    return np.linalg.solve(scenario.channel, np.asarray(y, dtype=complex))


def upfront_errors(s_hat, basis_hat, constellation, n, seed, separation_deg=(3.0, 5.0),
                   rx_polarizations=(THETA_POL, THETA_POL), condition_cap=DEFAULT_CONDITION_CAP):
    """The errors (kept, 2, M), the kept condition numbers and the rejection count
    of an up-front sweep, in scenario order.

    ``draw_geometries(default_rng(seed), n)``, then the package's kernel on
    each chunk of those angles.
    """
    theta, phi = draw_geometries(np.random.default_rng(seed), n, separation_deg)
    patterns = ((basis_hat.b1, basis_hat.b2)
                + tuple(s_hat.state(k) for k in range(constellation.order)))
    pols = np.asarray(rx_polarizations, dtype=complex)
    ratios = np.asarray(constellation.ratio_set.values)
    errors, conds, rejected = [], [], 0
    for i in range(0, n, link._CHUNK):
        resp = link._responses(patterns, theta[:, i:i + link._CHUNK], phi[:, i:i + link._CHUNK],
                               pols)
        keep, g, cond = link._zf_gains(resp[:, :2], resp[:, 2:], condition_cap)
        g = np.moveaxis(g, -1, 0)  # (kept, 2, M)
        errors.append(np.stack([np.abs(g[:, 0] - 1.0), np.abs(g[:, 1] - ratios)], axis=1))
        conds.append(cond[keep])
        rejected += keep.size - np.count_nonzero(keep)
    return np.concatenate(errors), np.concatenate(conds), rejected


def result_arrays(mc) -> dict[str, np.ndarray]:
    """The arrays of a sweep's ``sketch.npz``: its error rows, then its condition row."""
    return {**link._sketch_arrays("error_", mc.errors),
            **link._sketch_arrays("condition_", mc.conditions)}


def upfront_sketches(*args, **kwargs):
    """``result_arrays`` and the rejection count of an up-front sweep, each row's
    errors folded into its sketch in one add."""
    errors, conds, rejected = upfront_errors(*args, **kwargs)
    rows = np.empty(errors.shape[1:], dtype=object)  # (2, M)
    for i in np.ndindex(rows.shape):
        rows[i] = Sketch.empty(link._EXCEEDANCE_THRESHOLDS)
        rows[i].add(errors[(slice(None), *i)])
    condition = Sketch.empty()
    condition.add(conds)
    return result_arrays(SimpleNamespace(errors=rows, conditions=condition)), rejected


def sketch_rows(arrays, prefix: str) -> np.ndarray:
    """The sketches stored under ``prefix`` in ``sketch.npz``-style arrays, in their
    row shape."""
    f = {name[len(prefix):]: a for name, a in arrays.items() if name.startswith(prefix)}
    rows = np.empty(f["key0"].shape, dtype=object)
    above = f["above"].reshape(rows.shape + f["thresholds"].shape)
    for r, i in enumerate(np.ndindex(rows.shape)):
        rows[i] = Sketch(tuple(f["thresholds"]), int(f["zeros"][i]), above[i],
                         float(f["min"][i]), float(f["max"][i]), int(f["key0"][i]),
                         f["counts"][f["offsets"][r]:f["offsets"][r + 1]])
    return rows


def pooled(rows) -> Sketch:
    """A stream's sketch: an empty sketch merged with its ratio rows."""
    out = Sketch.empty(link._EXCEEDANCE_THRESHOLDS)
    for row in rows:
        out.merge(row)
    return out


def reference_responses(patterns, theta, phi, pols) -> np.ndarray:
    """Responses of two receivers at (2, n) angles to each pattern, (n, 2, len(patterns))."""
    out = np.empty((np.shape(theta)[1], 2, len(patterns)), dtype=complex)
    for rx in range(2):
        stencil = bilinear_stencil(patterns[0].grid, theta[rx], phi[rx])
        pt, pp = np.conj(pols[rx])
        for k, p in enumerate(patterns):
            if pt and pp:
                out[:, rx, k] = (pt * apply_stencil(stencil, p.e_theta)
                                 + pp * apply_stencil(stencil, p.e_phi))
            elif pt:
                out[:, rx, k] = pt * apply_stencil(stencil, p.e_theta)
            else:
                out[:, rx, k] = pp * apply_stencil(stencil, p.e_phi)
    return out


def reference_condition_2x2(h: np.ndarray):
    """2-norm condition numbers (inf if singular) and determinants of 2x2 matrices (last axes)."""
    det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    abs_det = np.abs(det)
    f2 = np.sum(np.abs(h) ** 2, axis=(-2, -1))
    s2max = 0.5 * (f2 + np.sqrt(np.maximum(f2 * f2 - 4.0 * abs_det ** 2, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(abs_det > 0.0, s2max / abs_det, np.inf)[()], det


def reference_zf_gains(h: np.ndarray, f: np.ndarray, condition_cap: float):
    """Keep mask (n,), G (kept, 2, M) and condition numbers (n,) for h (n, 2, 2), f (n, 2, M)."""
    cond, det = reference_condition_2x2(h)
    keep = np.isfinite(cond) & (cond <= condition_cap)
    if not keep.all():
        h, f, det = h[keep], f[keep], det[keep]
    g = np.empty_like(f)
    g[:, 0] = (h[:, 1, 1, None] * f[:, 0] - h[:, 0, 1, None] * f[:, 1]) / det[:, None]
    g[:, 1] = (h[:, 0, 0, None] * f[:, 1] - h[:, 1, 0, None] * f[:, 0]) / det[:, None]
    return keep, g, cond


def uniform_pattern(grid, e_theta, e_phi) -> VectorPattern:
    """Pattern with the same polarization vector at every sample."""
    return VectorPattern(grid=grid, e_theta=np.full(grid.shape, e_theta, dtype=complex),
                         e_phi=np.full(grid.shape, e_phi, dtype=complex))


def zero_pattern(grid) -> VectorPattern:
    return uniform_pattern(grid, 0.0, 0.0)


def _json_decode(obj):
    """Undo the metrics writer's sentinel strings for non-finite floats."""
    if isinstance(obj, dict):
        return {k: _json_decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_decode(v) for v in obj]
    if obj in ("inf", "-inf", "nan"):
        return float(obj)
    return obj


def load_metrics_json(path) -> dict:
    return _json_decode(json.loads(Path(path).read_text()))
