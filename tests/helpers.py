"""Test helpers: link oracles, constant patterns and a metrics reader.

``transmit_and_receive`` and ``zf_equalize`` are the physical link pair by
pair: the antenna radiates x1 times the state pattern of the symbol ratio,
each receiver projects that field at its own angle, and LAPACK solves
H x = y with H sampled here from ``perturbed_basis(s_hat)``
(``basis_channel``).  They share no decode code with the package's batched
kernel and read no channel from it, which is what makes them an oracle
for it.

``upfront_errors`` is the Monte-Carlo sweep with every geometry drawn before
any chunk runs, on the package's decode, the oracle the chunk-by-chunk draw
and the sketches are pinned to; ``upfront_sketches`` folds its errors into
the rows of ``sketch.npz``.  ``result_arrays`` are those rows for a sweep's
result, and ``sketch_rows`` and ``pooled`` rebuild sketches from them.

``pattern_cache_entry`` names the cache entry of a pattern CSV by the
reader's key, computed here with a loop of its own over the file's bytes.
``package_env`` is the environment a child interpreter imports this package
in.

``reference_responses``, ``reference_condition_2x2`` and
``reference_zf_gains`` are the decode kernel with the scenario axis first:
(n, 2, K) responses from one stencil with real weights per receiver, and
2x2 matrices on the trailing axes.  The package's scenario-last kernel must
give the same bits.
"""

import importlib.util
import json
import os
from pathlib import Path

import numpy as np

from beamspace import (
    DegenerateError,
    InvalidArgumentError,
    VectorPattern,
    draw_geometries,
    link,
    perturbed_basis,
    ratio_label,
)
from beamspace.link import DEFAULT_CONDITION_CAP, THETA_POL, Sketch
from beamspace.sphere import apply_stencil, bilinear_stencil


def sample_pattern(p: VectorPattern, theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """A pattern's (e_theta, e_phi) at arbitrary solid angles.

    Bilinear between grid nodes, exact at the nodes, periodic in phi.
    Accepts scalars or broadcast-compatible arrays of radians.

    Raises:
        InvalidArgumentError: theta outside [0, pi] or non-finite input.
    """
    stencil = bilinear_stencil(p.grid, theta, phi)
    return apply_stencil(stencil, p.e_theta), apply_stencil(stencil, p.e_phi)


def pattern_cache_entry(path, block: int = 64 * 1024) -> str:
    """The name of pattern CSV ``path``'s entry in ``.beamspace-cache/``: the file's name and
    the source hash of the source hashes of its ``block``-byte slices, in hex."""
    data = Path(path).read_bytes()
    digests = [importlib.util.source_hash(data[i:i + block]) for i in range(0, len(data), block)]
    return f"{Path(path).name}.{importlib.util.source_hash(b''.join(digests)).hex()}.npy"


def package_env() -> dict:
    """The environment with the tested package's ``src`` first on a child's module path."""
    src = str(Path(link.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def parse_ratio_label(label: str, order: int) -> int:
    """Inverse of ``ratio_label``."""
    for k in range(order):
        if ratio_label(k, order) == label:
            return k
    raise InvalidArgumentError(f"unknown ratio label {label!r} for order {order}")


def index_of(ratios, ratio: complex, tol: float = 1e-9) -> int:
    """Index of the member of ``ratios`` (a RatioSet) closest to ``ratio`` within ``tol``."""
    diffs = np.abs(np.asarray(ratios.values) - complex(ratio))
    k = int(np.argmin(diffs))
    if diffs[k] > tol:
        raise InvalidArgumentError(
            f"ratio {ratio!r} is not in the {ratios.order}-PSK ratio alphabet"
        )
    return k


def _receive(pattern, scenario) -> np.ndarray:
    """Each receiver's response p_r^H e(theta_r, phi_r) to ``pattern``."""
    angles, pols = scenario.rx_angles, scenario.rx_polarizations
    et, ep = sample_pattern(pattern, angles[:, 0], angles[:, 1])
    return np.conj(pols[:, 0]) * et + np.conj(pols[:, 1]) * ep


def transmit_and_receive(s_hat, x1, x2, scenario) -> np.ndarray:
    """Noiseless receive vector for one symbol pair radiated through the physical field."""
    if x1 == 0:
        raise ZeroDivisionError("x1 = 0 leaves the symbol ratio x2/x1 undefined")
    k = index_of(scenario.constellation.ratio_set, x2 / x1)
    return x1 * _receive(s_hat.state(k), scenario)


def basis_channel(s_hat, scenario) -> np.ndarray:
    """H (2, 2): column n holds the receivers' responses to basis pattern n of
    ``perturbed_basis(s_hat)``."""
    basis = perturbed_basis(s_hat)
    return np.stack([_receive(basis.b1, scenario), _receive(basis.b2, scenario)], axis=1)


def zf_equalize(y, s_hat, scenario, condition_cap=DEFAULT_CONDITION_CAP) -> np.ndarray:
    """Zero-forcing estimate H^-1 y by a LAPACK solve, H = ``basis_channel(s_hat, scenario)``.

    Raises:
        DegenerateError: H singular or its 2-norm condition number above the cap.
    """
    h = basis_channel(s_hat, scenario)
    cond = np.linalg.cond(h)
    if not cond <= condition_cap:
        raise DegenerateError(f"channel condition number {cond:.3g} "
                              f"exceeds cap {condition_cap:.3g}")
    return np.linalg.solve(h, np.asarray(y, dtype=complex))


def upfront_errors(s_hat, basis_hat, constellation, n, seed, separation_deg=(3.0, 5.0),
                   rx_polarizations=(THETA_POL, THETA_POL), condition_cap=DEFAULT_CONDITION_CAP):
    """The errors (kept, 2, M), the kept condition numbers and the rejection count
    of an up-front sweep, in scenario order.

    ``draw_geometries(default_rng(seed), n)``, then the package's state-coordinate
    decode (``link._decode`` of ``link._responses``) on each chunk of those
    angles: stream 1's error is |g1 - 1| and stream 2's |g2 - r_k| for every
    state other than +-1, and the +-1 errors are zeros, as the basis identity
    makes them; ``basis_hat`` only has to be ``perturbed_basis(s_hat)``, which
    ``run_monte_carlo`` checks.
    """
    theta, phi = draw_geometries(np.random.default_rng(seed), n, separation_deg)
    order, states = link._states(s_hat, constellation)
    solved = order[2:]
    pols = np.asarray(rx_polarizations, dtype=complex)
    ratios = np.asarray(constellation.ratio_set.values)[solved]
    errors, conds, rejected = [], [], 0
    for i in range(0, n, link._CHUNK):
        keep, g, cond = link._decode(link._responses(
            states, theta[:, i:i + link._CHUNK], phi[:, i:i + link._CHUNK], pols), condition_cap)
        e = np.zeros((np.count_nonzero(keep), 2, constellation.order))
        e[:, 0, solved] = np.abs(g[0] - 1.0).T
        e[:, 1, solved] = np.abs(g[1] - ratios[:, None]).T
        errors.append(e)
        conds.append(cond[keep])
        rejected += keep.size - np.count_nonzero(keep)
    return np.concatenate(errors), np.concatenate(conds), rejected


def result_arrays(mc) -> dict[str, np.ndarray]:
    """The arrays of a sweep's ``sketch.npz``: its error rows, then its condition row."""
    return link._npz_arrays(mc.errors, mc.conditions)


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
    return link._npz_arrays(rows, condition), rejected


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
