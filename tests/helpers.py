"""Test helpers: link oracles, constant patterns and a metrics reader.

``transmit_and_receive`` and ``zf_equalize`` are the physical link pair by
pair: the antenna radiates x1 times the state pattern of the symbol ratio,
each receiver projects that field at its own angle, and LAPACK solves
H x = y.  They share no decode code with the package's batched kernel,
which is what makes them an oracle for it.

``upfront_errors`` is the Monte-Carlo sweep with every geometry drawn before
any chunk runs, the oracle the chunk-by-chunk draw and the sketches are
pinned to; ``upfront_sweep`` sorts its errors into the two streams.
"""

import json
from pathlib import Path

import numpy as np

from beamspace import (
    SingularChannelError,
    UndefinedRatioError,
    VectorPattern,
    draw_geometries,
    link,
    sample_pattern,
)
from beamspace.link import DEFAULT_CONDITION_CAP, THETA_POL


def transmit_and_receive(s_hat, x1, x2, scenario) -> np.ndarray:
    """Noiseless receive vector for one symbol pair radiated through the physical field."""
    if x1 == 0:
        raise UndefinedRatioError("x1 = 0 leaves the symbol ratio x2/x1 undefined")
    k = scenario.constellation.ratio_set.index_of(x2 / x1)
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
        keep, g, cond = link._zf_gains(resp[:, :, :2], resp[:, :, 2:], condition_cap)
        errors.append(np.stack([np.abs(g[:, 0] - 1.0), np.abs(g[:, 1] - ratios)], axis=1))
        conds.append(cond[keep])
        rejected += keep.size - np.count_nonzero(keep)
    return np.concatenate(errors), np.concatenate(conds), rejected


def upfront_sweep(*args, **kwargs):
    """Both sorted error streams and the rejection count of an up-front sweep."""
    errors, _, rejected = upfront_errors(*args, **kwargs)
    return np.sort(errors[:, 0].ravel()), np.sort(errors[:, 1].ravel()), rejected


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
