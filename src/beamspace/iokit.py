"""File formats: pattern CSV, result tables, metrics JSON, run configs.

Angle columns are degrees at every file boundary (radians in memory).
One writer makes every table cell by one rule (a float by its shortest
repr) and one reader parses tables with ``np.loadtxt``, so writer/reader
pairs are lossless at double precision.  Each version of a pattern CSV is
parsed once: its (2, n_theta, n_phi) fields are kept in ``.beamspace-cache/``
beside it, keyed by a hash streamed over its 64 KiB blocks, so a cached read
holds neither the file's bytes nor its rows; loads of one shape share one grid.
Monte-Carlo CDF tables have at most 10^4 rows and ``sketch.npz`` holds the
error sketches they are read from, each row's counts spanning only its own
keys.  Non-finite metric values are encoded as the JSON strings "inf", "-inf",
"nan".
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import itertools
import json
import math
import os
import re
import stat
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import (DEFAULT_CONDITION_CAP, MAX_SCENARIOS, InvalidArgumentError,
                     require_state_samples)
from .modulation import ratio_label
from .patterns import EvmMap, GaussianLobe, PerturbationLobe
from .sphere import POLARIZATIONS, SphericalGrid, VectorPattern

__all__ = [
    "RunConfig",
    "save_pattern_csv",
    "load_pattern_csv",
    "save_cdf_csv",
    "load_cdf_csv",
    "save_constellation_csv",
    "save_metrics_json",
    "save_results",
    "load_config",
]

PATTERN_COLUMNS = ("theta_deg", "phi_deg", "re_etheta", "im_etheta", "re_ephi", "im_ephi")
CDF_COLUMNS = ("error", "cumulative_probability")

_ANGLE_MATCH_TOL = 1e-9  # radians; any looser is an irregular grid
# Table rows formatted and written at a time.  Joined, a block of 512 is 9-55 KB, under
# glibc's 128 KiB mmap threshold; blocks of 4,096 (94-397 KB) raised peak RSS.
_BLOCK_ROWS = 512
_KEY_BLOCK = 64 * 1024  # bytes of a pattern CSV hashed at a time into its cache key
_comment = re.compile(r"\s*#").match  # a line whose first non-blank character is "#"
_grid = functools.lru_cache(maxsize=None)(SphericalGrid)  # one grid per shape, for every load


def _create(path: Path, mode: str = "w", **kwargs):
    """``path`` opened for writing; an OSError is an InvalidArgumentError naming it."""
    try:
        return path.open(mode, **kwargs)
    except OSError as exc:
        raise InvalidArgumentError(f"output file {path} cannot be written: {exc}") from exc


def _write_table(path: Path, header, columns) -> Path:
    """Header lines, then row i: element i of each column as ``str`` of its Python value
    (a float's shortest round-trip repr, an int in decimal, a string as it is).

    Columns of unequal length are an InvalidArgumentError, raised before the file is opened.
    """
    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise InvalidArgumentError(f"{path}: columns of unequal lengths {sorted(lengths)}")
    blocks = [_blocks(c) for c in columns]
    with _create(path, newline="") as fh:
        fh.writelines(line + "\n" for line in header)
        for cells in zip(*blocks):
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return path


def _blocks(column: np.ndarray):
    """The cells of ``column``, ``_BLOCK_ROWS`` rows at a time.  A numeric column with at
    most half as many distinct bit patterns as rows formats each pattern once; bits, not
    values, keep -0.0 beside 0.0 and NaNs of other payloads apart, as repr does."""
    # .tolist() first: a float32's cell is repr of its double, not numpy's shorter str
    starts = range(0, len(column), _BLOCK_ROWS)
    if column.dtype.kind == "U":
        return (column[i:i + _BLOCK_ROWS].tolist() for i in starts)
    bits = column.view(f"i{column.itemsize}")
    ordered = np.sort(bits)  # counting by sort: np.unique alone takes a slower hashing path
    if 2 * (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) > len(column):
        return (map(str, column[i:i + _BLOCK_ROWS].tolist()) for i in starts)
    del ordered  # 6 MB at 744,200 rows, not held through np.unique
    keys, inverse = np.unique(bits, return_inverse=True)
    strings = np.array(list(map(str, keys.view(column.dtype).tolist())), dtype=object)
    return (strings[inverse[i:i + _BLOCK_ROWS]].tolist() for i in starts)


@contextlib.contextmanager
def _reading(path: Path):
    """``path`` open as UTF-8 text less any leading byte-order mark; a missing file raises
    FileNotFoundError, a failed read or a byte that is not UTF-8 an InvalidArgumentError."""
    try:
        with path.open(encoding="utf-8-sig") as fh:
            yield fh
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise InvalidArgumentError(f"{path}: cannot be read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not UTF-8 text: {exc}") from exc


def _scan_header(fh) -> tuple[list[str], str]:
    """Stripped lines above the column row (first neither blank nor ``#``), then that row."""
    above = []
    for line in iter(fh.readline, ""):
        if line.strip() and not _comment(line):
            return above, line
        above.append(line.strip())
    return above, ""


def _header(path: Path, fh, columns) -> list[str]:
    """The lines above the column row of open table ``fh``, which must be ``columns``."""
    fh.seek(0)
    above, line = _scan_header(fh)
    if not line:
        raise InvalidArgumentError(f"{path}: no column row {','.join(columns)}")
    names = [c.strip().strip('"') for c in line.split(",")]
    missing = [c for c in columns if c not in names]
    if missing:
        raise InvalidArgumentError(f"{path}: missing column(s) {', '.join(missing)}")
    if names != list(columns):
        raise InvalidArgumentError(f"{path}: columns must be exactly {','.join(columns)}")
    return above


def _rows(path: Path, fh, n_header: int, n_fields: int) -> np.ndarray:
    """The data rows of open table ``fh`` below its ``n_header`` header lines, the column row
    included, bitwise float(); a line whose first non-blank character is ``#`` is skipped."""
    fh.seek(0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        lines = itertools.filterfalse(_comment, itertools.islice(fh, n_header, None))
        try:
            data = np.loadtxt(lines, delimiter=",", quotechar='"', ndmin=2)
        except ValueError as exc:
            bad = _first_bad_line(path, fh, n_header, n_fields)
            raise InvalidArgumentError(bad or f"{path}: {exc}") from exc
        if data.size and data.shape[1] != n_fields:
            raise InvalidArgumentError(_first_bad_line(path, fh, n_header, n_fields))
    return data.reshape(-1, n_fields)


def _first_bad_line(path: Path, fh, n_header: int, n_fields: int) -> str | None:
    """Name the first data line with a field ``_rows`` cannot read or a wrong field count,
    each line read alone as ``_rows`` reads the file, its comment and quotes included."""
    fh.seek(0)
    for lineno, line in enumerate(fh, start=1):
        if lineno <= n_header or _comment(line):
            continue
        try:
            row = np.loadtxt([line], delimiter=",", quotechar='"', ndmin=2)
        except ValueError as exc:  # "could not convert string 'x' to float64 at row 0, ..."
            return f"{path}:{lineno}: {str(exc).split(' at row')[0]}"
        if row.size and row.shape[1] != n_fields:
            return f"{path}:{lineno}: expected {n_fields} fields, got {row.shape[1]}"
    return None


def _key(fh) -> str:
    """16 hex digits naming the bytes of open file ``fh``: the source hash of the source
    hashes of its ``_KEY_BLOCK``-byte blocks, read one at a time into one buffer."""
    fh.seek(0)  # and a text read seeks back to 0 before it reads
    block, digests = bytearray(_KEY_BLOCK), []
    while size := fh.buffer.readinto(block):
        digests.append(importlib.util.source_hash(memoryview(block)[:size]))
    return importlib.util.source_hash(b"".join(digests)).hex()


def _own_dir(path: Path) -> bool:
    """Whether ``path`` is a directory, not a link, of this user that no one else may write."""
    with contextlib.suppress(OSError):
        st = os.lstat(path)
        return stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022
    return False


def _cached_fields(path: Path, fh, above: list[str]) -> np.ndarray:
    """The (2, n_theta, n_phi) e_theta and e_phi of pattern CSV ``fh`` (header lines
    ``above``): its cache entry if that is a complex array of this form and of the sizes the
    header declares, else (whatever failed in the read) parsed and stored in place of the
    file's older entries.  The cache is skipped if not this user's own or not writable."""
    cache = path.parent / ".beamspace-cache"
    with contextlib.suppress(OSError):
        cache.mkdir(mode=0o755)
    if not _own_dir(cache):  # an entry another user could write is never read
        return _fields(path, fh, above)
    entry = cache / f"{path.name}.{_key(fh)}.npy"
    with contextlib.suppress(Exception), entry.open("rb") as efh:
        fields = np.lib.format.read_array(efh, allow_pickle=False)
        sizes = dict(zip(("n_theta", "n_phi"), fields.shape[1:]))
        if (fields.dtype == complex and fields.ndim == 3 and len(fields) == 2
                and _pattern_header(path, above)[0].items() <= sizes.items()):
            return fields
    fields = _fields(path, fh, above)
    tmp = cache / f"{entry.name}.{os.getpid()}-{id(fields)}.tmp"  # unique among live writers
    try:
        with tmp.open("xb") as efh:
            np.save(efh, fields)
        tmp.replace(entry)
        for old in cache.iterdir():  # "<name>.<16 hex digits>.npy", and its ".<pid>-<id>.tmp"
            if old != entry and old.name.rpartition(".npy")[0][:-17] == path.name:
                old.unlink(missing_ok=True)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()  # left only by an error or an interrupt
    return fields


def save_pattern_csv(pattern: VectorPattern, path, state: str = "") -> Path:
    """Write a pattern in theta-major order with a commented header."""
    grid = pattern.grid
    header = [f"# n_theta: {grid.n_theta}", f"# n_phi: {grid.n_phi}", "# angle_unit: deg"]
    if state:
        header.append(f"# state: {state}")
    header.append(",".join(PATTERN_COLUMNS))
    et, ep = pattern.e_theta.ravel(), pattern.e_phi.ravel()
    return _write_table(Path(path), header,
                        (*_grid_columns(grid), et.real, et.imag, ep.real, ep.imag))


def _grid_columns(grid) -> tuple[np.ndarray, np.ndarray]:
    """theta_deg and phi_deg of every node in theta-major order."""
    return (np.repeat(np.rad2deg(grid.theta), grid.n_phi),
            np.tile(np.rad2deg(grid.phi), grid.n_theta))


def _pattern_header(path, lines) -> tuple[dict[str, int], bool]:
    """The grid sizes the ``# key: value`` lines of a pattern CSV declare, and whether
    its angles are degrees (``angle_unit`` deg, the default, or rad); other keys are ignored."""
    meta = {key.strip(): value.strip() for key, colon, value in
            (line.lstrip("#").partition(":") for line in lines) if colon}
    try:
        sizes = {key: int(meta[key]) for key in ("n_theta", "n_phi") if key in meta}
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}: bad header metadata: {exc}") from exc
    unit = meta.get("angle_unit", "deg")
    if unit not in ("deg", "rad"):
        raise InvalidArgumentError(f"{path}: angle unit must be 'deg' or 'rad', got {unit!r}")
    return sizes, unit == "deg"


def load_pattern_csv(path) -> VectorPattern:
    """Read a theta-major pattern CSV back onto its canonical grid.

    The declared columns must match exactly; every row is validated
    (malformed rows are reported with their line number) and the angular
    samples must reproduce a regular full-sphere grid.  Samples are never
    reordered or interpolated; any irregularity is a hard error.
    """
    path = Path(path)
    with _reading(path) as fh:
        fields = _cached_fields(path, fh, _header(path, fh, PATTERN_COLUMNS))
    try:
        return VectorPattern(grid=_grid(*fields.shape[1:]), e_theta=fields[0], e_phi=fields[1])
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc


def _fields(path: Path, fh, above: list[str]) -> np.ndarray:
    """The (2, n_theta, n_phi) e_theta and e_phi of pattern CSV ``fh`` (header lines
    ``above``) as parsed, once every row and the grid they sample are checked."""
    data = _rows(path, fh, len(above) + 1, len(PATTERN_COLUMNS))
    declared, degrees = _pattern_header(path, above)
    if data.shape[0] == 0:
        raise InvalidArgumentError(f"{path}: no data rows")
    if np.any(np.isnan(data)):
        bad = int(np.argwhere(np.isnan(data))[0][0])
        raise InvalidArgumentError(f"{path}: NaN value in data row {bad + 1}")

    to_rad = np.deg2rad if degrees else (lambda x: x)
    theta_col = to_rad(data[:, 0])
    phi_col = to_rad(data[:, 1])

    changes = np.nonzero(theta_col != theta_col[0])[0]
    if changes.size == 0:
        raise InvalidArgumentError(f"{path}: single polar angle; full grid required")
    n_phi = int(changes[0])
    if data.shape[0] % n_phi:
        raise InvalidArgumentError(
            f"{path}: {data.shape[0]} rows is not a multiple of n_phi={n_phi}")
    n_theta = data.shape[0] // n_phi
    for key, size in (("n_theta", n_theta), ("n_phi", n_phi)):
        if declared.get(key, size) != size:
            raise InvalidArgumentError(
                f"{path}: header declares {key}={declared[key]}, data has {size}")
    try:
        grid = _grid(n_theta, n_phi)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc

    if (np.max(np.abs(theta_col.reshape(grid.shape) - grid.theta[:, None])) > _ANGLE_MATCH_TOL
            or np.max(np.abs(phi_col.reshape(grid.shape) - grid.phi)) > _ANGLE_MATCH_TOL):
        raise InvalidArgumentError(f"{path}: angles are not a regular theta-major "
                                   f"{n_theta}x{n_phi} full-sphere grid")
    fields = np.empty((2, n_theta, n_phi), complex)  # e_theta, e_phi; a + 1j*b loses -0.0
    fields.real[...] = data[:, 2::2].T.reshape(fields.shape)
    fields.imag[...] = data[:, 3::2].T.reshape(fields.shape)
    return fields


def save_cdf_csv(path, errors, probabilities) -> Path:
    """One row per error and its cumulative probability, both numbers."""
    return _write_table(Path(path), [",".join(CDF_COLUMNS)],
                        (np.asarray(errors, dtype=float), np.asarray(probabilities, dtype=float)))


def load_cdf_csv(path) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    with _reading(path) as fh:
        data = _rows(path, fh, len(_header(path, fh, CDF_COLUMNS)) + 1, len(CDF_COLUMNS))
    return data[:, 0], data[:, 1]


def _output_dir(out_dir) -> Path:
    """``out_dir``, created with its parents if missing."""
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: an embedded null byte
        raise InvalidArgumentError(f"output directory {out_dir} cannot be created: {exc}") from exc
    return Path(out_dir)


def save_constellation_csv(path, transmit, receive) -> Path:
    """One row per side and symbol pair of ``transmit``, then ``receive`` (``SymbolPairs``)."""
    sides = (transmit, receive)
    k1, k2, ideal, actual = (np.concatenate([getattr(p, name) for p in sides], axis=-1)
                             for name in ("k1", "k2", "ideal", "actual"))
    columns = [np.repeat(["transmit", "receive"], [len(p.k1) for p in sides]), k1, k2]
    for i, a in zip(ideal, actual):
        columns += [i.real, i.imag, a.real, a.imag]
    return _write_table(_output_dir(Path(path).parent) / Path(path).name, [
        "side,k1,k2,x1_ideal_re,x1_ideal_im,x1_actual_re,x1_actual_im,"
        "x2_ideal_re,x2_ideal_im,x2_actual_re,x2_actual_im"], columns)


def _json_encode(obj: Any) -> Any:
    """Recursively map non-finite floats to sentinel strings and numpy scalars to JSON's."""
    if isinstance(obj, dict):
        return {str(k): _json_encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_encode(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def save_metrics_json(metrics: dict, path) -> Path:
    with _create(Path(path)) as fh:
        fh.write(json.dumps(_json_encode(metrics), indent=2, sort_keys=True) + "\n")
    return Path(path)


def _write_evm_csv(evm: EvmMap, path: Path) -> Path:
    values = evm.values.ravel()
    with np.errstate(divide="ignore"):
        values_db = np.where(values > 0.0, 20.0 * np.log10(np.maximum(values, 1e-300)),
                             -np.inf)
    return _write_table(path, ["theta_deg,phi_deg,evm_linear,evm_db,masked"], (
        *_grid_columns(evm.grid), values, values_db, evm.degenerate_mask.ravel().astype(int)))


def save_results(out_dir, metrics: dict | None = None, evm: EvmMap | None = None,
                 mc=None) -> dict[str, Path]:
    """Write whichever of metrics.json, evm_map.csv, cdf_stream{1,2}.csv apply.

    With ``mc`` also sketch.npz: the arrays ``link._npz_arrays`` makes of
    ``mc.errors`` and ``mc.conditions``.
    """
    out_dir = _output_dir(out_dir)
    written: dict[str, Path] = {}
    if metrics is not None:
        written["metrics"] = save_metrics_json(metrics, out_dir / "metrics.json")
    if evm is not None:
        written["evm_map"] = _write_evm_csv(evm, out_dir / "evm_map.csv")
    if mc is not None:
        from .link import _npz_arrays

        for stream in (1, 2):
            written[f"cdf_stream{stream}"] = save_cdf_csv(
                out_dir / f"cdf_stream{stream}.csv", *mc.cdf(stream))
        written["sketch"] = out_dir / "sketch.npz"
        with _create(written["sketch"], "wb") as fh:
            np.savez(fh, **_npz_arrays(mc.errors, mc.conditions))
    return written


# --------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; all angles radians, paths resolved."""

    n_theta: int
    n_phi: int
    constellation_order: int
    constellation_offset: float
    antenna_lobes: tuple[GaussianLobe, ...] | None  # None -> default profile
    pattern_files: dict[int, Path] | None
    perturbation_lobes: tuple[PerturbationLobe, ...]
    scenarios: int
    separation_deg: tuple[float, float]
    seed: int
    threads: int
    condition_cap: float
    rx1: tuple[float, float]
    rx2: tuple[float, float]
    rx_polarization: str
    out_dir: Path


def _finite(value) -> float | None:
    """A JSON number (not a bool) as a finite double, else None."""
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max  # NaN fails
    return float(value) if finite else None


class _Section:
    """One JSON object of a run config at dotted path ``where``; unknown keys are errors.

    A read returns the key's value, or ``default`` if the key is absent (None:
    required), and raises InvalidArgumentError naming ``where.key`` if the value is wrong.
    """

    def __init__(self, raw, where: str, keys) -> None:
        if not isinstance(raw, dict):
            raise InvalidArgumentError(
                f"{where or 'config'} must be a JSON object; got {raw!r:.60}")
        unknown = set(raw) - set(keys)
        if unknown:
            raise InvalidArgumentError(f"unknown key(s) {sorted(unknown)} in {where or 'config'}")
        self.raw, self.where = raw, where

    def path(self, key) -> str:
        return f"{self.where}.{key}" if self.where else key

    def fail(self, key, rule: str):
        got = f"got {self.raw[key]!r:.60}" if key in self.raw else "missing"
        raise InvalidArgumentError(f"{self.path(key)} must be {rule}; {got}")

    def integer(self, key, default: int, lo: int, hi: float = math.inf) -> int:
        """A JSON integer or integral float (``1.4e6``) in [lo, hi]; never a bool."""
        value = self.raw.get(key, default)
        if type(value) is float and value.is_integer():
            value = int(value)
        if type(value) is not int or not lo <= value <= hi:
            self.fail(key, f"an integer >= {lo}" + (f" and <= {hi}" if hi < math.inf else ""))
        return value

    def number(self, key, default: float | None, lo=-math.inf, hi=math.inf) -> float:
        value = _finite(self.raw.get(key, default))
        if value is None or not lo <= value <= hi:
            self.fail(key, "a finite number" + (f" in [{lo:g}, {hi:g}]" if lo > -math.inf else ""))
        return value

    def angle(self, key, default: float | None, lo=-math.inf, hi=math.inf) -> float:
        """A number of degrees, returned in radians."""
        return float(np.deg2rad(self.number(key, default, lo, hi)))

    def pair(self, key, default: list, lo: float, hi: float) -> tuple[float, float]:
        """[min, max], two numbers with lo < min <= max <= hi."""
        value = self.raw.get(key, default)
        pair = tuple(map(_finite, value)) if isinstance(value, list) else ()
        if len(pair) != 2 or None in pair or not lo < pair[0] <= pair[1] <= hi:
            self.fail(key, f"[min, max] with {lo:g} < min <= max <= {hi:g}")
        return pair

    def string(self, key, default: str | None, choices=()) -> str:
        """A string; one of ``choices`` if any are given."""
        value = self.raw.get(key, default)
        if not isinstance(value, str) or choices and value not in choices:
            self.fail(key, "one of " + ", ".join(map(repr, choices)) if choices else "a string")
        return value

    def labels(self, key, known: list[str]) -> tuple[int, ...] | None:
        """null (or absent) or a list of ratio labels, as indices into ``known``."""
        value = self.raw.get(key)
        if value is not None and not (isinstance(value, list) and all(v in known for v in value)):
            self.fail(key, "null or a list of the labels " + _named(known))
        repeated = [v for i, v in enumerate(value or ()) if v in value[:i]]
        if repeated:
            raise InvalidArgumentError(f'{self.path(key)} lists "{repeated[0]}" twice')
        return None if value is None else tuple(map(known.index, value))

    def section(self, key, keys) -> _Section:
        return _Section(self.raw.get(key, {}), self.path(key), keys)

    def sections(self, key, keys) -> list[_Section]:
        value = self.raw.get(key, [])
        if not isinstance(value, list):
            self.fail(key, "a list of JSON objects")
        return [_Section(v, f"{self.path(key)}[{i}]", keys) for i, v in enumerate(value)]


def _named(labels: list[str]) -> str:
    """``labels`` joined by commas; more than 8 as the first, the last and their count."""
    return (", ".join(labels) if len(labels) <= 8
            else f"{labels[0]}, ..., {labels[-1]} ({len(labels)} labels)")


_LOBE_KEYS = ("theta_deg", "phi_deg", "width_deg", "amplitude", "phase_deg", "polarization")


def _lobe(sec: _Section, cls, amplitude: float | None, **extra):
    """A GaussianLobe or PerturbationLobe from its entry; angles to radians."""
    fields = dict(theta=sec.angle("theta_deg", None, 0.0, 180.0), phi=sec.angle("phi_deg", None),
                  width=sec.angle("width_deg", None), amplitude=sec.number("amplitude", amplitude),
                  phase=sec.angle("phase_deg", 0.0))
    try:  # the key reads name their keys; the constructor's checks get the entry's path
        return cls(**fields, **extra)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{sec.where}: {exc}") from exc


def _polarization_vector(sec: _Section) -> tuple[complex, complex]:
    """"theta", "phi" or [[re, im], [re, im]] in (theta-hat, phi-hat)."""
    value = sec.raw.get("polarization", "theta")
    if isinstance(value, str) and value in POLARIZATIONS:
        return POLARIZATIONS[value]
    rows = value if isinstance(value, list) and len(value) == 2 else []
    parts = [_finite(x) for r in rows if isinstance(r, list) and len(r) == 2 for x in r]
    if len(parts) != 4 or None in parts:
        sec.fail("polarization", "'theta', 'phi' or [[re, im], [re, im]]")
    return (complex(*parts[:2]), complex(*parts[2:]))


def load_config(path, overrides=()) -> RunConfig:
    """Parse and validate a JSON run configuration.

    ``overrides`` are (dotted key, value) pairs such as
    ``("monte_carlo.seed", 7)``, written into the JSON before it is read,
    so an override is checked exactly as the key in the file would be.
    Relative paths inside the file resolve against the file's directory.
    Referenced pattern files must exist at load time.
    """
    path = Path(path)
    if not path.is_file():
        raise InvalidArgumentError(f"config file not found (or not a file): {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise InvalidArgumentError(f"{path}: invalid JSON: {exc}") from exc
    top = _Section(raw, "", ("grid", "constellation", "antenna", "perturbation",
                             "receive", "monte_carlo", "output"))
    for dotted, value in overrides:
        *parents, leaf = dotted.split(".")
        node = raw
        for name in parents:
            node = node.setdefault(name, {}) if isinstance(node, dict) else None
        if isinstance(node, dict):  # else the section's read names the bad section
            node[leaf] = value
    base = path.parent

    grid = top.section("grid", ("n_theta", "n_phi"))
    n_theta, n_phi = grid.integer("n_theta", 91, 1), grid.integer("n_phi", 180, 1)
    if n_theta < 3 or n_phi < 4:
        raise InvalidArgumentError(f"grid too coarse: n_theta={n_theta}, n_phi={n_phi}")

    con = top.section("constellation", ("order", "phase_offset_deg"))
    order = con.integer("order", 4, 2)
    if order % 2:  # every command needs ratio -1, which only an even order has
        con.fail("order", "an even integer >= 2")
    ant = top.section("antenna", ("profile", "pattern_files"))
    if "pattern_files" in ant.raw:  # cli._assemble counts the grid of the first file it reads
        require_state_samples(order, 3, 4, "the coarsest pattern grid")
    else:
        require_state_samples(order, n_theta, n_phi, "grid.n_theta x grid.n_phi")
    labels = [ratio_label(k, order) for k in range(order)]

    antenna_lobes = pattern_files = None
    if "profile" in ant.raw and "pattern_files" in ant.raw:
        raise InvalidArgumentError("antenna: give either profile or pattern_files, not both")
    if "profile" in ant.raw:
        entries = ant.section("profile", ("lobes",)).sections("lobes", _LOBE_KEYS)
        if not entries:
            raise InvalidArgumentError("antenna.profile.lobes must not be empty")
        antenna_lobes = tuple(_lobe(s, GaussianLobe, 1.0, polarization=_polarization_vector(s))
                              for s in entries)
    elif "pattern_files" in ant.raw:
        files = ant.section("pattern_files", labels)
        missing = [label for label in labels if label not in files.raw]
        if missing:
            raise InvalidArgumentError(f"antenna.pattern_files must cover states "
                                       f"{_named(labels)}; missing {_named(missing)}")
        pattern_files = {}
        for k, label in enumerate(labels):
            fpath = base / files.string(label, None)
            if not fpath.is_file():
                raise InvalidArgumentError(
                    f"{files.path(label)}: pattern file not found (or not a file): {fpath}")
            pattern_files[k] = fpath.resolve()

    perturbation_lobes = tuple(
        _lobe(s, PerturbationLobe, None, states=s.labels("states", labels),
              polarization=s.string("polarization", "both", ("theta", "phi", "both")))
        for s in top.section("perturbation", ("lobes",)).sections(
            "lobes", _LOBE_KEYS + ("states",)))

    rx = top.section("receive", ("rx1", "rx2", "polarization"))
    rx1, rx2 = (rx.section(name, ("theta_deg", "phi_deg")) for name in ("rx1", "rx2"))

    mc = top.section("monte_carlo", ("scenarios", "separation_deg", "seed", "threads",
                                     "condition_cap"))
    condition_cap = mc.number("condition_cap", DEFAULT_CONDITION_CAP)
    if not condition_cap > 1.0:
        raise InvalidArgumentError(
            f"monte_carlo.condition_cap must exceed 1, got {condition_cap!r}")

    out_dir = base / top.section("output", ("dir",)).string("dir", "out")

    return RunConfig(
        n_theta=n_theta,
        n_phi=n_phi,
        constellation_order=order,
        constellation_offset=con.angle("phase_offset_deg", 0.0),
        antenna_lobes=antenna_lobes,
        pattern_files=pattern_files,
        perturbation_lobes=perturbation_lobes,
        scenarios=mc.integer("scenarios", 10000, 1, MAX_SCENARIOS),
        separation_deg=mc.pair("separation_deg", [3.0, 5.0], 0.0, 180.0),
        seed=mc.integer("seed", 1, 0),
        threads=mc.integer("threads", 1, 1),
        condition_cap=condition_cap,
        rx1=(rx1.angle("theta_deg", 45.0, 0.0, 180.0), rx1.angle("phi_deg", 294.0)),
        rx2=(rx2.angle("theta_deg", 45.0, 0.0, 180.0), rx2.angle("phi_deg", 298.0)),
        rx_polarization=rx.string("polarization", "theta", tuple(POLARIZATIONS)),
        out_dir=out_dir,
    )
