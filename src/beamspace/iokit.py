"""File formats: pattern CSV, result tables, metrics JSON, run configs.

Angle columns are degrees at every file boundary (radians in memory).
One writer puts floats in shortest round-trip form and one reader parses
tables with ``np.loadtxt``, so writer/reader pairs are lossless at double
precision; each version of a pattern CSV is parsed once, its rows kept in
``.beamspace-cache/`` beside it.  Monte-Carlo CDF tables have at most 10^4
rows; ``errors.npz`` holds the exact samples up to 10^5 scenarios and
``sketch.npz`` the error sketches above, each row's counts spanning only its
own keys.  Non-finite metric values are encoded as the JSON strings "inf",
"-inf", "nan".
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import os
import stat
import sys
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError, InvalidArgumentError, PatternFormatError
from .link import MAX_SCENARIOS, POLARIZATIONS, _sketch_arrays
from .modulation import ratio_label
from .patterns import EvmMap, GaussianLobe, PerturbationLobe
from .sphere import VectorPattern, build_grid

__all__ = [
    "PatternFileHeader",
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
_BLOCK_ROWS = 4096  # table rows held as Python strings at a time: bounded memory


def _create(path: Path, mode: str = "w", **kwargs):
    """``path`` opened for writing; an OSError is an InvalidArgumentError naming it."""
    try:
        return path.open(mode, **kwargs)
    except OSError as exc:
        raise InvalidArgumentError(f"output file {path} cannot be written: {exc}") from exc


def _write_table(path: Path, header, columns) -> Path:
    """Header lines, then row i: element i of each column (floats by repr, others by str)."""
    columns = [np.asarray(c) for c in columns]
    with _create(path, newline="") as fh:
        fh.writelines(line + "\n" for line in header)
        for i in range(0, min(map(len, columns), default=0), _BLOCK_ROWS):
            # .tolist() first: numpy 2 spells repr(np.float64(x)) as "np.float64(x)"
            cells = [map(repr if c.dtype.kind == "f" else str, c[i:i + _BLOCK_ROWS].tolist())
                     for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
    return path


@contextlib.contextmanager
def _text(path: Path, raw: bytes):
    """``raw``, the bytes of ``path``, as UTF-8 text; a byte that is not is a PatternFormatError."""
    try:
        yield io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PatternFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _scan_header(fh) -> tuple[list[str], str]:
    """Stripped lines above the column row (first neither blank nor ``#``), then that row."""
    above = []
    for line in iter(fh.readline, ""):
        if line.strip() and not line.lstrip().startswith("#"):
            return above, line
        above.append(line.strip())
    return above, ""


def _read_table(path: Path, columns) -> tuple[bytes, list[str]]:
    """The bytes of ``path`` and the lines above its column row, which must be ``columns``."""
    raw = path.read_bytes()
    with _text(path, raw) as fh:
        above, line = _scan_header(fh)
    if not line:
        raise PatternFormatError(f"{path}: no column row {','.join(columns)}")
    names = [c.strip().strip('"') for c in line.split(",")]
    missing = [c for c in columns if c not in names]
    if missing:
        raise PatternFormatError(f"{path}: missing column(s) {', '.join(missing)}")
    if names != list(columns):
        raise PatternFormatError(f"{path}: columns must be exactly {','.join(columns)}")
    return raw, above


def _rows(path: Path, raw: bytes, n_fields: int) -> np.ndarray:
    """The data rows under the column row of ``path`` (bytes ``raw``), bitwise float()."""
    with _text(path, raw) as fh:
        n_header = len(_scan_header(fh)[0]) + 1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt(fh, delimiter=",", quotechar='"', ndmin=2)
        except ValueError as exc:
            bad = _first_bad_line(path, raw, n_header, n_fields)
            raise PatternFormatError(bad or f"{path}: {exc}") from exc
    if data.size and data.shape[1] != n_fields:
        raise PatternFormatError(_first_bad_line(path, raw, n_header, n_fields))
    return data.reshape(-1, n_fields)


def _own_dir(path: Path) -> bool:
    """Whether ``path`` is a directory, not a link, of this user that no one else may write."""
    with contextlib.suppress(OSError):
        st = os.lstat(path)
        return stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022
    return False


def _cached_rows(path: Path, raw: bytes) -> np.ndarray:
    """The data rows of pattern CSV ``path`` (bytes ``raw``): its cache entry if that is a
    (rows, 6) float64 array, else parsed and stored in place of the file's older entries.
    The cache is skipped if it is not this user's own directory or cannot be written."""
    cache = path.parent / ".beamspace-cache"
    with contextlib.suppress(OSError):
        cache.mkdir(mode=0o755)
    if not _own_dir(cache):  # an entry another user could write is never read
        return _rows(path, raw, len(PATTERN_COLUMNS))
    entry = cache / f"{path.name}.{importlib.util.source_hash(raw).hex()}.npy"
    with contextlib.suppress(OSError, ValueError), entry.open("rb") as fh:
        data = np.lib.format.read_array(fh, allow_pickle=False)
        if data.dtype == np.float64 and data.ndim == 2 and data.shape[1] == len(PATTERN_COLUMNS):
            return data
    data = _rows(path, raw, len(PATTERN_COLUMNS))
    tmp = cache / f"{entry.name}.{os.getpid()}-{id(data)}.tmp"  # unique among live writers
    try:
        with tmp.open("xb") as fh:
            np.save(fh, data)
        tmp.replace(entry)
        for old in cache.iterdir():  # "<name>.<16 hex digits>.npy", and its ".<pid>-<id>.tmp"
            if old != entry and old.name.rpartition(".npy")[0][:-17] == path.name:
                old.unlink(missing_ok=True)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()  # left only by an error or an interrupt
    return data


def _first_bad_line(path: Path, raw: bytes, n_header: int, n_fields: int) -> str | None:
    """Name the first data line with a wrong field count or a non-numeric field."""
    with _text(path, raw) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].rstrip("\n")
            if lineno <= n_header or not body:
                continue
            fields = body.split(",")
            if len(fields) != n_fields:
                return f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}"
            try:
                [float(f.strip().strip('"')) for f in fields]
            except ValueError as exc:
                return f"{path}:{lineno}: {exc}"
    return None


@dataclass(frozen=True)
class PatternFileHeader:
    """Metadata carried in the comment lines of a pattern CSV."""

    n_theta: int | None = None
    n_phi: int | None = None
    angle_unit: str = "deg"
    frequency: str = ""
    state: str = ""

    def __post_init__(self) -> None:
        if self.angle_unit not in ("deg", "rad"):
            raise PatternFormatError(
                f"angle unit must be 'deg' or 'rad', got {self.angle_unit!r}"
            )


def save_pattern_csv(
    pattern: VectorPattern, path, state: str = "", frequency: str = ""
) -> Path:
    """Write a pattern in theta-major order with a commented header."""
    grid = pattern.grid
    header = [f"# n_theta: {grid.n_theta}", f"# n_phi: {grid.n_phi}", "# angle_unit: deg"]
    if frequency:
        header.append(f"# frequency: {frequency}")
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


def _pattern_header(path, lines) -> PatternFileHeader:
    meta = {key.strip(): value.strip() for key, colon, value in
            (line.lstrip("#").partition(":") for line in lines) if colon}
    try:
        return PatternFileHeader(
            n_theta=int(meta["n_theta"]) if "n_theta" in meta else None,
            n_phi=int(meta["n_phi"]) if "n_phi" in meta else None,
            angle_unit=meta.get("angle_unit", "deg"),
            frequency=meta.get("frequency", ""),
            state=meta.get("state", ""),
        )
    except ValueError as exc:
        raise PatternFormatError(f"bad header metadata in {path}: {exc}") from exc


def load_pattern_csv(path) -> VectorPattern:
    """Read a theta-major pattern CSV back onto its canonical grid.

    The declared columns must match exactly; every row is validated
    (malformed rows are reported with their line number) and the angular
    samples must reproduce a regular full-sphere grid.  Samples are never
    reordered or interpolated; any irregularity is a hard error.
    """
    path = Path(path)
    raw, above = _read_table(path, PATTERN_COLUMNS)
    data = _cached_rows(path, raw)
    del raw  # 1.5 MB for 16,380 rows; the checks below peak with only the rows held
    header = _pattern_header(path, above)
    if data.shape[0] == 0:
        raise PatternFormatError(f"{path}: no data rows")
    if np.any(np.isnan(data)):
        bad = int(np.argwhere(np.isnan(data))[0][0])
        raise PatternFormatError(f"{path}: NaN value in data row {bad + 1}")

    to_rad = np.deg2rad if header.angle_unit == "deg" else (lambda x: x)
    theta_col = to_rad(data[:, 0])
    phi_col = to_rad(data[:, 1])

    changes = np.nonzero(theta_col != theta_col[0])[0]
    if changes.size == 0:
        raise PatternFormatError(f"{path}: single polar angle; full grid required")
    n_phi = int(changes[0])
    if data.shape[0] % n_phi:
        raise PatternFormatError(
            f"{path}: {data.shape[0]} rows is not a multiple of n_phi={n_phi}"
        )
    n_theta = data.shape[0] // n_phi
    if header.n_theta is not None and header.n_theta != n_theta:
        raise PatternFormatError(
            f"{path}: header declares n_theta={header.n_theta}, data has {n_theta}"
        )
    if header.n_phi is not None and header.n_phi != n_phi:
        raise PatternFormatError(
            f"{path}: header declares n_phi={header.n_phi}, data has {n_phi}"
        )
    try:
        grid = build_grid(n_theta, n_phi)
    except InvalidArgumentError as exc:
        raise PatternFormatError(f"{path}: {exc}") from exc

    expected_theta = np.repeat(grid.theta, n_phi)
    expected_phi = np.tile(grid.phi, n_theta)
    if (np.max(np.abs(theta_col - expected_theta)) > _ANGLE_MATCH_TOL
            or np.max(np.abs(phi_col - expected_phi)) > _ANGLE_MATCH_TOL):
        raise PatternFormatError(
            f"{path}: angles are not a regular theta-major "
            f"{n_theta}x{n_phi} full-sphere grid"
        )
    fields = np.ascontiguousarray(data[:, 2:]).view(complex)  # a + 1j*b loses -0.0
    e_theta = fields[:, 0].reshape(n_theta, n_phi)
    e_phi = fields[:, 1].reshape(n_theta, n_phi)
    try:
        return VectorPattern(grid=grid, e_theta=e_theta, e_phi=e_phi)
    except InvalidArgumentError as exc:
        raise PatternFormatError(f"{path}: {exc}") from exc


def save_cdf_csv(path, errors, probabilities) -> Path:
    errors = np.asarray(errors, dtype=float)
    probabilities = np.asarray(probabilities, dtype=float)
    if errors.shape != probabilities.shape:
        raise InvalidArgumentError("errors and probabilities must have equal length")
    return _write_table(Path(path), [",".join(CDF_COLUMNS)], (errors, probabilities))


def load_cdf_csv(path) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    data = _rows(path, _read_table(path, CDF_COLUMNS)[0], len(CDF_COLUMNS))
    return data[:, 0], data[:, 1]


def _output_dir(out_dir) -> Path:
    """``out_dir``, created with its parents if missing."""
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: an embedded null byte
        raise InvalidArgumentError(f"output directory {out_dir} cannot be created: {exc}") from exc
    return Path(out_dir)


def save_constellation_csv(path, transmit, receive) -> Path:
    """One row per side and symbol pair; each list holds the stream-1 then the stream-2
    point of every (k1, k2) in order, as the link's constellation functions return them."""
    points = [*transmit, *receive]
    p1, p2 = points[0::2], points[1::2]
    side = ["transmit"] * (len(transmit) // 2) + ["receive"] * (len(receive) // 2)
    xy = np.array([(a.ideal, a.actual, b.ideal, b.actual) for a, b in zip(p1, p2)])
    return _write_table(_output_dir(Path(path).parent) / Path(path).name, [
        "side,k1,k2,x1_ideal_re,x1_ideal_im,x1_actual_re,x1_actual_im,"
        "x2_ideal_re,x2_ideal_im,x2_actual_re,x2_actual_im"],
        (side, [a.k1 for a in p1], [a.k2 for a in p1], *xy.view(float).T))


def _json_encode(obj: Any) -> Any:
    """Recursively map non-finite floats to sentinel strings."""
    if isinstance(obj, dict):
        return {str(k): _json_encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_encode(v) for v in obj]
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
    values = np.asarray(evm.evm.values, dtype=float).ravel()
    with np.errstate(divide="ignore"):
        values_db = np.where(values > 0.0, 20.0 * np.log10(np.maximum(values, 1e-300)),
                             -np.inf)
    return _write_table(path, ["theta_deg,phi_deg,evm_linear,evm_db,masked"], (
        *_grid_columns(evm.grid), values, values_db, evm.degenerate_mask.ravel().astype(int)))


def save_results(out_dir, metrics: dict | None = None, evm: EvmMap | None = None,
                 mc=None) -> dict[str, Path]:
    """Write whichever of metrics.json, evm_map.csv, cdf_stream{1,2}.csv apply.

    With ``mc`` in exact mode also errors.npz, ``mc.stream_errors`` as
    arrays ``stream1`` and ``stream2``: uncompressed, so that they reload
    bitwise.  Above the exact limit sketch.npz instead: the rows of
    ``mc.errors`` as arrays ``error_*`` and ``mc.conditions`` as
    ``condition_*`` (``link._sketch_arrays``).
    """
    out_dir = _output_dir(out_dir)
    written: dict[str, Path] = {}
    if metrics is not None:
        written["metrics"] = save_metrics_json(metrics, out_dir / "metrics.json")
    if evm is not None:
        written["evm_map"] = _write_evm_csv(evm, out_dir / "evm_map.csv")
    if mc is not None:
        for stream in (1, 2):
            errors, probs = mc.cdf(stream)
            written[f"cdf_stream{stream}"] = save_cdf_csv(
                out_dir / f"cdf_stream{stream}.csv", errors, probs
            )
        if mc.exact:
            written["errors"] = _save_npz(out_dir / "errors.npz", stream1=mc.stream_errors[0],
                                          stream2=mc.stream_errors[1])
        else:
            written["sketch"] = _save_npz(out_dir / "sketch.npz",
                                          **_sketch_arrays("error_", mc.errors),
                                          **_sketch_arrays("condition_", mc.conditions))
    return written


def _save_npz(path: Path, **arrays) -> Path:
    """The bytes of ``np.savez(path, **arrays)``, written from the arrays' own buffers.

    ``np.savez`` passes each array to its zip member in 16 MiB ``bytes``
    copies; at paper scale that copy set the ``monte-carlo`` peak RSS.
    """
    with _create(path, "wb") as out, zipfile.ZipFile(out, "w") as zf:  # stored, zip64 allowed
        for name, a in arrays.items():
            a = np.ascontiguousarray(a)
            with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(fh, np.lib.format.header_data_from_array_1_0(a))
                fh.write(memoryview(a.reshape(-1)).cast("B"))  # 1-D: a cast refuses empty n-D
    return path


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
    required), and raises ConfigError naming ``where.key`` if the value is wrong.
    """

    def __init__(self, raw, where: str, keys) -> None:
        if not isinstance(raw, dict):
            raise ConfigError(f"{where or 'config'} must be a JSON object; got {raw!r:.60}")
        unknown = set(raw) - set(keys)
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where or 'config'}")
        self.raw, self.where = raw, where

    def path(self, key) -> str:
        return f"{self.where}.{key}" if self.where else key

    def fail(self, key, rule: str):
        got = f"got {self.raw[key]!r:.60}" if key in self.raw else "missing"
        raise ConfigError(f"{self.path(key)} must be {rule}; {got}")

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
            self.fail(key, "null or a list of the labels " + ", ".join(known))
        repeated = [v for i, v in enumerate(value or ()) if v in value[:i]]
        if repeated:
            raise ConfigError(f'{self.path(key)} lists "{repeated[0]}" twice')
        return None if value is None else tuple(map(known.index, value))

    def section(self, key, keys) -> _Section:
        return _Section(self.raw.get(key, {}), self.path(key), keys)

    def sections(self, key, keys) -> list[_Section]:
        value = self.raw.get(key, [])
        if not isinstance(value, list):
            self.fail(key, "a list of JSON objects")
        return [_Section(v, f"{self.path(key)}[{i}]", keys) for i, v in enumerate(value)]


_LOBE_KEYS = ("theta_deg", "phi_deg", "width_deg", "amplitude", "phase_deg", "polarization")


def _lobe(sec: _Section, cls, amplitude: float | None, **extra):
    """A GaussianLobe or PerturbationLobe from its entry; angles to radians."""
    try:
        return cls(theta=sec.angle("theta_deg", None, 0.0, 180.0),
                   phi=sec.angle("phi_deg", None),
                   width=sec.angle("width_deg", None),
                   amplitude=sec.number("amplitude", amplitude),
                   phase=sec.angle("phase_deg", 0.0), **extra)
    except InvalidArgumentError as exc:
        raise ConfigError(f"{sec.where}: {exc}") from exc


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
        raise ConfigError(f"config file not found (or not a file): {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
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
        raise ConfigError(f"grid too coarse: n_theta={n_theta}, n_phi={n_phi}")

    con = top.section("constellation", ("order", "phase_offset_deg"))
    order = con.integer("order", 4, 2)
    labels = [ratio_label(k, order) for k in range(order)]

    antenna_lobes = pattern_files = None
    ant = top.section("antenna", ("profile", "pattern_files"))
    if "profile" in ant.raw and "pattern_files" in ant.raw:
        raise ConfigError("antenna: give either profile or pattern_files, not both")
    if "profile" in ant.raw:
        entries = ant.section("profile", ("lobes",)).sections("lobes", _LOBE_KEYS)
        if not entries:
            raise ConfigError("antenna.profile.lobes must not be empty")
        antenna_lobes = tuple(_lobe(s, GaussianLobe, 1.0, polarization=_polarization_vector(s))
                              for s in entries)
    elif "pattern_files" in ant.raw:
        files = ant.section("pattern_files", labels)
        if set(files.raw) != set(labels):
            raise ConfigError(f"antenna.pattern_files must cover states {sorted(labels)}, "
                              f"got {sorted(files.raw)}")
        pattern_files = {}
        for k, label in enumerate(labels):
            fpath = base / files.string(label, None)
            if not fpath.is_file():
                raise ConfigError(
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
    condition_cap = mc.number("condition_cap", 1e8)
    if not condition_cap > 1.0:
        raise ConfigError(f"monte_carlo.condition_cap must exceed 1, got {condition_cap!r}")

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
