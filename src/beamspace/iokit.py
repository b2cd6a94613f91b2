"""File formats: pattern CSV, result tables, metrics JSON, run configs.

Angle columns are degrees at every file boundary (radians in memory).
One writer puts floats in shortest round-trip form and one reader parses
tables with ``np.loadtxt``, so writer/reader pairs are lossless at double
precision.  Monte-Carlo CDF tables have at most 10^4 rows; ``errors.npz``
holds the exact samples.  Non-finite metric values are encoded as the
JSON strings "inf", "-inf", "nan".
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError, InvalidArgumentError, PatternFormatError
from .modulation import parse_ratio_label, ratio_label
from .patterns import EvmMap, GaussianLobe, PerturbationLobe
from .sphere import VectorPattern, build_grid

__all__ = [
    "PatternFileHeader",
    "RunConfig",
    "save_pattern_csv",
    "load_pattern_csv",
    "parse_pattern_header",
    "save_cdf_csv",
    "load_cdf_csv",
    "save_constellation_csv",
    "save_metrics_json",
    "load_metrics_json",
    "save_results",
    "load_config",
]

PATTERN_COLUMNS = ("theta_deg", "phi_deg", "re_etheta", "im_etheta", "re_ephi", "im_ephi")
CDF_COLUMNS = ("error", "cumulative_probability")

_ANGLE_MATCH_TOL = 1e-9  # radians; any looser is an irregular grid


def _write_table(path: Path, header, columns) -> Path:
    """Header lines, then row i: element i of each column (floats by repr, others by str)."""
    # .tolist() first: numpy 2 spells repr(np.float64(x)) as "np.float64(x)"
    cells = [map(repr if c.dtype.kind == "f" else str, c.tolist())
             for c in map(np.asarray, columns)]
    with path.open("w", newline="") as fh:
        fh.writelines(line + "\n" for line in header)
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
    return path


def _read_table(path: Path, columns) -> np.ndarray:
    """Data rows (bitwise equal to float() of each field) under the column row.

    The column row is the first line that is neither blank nor a ``#`` comment.
    """
    with path.open() as fh:
        for n_header, line in enumerate(iter(fh.readline, ""), start=1):
            if line.strip() and not line.lstrip().startswith("#"):
                break
        else:
            raise PatternFormatError(f"{path}: no column row {','.join(columns)}")
        names = [c.strip().strip('"') for c in line.split(",")]
        missing = [c for c in columns if c not in names]
        if missing:
            raise PatternFormatError(f"{path}: missing column(s) {', '.join(missing)}")
        if names != list(columns):
            raise PatternFormatError(f"{path}: columns must be exactly {','.join(columns)}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt(fh, delimiter=",", quotechar='"', ndmin=2)
        except ValueError as exc:
            bad = _first_bad_line(path, n_header, len(columns))
            raise PatternFormatError(bad or f"{path}: {exc}") from exc
    if data.size and data.shape[1] != len(columns):
        raise PatternFormatError(_first_bad_line(path, n_header, len(columns)))
    return data.reshape(-1, len(columns))


def _first_bad_line(path: Path, n_header: int, n_fields: int) -> str | None:
    """Name the first data line with a wrong field count or a non-numeric field."""
    with path.open() as fh:
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


def parse_pattern_header(path) -> PatternFileHeader:
    """Read the leading comment metadata of a pattern CSV."""
    meta: dict[str, str] = {}
    with Path(path).open() as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            if ":" in line:
                key, _, value = line.lstrip("#").partition(":")
                meta[key.strip()] = value.strip()
    def _int(key):
        return int(meta[key]) if key in meta else None
    try:
        return PatternFileHeader(
            n_theta=_int("n_theta"),
            n_phi=_int("n_phi"),
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
    header = parse_pattern_header(path)
    data = _read_table(path, PATTERN_COLUMNS)
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
    data = _read_table(Path(path), CDF_COLUMNS)
    return data[:, 0], data[:, 1]


def save_constellation_csv(path, rows) -> Path:
    """One row per (side, k1, k2, stream-1 point, stream-2 point) of ``rows``."""
    side, k1, k2, p1, p2 = zip(*rows)
    points = np.array([(a.ideal, a.actual, b.ideal, b.actual) for a, b in zip(p1, p2)])
    return _write_table(Path(path), [
        "side,k1,k2,x1_ideal_re,x1_ideal_im,x1_actual_re,x1_actual_im,"
        "x2_ideal_re,x2_ideal_im,x2_actual_re,x2_actual_im"],
        (side, k1, k2, *points.view(float).T))


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


def _json_decode(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _json_decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_decode(v) for v in obj]
    if obj in ("inf", "-inf", "nan"):
        return float(obj)
    return obj


def save_metrics_json(metrics: dict, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(_json_encode(metrics), indent=2, sort_keys=True) + "\n")
    return path


def load_metrics_json(path) -> dict:
    return _json_decode(json.loads(Path(path).read_text()))


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

    With ``mc`` also errors.npz, ``mc.stream_errors`` as arrays ``stream1``
    and ``stream2``: uncompressed, so that they reload bitwise.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        written["errors"] = out_dir / "errors.npz"
        np.savez(written["errors"], stream1=mc.stream_errors[0], stream2=mc.stream_errors[1])
    return written


# --------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; all angles radians, paths resolved."""

    n_theta: int = 91
    n_phi: int = 180
    constellation_order: int = 4
    constellation_offset: float = 0.0
    antenna_lobes: tuple[GaussianLobe, ...] | None = None  # None -> default profile
    pattern_files: dict[int, Path] | None = None
    perturbation_lobes: tuple[PerturbationLobe, ...] = ()
    scenarios: int = 10000
    separation_deg: tuple[float, float] = (3.0, 5.0)
    seed: int = 1
    threads: int = 1
    condition_cap: float = 1e8
    noise_variances: tuple[float, float] = (0.0, 0.0)
    rx1: tuple[float, float] = (np.deg2rad(45.0), np.deg2rad(294.0))
    rx2: tuple[float, float] = (np.deg2rad(45.0), np.deg2rad(298.0))
    rx_polarization: str = "theta"
    out_dir: Path = field(default_factory=lambda: Path("out"))


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _parse_polarization_vector(value, where: str) -> tuple[complex, complex]:
    if value == "theta":
        return (1.0 + 0.0j, 0.0j)
    if value == "phi":
        return (0.0j, 1.0 + 0.0j)
    try:
        (re0, im0), (re1, im1) = value
        return (complex(re0, im0), complex(re1, im1))
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"{where}: polarization must be 'theta', 'phi', or [[re,im],[re,im]]"
        ) from exc


def _parse_antenna_lobe(entry: dict, idx: int) -> GaussianLobe:
    where = f"antenna.profile.lobes[{idx}]"
    _require_keys(entry, {"theta_deg", "phi_deg", "width_deg", "amplitude",
                          "phase_deg", "polarization"}, where)
    try:
        return GaussianLobe(
            theta=np.deg2rad(float(entry["theta_deg"])),
            phi=np.deg2rad(float(entry["phi_deg"])),
            width=np.deg2rad(float(entry["width_deg"])),
            amplitude=float(entry.get("amplitude", 1.0)),
            phase=np.deg2rad(float(entry.get("phase_deg", 0.0))),
            polarization=_parse_polarization_vector(
                entry.get("polarization", "theta"), where
            ),
        )
    except (KeyError, ValueError, InvalidArgumentError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_perturbation_lobe(entry: dict, idx: int, order: int) -> PerturbationLobe:
    where = f"perturbation.lobes[{idx}]"
    _require_keys(entry, {"theta_deg", "phi_deg", "width_deg", "amplitude",
                          "phase_deg", "states", "polarization"}, where)
    states = entry.get("states")
    if states is not None:
        try:
            states = tuple(parse_ratio_label(s, order) for s in states)
        except Exception as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    try:
        return PerturbationLobe(
            theta=np.deg2rad(float(entry["theta_deg"])),
            phi=np.deg2rad(float(entry["phi_deg"])),
            width=np.deg2rad(float(entry["width_deg"])),
            amplitude=float(entry["amplitude"]),
            phase=np.deg2rad(float(entry.get("phase_deg", 0.0))),
            states=states,
            polarization=entry.get("polarization", "both"),
        )
    except (KeyError, ValueError, InvalidArgumentError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_angle_pair(section: dict, where: str) -> tuple[float, float]:
    _require_keys(section, {"theta_deg", "phi_deg"}, where)
    try:
        return (
            float(np.deg2rad(float(section["theta_deg"]))),
            float(np.deg2rad(float(section["phi_deg"]))),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Relative paths inside the file resolve against the file's directory.
    Referenced pattern files must exist at load time.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _require_keys(raw, {"grid", "constellation", "antenna", "perturbation",
                        "receive", "monte_carlo", "output"}, str(path))
    base = path.parent
    defaults = RunConfig()

    grid_sec = raw.get("grid", {})
    _require_keys(grid_sec, {"n_theta", "n_phi"}, "grid")
    n_theta = int(grid_sec.get("n_theta", defaults.n_theta))
    n_phi = int(grid_sec.get("n_phi", defaults.n_phi))
    if n_theta < 3 or n_phi < 4:
        raise ConfigError(f"grid too coarse: n_theta={n_theta}, n_phi={n_phi}")

    con_sec = raw.get("constellation", {})
    _require_keys(con_sec, {"order", "phase_offset_deg"}, "constellation")
    order = int(con_sec.get("order", defaults.constellation_order))
    if order < 2:
        raise ConfigError(f"constellation order must be >= 2, got {order}")
    offset = float(np.deg2rad(float(con_sec.get("phase_offset_deg", 0.0))))

    antenna_lobes: tuple[GaussianLobe, ...] | None = None
    pattern_files: dict[int, Path] | None = None
    ant_sec = raw.get("antenna", {})
    _require_keys(ant_sec, {"profile", "pattern_files"}, "antenna")
    if "profile" in ant_sec and "pattern_files" in ant_sec:
        raise ConfigError("antenna: give either profile or pattern_files, not both")
    if "profile" in ant_sec:
        _require_keys(ant_sec["profile"], {"lobes"}, "antenna.profile")
        entries = ant_sec["profile"].get("lobes", [])
        if not entries:
            raise ConfigError("antenna.profile.lobes must not be empty")
        antenna_lobes = tuple(
            _parse_antenna_lobe(e, i) for i, e in enumerate(entries)
        )
    elif "pattern_files" in ant_sec:
        pattern_files = {}
        for label, rel in ant_sec["pattern_files"].items():
            try:
                k = parse_ratio_label(label, order)
            except Exception as exc:
                raise ConfigError(f"antenna.pattern_files: {exc}") from exc
            fpath = (base / rel).resolve() if not Path(rel).is_absolute() else Path(rel)
            if not fpath.exists():
                raise ConfigError(f"antenna pattern file not found: {fpath}")
            pattern_files[k] = fpath
        expected = {ratio_label(k, order) for k in range(order)}
        got = set(ant_sec["pattern_files"])
        if got != expected:
            raise ConfigError(
                f"antenna.pattern_files must cover states {sorted(expected)}, "
                f"got {sorted(got)}"
            )

    pert_sec = raw.get("perturbation", {})
    _require_keys(pert_sec, {"lobes"}, "perturbation")
    perturbation_lobes = tuple(
        _parse_perturbation_lobe(e, i, order)
        for i, e in enumerate(pert_sec.get("lobes", []))
    )

    rx_sec = raw.get("receive", {})
    _require_keys(rx_sec, {"rx1", "rx2", "polarization"}, "receive")
    rx1 = _parse_angle_pair(rx_sec["rx1"], "receive.rx1") if "rx1" in rx_sec else defaults.rx1
    rx2 = _parse_angle_pair(rx_sec["rx2"], "receive.rx2") if "rx2" in rx_sec else defaults.rx2
    rx_pol = rx_sec.get("polarization", defaults.rx_polarization)
    if rx_pol not in ("theta", "phi"):
        raise ConfigError(f"receive.polarization must be 'theta' or 'phi', got {rx_pol!r}")

    mc_sec = raw.get("monte_carlo", {})
    _require_keys(mc_sec, {"scenarios", "separation_deg", "seed", "threads",
                           "condition_cap", "noise_variance"}, "monte_carlo")
    scenarios = int(mc_sec.get("scenarios", defaults.scenarios))
    if scenarios < 1:
        raise ConfigError(f"monte_carlo.scenarios must be >= 1, got {scenarios}")
    sep = mc_sec.get("separation_deg", list(defaults.separation_deg))
    try:
        sep = (float(sep[0]), float(sep[1]))
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError("monte_carlo.separation_deg must be [min, max]") from exc
    if not (0.0 < sep[0] <= sep[1]):
        raise ConfigError(
            f"monte_carlo.separation_deg must satisfy 0 < min <= max, got {sep}"
        )
    seed = int(mc_sec.get("seed", defaults.seed))
    threads = int(mc_sec.get("threads", defaults.threads))
    if threads < 1:
        raise ConfigError(f"monte_carlo.threads must be >= 1, got {threads}")
    condition_cap = float(mc_sec.get("condition_cap", defaults.condition_cap))
    if not condition_cap > 1.0:
        raise ConfigError("monte_carlo.condition_cap must exceed 1")
    nv = mc_sec.get("noise_variance", [0.0, 0.0])
    if isinstance(nv, (int, float)):
        nv = [nv, nv]
    try:
        noise_variances = (float(nv[0]), float(nv[1]))
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError("monte_carlo.noise_variance must be a number or pair") from exc
    if min(noise_variances) < 0.0:
        raise ConfigError("monte_carlo.noise_variance must be nonnegative")

    out_sec = raw.get("output", {})
    _require_keys(out_sec, {"dir"}, "output")
    out_raw = Path(out_sec.get("dir", defaults.out_dir))
    out_dir = out_raw if out_raw.is_absolute() else base / out_raw

    return RunConfig(
        n_theta=n_theta,
        n_phi=n_phi,
        constellation_order=order,
        constellation_offset=offset,
        antenna_lobes=antenna_lobes,
        pattern_files=pattern_files,
        perturbation_lobes=perturbation_lobes,
        scenarios=scenarios,
        separation_deg=sep,
        seed=seed,
        threads=threads,
        condition_cap=condition_cap,
        noise_variances=noise_variances,
        rx1=rx1,
        rx2=rx2,
        rx_polarization=rx_pol,
        out_dir=out_dir,
    )
