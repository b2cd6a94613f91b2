"""Output checks of the benchmark's operations.

An operation fails when its process exits nonzero, prints a traceback on
stderr, or writes outputs that disagree with ``reference.json`` or with the
reference outputs the run made itself.  ``tally`` turns checked operations
into the ``attempted`` and ``failed`` counts of the result line, so the
self-test (``bench/selftest.py``) exercises exactly the path a run uses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
CDF_HEADER = "error,cumulative_probability"
# Only upper quantiles are compared: q1-q50 sit at round-off (1e-16 to 1e-6).
CHECKED_QUANTILES = ("75.0", "95.0", "99.0")


@dataclass
class OpResult:
    """One finished operation: what ran, how it ended, where it wrote."""

    command: str
    returncode: int
    stderr: str
    out: Path | None = None
    scenarios: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0


def _close(what: str, got: float, want: float, rtol: float) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= rtol * abs(want):
        return []
    return [f"{what} = {got!r}, reference {want!r} (rtol {rtol})"]


def check_mc_summary(summary: dict, scenarios: int) -> list[str]:
    """Tallies, exceedance and upper quantiles of an mc_report.json-style summary."""
    ref = REFERENCE["mc"]
    found = []
    if summary["scenarios"] != scenarios:
        found.append(f"scenarios = {summary['scenarios']}, requested {scenarios}")
    if summary["rejected"] != ref["rejected"]:
        found.append(f"rejected = {summary['rejected']}, reference {ref['rejected']}")
    for stream in ("stream1", "stream2"):
        exceed = summary[stream]["exceedance"]["1e-06"]
        if not exceed <= ref["max_exceedance_1e-06"]:
            found.append(f"{stream} exceedance[1e-6] = {exceed} > {ref['max_exceedance_1e-06']}")
        for q in CHECKED_QUANTILES:
            found += _close(f"{stream} q{q}", summary[stream]["quantiles"][q],
                            ref["quantiles"][stream][q], ref["rtol"])
    return found


def check_cdf_csv(path: Path, stream: str) -> list[str]:
    """A CDF file is sorted, ends at probability 1 and has the reference quantiles."""
    ref = REFERENCE["mc"]
    with path.open() as fh:
        header = fh.readline().strip()
    if header != CDF_HEADER:
        return [f"{path.name}: header {header!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0 or data.shape[1] != 2:
        return [f"{path.name}: shape {data.shape}"]
    errors, probs = data[:, 0], data[:, 1]
    if np.any(np.diff(errors) < 0) or np.any(np.diff(probs) < 0):
        return [f"{path.name}: not sorted"]
    if not (probs[0] > 0.0 and abs(probs[-1] - 1.0) <= 1e-9):
        return [f"{path.name}: probabilities span ({probs[0]}, {probs[-1]}]"]
    found = []
    below = np.searchsorted(errors, 1e-6, side="right")
    exceed = 1.0 - (probs[below - 1] if below else 0.0)
    if exceed > ref["max_exceedance_1e-06"] + 1e-12:
        found.append(f"{path.name}: exceedance[1e-6] = {exceed}")
    for q in CHECKED_QUANTILES:
        i = min(int(np.searchsorted(probs, float(q) / 100.0 - 1e-12)), errors.size - 1)
        found += _close(f"{path.name} q{q}", float(errors[i]),
                        ref["quantiles"][stream][q], ref["rtol"])
    return found


def _check_monte_carlo(op: OpResult, ref_dir: Path | None) -> list[str]:
    found = check_mc_summary(json.loads((op.out / "mc_report.json").read_text()),
                             op.scenarios)
    for stream in ("stream1", "stream2"):
        found += check_cdf_csv(op.out / f"cdf_{stream}.csv", stream)
    return found


def _check_mc(op: OpResult, ref_dir: Path | None) -> list[str]:
    return check_mc_summary(json.loads((op.out / "summary.json").read_text()), op.scenarios)


PATTERN_KEYS = ("basis_correlation_db", "power_imbalance_db", "average_evm_db")


def _flat(metrics: dict) -> dict[str, float]:
    flat = {}
    for key in PATTERN_KEYS:
        value = metrics[key]
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": float(v) for k, v in value.items()})
        else:
            flat[key] = float(value)
    return flat


def _check_metrics(op: OpResult, ref_dir: Path | None) -> list[str]:
    got = _flat(json.loads((op.out / "metrics.json").read_text()))
    same_run = _flat(json.loads((ref_dir / "metrics.json").read_text()))
    recorded = _flat(REFERENCE["pattern"]["metrics"])
    rtol = REFERENCE["pattern"]["rtol"]
    found = [f"metrics.json {k} = {v!r}, synthetic config gives {same_run.get(k)!r}"
             for k, v in got.items() if same_run.get(k) != v]
    if got.keys() != recorded.keys():
        found.append(f"metrics.json keys {sorted(got)}")
    for key in recorded.keys() & got.keys():
        found += _close(f"metrics.json {key}", got[key], recorded[key], rtol)
    return found


def _same_bytes(name: str):
    def check(op: OpResult, ref_dir: Path | None) -> list[str]:
        if (op.out / name).read_bytes() != (ref_dir / name).read_bytes():
            return [f"{name} differs from the synthetic config's"]
        return []
    return check


OUTPUT_CHECKS = {
    "monte-carlo": _check_monte_carlo,
    "mc": _check_mc,
    "metrics": _check_metrics,
    "evm-map": _same_bytes("evm_map.csv"),
    "constellation": _same_bytes("constellation.csv"),
}


def problems(op: OpResult, ref_dir: Path | None = None) -> list[str]:
    """Everything wrong with one operation; empty when it succeeded."""
    found = []
    if op.returncode != 0:
        found.append(f"exit code {op.returncode}")
    if "Traceback (most recent call last)" in op.stderr:
        found.append("traceback on stderr")
    check = OUTPUT_CHECKS.get(op.command)
    if found or check is None or op.out is None:
        return found
    try:
        return check(op, ref_dir)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def tally(ops: list[OpResult], ref_dir: Path | None = None) -> tuple[int, int, list[str]]:
    """Attempted and failed operation counts, and one message per failure."""
    messages = []
    for op in ops:
        found = problems(op, ref_dir)
        if found:
            messages.append(f"{op.command}: " + "; ".join(found))
    return len(ops), len(messages), messages
