#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Usage, from the root of a checkout::

    python3 bench/selftest.py

Runs the real operations once (a 1e4-scenario ``monte-carlo``, the three
pattern commands, a 1e4-scenario sweep), then feeds ``checks.tally`` -- the
function a benchmark run counts failures with -- clean outputs and
corrupted copies of them.  Every clean output must pass and every
corrupted one must be counted as failed.  Exits 0 when all expectations
hold, 1 otherwise.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import shutil
import time
from pathlib import Path

import numpy as np

from checks import OpResult, tally
from run import ROOT, WORKLOADS, OpSpec, Runner, pass_ops, prepare, receive_angles, work_dir

SEED = 42
SCENARIOS = WORKLOADS["mc_products"].scenarios


def drop_ratio_state(src: Path, dst: Path) -> None:
    """Rewrite a CDF as if one of the exactly decoded +-1 states were never evaluated.

    The +1 and -1 states decode to round-off (below 1e-6) and together make
    up half of all samples; removing every other one of those removes one
    state's worth of samples.
    """
    data = np.loadtxt(src, delimiter=",", skiprows=1)
    errors = data[:, 0]
    exact = np.flatnonzero(errors < 1e-6)
    kept = np.delete(errors, exact[::2])
    probs = np.arange(1, kept.size + 1) / kept.size
    np.savetxt(dst, np.column_stack([kept, probs]), fmt="%.17g", delimiter=",",
               header="error,cumulative_probability", comments="")


def mc_summary(out: Path, swap: bool) -> None:
    """summary.json of a 1e4-scenario sweep, optionally with the +j and -j states swapped."""
    sys.path.insert(0, str(ROOT / "src"))
    import beamspace as bs
    import child

    _, constellation, states, _ = child.assemble(child.HAND_CONFIG)
    if swap:
        patterns = dict(states.patterns)
        patterns[1], patterns[3] = patterns[3], patterns[1]
        states = bs.StatePatternSet(ratios=states.ratios, patterns=patterns)
    mc = bs.run_monte_carlo(states, bs.perturbed_basis(states), constellation,
                            n_scenarios=SCENARIOS, seed=SEED, threads=2)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(json.dumps(child._summary_json(mc)))


def copy_op(op: OpResult, out: Path, **changes) -> OpResult:
    shutil.copytree(op.out, out)
    fields = dict(vars(op), out=out)
    fields.update(changes)
    return OpResult(**fields)


def main() -> int:
    with work_dir() as work:
        runner = Runner(work, time.monotonic() + 600.0)
        rx = receive_angles(SEED)
        ref_dir = prepare(runner, work, SEED, rx)
        cases: list[tuple[str, OpResult, bool]] = []

        mc_spec = pass_ops("mc_products", SEED, work, work / "mc", rx)[0]
        clean_mc = runner.execute(mc_spec)
        cases.append(("monte-carlo, clean", clean_mc, False))
        dropped = copy_op(clean_mc, work / "mc_dropped")
        drop_ratio_state(clean_mc.out / "cdf_stream1.csv", dropped.out / "cdf_stream1.csv")
        cases.append(("monte-carlo, CDF with one ratio state dropped", dropped, True))
        failing = OpSpec("monte-carlo", ["cli", "monte-carlo", "--config",
                                         str(work / "missing.json"), "--out", str(work / "bad")],
                         out=work / "bad", scenarios=SCENARIOS, cli=True)
        cases.append(("monte-carlo, nonzero exit", runner.execute(failing), True))
        thread_crash = runner.spawn(
            ["-c", "import threading; t = threading.Thread(target=lambda: 1 / 0); "
                   "t.start(); t.join()"], "traceback")
        if thread_crash.returncode != 0:
            raise RuntimeError("a crashing thread should leave exit code 0")
        cases.append(("monte-carlo, traceback on stderr with exit 0",
                      copy_op(clean_mc, work / "mc_tb", stderr=thread_crash.stderr), True))

        for name, swap in (("clean", False), ("+j and -j states swapped", True)):
            out = work / f"summary_{swap}"
            mc_summary(out, swap)
            op = OpResult("mc", 0, "", out=out, scenarios=SCENARIOS)
            cases.append((f"mc sweep, {name}", op, swap))

        pattern_ops = {spec.command: runner.execute(spec)
                       for spec in pass_ops("pattern_analysis", SEED, work, work / "pa", rx)}
        for command, op in pattern_ops.items():
            cases.append((f"{command}, clean", op, False))
        evm = copy_op(pattern_ops["evm-map"], work / "evm_bad")
        lines = (evm.out / "evm_map.csv").read_text().splitlines(keepends=True)
        lines[1000] = lines[1000].replace(",", ",1", 1)
        (evm.out / "evm_map.csv").write_text("".join(lines))
        cases.append(("evm-map, one value changed", evm, True))
        metrics = copy_op(pattern_ops["metrics"], work / "metrics_bad")
        content = json.loads((metrics.out / "metrics.json").read_text())
        content["basis_correlation_db"] = np.nextafter(content["basis_correlation_db"], 0.0)
        (metrics.out / "metrics.json").write_text(json.dumps(content))
        cases.append(("metrics, correlation off by one ulp", metrics, True))
        con = copy_op(pattern_ops["constellation"], work / "con_bad")
        rows = (con.out / "constellation.csv").read_text().splitlines(keepends=True)
        (con.out / "constellation.csv").write_text("".join(rows[:-1]))
        cases.append(("constellation, last row missing", con, True))

        ok = True
        for name, op, corrupted in cases:
            attempted, failed, messages = tally([op], ref_dir)
            good = failed == int(corrupted)
            ok &= good
            detail = messages[0] if messages else "passes"
            print(f"[{'ok' if good else 'WRONG'}] {name}: {detail[:160]}")
        attempted, failed, _ = tally([op for _, op, _ in cases], ref_dir)
        expected = sum(corrupted for _, _, corrupted in cases)
        ok &= failed == expected
        print(f"error_rate over all cases: {failed}/{attempted} (expected {expected}/{attempted})")
        return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
