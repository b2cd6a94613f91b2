"""Fixed yardstick of how fast the host runs right now.

Usage::

    python3 bench/calibrate.py OUT_DIR

Run in a fresh interpreter by ``bench/run.py`` next to every timed pass.
It imports nothing from the package under test, so its time changes only
with the host, never with the program.  The mix follows the program's
own: interpreter start and ``import numpy``, batched complex 2x2 solves
and a sort (the Monte-Carlo kernel and its summaries), and shortest
round-trip float formatting written to a CSV (the result writers).  The
inputs are fixed; the file is removed before exit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

from pathlib import Path

import numpy as np

SOLVES = 60_000
SORTED = 400_000
ROWS = 60_000


def main(out_dir: str) -> int:
    rng = np.random.default_rng(20160802)
    a = rng.standard_normal((SOLVES, 2, 2)) + 1j * rng.standard_normal((SOLVES, 2, 2))
    b = rng.standard_normal((SOLVES, 2, 1)) + 1j * rng.standard_normal((SOLVES, 2, 1))
    x = np.linalg.solve(a, b)
    errors = np.sort(np.abs(x).ravel()[:SORTED] ** 2)
    errors = np.sort(np.concatenate([errors, rng.random(SORTED - errors.size)]))
    probs = np.arange(1, errors.size + 1) / errors.size
    path = Path(out_dir) / "calibrate.csv"
    with path.open("w") as fh:
        fh.write("error,cumulative_probability\n")
        for e, p in zip(errors[:ROWS].tolist(), probs[:ROWS].tolist()):
            fh.write(f"{e!r},{p!r}\n")
    path.unlink()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
