import importlib.util
import json
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from beamspace import (
    ConfigError,
    GaussianLobe,
    InvalidArgumentError,
    PatternFormatError,
    PerturbationLobe,
    VectorPattern,
    build_grid,
    cdf_summary,
    load_cdf_csv,
    load_config,
    load_pattern_csv,
    save_cdf_csv,
    save_metrics_json,
    save_pattern_csv,
    save_results,
)
from beamspace.patterns import (
    apply_perturbation,
    default_mirror_profile,
    evm_map,
    example_perturbation,
    generate_mirror_pair,
    generate_perturbation,
    perturbed_basis,
)
from beamspace import iokit
from beamspace.link import SKETCH_ALPHA
from beamspace.modulation import PskConstellation
from helpers import load_metrics_json, upfront_errors

QPSK = PskConstellation.qpsk()


def _random_pattern(grid, rng):
    return VectorPattern(
        grid=grid,
        e_theta=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
        e_phi=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
    )


class TestPatternCsv:
    def test_round_trip_small_grid_bitwise(self, tmp_path):
        grid = build_grid(3, 4)
        rng = np.random.default_rng(0)
        random = _random_pattern(grid, rng)
        e_theta, e_phi = random.e_theta.copy(), random.e_phi.copy()
        e_theta[0, 1] = complex(-0.0, 5e-324)
        e_phi[2, 3] = complex(1.7976931348623157e308, -0.0)
        pattern = VectorPattern(grid=grid, e_theta=e_theta, e_phi=e_phi)
        path = save_pattern_csv(pattern, tmp_path / "p.csv", state="+1",
                                frequency="2.45 GHz")
        loaded = load_pattern_csv(path)
        assert loaded.e_theta.tobytes() == pattern.e_theta.tobytes()
        assert loaded.e_phi.tobytes() == pattern.e_phi.tobytes()
        assert loaded.grid.shape == grid.shape
        assert path.read_text().splitlines()[:6] == [
            "# n_theta: 3", "# n_phi: 4", "# angle_unit: deg", "# frequency: 2.45 GHz",
            "# state: +1", "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi"]

    def test_round_trip_various_sizes(self, tmp_path):
        rng = np.random.default_rng(1)
        for trial, (nt, nph) in enumerate([(5, 8), (7, 12), (4, 5)]):
            grid = build_grid(nt, nph)
            pattern = _random_pattern(grid, rng)
            path = save_pattern_csv(pattern, tmp_path / f"p{trial}.csv")
            loaded = load_pattern_csv(path)
            assert np.array_equal(loaded.e_theta, pattern.e_theta)
            assert np.array_equal(loaded.e_phi, pattern.e_phi)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi\n"
            "0,0,1,0,0\n"
        )
        with pytest.raises(PatternFormatError, match="im_ephi"):
            load_pattern_csv(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        # a non-numeric field, a short last row, a bad field deep in the file,
        # bytes that are not UTF-8 (surrogate escapes below) in the header and deep
        for shape, index, row, message in [
            ((3, 4), 7, "0.0,90.0,not_a_number,0.0,0.0,0.0", ":8: could not convert"),
            ((3, 4), 15, "180.0,270.0,0.0,0.0,0.0", ":16: expected 6 fields, got 5"),
            ((91, 180), 8999, "0.0,90.0,1.0,0.0,0.0,x", ":9000: could not convert"),
            ((3, 4), 0, "\udcff\udcfe# n_theta: 3", "p.csv: not UTF-8"),
            ((91, 180), 8999, "0.0,90.0,1.0,0.0,0.0,\udcc3(", "p.csv: not UTF-8"),
        ]:
            grid = build_grid(*shape)
            pattern = _random_pattern(grid, np.random.default_rng(2))
            path = save_pattern_csv(pattern, tmp_path / "p.csv")
            lines = path.read_text().splitlines()
            lines[index] = row
            path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
            with pytest.raises(PatternFormatError, match=message):
                load_pattern_csv(path)

    def test_nan_rejected(self, tmp_path):
        grid = build_grid(3, 4)
        pattern = _random_pattern(grid, np.random.default_rng(3))
        path = save_pattern_csv(pattern, tmp_path / "p.csv")
        text = path.read_text().replace("im_ephi\n", "im_ephi\n", 1)
        lines = text.splitlines()
        parts = lines[6].split(",")
        parts[2] = "nan"
        lines[6] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PatternFormatError, match="NaN"):
            load_pattern_csv(path)

    def test_shuffled_rows_rejected(self, tmp_path):
        grid = build_grid(3, 4)
        pattern = _random_pattern(grid, np.random.default_rng(4))
        path = save_pattern_csv(pattern, tmp_path / "p.csv")
        lines = path.read_text().splitlines()
        header, data = lines[:4], lines[4:]
        data[0], data[5] = data[5], data[0]
        path.write_text("\n".join(header + data) + "\n")
        with pytest.raises(PatternFormatError):
            load_pattern_csv(path)

    def test_declared_shape_must_match(self, tmp_path):
        grid = build_grid(3, 4)
        pattern = _random_pattern(grid, np.random.default_rng(5))
        saved = save_pattern_csv(pattern, tmp_path / "p.csv").read_text()
        # the declaration is checked also after a blank line
        for declared in ("# n_theta: 5", "\n# n_theta: 9"):
            path = tmp_path / "p.csv"
            path.write_text(saved.replace("# n_theta: 3", declared))
            with pytest.raises(PatternFormatError, match="n_theta"):
                load_pattern_csv(path)

    def test_hand_written_small_file_lands_on_indices(self, tmp_path):
        # 3x4 grid written by hand with two marked samples; then again with
        # comment and blank lines between data rows and quoted numbers
        for between_rows, marked in [("", "3.5,-1.25"), ("# comment\n\n", '"3.5","-1.25"')]:
            rows = []
            for i, theta in enumerate((0.0, 90.0, 180.0)):
                for j, phi in enumerate((0.0, 90.0, 180.0, 270.0)):
                    val = "0.0"
                    if (i, j) == (1, 2):
                        rows.append(f"{between_rows}{theta},{phi},{marked},0.0,0.5")
                    elif (i, j) == (2, 0):
                        rows.append(f"{theta},{phi},0.0,0.0,-7.0,0.125")
                    else:
                        rows.append(f"{theta},{phi},{val},0.0,0.0,0.0")
            path = tmp_path / "hand.csv"
            path.write_text(
                "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi\n"
                + "\n".join(rows) + "\n"
            )
            loaded = load_pattern_csv(path)
            assert loaded.e_theta[1, 2] == 3.5 - 1.25j
            assert loaded.e_phi[1, 2] == 0.5j
            assert loaded.e_phi[2, 0] == -7.0 + 0.125j
            assert loaded.e_theta[0, 0] == 0.0

    def test_radian_unit_header(self, tmp_path):
        grid = build_grid(3, 4)
        # the unit is read also after a blank line
        for head in (["# angle_unit: rad"], ["", "# angle_unit: rad"]):
            rows = head + ["theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi"]
            for i in range(3):
                for j in range(4):
                    rows.append(
                        f"{float(grid.theta[i])!r},{float(grid.phi[j])!r},1.0,0.0,0.0,0.0"
                    )
            path = tmp_path / "rad.csv"
            path.write_text("\n".join(rows) + "\n")
            loaded = load_pattern_csv(path)
            assert np.all(loaded.e_theta == 1.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pattern_csv(tmp_path / "nope.csv")

    def test_unreadable_file_names_it(self, tmp_path):
        # any other read failure, here a directory where the file should be
        (tmp_path / "dir.csv").mkdir()
        for load in (load_pattern_csv, load_cdf_csv):
            with pytest.raises(PatternFormatError, match="dir.csv: cannot be read"):
                load(tmp_path / "dir.csv")

    def test_infinite_value_rejected(self, tmp_path):
        grid = build_grid(3, 4)
        pattern = _random_pattern(grid, np.random.default_rng(7))
        path = save_pattern_csv(pattern, tmp_path / "p.csv")
        lines = path.read_text().splitlines()
        parts = lines[5].split(",")
        parts[4] = "inf"
        lines[5] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PatternFormatError, match="finite"):
            load_pattern_csv(path)

    def test_invalid_angle_unit_rejected(self, tmp_path):
        grid = build_grid(3, 4)
        pattern = _random_pattern(grid, np.random.default_rng(9))
        path = save_pattern_csv(pattern, tmp_path / "p.csv")
        path.write_text(path.read_text().replace("angle_unit: deg",
                                                 "angle_unit: grad"))
        with pytest.raises(PatternFormatError, match="angle unit"):
            load_pattern_csv(path)


class TestPatternCache:
    """Each version of a pattern CSV is parsed once; its rows sit in ``.beamspace-cache/``."""

    @staticmethod
    def _entries(folder):
        cache = folder / ".beamspace-cache"
        return sorted(e.name for e in cache.iterdir()) if cache.is_dir() else []

    @staticmethod
    def _count_parses(monkeypatch):
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        return calls

    def _saved(self, tmp_path, seed=10):
        grid = build_grid(3, 4)
        pattern = _random_pattern(grid, np.random.default_rng(seed))
        e_theta = pattern.e_theta.copy()
        e_theta[0, 1] = complex(-0.0, 5e-324)
        pattern = VectorPattern(grid=grid, e_theta=e_theta, e_phi=pattern.e_phi)
        return pattern, save_pattern_csv(pattern, tmp_path / "p.csv")

    def test_cold_and_warm_loads_bitwise_equal(self, tmp_path, monkeypatch):
        pattern, path = self._saved(tmp_path)
        parses = self._count_parses(monkeypatch)
        cold, warm = load_pattern_csv(path), load_pattern_csv(path)
        assert len(parses) == 1
        assert self._entries(tmp_path) == [
            f"p.csv.{importlib.util.source_hash(path.read_bytes()).hex()}.npy"]
        for loaded in (cold, warm):
            assert loaded.e_theta.tobytes() == pattern.e_theta.tobytes()
            assert loaded.e_phi.tobytes() == pattern.e_phi.tobytes()
            assert loaded.grid.shape == pattern.grid.shape

    def test_same_size_same_mtime_rewrite_is_parsed(self, tmp_path, monkeypatch):
        _, path = self._saved(tmp_path)
        load_pattern_csv(path)
        stat = path.stat()
        lines = path.read_text().splitlines()
        fields = lines[4].split(",")  # first data row: theta 0, phi 0
        digit = next(i for i, c in enumerate(fields[2]) if c in "123456789")
        new = "1" if fields[2][digit] != "1" else "2"
        fields[2] = fields[2][:digit] + new + fields[2][digit + 1:]
        lines[4] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        parses = self._count_parses(monkeypatch)
        assert load_pattern_csv(path).e_theta[0, 0].real == float(fields[2])
        assert len(parses) == 1

    @pytest.mark.parametrize("corrupt", ["empty", "truncated", "five columns", "float32",
                                         "one-dimensional", "object"])
    def test_bad_entry_is_parsed_and_rewritten(self, tmp_path, monkeypatch, corrupt):
        pattern, path = self._saved(tmp_path)
        load_pattern_csv(path)
        [name] = self._entries(tmp_path)
        entry = tmp_path / ".beamspace-cache" / name
        good = entry.read_bytes()
        rows = np.load(entry)
        if corrupt in ("empty", "truncated"):
            entry.write_bytes(good[:len(good) // 2] if corrupt == "truncated" else b"")
        else:
            bad = {"five columns": rows[:, :5], "float32": rows.astype(np.float32),
                   "one-dimensional": rows.ravel(),
                   "object": rows.astype(object)}[corrupt]
            np.save(entry, bad, allow_pickle=True)
        parses = self._count_parses(monkeypatch)
        loaded = load_pattern_csv(path)
        assert len(parses) == 1
        assert loaded.e_theta.tobytes() == pattern.e_theta.tobytes()
        assert loaded.e_phi.tobytes() == pattern.e_phi.tobytes()
        assert self._entries(tmp_path) == [name]
        assert entry.read_bytes() == good

    def test_file_at_cache_path_skips_the_cache(self, tmp_path, monkeypatch):
        pattern, path = self._saved(tmp_path)
        (tmp_path / ".beamspace-cache").write_bytes(b"not a directory")
        parses = self._count_parses(monkeypatch)
        for _ in range(2):
            assert load_pattern_csv(path).e_theta.tobytes() == pattern.e_theta.tobytes()
        assert len(parses) == 2
        assert sorted(f.name for f in tmp_path.iterdir()) == [".beamspace-cache", "p.csv"]
        assert (tmp_path / ".beamspace-cache").read_bytes() == b"not a directory"

    def test_malformed_file_raises_and_leaves_no_entry(self, tmp_path):
        _, path = self._saved(tmp_path)
        good = path.read_text()
        lines = good.splitlines()
        lines[7] = "0.0,90.0,not_a_number,0.0,0.0,0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PatternFormatError, match=":8: could not convert"):
            load_pattern_csv(path)
        assert self._entries(tmp_path) == []
        # a cached earlier version does not hide the error either
        path.write_text(good)
        load_pattern_csv(path)
        cached = self._entries(tmp_path)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PatternFormatError, match=":8: could not convert"):
            load_pattern_csv(path)
        assert self._entries(tmp_path) == cached

    @pytest.mark.parametrize("shared", ["another user's", "group-writable", "world-writable",
                                        "a link"])
    def test_cache_others_could_write_is_not_used(self, tmp_path, monkeypatch, shared):
        pattern, path = self._saved(tmp_path)
        load_pattern_csv(path)
        cache = tmp_path / ".beamspace-cache"
        [name] = self._entries(tmp_path)
        rows = np.load(cache / name)
        rows[:, 2:] += 1.0
        np.save(cache / name, rows)
        planted = (cache / name).read_bytes()
        # in this user's own directory the entry is trusted ...
        assert load_pattern_csv(path).e_theta.tobytes() != pattern.e_theta.tobytes()
        if shared == "another user's":
            uid = os.getuid() + 1
            monkeypatch.setattr(os, "getuid", lambda: uid)
        elif shared == "a link":
            cache.rename(tmp_path / "elsewhere")
            cache.symlink_to(tmp_path / "elsewhere")
        else:
            cache.chmod(0o775 if shared == "group-writable" else 0o1777)
        # ... and otherwise neither read nor written
        parses = self._count_parses(monkeypatch)
        loaded = load_pattern_csv(path)
        assert len(parses) == 1
        assert loaded.e_theta.tobytes() == pattern.e_theta.tobytes()
        assert loaded.e_phi.tobytes() == pattern.e_phi.tobytes()
        assert self._entries(tmp_path) == [name]
        assert (cache / name).read_bytes() == planted

    def test_no_temporary_file_outlives_its_writer(self, tmp_path, monkeypatch):
        _, path = self._saved(tmp_path)

        def interrupted(fh, data):
            fh.write(b"\x93NUMPY")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "save", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_pattern_csv(path)
        assert self._entries(tmp_path) == []
        monkeypatch.undo()
        # one left by a killed writer goes when the file's next entry is written
        cache = tmp_path / ".beamspace-cache"
        for name in ("p.csv.0123456789abcdef.npy.4242-1.tmp", "p.csv.csv.0123456789abcdef.npy"):
            (cache / name).write_bytes(b"\x93NUMPY")
        load_pattern_csv(path)
        assert self._entries(tmp_path) == [
            f"p.csv.{importlib.util.source_hash(path.read_bytes()).hex()}.npy",
            "p.csv.csv.0123456789abcdef.npy"]

    def test_one_entry_per_file(self, tmp_path):
        _, path = self._saved(tmp_path, seed=11)
        load_pattern_csv(path)
        # a neighbour whose name starts with this one's keeps its own entry
        neighbour = save_pattern_csv(_random_pattern(build_grid(3, 4), np.random.default_rng(12)),
                                     tmp_path / "p.csv.csv")
        load_pattern_csv(neighbour)
        newer, _ = self._saved(tmp_path, seed=13)
        assert load_pattern_csv(path).e_phi.tobytes() == newer.e_phi.tobytes()
        assert self._entries(tmp_path) == sorted(
            f"{f.name}.{importlib.util.source_hash(f.read_bytes()).hex()}.npy"
            for f in (path, neighbour))

    def test_concurrent_loads(self, tmp_path):
        # more readers than cores on two files of one directory, switching often
        patterns = [_random_pattern(build_grid(3, 4), np.random.default_rng(20 + i))
                    for i in range(2)]
        paths = [save_pattern_csv(p, tmp_path / f"s{i}.csv") for i, p in enumerate(patterns)]
        wrong = []

        def reader(i):
            for _ in range(25):
                loaded = load_pattern_csv(paths[i % 2])
                if loaded.e_phi.tobytes() != patterns[i % 2].e_phi.tobytes():
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert self._entries(tmp_path) == sorted(
            f"{f.name}.{importlib.util.source_hash(f.read_bytes()).hex()}.npy" for f in paths)

    def test_cache_leaves_hashlib_unloaded(self, tmp_path):
        _, path = self._saved(tmp_path)
        script = (
            "import sys\n"
            "import beamspace.cli\n"
            "from beamspace import load_pattern_csv\n"
            "cold, warm = load_pattern_csv(sys.argv[1]), load_pattern_csv(sys.argv[1])\n"
            "assert cold.e_theta.tobytes() == warm.e_theta.tobytes()\n"
            "print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"
        assert len(self._entries(tmp_path)) == 1


class TestCdfCsv:
    def test_round_trip_preserves_quantiles(self, tmp_path):
        rng = np.random.default_rng(6)
        errors = np.sort(rng.exponential(0.2, size=500))
        errors[:2], errors[-1] = (-0.0, 5e-324), 1.7976931348623157e308
        probs = np.arange(1, 501) / 500
        path = save_cdf_csv(tmp_path / "cdf.csv", errors, probs)
        re_err, re_probs = load_cdf_csv(path)
        assert re_err.tobytes() == errors.tobytes()
        assert re_probs.tobytes() == probs.tobytes()
        assert cdf_summary(re_err).quantiles == cdf_summary(errors).quantiles

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            save_cdf_csv(tmp_path / "c.csv", [1.0, 2.0], [0.5])

    def test_bad_header(self, tmp_path):
        # and bad rows, named by their line
        path = tmp_path / "c.csv"
        for text, message in [
            ("a,b\n1,2\n", "missing column"),
            ("error,cumulative_probability\n0.1,0.5\n\n0.2\n", ":4: expected 2 fields, got 1"),
            ("error,cumulative_probability\n0.1,0.5\nx,1.0\n", ":3: could not convert"),
        ]:
            path.write_text(text)
            with pytest.raises(PatternFormatError, match=message):
                load_cdf_csv(path)


class TestWriteTable:
    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])  # block of 3: 0, 1, B-1, B, B+1, 2B+1
    def test_blocks_match_one_shot_formatting(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(iokit, "_BLOCK_ROWS", 3)
        floats = np.array([-0.0, np.inf, np.nan, 1e-300, -np.inf, 0.1, 5e-324])[:rows]
        ints = np.arange(rows) - 2
        strs = [f"s{i}" for i in range(rows)]
        path = iokit._write_table(tmp_path / "t.csv", ["# head", "s,i,f"], (strs, ints, floats))
        rows_text = "".join(f"{s},{i},{f!r}\n"
                            for s, i, f in zip(strs, ints.tolist(), floats.tolist()))
        assert path.read_bytes() == ("# head\ns,i,f\n" + rows_text).encode()

    def test_unequal_columns_raise_before_writing(self, tmp_path):
        # a short column once dropped the other columns' extra rows without a word
        path = tmp_path / "t.csv"
        with pytest.raises(InvalidArgumentError, match=r"unequal lengths \[2, 3\]"):
            iokit._write_table(path, ["a,b"], ([1.0, 2.0, 3.0], [1, 2]))
        with pytest.raises(InvalidArgumentError, match=r"unequal lengths \[1, 2\]"):
            save_cdf_csv(path, [1.0, 2.0], [0.5])
        assert not path.exists()

    def test_grid_columns_format_each_angle_once(self, small_grid):
        # the per-node strings equal repr of every node's angle, -0.0 included
        grid = types.SimpleNamespace(theta=np.array([-0.0, 0.5, np.pi]), phi=np.array([-0.0, 1.0]),
                                     n_theta=3, n_phi=2)
        for g in (small_grid, grid):
            theta, phi = iokit._grid_columns(g)
            assert theta.tolist() == [repr(x) for x in
                                      np.repeat(np.rad2deg(g.theta), g.n_phi).tolist()]
            assert phi.tolist() == [repr(x) for x in np.tile(np.rad2deg(g.phi), g.n_theta).tolist()]
        assert theta.tolist()[:2] == ["-0.0"] * 2 and phi.tolist()[::2] == ["-0.0"] * 3


class TestMetricsJson:
    def test_sentinels_round_trip(self, tmp_path):
        metrics = {
            "correlation_db": float("-inf"),
            "imbalance_db": 0.8234,
            "nested": {"a": float("inf"), "b": [1.0, float("-inf")]},
            "label": "free space",
        }
        path = save_metrics_json(metrics, tmp_path / "m.json")
        raw = json.loads(path.read_text())
        assert raw["correlation_db"] == "-inf"
        loaded = load_metrics_json(path)
        assert loaded["correlation_db"] == float("-inf")
        assert loaded["nested"]["a"] == float("inf")
        assert loaded["nested"]["b"][1] == float("-inf")
        assert loaded["imbalance_db"] == 0.8234
        assert loaded["label"] == "free space"


class TestSaveResults:
    def test_zero_evm_map_uses_minus_inf_sentinel(self, tmp_path):
        # a state set that reconstructs from its basis bitwise: EVM exactly 0
        grid = build_grid(5, 8)
        rng = np.random.default_rng(8)
        b1 = _random_pattern(grid, rng)
        from beamspace import StatePatternSet
        states = StatePatternSet(
            ratios=QPSK.ratio_set,
            patterns={k: b1 for k in range(4)})
        emap = evm_map(perturbed_basis(states), states)
        assert np.max(emap.evm.values) == 0.0
        written = save_results(tmp_path, evm=emap)
        lines = written["evm_map"].read_text().splitlines()
        assert lines[0] == "theta_deg,phi_deg,evm_linear,evm_db,masked"
        assert len(lines) == 1 + 5 * 8
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[2] == "0.0"
            assert fields[3] == "-inf"
            assert fields[4] == "0"

    def test_masked_rows_flagged_in_csv(self, tmp_path):
        grid = build_grid(5, 8)
        t = grid.theta
        shape = (t * (np.pi - t))[:, None] * np.ones((1, grid.n_phi))
        e = VectorPattern(grid=grid, e_theta=shape.astype(complex),
                          e_phi=np.zeros(grid.shape))
        from beamspace import StatePatternSet, compute_basis, synthesize_pattern
        basis = compute_basis(e, e)
        states = StatePatternSet(
            ratios=QPSK.ratio_set,
            patterns={k: synthesize_pattern(basis, 1.0, r)
                      for k, r in enumerate(QPSK.ratio_set.values)})
        emap = evm_map(basis, states)
        written = save_results(tmp_path, evm=emap)
        lines = written["evm_map"].read_text().splitlines()[1:]
        masked = [line for line in lines if line.endswith(",1")]
        # both pole rows are degenerate for this field
        assert len(masked) == 2 * grid.n_phi

    def test_mc_cdf_files(self, tmp_path):
        grid = build_grid(11, 16)
        states = generate_mirror_pair(default_mirror_profile(), grid, QPSK.ratio_set)
        psi = generate_perturbation(example_perturbation(), grid, QPSK.ratio_set)
        from beamspace import run_monte_carlo
        s_hat = apply_perturbation(states, psi)
        b_hat = perturbed_basis(s_hat)
        mc = run_monte_carlo(s_hat, b_hat, QPSK, n_scenarios=100, seed=1)
        written = save_results(tmp_path, mc=mc)
        for stream in (1, 2):
            errors, probs = load_cdf_csv(written[f"cdf_stream{stream}"])
            want_errors, want_probs = mc.cdf(stream)
            assert errors.tobytes() == want_errors.tobytes()
            assert probs.tobytes() == want_probs.tobytes()
            assert np.all(np.diff(probs) > 0)

    def test_mc_cdf_files_bounded_above_10k_samples(self, tmp_path):
        grid = build_grid(11, 16)
        states = generate_mirror_pair(default_mirror_profile(), grid, QPSK.ratio_set)
        psi = generate_perturbation(example_perturbation(), grid, QPSK.ratio_set)
        from beamspace import run_monte_carlo
        s_hat = apply_perturbation(states, psi)
        args = (s_hat, perturbed_basis(s_hat), QPSK, 3000)
        mc = run_monte_carlo(*args, seed=1)
        written = save_results(tmp_path, mc=mc)
        samples, _, rejected = upfront_errors(*args, seed=1)
        assert mc.n_rejected == rejected
        for stream in (1, 2):
            exact = np.sort(samples[:, stream - 1].ravel())
            n = exact.size
            assert n > 10_000
            errors, probs = load_cdf_csv(written[f"cdf_stream{stream}"])
            i = np.arange(1, 10_001)
            assert np.array_equal(probs, i / 10_000)
            # row i holds the ceil(i n / 10^4)-th smallest error, within alpha
            want = exact[-(-i * n // 10_000) - 1]
            assert np.all(np.abs(errors - want) <= SKETCH_ALPHA * want)
            assert errors[-1] == exact[-1]


class TestRunConfig:
    def _write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_minimal_config_defaults(self, tmp_path):
        cfg = load_config(self._write(tmp_path, {}))
        assert cfg.n_theta == 91
        assert cfg.n_phi == 180
        assert cfg.constellation_order == 4
        assert cfg.antenna_lobes is None
        assert cfg.pattern_files is None
        assert cfg.perturbation_lobes == ()
        assert cfg.rx_polarization == "theta"

    def test_shipped_hand_scenario_matches_code(self):
        cfg = load_config("configs/hand_scenario.json")
        assert cfg.perturbation_lobes == example_perturbation()
        assert cfg.scenarios == 10000
        assert cfg.seed == 42
        assert cfg.separation_deg == (3.0, 5.0)

    def test_profile_lobes_parsed(self, tmp_path):
        payload = {
            "antenna": {"profile": {"lobes": [
                {"theta_deg": 90.0, "phi_deg": 10.0, "width_deg": 40.0,
                 "amplitude": 1.0, "phase_deg": 15.0,
                 "polarization": [[1.0, 0.0], [0.0, 0.5]]},
            ]}},
        }
        cfg = load_config(self._write(tmp_path, payload))
        lobe = cfg.antenna_lobes[0]
        assert isinstance(lobe, GaussianLobe)
        assert lobe.width == pytest.approx(np.deg2rad(40.0))
        assert lobe.polarization == (1.0 + 0.0j, 0.5j)

    def test_pattern_files_must_exist(self, tmp_path):
        payload = {"antenna": {"pattern_files": {
            "+1": "missing.csv", "-1": "missing.csv",
            "+j": "missing.csv", "-j": "missing.csv"}}}
        with pytest.raises(ConfigError, match="missing.csv"):
            load_config(self._write(tmp_path, payload))

    def test_pattern_files_loadable_when_present(self, tmp_path):
        grid = build_grid(5, 8)
        states = generate_mirror_pair(default_mirror_profile(), grid, QPSK.ratio_set)
        files = {}
        from beamspace.modulation import ratio_label
        for k in range(4):
            label = ratio_label(k, 4)
            name = f"state_{k}.csv"
            save_pattern_csv(states.state(k), tmp_path / name, state=label)
            files[label] = name
        cfg = load_config(self._write(tmp_path, {
            "antenna": {"pattern_files": files}}))
        assert set(cfg.pattern_files) == {0, 1, 2, 3}
        loaded = load_pattern_csv(cfg.pattern_files[1])
        assert np.array_equal(loaded.e_theta, states.state(1).e_theta)

    def test_pattern_files_must_cover_states(self, tmp_path):
        grid = build_grid(5, 8)
        states = generate_mirror_pair(default_mirror_profile(), grid, QPSK.ratio_set)
        save_pattern_csv(states.state(0), tmp_path / "p.csv")
        payload = {"antenna": {"pattern_files": {"+1": "p.csv"}}}
        with pytest.raises(ConfigError, match="cover"):
            load_config(self._write(tmp_path, payload))

    def test_perturbation_lobes_parsed_with_state_labels(self, tmp_path):
        payload = {"perturbation": {"lobes": [
            {"theta_deg": 70.0, "phi_deg": 345.0, "width_deg": 60.0,
             "amplitude": 0.3, "phase_deg": 0.0, "states": ["+j", "-j"],
             "polarization": "theta"},
        ]}}
        cfg = load_config(self._write(tmp_path, payload))
        lobe = cfg.perturbation_lobes[0]
        assert isinstance(lobe, PerturbationLobe)
        assert lobe.states == (1, 3)
        assert lobe.polarization == "theta"

    def test_invalid_ranges_rejected(self, tmp_path):
        for payload, match in [
            ({"grid": {"n_theta": 2}}, "coarse"),
            ({"monte_carlo": {"scenarios": 0}}, "scenarios"),
            ({"monte_carlo": {"separation_deg": [5.0, 3.0]}}, "separation"),
            ({"monte_carlo": {"noise_variance": -1.0}}, "noise"),
            ({"receive": {"polarization": "circular"}}, "polarization"),
            ({"constellation": {"order": 1}}, "order"),
        ]:
            with pytest.raises(ConfigError, match=match):
                load_config(self._write(tmp_path, payload))

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(self._write(tmp_path, {"gird": {}}))
        with pytest.raises(ConfigError, match="unknown"):
            load_config(self._write(tmp_path, {"grid": {"n_thetas": 10}}))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        grid = build_grid(5, 8)
        states = generate_mirror_pair(default_mirror_profile(), grid, QPSK.ratio_set)
        from beamspace.modulation import ratio_label
        files = {}
        for k in range(4):
            label = ratio_label(k, 4)
            save_pattern_csv(states.state(k), sub / f"s{k}.csv")
            files[label] = f"s{k}.csv"
        path = sub / "config.json"
        path.write_text(json.dumps({"antenna": {"pattern_files": files},
                                    "output": {"dir": "results"}}))
        cfg = load_config(path)
        assert cfg.pattern_files[0].parent == sub.resolve()
        assert cfg.out_dir == sub / "results"
