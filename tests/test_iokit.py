import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from beamspace import (
    GaussianLobe,
    InvalidArgumentError,
    PerturbationLobe,
    SymbolPairs,
    VectorPattern,
    build_grid,
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
from helpers import load_metrics_json, package_env, pattern_cache_entry, upfront_errors

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
        path = save_pattern_csv(pattern, tmp_path / "p.csv", state="+1")
        loaded = load_pattern_csv(path)
        assert loaded.e_theta.tobytes() == pattern.e_theta.tobytes()
        assert loaded.e_phi.tobytes() == pattern.e_phi.tobytes()
        assert loaded.grid.shape == grid.shape
        assert path.read_text().splitlines()[:5] == [
            "# n_theta: 3", "# n_phi: 4", "# angle_unit: deg", "# state: +1",
            "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi"]

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
        with pytest.raises(InvalidArgumentError, match="im_ephi"):
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
            with pytest.raises(InvalidArgumentError, match=message):
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
        with pytest.raises(InvalidArgumentError, match="NaN"):
            load_pattern_csv(path)

    def test_shuffled_rows_rejected(self, tmp_path):
        grid = build_grid(3, 4)
        pattern = _random_pattern(grid, np.random.default_rng(4))
        path = save_pattern_csv(pattern, tmp_path / "p.csv")
        lines = path.read_text().splitlines()
        header, data = lines[:4], lines[4:]
        data[0], data[5] = data[5], data[0]
        path.write_text("\n".join(header + data) + "\n")
        with pytest.raises(InvalidArgumentError,
                           match="p.csv: header declares n_theta=3, data has 12"):
            load_pattern_csv(path)

    def test_declared_shape_must_match(self, tmp_path):
        grid = build_grid(3, 4)
        pattern = _random_pattern(grid, np.random.default_rng(5))
        saved = save_pattern_csv(pattern, tmp_path / "p.csv").read_text()
        # the declaration is checked also after a blank line
        for declared in ("# n_theta: 5", "\n# n_theta: 9"):
            path = tmp_path / "p.csv"
            path.write_text(saved.replace("# n_theta: 3", declared))
            with pytest.raises(InvalidArgumentError, match="n_theta"):
                load_pattern_csv(path)

    @pytest.mark.parametrize("text, message", [
        # every column present, two of them swapped
        ("theta_deg,phi_deg,re_etheta,im_etheta,im_ephi,re_ephi\n0,0,1,0,0,0\n",
         "columns must be exactly theta_deg,phi_deg,"),
        ("# n_theta: 3.5\n" + ",".join(iokit.PATTERN_COLUMNS) + "\n0,0,1,0,0,0\n",
         "p.csv: bad header metadata: invalid literal for int"),
        ("# n_theta: 3\n" + ",".join(iokit.PATTERN_COLUMNS) + "\n", "p.csv: no data rows"),
        # one polar angle over four azimuths
        (",".join(iokit.PATTERN_COLUMNS) + "\n"
         + "".join(f"90,{phi},1,0,0,0\n" for phi in (0, 90, 180, 270)),
         "single polar angle; full grid required"),
        # two polar rows, pole to pole: below the grid's minimum of three
        (",".join(iokit.PATTERN_COLUMNS) + "\n"
         + "".join(f"{t},{phi},1,0,0,0\n" for t in (0, 180) for phi in (0, 90, 180, 270)),
         "p.csv: n_theta must be >= 3, got 2"),
        # fields the table reader refuses though float() reads them (the third once stripped
        # of its quote), and a quoted comma or comment sign, one field as the reader parses
        # it, each named by its file line
        *(pytest.param(",".join(iokit.PATTERN_COLUMNS) + "\n"
                       + "".join(f"{t},{phi},{field if (t, phi) == (180, 90) else 1},0,0,0\n"
                                 for t in (0, 90, 180) for phi in (0, 90, 180, 270)),
                       f"p.csv:11: could not convert string '{parsed}' to float64$",
                       id=f"field-{field!a}")
          for field, parsed in (("1_0", "1_0"), ("\u0661", "\u0661"), ('1"', '1"'),
                                ('"1,5"', "1,5"), ('"1#5"', "1#5"))),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError, match=message):
            load_pattern_csv(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # a leading UTF-8 BOM, as spreadsheet exports write one: the copy loads bitwise as
        # the original, and a bad field in it is named by the same file line
        pattern = _random_pattern(build_grid(3, 4), np.random.default_rng(9))
        saved = save_pattern_csv(pattern, tmp_path / "p.csv").read_bytes()
        cdf = save_cdf_csv(tmp_path / "c.csv", [-0.0, 5e-324, 0.25], [0.5, 0.75, 1.0])
        (tmp_path / "bom").mkdir()
        bom_pattern, bom_cdf = tmp_path / "bom" / "p.csv", tmp_path / "bom" / "c.csv"
        bom_pattern.write_bytes(b"\xef\xbb\xbf" + saved)
        bom_cdf.write_bytes(b"\xef\xbb\xbf" + cdf.read_bytes())
        loaded = load_pattern_csv(bom_pattern)
        assert loaded.e_theta.tobytes() == pattern.e_theta.tobytes()
        assert loaded.e_phi.tobytes() == pattern.e_phi.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(load_cdf_csv(bom_cdf),
                                                              load_cdf_csv(cdf)))
        lines = saved.splitlines(keepends=True)
        lines[7] = b"0.0,90.0,x,0.0,0.0,0.0\n"
        for prefix, path in ((b"", tmp_path / "p.csv"), (b"\xef\xbb\xbf", bom_pattern)):
            path.write_bytes(prefix + b"".join(lines))
            with pytest.raises(InvalidArgumentError,
                               match=r"p.csv:8: could not convert string 'x'"):
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

    def test_indented_comment_among_rows_is_a_comment(self, tmp_path):
        # a line whose first non-blank character is "#" is a comment among the data rows,
        # as it is above the column row; a bad field below it is named by its own line
        pattern = _random_pattern(build_grid(3, 4), np.random.default_rng(15))
        plain = save_pattern_csv(pattern, tmp_path / "p.csv")
        lines = plain.read_text().splitlines(keepends=True)
        lines[9:9] = ["  # note\n"]  # line 10, after the fifth data row
        lines[13:13] = ["\t #\n"]
        path = tmp_path / "q.csv"
        path.write_text("".join(lines))
        loaded, expected = load_pattern_csv(path), load_pattern_csv(plain)
        assert loaded.e_theta.tobytes() == expected.e_theta.tobytes()
        assert loaded.e_phi.tobytes() == expected.e_phi.tobytes()
        fields = lines[10].split(",")
        lines[10] = ",".join(fields[:2] + ["x"] + fields[3:])
        path.write_text("".join(lines))
        with pytest.raises(InvalidArgumentError, match="q.csv:11: could not convert string 'x'"):
            load_pattern_csv(path)
        cdf = tmp_path / "c.csv"
        cdf.write_text("error,cumulative_probability\n0.25,0.5\n   # note\n0.5,1.0\n")
        assert [a.tolist() for a in load_cdf_csv(cdf)] == [[0.25, 0.5], [0.5, 1.0]]

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
            with pytest.raises(InvalidArgumentError, match="dir.csv: cannot be read"):
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
        with pytest.raises(InvalidArgumentError, match="finite"):
            load_pattern_csv(path)

    def test_invalid_angle_unit_rejected(self, tmp_path):
        grid = build_grid(3, 4)
        pattern = _random_pattern(grid, np.random.default_rng(9))
        path = save_pattern_csv(pattern, tmp_path / "p.csv")
        path.write_text(path.read_text().replace("angle_unit: deg",
                                                 "angle_unit: grad"))
        with pytest.raises(InvalidArgumentError) as caught:
            load_pattern_csv(path)
        assert str(caught.value) == f"{path}: angle unit must be 'deg' or 'rad', got 'grad'"


class TestPatternCache:
    """Each version of a pattern CSV is parsed once; its fields sit in ``.beamspace-cache/``."""

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
        assert self._entries(tmp_path) == [pattern_cache_entry(path)]
        entry = np.load(tmp_path / ".beamspace-cache" / pattern_cache_entry(path))
        assert entry.dtype == complex and entry.shape == (2, 3, 4)
        assert entry.tobytes() == np.stack([pattern.e_theta, pattern.e_phi]).tobytes()
        assert cold.grid is warm.grid  # one grid per shape, whichever file it comes from
        for loaded in (cold, warm):
            assert loaded.e_theta.tobytes() == pattern.e_theta.tobytes()
            assert loaded.e_phi.tobytes() == pattern.e_phi.tobytes()
            assert loaded.grid.shape == pattern.grid.shape

    def test_cold_load_scans_each_header_once(self, tmp_path, monkeypatch):
        _, path = self._saved(tmp_path)
        cdf = save_cdf_csv(tmp_path / "c.csv", [0.0, 0.5], [0.5, 1.0])
        scans = []
        scan = iokit._scan_header
        monkeypatch.setattr(iokit, "_scan_header", lambda fh: scans.append(1) or scan(fh))
        load_pattern_csv(path)
        assert len(scans) == 1
        load_cdf_csv(cdf)
        assert len(scans) == 2

    def test_warm_load_holds_the_bytes_and_rows_once(self, tmp_path):
        # the traced peak of a cached 91 x 180 load: its (2, 91, 180) complex fields, one
        # 64 KiB block of the key pass and small objects; neither the file's bytes nor its
        # (16,380, 6) rows, and no second copy of either component
        pattern = _random_pattern(build_grid(91, 180), np.random.default_rng(11))
        path = save_pattern_csv(pattern, tmp_path / "p.csv")
        load_pattern_csv(path)
        tracemalloc.start()
        try:
            load_pattern_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 91 * 180 * 16 + 64 * 1024 + 16 * 1024

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

    @pytest.mark.parametrize("length", ["any", "whole blocks"])
    def test_rewrite_in_the_last_block_is_parsed(self, tmp_path, monkeypatch, length):
        # a same-size, same-mtime edit of the last data row, in the last 64 KiB block the
        # key hashes, on a 91 x 180 file and on one padded to exactly 24 blocks
        pattern = _random_pattern(build_grid(91, 180), np.random.default_rng(14))
        path = save_pattern_csv(pattern, tmp_path / "p.csv")
        if length == "whole blocks":
            pad = -path.stat().st_size % (64 * 1024)
            path.write_text("#" + "-" * (pad - 2) + "\n" + path.read_text())
            assert path.stat().st_size == 24 * 64 * 1024
        load_pattern_csv(path)
        stat = path.stat()
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[-1].split(",")  # the last data row: theta 180, phi 358
        digit = next(i for i, c in enumerate(fields[2]) if c in "123456789")
        fields[2] = fields[2][:digit] + ("1" if fields[2][digit] != "1" else "2") \
            + fields[2][digit + 1:]
        lines[-1] = ",".join(fields)
        path.write_text("".join(lines))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        parses = self._count_parses(monkeypatch)
        assert load_pattern_csv(path).e_theta[-1, -1].real == float(fields[2])
        assert len(parses) == 1
        assert self._entries(tmp_path) == [pattern_cache_entry(path)]

    @pytest.mark.parametrize("corrupt", ["empty", "truncated", "five columns", "float32",
                                         "one-dimensional", "object", "one component",
                                         "rows table", "sizes swapped"])
    def test_bad_entry_is_parsed_and_rewritten(self, tmp_path, monkeypatch, corrupt):
        # an entry must be a complex (2, n_theta, n_phi) array of the sizes the header
        # declares (3 x 4 here); any other entry is a miss
        pattern, path = self._saved(tmp_path)
        load_pattern_csv(path)
        [name] = self._entries(tmp_path)
        entry = tmp_path / ".beamspace-cache" / name
        good = entry.read_bytes()
        fields = np.load(entry)
        if corrupt in ("empty", "truncated"):
            entry.write_bytes(good[:len(good) // 2] if corrupt == "truncated" else b"")
        else:
            bad = {"five columns": fields[:, :, [0, 1, 2, 3, 0]],
                   "float32": fields.real.astype(np.float32),
                   "one-dimensional": fields.ravel(), "object": fields.astype(object),
                   "one component": fields[:1],
                   "rows table": np.zeros((12, 6)),  # the form of an entry of older versions
                   "sizes swapped": fields.transpose(0, 2, 1)}[corrupt]
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
        with pytest.raises(InvalidArgumentError, match=":8: could not convert"):
            load_pattern_csv(path)
        assert self._entries(tmp_path) == []
        # a cached earlier version does not hide the error either
        path.write_text(good)
        load_pattern_csv(path)
        cached = self._entries(tmp_path)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidArgumentError, match=":8: could not convert"):
            load_pattern_csv(path)
        assert self._entries(tmp_path) == cached

    @pytest.mark.parametrize("shared", ["another user's", "group-writable", "world-writable",
                                        "a link"])
    def test_cache_others_could_write_is_not_used(self, tmp_path, monkeypatch, shared):
        pattern, path = self._saved(tmp_path)
        load_pattern_csv(path)
        cache = tmp_path / ".beamspace-cache"
        [name] = self._entries(tmp_path)
        np.save(cache / name, np.load(cache / name) + 1.0)
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
        assert self._entries(tmp_path) == sorted([pattern_cache_entry(path),
                                                  "p.csv.csv.0123456789abcdef.npy"])

    def test_one_entry_per_file(self, tmp_path):
        _, path = self._saved(tmp_path, seed=11)
        load_pattern_csv(path)
        # a neighbour whose name starts with this one's keeps its own entry
        neighbour = save_pattern_csv(_random_pattern(build_grid(3, 4), np.random.default_rng(12)),
                                     tmp_path / "p.csv.csv")
        load_pattern_csv(neighbour)
        newer, _ = self._saved(tmp_path, seed=13)
        assert load_pattern_csv(path).e_phi.tobytes() == newer.e_phi.tobytes()
        assert self._entries(tmp_path) == sorted(map(pattern_cache_entry, (path, neighbour)))

    def test_concurrent_loads(self, tmp_path):
        # more readers than cores on two files of one directory, switching often
        patterns = [_random_pattern(build_grid(3, 4), np.random.default_rng(20 + i))
                    for i in range(2)]
        paths = [save_pattern_csv(p, tmp_path / f"s{i}.csv") for i, p in enumerate(patterns)]
        wrong, raised = [], []

        def reader(i):
            try:
                for _ in range(25):
                    loaded = load_pattern_csv(paths[i % 2])
                    if loaded.e_phi.tobytes() != patterns[i % 2].e_phi.tobytes():
                        wrong.append(i)
            except Exception as exc:  # a reader that dies fails the test, not only warns
                raised.append((i, exc))

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
        assert raised == []
        assert wrong == []
        assert self._entries(tmp_path) == sorted(map(pattern_cache_entry, paths))

    @pytest.mark.parametrize("error", [SystemError, RecursionError, KeyError])
    def test_any_failed_entry_read_is_a_miss(self, tmp_path, monkeypatch, error):
        # whatever the entry read raises, the file is parsed again and the entry rewritten
        pattern, path = self._saved(tmp_path)
        load_pattern_csv(path)
        parses = self._count_parses(monkeypatch)

        def fails(*args, **kwargs):
            raise error("entry read failed")
        with monkeypatch.context() as patched:
            patched.setattr(np.lib.format, "read_array", fails)
            loaded = load_pattern_csv(path)
        assert len(parses) == 1
        assert loaded.e_theta.tobytes() == pattern.e_theta.tobytes()
        assert load_pattern_csv(path).e_phi.tobytes() == pattern.e_phi.tobytes()
        assert len(parses) == 1

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
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=package_env(),
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
        q, t = [1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0], np.logspace(-6, 0, 7)[:, None]
        assert np.percentile(re_err, q).tobytes() == np.percentile(errors, q).tobytes()
        assert np.mean(re_err > t, axis=1).tobytes() == np.mean(errors > t, axis=1).tobytes()

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
            with pytest.raises(InvalidArgumentError, match=message):
                load_cdf_csv(path)


# Bit patterns of the floats a run is drawn from: both zeros, NaNs of three payloads
# or signs, both infinities, a subnormal, the largest double and two ordinary values.
_RUN_BITS = np.concatenate([
    np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 0.1, 3.0])
    .view(np.int64), np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64)])


def _with_float32(floats, *others):
    with np.errstate(over="ignore"):  # the largest double is inf in float32
        return [floats, floats.astype(np.float32), *others]


@st.composite
def _tables(draw):
    """Columns of one length, chosen from: runs of the floats above, the same in
    float32, the runs' floats permuted (repeats apart), arbitrary doubles, int64s of a
    wide and of a small range and short strings; and a block size."""
    runs = draw(st.lists(st.tuples(st.sampled_from(range(_RUN_BITS.size)), st.integers(1, 7)),
                         max_size=8))
    floats = _RUN_BITS[np.repeat([i for i, _ in runs], [k for _, k in runs]).astype(int)]
    n = floats.size
    pool = _with_float32(
        floats.view(np.float64),
        floats[draw(st.permutations(range(n)))].view(np.float64),
        np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)), dtype=float),
        np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
                 dtype=np.int64),
        np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64),
        draw(st.lists(st.text("ab-x ", max_size=3), min_size=n, max_size=n)))
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=6))
    return [pool[i] for i in picks], draw(st.sampled_from([1, 3, 512]))


# every special run in turn, each crossing an edge of 3-row blocks
_SPECIAL_RUNS = _RUN_BITS[np.repeat([0, 1, 0, 2, 9, 10, 2, 3, 4, 3], 4)].view(np.float64)
# 11 distinct bit patterns in 22 rows, each pattern's two rows apart: formatted once per
# pattern; with one more pattern in place of a repeat, row by row
_HALF_DISTINCT = _RUN_BITS[np.tile(np.arange(11), 2)].view(np.float64)
_OVER_HALF = np.concatenate([_HALF_DISTINCT[:-1], [2.5]])


def _per_row_table(header, columns) -> bytes:
    """The table writer's contract, one value at a time: floats by repr, strings as
    they are, other numbers by str."""
    def cell(x):
        return x if isinstance(x, str) else repr(x) if isinstance(x, float) else str(x)

    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return "".join([f"{line}\n" for line in header]
                   + [",".join(map(cell, row)) + "\n" for row in rows]).encode()


class TestWriteTable:
    @given(_tables())
    @example((_with_float32(_SPECIAL_RUNS, [f"s{i}" for i in range(40)], np.arange(40)), 3))
    @example(([np.zeros(0), np.zeros(0, dtype=int)], 3))  # an empty table
    @example(([["s"], np.array([-0.0]), [7], np.array([np.nan], np.float32)], 3))  # one row
    @example((_with_float32(_HALF_DISTINCT, np.arange(22) % 11), 3))
    @example((_with_float32(_OVER_HALF, np.append(np.arange(21) % 11, 11)), 3))
    def test_matches_a_per_row_writer(self, tmp_path_factory, table):
        columns, block = table
        header = ["# head", ",".join(f"c{i}" for i in range(len(columns)))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(iokit, "_BLOCK_ROWS", block)
            path = iokit._write_table(tmp_path_factory.mktemp("table") / "t.csv", header,
                                      columns)
        assert path.read_bytes() == _per_row_table(header, columns)

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


class TestConstellationCsv:
    @pytest.mark.parametrize("m", [4, 24])  # 32 rows, one block; 1,152 rows, three blocks
    def test_every_cell_is_its_value(self, tmp_path, m):
        # ideal parts of both zero signs, actual points that are and are not the ideal ones
        rng = np.random.default_rng(m)
        points = np.exp(2j * np.pi * rng.random(m))
        points[:2] = complex(1.0, 0.0), complex(-0.0, -0.0)
        k1, k2 = np.divmod(np.arange(m * m), m)
        ideal = np.stack([points[k1], points[k2]])
        sides = {side: SymbolPairs(k1, k2, ideal, np.where(
            rng.random(m * m) < 0.3, ideal, ideal + rng.standard_normal((2, m * m)) * 1e-3))
            for side in ("transmit", "receive")}
        path = iokit.save_constellation_csv(tmp_path / "c.csv", *sides.values())
        header = ("side,k1,k2,x1_ideal_re,x1_ideal_im,x1_actual_re,x1_actual_im,"
                  "x2_ideal_re,x2_ideal_im,x2_actual_re,x2_actual_im\n")
        rows = [",".join([side, str(i), str(j), *(repr(part) for z in zs
                                                   for part in (z.real, z.imag))]) + "\n"
                for side, pairs in sides.items()
                for i, j, *zs in zip(k1.tolist(), k2.tolist(), pairs.ideal[0].tolist(),
                                     pairs.actual[0].tolist(), pairs.ideal[1].tolist(),
                                     pairs.actual[1].tolist())]
        assert path.read_text() == header + "".join(rows)


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

    def test_booleans_written_as_json_booleans(self, tmp_path):
        metrics = {"a": True, "b": np.bool_(False), "c": [np.True_, 1, np.int64(0)]}
        text = save_metrics_json(metrics, tmp_path / "m.json").read_text()
        assert '"a": true' in text and '"b": false' in text
        assert json.loads(text) == {"a": True, "b": False, "c": [True, 1, 0]}
        assert [type(v) for v in json.loads(text)["c"]] == [bool, int, int]


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
        emap = evm_map(states)
        assert np.max(emap.values) == 0.0
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
        from beamspace import StatePatternSet, perturbed_basis
        # every state is e: its basis is (e, 0), and each state is b1 + r * b2
        basis = perturbed_basis(StatePatternSet(ratios=QPSK.ratio_set,
                                                patterns=dict.fromkeys(range(4), e)))
        states = StatePatternSet(
            ratios=QPSK.ratio_set,
            patterns={k: VectorPattern(grid=grid, e_theta=basis.b1.e_theta + r * basis.b2.e_theta,
                                       e_phi=basis.b1.e_phi + r * basis.b2.e_phi)
                      for k, r in enumerate(QPSK.ratio_set.values)})
        emap = evm_map(states)
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

    def test_cdf_probabilities_formatted_once(self, tmp_path):
        # both streams of a sweep pool M errors per kept channel, so their probability
        # columns are equal; streams of unequal counts are not.  Either way each file
        # holds a per-row repr writer's bytes
        from beamspace import run_monte_carlo
        from beamspace.link import _EXCEEDANCE_THRESHOLDS, MonteCarloResult, Sketch
        grid = build_grid(11, 16)
        states = generate_mirror_pair(default_mirror_profile(), grid, QPSK.ratio_set)
        s_hat = apply_perturbation(states, generate_perturbation(example_perturbation(), grid,
                                                                 QPSK.ratio_set))
        swept = run_monte_carlo(s_hat, perturbed_basis(s_hat), QPSK, n_scenarios=3000, seed=1)

        def sketch(values, thresholds=_EXCEEDANCE_THRESHOLDS):
            s = Sketch.empty(thresholds)
            s.add(np.asarray(values, dtype=float))
            return s

        rng = np.random.default_rng(2)
        uneven = MonteCarloResult(n_scenarios=9, n_rejected=0, seed=0, separation_deg=(3.0, 5.0),
                                  errors=((sketch(rng.random(700)),), (sketch(rng.random(1100)),)),
                                  conditions=sketch([2.0], ()))
        for mc in (swept, uneven):
            written = save_results(tmp_path, mc=mc)
            for stream in (1, 2):
                errors, probs = mc.cdf(stream)
                want = "".join(f"{e!r},{p!r}\n" for e, p in zip(errors.tolist(), probs.tolist()))
                assert written[f"cdf_stream{stream}"].read_text() == (
                    "error,cumulative_probability\n" + want)

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
        with pytest.raises(InvalidArgumentError, match="missing.csv"):
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
        with pytest.raises(InvalidArgumentError, match="cover"):
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
            with pytest.raises(InvalidArgumentError, match=match):
                load_config(self._write(tmp_path, payload))

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="unknown"):
            load_config(self._write(tmp_path, {"gird": {}}))
        with pytest.raises(InvalidArgumentError, match="unknown"):
            load_config(self._write(tmp_path, {"grid": {"n_thetas": 10}}))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidArgumentError, match="JSON"):
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
