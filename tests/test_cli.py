import contextlib
import dataclasses
import gc
import io
import json
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamspace.cli as cli
import beamspace.link as link
from beamspace import (
    BasisPair,
    BeamspaceError,
    DegenerateError,
    EvmMap,
    InvalidArgumentError,
    PskConstellation,
    RunConfig,
    VectorPattern,
    basis_correlation_db,
    build_channel,
    build_grid,
    constellation_at_angle,
    default_mirror_profile,
    generate_mirror_pair,
    load_cdf_csv,
    load_config,
    load_pattern_csv,
    ratio_label,
    received_constellation,
    save_cdf_csv,
)
from beamspace.cli import main
from beamspace.errors import MAX_STATE_SAMPLES
from helpers import load_metrics_json, package_env, pooled, sketch_rows

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture()
def freespace_config(tmp_path):
    return _write_config(tmp_path, {
        "grid": {"n_theta": 91, "n_phi": 180},
        "perturbation": {"lobes": []},
        "monte_carlo": {"scenarios": 300, "seed": 7},
        "output": {"dir": "out"},
    })


@pytest.fixture()
def hand_config(tmp_path):
    payload = json.loads((CONFIGS / "hand_scenario.json").read_text())
    payload["monte_carlo"]["scenarios"] = 2000
    payload["output"] = {"dir": "out"}
    return _write_config(tmp_path, payload, name="hand.json")


class TestMetricsCommand:
    def test_identity_perturbation_metrics(self, freespace_config, tmp_path, capsys):
        assert main(["metrics", "--config", str(freespace_config)]) == 0
        metrics = load_metrics_json(tmp_path / "out" / "metrics.json")
        assert metrics["basis_correlation_db"] == float("-inf")
        assert metrics["power_imbalance_db"] == pytest.approx(
            metrics["free_space"]["power_imbalance_db"])
        assert metrics["power_imbalance_db"] == pytest.approx(0.8, abs=0.2)
        for ratio in metrics["state_power_ratio"].values():
            assert ratio == pytest.approx(1.0, rel=1e-12)
        out = capsys.readouterr().out
        assert "-inf" in out

    def test_hand_scenario_schema(self, hand_config, tmp_path):
        assert main(["metrics", "--config", str(hand_config)]) == 0
        metrics = load_metrics_json(tmp_path / "out" / "metrics.json")
        for key in ("basis_correlation_db", "power_imbalance_db", "free_space",
                    "state_power_ratio", "average_evm_db", "evm_masked_fraction",
                    "grid", "constellation_order"):
            assert key in metrics
        assert np.isfinite(metrics["basis_correlation_db"])
        assert np.isfinite(metrics["power_imbalance_db"])
        assert set(metrics["state_power_ratio"]) == {"+1", "-1", "+j", "-j"}
        for v in metrics["average_evm_db"].values():
            assert np.isfinite(v)
        assert -60.0 < metrics["average_evm_db"]["db_of_rms"] < 0.0

    def test_missing_pattern_file_exit_2(self, tmp_path, capsys):
        config = _write_config(tmp_path, {
            "antenna": {"pattern_files": {
                "+1": "absent_plus.csv", "-1": "a.csv", "+j": "a.csv", "-j": "a.csv"}},
        })
        assert main(["metrics", "--config", str(config)]) == 2
        assert "absent_plus.csv" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["metrics", "--config", str(tmp_path / "none.json")]) == 2
        assert "none.json" in capsys.readouterr().err


class TestEvmMapCommand:
    def test_identity_zero_sentinel_and_row_count(self, freespace_config, tmp_path, capsys):
        assert main(["evm-map", "--config", str(freespace_config)]) == 0
        out = capsys.readouterr().out
        assert "average EVM: -inf dB (rms)" in out
        lines = (tmp_path / "out" / "evm_map.csv").read_text().splitlines()
        assert len(lines) == 1 + 91 * 180

    def test_hand_scenario_average_in_band(self, hand_config, tmp_path, capsys):
        assert main(["evm-map", "--config", str(hand_config)]) == 0
        out = capsys.readouterr().out
        value = float(out.split("average EVM: ")[1].split(" dB")[0])
        assert -60.0 < value < 0.0
        assert "masked fraction: 0.0" in out


def _transmit_rows(path) -> np.ndarray:
    """The transmit rows of a constellation.csv, every column after ``side``."""
    lines = Path(path).read_text().splitlines()[1:]
    return np.array([line.split(",")[1:] for line in lines if line.startswith("transmit,")],
                    dtype=float)


class TestConstellationCommand:
    def test_free_space_actual_equals_ideal(self, freespace_config, tmp_path):
        assert main(["constellation", "--config", str(freespace_config)]) == 0
        lines = (tmp_path / "out" / "constellation.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * 16
        ix = {name: i for i, name in enumerate(header)}
        for row in rows:
            for stream in ("x1", "x2"):
                ideal = complex(float(row[ix[f"{stream}_ideal_re"]]),
                                float(row[ix[f"{stream}_ideal_im"]]))
                actual = complex(float(row[ix[f"{stream}_actual_re"]]),
                                 float(row[ix[f"{stream}_actual_im"]]))
                assert abs(actual - ideal) <= 1e-9

    def test_perturbed_transmit_side_dichotomy(self, hand_config, tmp_path):
        assert main(["constellation", "--config", str(hand_config)]) == 0
        lines = (tmp_path / "out" / "constellation.csv").read_text().splitlines()
        header = lines[0].split(",")
        ix = {name: i for i, name in enumerate(header)}
        displaced = []
        for line in lines[1:]:
            row = line.split(",")
            if row[ix["side"]] != "transmit":
                continue
            k1, k2 = int(row[ix["k1"]]), int(row[ix["k2"]])
            err = abs(complex(float(row[ix["x1_actual_re"]]),
                              float(row[ix["x1_actual_im"]]))
                      - complex(float(row[ix["x1_ideal_re"]]),
                                float(row[ix["x1_ideal_im"]])))
            if (k2 - k1) % 4 in (0, 2):
                assert err <= 1e-10
            else:
                displaced.append(err)
        assert len(displaced) == 8
        assert max(displaced) > 1e-3

    def test_unequal_table_columns_exit_2(self, hand_config, tmp_path, monkeypatch, capsys):
        # a transmit k1 column one pair short leaves it and the side column one row
        # short of the others
        at_angle = link.constellation_at_angle

        def short(*args, **kwargs):
            pairs = at_angle(*args, **kwargs)
            return dataclasses.replace(pairs, k1=pairs.k1[:-1])
        monkeypatch.setattr(link, "constellation_at_angle", short)
        assert main(["constellation", "--config", str(hand_config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unequal lengths [31, 32]" in err
        assert "Traceback" not in err and not (tmp_path / "out" / "constellation.csv").exists()

    def test_rx_override_changes_angle(self, hand_config, tmp_path):
        # the transmit rows are the decode at the overridden angle, not at the config's
        assert main(["constellation", "--config", str(hand_config)]) == 0
        assert main(["constellation", "--config", str(hand_config),
                     "--rx1-theta", "100", "--rx1-phi", "40",
                     "--out", str(tmp_path / "out2")]) == 0
        default, moved = (_transmit_rows(tmp_path / out / "constellation.csv")
                          for out in ("out", "out2"))
        asm = cli._assemble(load_config(hand_config))
        pairs = link.constellation_at_angle(asm.perturbed_states, asm.constellation,
                                            np.deg2rad(100.0), np.deg2rad(40.0))
        xy = np.stack([pairs.ideal[0], pairs.actual[0], pairs.ideal[1], pairs.actual[1]], -1)
        assert np.array_equal(moved, np.column_stack([pairs.k1, pairs.k2, xy.view(float)]))
        assert not np.array_equal(moved, default)


class TestMonteCarloCommand:
    def test_reproducible_bytes_and_report(self, hand_config, tmp_path):
        assert main(["monte-carlo", "--config", str(hand_config),
                     "--scenarios", "1500", "--out", str(tmp_path / "a")]) == 0
        assert main(["monte-carlo", "--config", str(hand_config),
                     "--scenarios", "1500", "--out", str(tmp_path / "b")]) == 0
        for name in ("cdf_stream1.csv", "cdf_stream2.csv", "sketch.npz"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        report = load_metrics_json(tmp_path / "a" / "mc_report.json")
        assert report["scenarios"] == 1500
        assert report["rejected"] >= 0
        assert report["seconds"] > 0
        assert report["sketch_alpha"] == link.SKETCH_ALPHA
        assert set(report["stream1"]["quantiles"]) == {
            "1.0", "5.0", "25.0", "50.0", "75.0", "95.0", "99.0"}
        # each stream's rows reload from sketch.npz and reproduce the report
        with np.load(tmp_path / "a" / "sketch.npz") as npz:
            rows = sketch_rows(npz, "error_")
        for s, stream in enumerate(("stream1", "stream2")):
            quantiles = {str(q): v for q, v in pooled(rows[s]).summary().quantiles.items()}
            assert quantiles == report[stream]["quantiles"]

    def test_seed_override(self, hand_config, tmp_path):
        assert main(["monte-carlo", "--config", str(hand_config),
                     "--scenarios", "500", "--seed", "1",
                     "--out", str(tmp_path / "s1")]) == 0
        assert main(["monte-carlo", "--config", str(hand_config),
                     "--scenarios", "500", "--seed", "2",
                     "--out", str(tmp_path / "s2")]) == 0
        a = (tmp_path / "s1" / "cdf_stream1.csv").read_bytes()
        b = (tmp_path / "s2" / "cdf_stream1.csv").read_bytes()
        assert a != b

    def test_thread_override_identical_output(self, hand_config, tmp_path):
        assert main(["monte-carlo", "--config", str(hand_config),
                     "--scenarios", "1000", "--threads", "4",
                     "--out", str(tmp_path / "t4")]) == 0
        assert main(["monte-carlo", "--config", str(hand_config),
                     "--scenarios", "1000", "--threads", "1",
                     "--out", str(tmp_path / "t1")]) == 0
        assert ((tmp_path / "t4" / "cdf_stream2.csv").read_bytes()
                == (tmp_path / "t1" / "cdf_stream2.csv").read_bytes())

    def test_all_rejected_exit_1(self, tmp_path, capsys):
        config = _write_config(tmp_path, {
            "grid": {"n_theta": 11, "n_phi": 16},
            "monte_carlo": {"scenarios": 20, "seed": 1,
                            "condition_cap": 1.000001},
        })
        assert main(["monte-carlo", "--config", str(config)]) == 1
        assert "rejected" in capsys.readouterr().err

    def test_rejection_tally_decides_exit_1(self, hand_config, tmp_path, capsys):
        # no error samples are kept, so the rejection tally, not an empty stream,
        # decides exit 1; a full chunk and a partial one
        capped = _write_config(tmp_path, {"monte_carlo": {"condition_cap": 1.000001}})
        assert main(["monte-carlo", "--config", str(capped), "--scenarios", "5001",
                     "--out", str(tmp_path / "capped")]) == 1
        assert "rejected" in capsys.readouterr().err
        assert main(["monte-carlo", "--config", str(hand_config), "--scenarios", "5001",
                     "--out", str(tmp_path / "out")]) == 0
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == ["cdf_stream1.csv", "cdf_stream2.csv", "mc_report.json", "sketch.npz"]
        report = load_metrics_json(tmp_path / "out" / "mc_report.json")
        assert report["scenarios"] == 5001 and report["rejected"] == 0

    def test_ratio_quantiles_show_the_dichotomy(self, hand_config, tmp_path):
        # the pooled stream tables mix the exact +-1 decodes with the +-j ones;
        # the per-ratio tables read from the sketch separate them
        assert main(["monte-carlo", "--config", str(hand_config), "--scenarios", "100000",
                     "--out", str(tmp_path)]) == 0
        report = load_metrics_json(tmp_path / "mc_report.json")
        for stream in ("stream1", "stream2"):
            table = report["ratio_quantiles"][stream]
            assert set(table) == {"+1", "+j", "-1", "-j"}
            for label in ("+1", "-1"):
                assert table[label]["99.0"] < 1e-12
            for label in ("+j", "-j"):
                assert table[label]["50.0"] > 1e-2
        cond = report["condition_number"]
        quantiles = [cond["quantiles"][q] for q in ("1.0", "5.0", "25.0", "50.0", "75.0",
                                                    "95.0", "99.0")]
        assert 1.0 <= cond["min"] <= quantiles[0]
        assert quantiles == sorted(quantiles) and quantiles[-1] <= cond["max"] <= 1e8

    def test_invalid_scenarios_exit_2(self, hand_config):
        assert main(["monte-carlo", "--config", str(hand_config),
                     "--scenarios", "0"]) == 2

    def test_negative_seed_exit_2(self, hand_config, capsys):
        assert main(["monte-carlo", "--config", str(hand_config),
                     "--scenarios", "10", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed" in err
        assert "Traceback" not in err

    def test_nan_condition_cap_exit_2(self, tmp_path, capsys):
        config = _write_config(tmp_path, {"monte_carlo": {"condition_cap": float("nan")}})
        assert main(["monte-carlo", "--config", str(config)]) == 2
        assert "monte_carlo.condition_cap" in capsys.readouterr().err


    def test_seconds_cover_the_whole_command(self, hand_config, tmp_path, monkeypatch):
        save_results = cli.save_results

        def slow_save_results(*args, **kwargs):
            time.sleep(0.2)
            return save_results(*args, **kwargs)

        monkeypatch.setattr(cli, "save_results", slow_save_results)
        assert main(["monte-carlo", "--config", str(hand_config), "--scenarios", "100",
                     "--out", str(tmp_path / "slow")]) == 0
        assert load_metrics_json(tmp_path / "slow" / "mc_report.json")["seconds"] >= 0.2


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["metrics", "evm-map", "constellation", "monte-carlo"])
    def test_uncreatable_output_dir_exit_2(self, tmp_path, capsys, command):
        payload = {"grid": {"n_theta": 19, "n_phi": 36}, "perturbation": {"lobes": []},
                   "monte_carlo": {"scenarios": 50}}
        config = _write_config(tmp_path, payload)
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        nul = _write_config(tmp_path, payload | {"output": {"dir": "a\u0000b"}}, "nul.json")
        for argv, named in [(["--config", str(config), "--out", str(blocker)], str(blocker)),
                            (["--config", str(nul)], "a\x00b")]:
            assert main([command, *argv]) == 2
            err = capsys.readouterr().err
            assert named in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("command, name", [
        ("metrics", "metrics.json"), ("evm-map", "evm_map.csv"),
        ("constellation", "constellation.csv"), ("monte-carlo", "cdf_stream1.csv"),
        ("monte-carlo", "sketch.npz"), ("monte-carlo", "mc_report.json")])
    def test_output_file_taken_by_a_directory_exit_2(self, tmp_path, capsys, command, name):
        config = _write_config(tmp_path, {"grid": {"n_theta": 19, "n_phi": 36},
                                          "monte_carlo": {"scenarios": 50}})
        (tmp_path / "out" / name).mkdir(parents=True)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output file ") and str(tmp_path / "out" / name) in err
        assert "Traceback" not in err


class TestAssemblyLifetime:
    """Each free state goes once it is perturbed, and the perturbation factors go before a
    command's work starts; no command holds two state sets."""

    @pytest.mark.parametrize("command, work", [
        ("monte-carlo", "run_monte_carlo"), ("evm-map", "evm_map"),
        ("constellation", "constellation_at_angle"), ("metrics", "evm_map")])
    def test_free_states_and_perturbation_released(self, hand_config, tmp_path, monkeypatch,
                                                   command, work):
        refs, alive = [], []
        made = cli._free_states

        def free_states(*args):
            for k, state in made(*args):
                refs.append(weakref.ref(state))
                yield k, state
        monkeypatch.setattr(cli, "_free_states", free_states)
        perturbation = cli.generate_perturbation

        def factors(*args):
            # a read-only mapping cannot be weakly referenced: follow its factor patterns
            made = perturbation(*args)
            refs.extend(weakref.ref(f) for f in set(made.values()))
            return made
        monkeypatch.setattr(cli, "generate_perturbation", factors)
        home = cli if work == "evm_map" else link  # the link layer loads when its command runs
        run = getattr(home, work)

        def checked(*args, **kwargs):
            gc.collect()
            alive.extend(type(r()).__name__ for r in refs if r() is not None)
            return run(*args, **kwargs)

        monkeypatch.setattr(home, work, checked)
        assert main([command, "--config", str(hand_config), "--out", str(tmp_path)]) == 0
        # four free states and four factor patterns: each state has a lobe of its own
        assert len(refs) == 8 and alive == []

    def test_metrics_assembly_peaks_at_one_state_set(self, tmp_path):
        # an order-64 copy of the hand config, its lobes on the states of ratios +1, -1, +j
        # and -j (ratio indices 0, 32, 16 and 48): assembling it for metrics holds the
        # perturbed states, the factors and at most four more patterns at any one time
        payload = json.loads((CONFIGS / "hand_scenario.json").read_text())
        payload["constellation"] = {"order": 64}
        names = {"+1": "ratio_0", "-1": "ratio_32", "+j": "ratio_16", "-j": "ratio_48"}
        for lobe in payload["perturbation"]["lobes"]:
            if lobe["states"] is not None:
                lobe["states"] = [names[s] for s in lobe["states"]]
        cfg = load_config(_write_config(tmp_path, payload))
        tracemalloc.start()
        try:
            asm = cli._assemble(cfg, free_space=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pattern = 2 * 91 * 180 * 16  # bytes of one state's two complex components
        factors = cli.generate_perturbation(cfg.perturbation_lobes, asm.perturbed_states.grid,
                                            asm.constellation.ratio_set)
        factor_bytes = sum({id(a): a.nbytes for f in factors.values()
                            for a in (f.e_theta, f.e_phi)}.values())
        assert len(asm.free_space["power"]) == 64
        assert peak <= 64 * pattern + factor_bytes + 4 * pattern


class TestPatternFilePipeline:
    def test_metrics_from_files_match_generator(self, tmp_path):
        # exporting the generated states and reloading them through the
        # pattern-file interface must reproduce the metrics byte for byte
        import beamspace as bs

        grid = bs.build_grid(91, 180)
        con = bs.PskConstellation.qpsk()
        states = bs.generate_mirror_pair(bs.default_mirror_profile(), grid,
                                         con.ratio_set)
        files = {}
        for k in range(4):
            label = bs.ratio_label(k, 4)
            name = f"state_{k}.csv"
            bs.save_pattern_csv(states.state(k), tmp_path / name, state=label)
            files[label] = name
        base = json.loads((CONFIGS / "hand_scenario.json").read_text())
        base["output"] = {"dir": "gen"}
        gen_config = _write_config(tmp_path, base, name="gen.json")
        base["antenna"] = {"pattern_files": files}
        base["output"] = {"dir": "files"}
        file_config = _write_config(tmp_path, base, name="files.json")
        assert main(["metrics", "--config", str(gen_config)]) == 0
        assert main(["metrics", "--config", str(file_config)]) == 0
        assert ((tmp_path / "gen" / "metrics.json").read_bytes()
                == (tmp_path / "files" / "metrics.json").read_bytes())

    def test_perturbed_states_from_files_reproduce_the_scenario(self, tmp_path):
        # the benchmark's measured-pattern config: the hand scenario's perturbed states as
        # pattern CSVs and no lobes, so every unity factor passes its field through; its
        # tables are the hand config's byte for byte, and so are the metrics of the perturbed
        # states (free_space differs: the measured config's free states are perturbed ones)
        import beamspace as bs

        cfg = load_config(CONFIGS / "hand_scenario.json")
        ratios = bs.PskConstellation(cfg.constellation_order, cfg.constellation_offset).ratio_set
        grid = bs.build_grid(cfg.n_theta, cfg.n_phi)
        states = bs.apply_perturbation(
            bs.generate_mirror_pair(bs.default_mirror_profile(), grid, ratios),
            bs.generate_perturbation(cfg.perturbation_lobes, grid, ratios))
        hand = json.loads((CONFIGS / "hand_scenario.json").read_text())
        files = {}
        for k in range(ratios.order):
            files[ratios.label(k)] = f"state_{k}.csv"
            bs.save_pattern_csv(states.state(k), tmp_path / files[ratios.label(k)],
                                state=ratios.label(k))
        measured = _write_config(tmp_path, dict(hand, antenna={"pattern_files": files},
                                                perturbation={"lobes": []}), name="pattern.json")
        for command in ("metrics", "evm-map", "constellation"):
            for config, out in ((CONFIGS / "hand_scenario.json", "hand"), (measured, "measured")):
                assert main([command, "--config", str(config),
                             "--out", str(tmp_path / out)]) == 0
        for name in ("evm_map.csv", "constellation.csv"):
            assert ((tmp_path / "hand" / name).read_bytes()
                    == (tmp_path / "measured" / name).read_bytes()), name
        a, b = (load_metrics_json(tmp_path / out / "metrics.json") for out in ("hand", "measured"))
        for key in ("basis_correlation_db", "power_imbalance_db", "average_evm_db"):
            assert a[key] == b[key], key

    def test_file_grid_overrides_configured_grid(self, tmp_path):
        import beamspace as bs

        grid = bs.build_grid(7, 12)
        con = bs.PskConstellation.qpsk()
        states = bs.generate_mirror_pair(bs.default_mirror_profile(), grid,
                                         con.ratio_set)
        files = {}
        for k in range(4):
            label = bs.ratio_label(k, 4)
            bs.save_pattern_csv(states.state(k), tmp_path / f"s{k}.csv")
            files[label] = f"s{k}.csv"
        config = _write_config(tmp_path, {
            "grid": {"n_theta": 91, "n_phi": 180},
            "antenna": {"pattern_files": files},
        })
        assert main(["metrics", "--config", str(config)]) == 0
        metrics = load_metrics_json(tmp_path / "out" / "metrics.json")
        assert metrics["grid"] == {"n_theta": 7, "n_phi": 12}


class TestByteReproducibility:
    def test_metrics_and_maps_reproduce_byte_for_byte(self, hand_config, tmp_path):
        for sub in ("metrics", "evm-map", "constellation"):
            assert main([sub, "--config", str(hand_config),
                         "--out", str(tmp_path / "r1")]) == 0
            assert main([sub, "--config", str(hand_config),
                         "--out", str(tmp_path / "r2")]) == 0
        for name in ("metrics.json", "evm_map.csv", "constellation.csv"):
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes())


class TestExitPath:
    """A command freezes the heap only as its process exits, so the interpreter's final
    collections walk nothing; a process still exits clean and writes what a call writes."""

    def test_one_exit_handler_and_nothing_frozen_while_running(self, freespace_config,
                                                               tmp_path):
        # three calls in one process: the heap is not frozen when they return, and the
        # process freezes it once as it exits; the last handler to run counts the freezes
        script = """if True:
            import atexit, gc, sys
            import beamspace.cli as cli
            freezes = []
            atexit.register(lambda: print("freezes", len(freezes)))
            gc.freeze = lambda freeze=gc.freeze: freezes.append(freeze())
            config, missing = sys.argv[1:]
            codes = [cli.main(["evm-map", "--config", config]),
                     cli.main(["metrics", "--config", config]),
                     cli.main(["metrics", "--config", missing])]
            print("codes", *codes, "frozen", gc.get_freeze_count())
        """
        done = subprocess.run([sys.executable, "-c", script, str(freespace_config),
                               str(tmp_path / "missing.json")], env=package_env(),
                              cwd=tmp_path, capture_output=True, text=True)
        assert done.stdout.splitlines()[-2:] == ["codes 0 0 2 frozen 0", "freezes 1"], done

    @pytest.mark.parametrize("argv", [
        ["metrics"], ["evm-map"], ["constellation"], ["monte-carlo", "--scenarios", "300"],
        ["selftest"]], ids=lambda argv: argv[0])
    def test_dev_mode_process_exits_clean(self, hand_config, tmp_path, argv):
        writes = argv[0] != "selftest"
        if writes:
            argv = argv + ["--config", str(hand_config)]
        out = ["--out", str(tmp_path / "process")] if writes else []
        done = subprocess.run([sys.executable, "-X", "dev", "-m", "beamspace.cli", *argv, *out],
                              env=package_env(), cwd=tmp_path, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr and "Traceback" not in done.stderr
        if not writes:
            assert "8/8 criteria passed" in done.stdout
            return
        assert main(argv + ["--out", str(tmp_path / "call")]) == 0
        names = sorted(p.name for p in (tmp_path / "call").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "process").iterdir())
        for name in names:
            process, call = ((tmp_path / d / name).read_bytes() for d in ("process", "call"))
            if name == "mc_report.json":  # all but the run's own duration
                process, call = ({k: v for k, v in json.loads(b).items() if k != "seconds"}
                                 for b in (process, call))
            assert process == call, name


class TestSelftestCommand:
    def test_selftest_passes_and_prints_table(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 8
        assert "[FAIL]" not in out
        assert "8/8 criteria passed" in out

    def test_selftest_exit_1_on_failure(self, capsys, monkeypatch):
        from beamspace.selftest import CriterionResult

        def fake_run_all():
            return [CriterionResult("broken", False, "forced failure")]

        monkeypatch.setattr("beamspace.selftest.run_all", fake_run_all)
        assert main(["selftest"]) == 1
        assert "[FAIL] broken" in capsys.readouterr().out


class TestShippedConfigs:
    def test_freespace_config_loads_and_runs(self, tmp_path):
        payload = json.loads((CONFIGS / "freespace.json").read_text())
        payload["monte_carlo"]["scenarios"] = 200
        payload["output"] = {"dir": "out"}
        config = _write_config(tmp_path, payload)
        assert main(["metrics", "--config", str(config)]) == 0
        metrics = load_metrics_json(tmp_path / "out" / "metrics.json")
        assert metrics["basis_correlation_db"] == float("-inf")


def _set(payload, path, value):
    """``payload`` with the value at key path ``path`` (keys and list indices) replaced."""
    if not path:
        return value
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


def _key_paths(node, prefix=()):
    """The key path of ``node`` and of every value nested in it."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _key_paths(child, prefix + (key,))


class _Accepted(Exception):
    """Raised in place of building the run, once a config has been accepted."""


def _exit_code(argv):
    """``main(argv)`` with the run stubbed out, and the captured stderr.

    The code is None when the input was accepted (the run would have started).
    """
    err = io.StringIO()
    with mock.patch.object(cli, "_assemble", side_effect=_Accepted), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except _Accepted:
            code = None
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue()


_NAN, _INF = float("nan"), float("inf")
_PROFILE_LOBE = {"theta_deg": 90.0, "phi_deg": 0.0, "width_deg": 30.0}


class TestMalformedInput:
    @pytest.mark.parametrize("path, value, flags, named", [
        (("grid", "n_theta"), "abc", [], "grid.n_theta"),
        (("grid", "n_theta"), 91.7, [], "grid.n_theta"),
        (("grid", "n_theta"), True, [], "grid.n_theta"),
        (("grid", "n_theta"), None, [], "grid.n_theta"),
        (("receive", "rx1"), 5, [], "receive.rx1"),
        (("receive", "rx1", "theta_deg"), _NAN, [], "receive.rx1.theta_deg"),
        (("receive", "rx1", "theta_deg"), 400, [], "receive.rx1.theta_deg"),
        (("perturbation", "lobes", 2, "states"), "+j", [], "perturbation.lobes[2].states"),
        (("perturbation", "lobes", 0, "width_deg"), _INF, [], "lobes[0].width_deg"),
        (("constellation", "order"), "4", [], "constellation.order"),
        (("constellation", "order"), 4.5, [], "constellation.order"),
        (("constellation", "phase_offset_deg"), _NAN, [], "constellation.phase_offset_deg"),
        (("monte_carlo", "scenarios"), 10.5, [], "monte_carlo.scenarios"),
        (("monte_carlo", "seed"), 1.5, [], "monte_carlo.seed"),
        (("monte_carlo", "seed"), -1, [], "monte_carlo.seed"),
        (("monte_carlo", "separation_deg"), [3, 5, 7], [], "monte_carlo.separation_deg"),
        (("monte_carlo", "separation_deg"), [3, 400], [], "monte_carlo.separation_deg"),
        (("output",), {"dir": 5}, [], "output.dir"),
        (("antenna",), {"pattern_files": ["a.csv"]}, [], "antenna.pattern_files"),
        (("antenna",), {"pattern_files": dict.fromkeys(["+1", "-1", "+j", "-j"], ".")}, [],
         "antenna.pattern_files.+1"),
        ((), {}, ["--threads", "0"], "monte_carlo.threads"),
        ((), {}, ["--rx1-phi", "inf"], "receive.rx1.phi_deg"),
        (("monte_carlo", "scenarios"), 10**7 + 1, [], "monte_carlo.scenarios"),
        ((), {}, ["--scenarios", "1000000000000"], "monte_carlo.scenarios"),
        # a repeated label would apply the lobe twice: one lobe of twice the amplitude
        (("perturbation", "lobes", 0, "states"), ["+1", "+1"], [], "perturbation.lobes[0]"),
        # ... and is named by its label, not its ratio index
        (("perturbation", "lobes", 0, "states"), ["-1", "+j", "+j"], [],
         'error: perturbation.lobes[0].states lists "+j" twice\n'),
        # more state-pattern samples than MAX_STATE_SAMPLES: refused before any allocation
        (("grid",), {"n_theta": 10**6, "n_phi": 10**6}, [], "grid.n_theta x grid.n_phi"),
        (("constellation", "order"), 10**4, [], "constellation.order x grid"),
        # a lobe the lobe's own checks refuse, named by its entry
        (("perturbation", "lobes", 0, "width_deg"), 0, [],
         "error: perturbation.lobes[0]: perturbation lobe width must be positive\n"),
        (("antenna",), {"profile": {"lobes": [_PROFILE_LOBE | {"polarization": [[1, 0]]}]}}, [],
         "antenna.profile.lobes[0].polarization must be 'theta', 'phi' or [[re, im], [re, im]]"),
        (("antenna",), {"profile": {"lobes": [_PROFILE_LOBE]}, "pattern_files": {}}, [],
         "error: antenna: give either profile or pattern_files, not both\n"),
        (("antenna",), {"profile": {"lobes": []}}, [],
         "error: antenna.profile.lobes must not be empty\n"),
        (("monte_carlo", "condition_cap"), 1, [],
         "error: monte_carlo.condition_cap must exceed 1, got 1.0\n"),
    ])
    def test_exit_2_naming_the_key(self, tmp_path, path, value, flags, named):
        payload = _set(json.loads((CONFIGS / "hand_scenario.json").read_text()), path, value)
        config = _write_config(tmp_path, payload)
        command = "constellation" if "--rx1-phi" in flags else "monte-carlo"
        code, err = _exit_code([command, "--config", str(config), *flags])
        assert code == 2
        assert named in err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_accepted_spellings(self, hand_config):
        # an integral float for an integer key, and a named antenna lobe polarization
        lobe = _PROFILE_LOBE | {"polarization": "phi"}
        cfg = load_config(hand_config, [("monte_carlo.scenarios", 1.4e6),
                                        ("antenna.profile", {"lobes": [lobe]})])
        assert cfg.scenarios == 1_400_000 and type(cfg.scenarios) is int
        assert cfg.antenna_lobes[0].polarization == (0j, 1 + 0j)

    @pytest.mark.parametrize("order, antenna, named", [
        # the hand config's lobes name QPSK states; at order 610 the labels are ratio_k
        (4, {"pattern_files": {"+1": "."}},
         "states +1, +j, -1, -j; missing +j, -1, -j\n"),
        (610, None, "the labels ratio_0, ..., ratio_609 (610 labels); got ['+1']\n"),
        (610, {"pattern_files": {"ratio_0": "."}},
         "states ratio_0, ..., ratio_609 (610 labels); missing ratio_1, ..., ratio_609 (609 "),
    ])
    def test_alphabet_named_compactly(self, tmp_path, order, antenna, named):
        # an alphabet of more than 8 labels is named by its ends and its count, so the
        # message stays one short line at the largest order the state-sample limit allows
        payload = json.loads((CONFIGS / "hand_scenario.json").read_text())
        payload["constellation"]["order"] = order
        if antenna is not None:
            payload["antenna"] = antenna
        code, err = _exit_code(["monte-carlo", "--config", str(_write_config(tmp_path, payload))])
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 300
        assert named in err

    def test_flag_and_key_give_one_message(self, hand_config, tmp_path):
        payload = json.loads(hand_config.read_text())
        payload["monte_carlo"]["threads"] = 0
        key = _exit_code(["monte-carlo", "--config", str(_write_config(tmp_path, payload))])
        flag = _exit_code(["monte-carlo", "--config", str(hand_config), "--threads", "0"])
        assert key == flag == (2, "error: monte_carlo.threads must be an integer >= 1; got 0\n")

    def test_scenario_limit_is_accepted(self, hand_config):
        # read only: a sweep of this size is not run here
        cfg = load_config(hand_config, [("monte_carlo.scenarios", 10**7)])
        assert cfg.scenarios == 10**7

    def test_state_sample_limit_is_accepted(self, hand_config):
        # read only: 4 x 1000 x 2500 samples is MAX_STATE_SAMPLES, one more row is not
        cfg = load_config(hand_config, [("grid.n_theta", 1000), ("grid.n_phi", 2500)])
        assert cfg.constellation_order * cfg.n_theta * cfg.n_phi == MAX_STATE_SAMPLES
        with pytest.raises(InvalidArgumentError, match="must be <= 10000000; got 4 x 1001 x 2500"):
            load_config(hand_config, [("grid.n_theta", 1001), ("grid.n_phi", 2500)])

    def test_state_sample_limit_counts_the_pattern_files_grid(self, tmp_path, state_files,
                                                              monkeypatch):
        # four 5 x 8 files are 160 samples whatever the grid section says: with the limit
        # at 100, a 3 x 4 grid section does not let them through, and the count is made
        # on the first file, before a second one is read
        monkeypatch.setattr("beamspace.errors.MAX_STATE_SAMPLES", 100)
        config = _write_config(tmp_path, {
            "grid": {"n_theta": 3, "n_phi": 4},
            "antenna": {"pattern_files": {k: str(v) for k, v in state_files.items()}}})
        loads = []
        monkeypatch.setattr(cli, "load_pattern_csv",
                            lambda path: loads.append(path) or load_pattern_csv(path))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["evm-map", "--config", str(config), "--out", str(tmp_path / "out")])
        assert (code, loads) == (2, [state_files["+1"]])
        assert err.getvalue() == (f"error: constellation.order x the grid of {state_files['+1']}"
                                  " must be <= 100; got 4 x 5 x 8\n")

    def test_state_sample_limit_is_not_the_grid_section_for_pattern_files(self, tmp_path,
                                                                         state_files):
        # 620 states of 5 x 8 files are 24,800 samples, not the 620 x 91 x 180 of the
        # absent grid section; each label names one file here
        labels = [ratio_label(k, 620) for k in range(620)]
        config = _write_config(tmp_path, {
            "constellation": {"order": 620},
            "antenna": {"pattern_files": dict.fromkeys(labels, str(state_files["+1"]))}})
        cfg = load_config(config)
        assert (cfg.constellation_order, cfg.n_theta, cfg.n_phi) == (620, 91, 180)
        assert cli._assemble(cfg).perturbed_states.grid.shape == (5, 8)
        # an order no pattern grid could hold is refused before its labels are made
        with pytest.raises(InvalidArgumentError, match="the coarsest pattern grid must be "
                                                       "<= 10000000; got 833334 x 3 x 4$"):
            load_config(config, [("constellation.order", 833334)])

    @pytest.mark.parametrize("antenna", ["lobes", "pattern_files"])
    def test_odd_order_refused_by_its_key(self, tmp_path, state_files, monkeypatch, antenna):
        # every command needs ratio -1, which no odd order has: the config reader refuses
        # the order by its key, and no command reads a pattern file
        payload = json.loads((CONFIGS / "hand_scenario.json").read_text())
        payload["constellation"]["order"] = 3
        if antenna == "pattern_files":
            payload["antenna"] = {"pattern_files": {k: str(v) for k, v in state_files.items()}}
        monkeypatch.setattr(cli, "load_pattern_csv", mock.Mock(side_effect=AssertionError))
        config = str(_write_config(tmp_path, payload))
        for command in ("metrics", "evm-map", "constellation", "monte-carlo"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
            assert err.getvalue() == (
                "error: constellation.order must be an even integer >= 2; got 3\n")

    def test_unreadable_config_exit_2(self, tmp_path):
        (tmp_path / "bytes.json").write_bytes(b"\xff\xfe{}")
        for config in (tmp_path, tmp_path / "bytes.json"):
            code, err = _exit_code(["metrics", "--config", str(config)])
            assert code == 2
            assert str(config) in err
            assert "Traceback" not in err


# Values a config key or flag might be mistyped as; drawn alongside random JSON.
_ODD_VALUES = [91.7, 1.4e6, 10**9, 10**30, -1, 0, -0.0, "4", "+j", "", True, False, None,
               _NAN, _INF, -_INF, [3, 5, 7], [3, 400], [], {}]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=8) | st.sampled_from(_ODD_VALUES),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)
_FLAGS = ["--config", "--seed", "--threads", "--scenarios", "--out",
          "--rx1-theta", "--rx1-phi", "--rx2-theta", "--rx2-phi"]


class TestConfigContract:
    """A mutated shipped config or a random flag value is accepted, or exits 2 cleanly.

    Accepted inputs never run: an accepted config may still ask for
    ``MAX_STATE_SAMPLES`` pattern samples or ``MAX_SCENARIOS`` scenarios, a
    gigabyte or seconds of work, so ``_assemble`` is replaced by a stub that
    stops the run.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_shipped_config(self, tmp_path_factory, data):
        name = data.draw(st.sampled_from(["hand_scenario.json", "freespace.json"]))
        payload = json.loads((CONFIGS / name).read_text())
        path = data.draw(st.sampled_from(list(_key_paths(payload))))
        payload = _set(payload, path, data.draw(_JSON))
        config = tmp_path_factory.mktemp("contract") / name
        config.write_text(json.dumps(payload))
        try:
            accepted = isinstance(load_config(config), RunConfig)
        except InvalidArgumentError:
            accepted = False
        code, err = _exit_code(["monte-carlo", "--config", str(config)])
        if accepted:
            assert code is None
        else:
            assert code == 2
            assert err.startswith("error: ")
            assert "Traceback" not in err

    @settings(max_examples=40, deadline=None)
    @given(flag=st.sampled_from(_FLAGS),
           value=st.text(max_size=12) | st.sampled_from(list(map(str, _ODD_VALUES))))
    def test_random_flag_value(self, flag, value):
        command = "constellation" if flag.startswith("--rx") else "monte-carlo"
        argv = [command, "--config", str(CONFIGS / "hand_scenario.json"), f"{flag}={value}"]
        code, err = _exit_code(argv)
        assert code in (None, 2)
        if code == 2:
            assert "Traceback" not in err


@st.composite
def _mutated(draw, text: bytes) -> bytes:
    """``text`` after one to three edits: a line dropped, duplicated or swapped,
    random bytes in one field, a cut at a random byte, or ``angle_unit`` flipped."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines(keepends=True)
        if not lines:
            break
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "field", "cut", "unit"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "field":
            body = lines[i].rstrip(b"\n")
            fields = body.split(b",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.binary(max_size=6))
            lines[i] = b",".join(fields) + lines[i][len(body):]
        text = b"".join(lines)
        if edit == "cut":
            text = text[:draw(st.integers(0, len(text)))]
        elif edit == "unit":
            text = text.replace(b"angle_unit: deg", b"angle_unit: rad")
    return text


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    """Pattern CSVs of the four QPSK states on a 5 x 8 grid, by ratio label."""
    import beamspace as bs

    folder = tmp_path_factory.mktemp("states")
    states = bs.generate_mirror_pair(bs.default_mirror_profile(), bs.build_grid(5, 8),
                                     bs.PskConstellation.qpsk().ratio_set)
    return {bs.ratio_label(k, 4): bs.save_pattern_csv(states.state(k), folder / f"s{k}.csv",
                                                      state=bs.ratio_label(k, 4))
            for k in range(4)}


@pytest.mark.parametrize("command", ["metrics", "evm-map", "constellation", "monte-carlo"])
def test_pattern_files_on_different_grids_exit_2(tmp_path, state_files, command):
    # one 7 x 12 file among 5 x 8 ones: every command stops with exit 2 and an error line
    import beamspace as bs

    odd = bs.generate_mirror_pair(bs.default_mirror_profile(), bs.build_grid(7, 12),
                                  bs.PskConstellation.qpsk().ratio_set)
    bs.save_pattern_csv(odd.state(1), tmp_path / "odd.csv", state="+j")
    config = _write_config(tmp_path, {
        "antenna": {"pattern_files": {**{k: str(v) for k, v in state_files.items()},
                                      "+j": "odd.csv"}}})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert err.getvalue().startswith("error: ")
    assert "grids differ" in err.getvalue()


def test_unreadable_pattern_file_exit_2(tmp_path, state_files, monkeypatch):
    # a chmod does not stop root from reading, so the key pass's streamed read of each
    # pattern CSV is made to fail
    class Refused(io.BufferedReader):
        def readinto(self, buffer):
            raise PermissionError(13, "Permission denied", self.name)

    opened = Path.open

    def refusing(path, mode="r", *args, **kwargs):
        if path.suffix == ".csv" and mode == "r":
            return io.TextIOWrapper(Refused(io.FileIO(path)), *args, **kwargs)
        return opened(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", refusing)
    config = _write_config(tmp_path, {
        "antenna": {"pattern_files": {k: str(v) for k, v in state_files.items()}}})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["metrics", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert err.getvalue().startswith("error: ")
    assert "s0.csv: cannot be read" in err.getvalue() and "Permission denied" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_unreadable_pattern_field_exit_2(tmp_path, state_files):
    # a field float() reads but the table reader does not: one error line naming the file line
    lines = state_files["+1"].read_text().splitlines(keepends=True)
    lineno = len(lines) - 2
    fields = lines[lineno - 1].split(",")
    lines[lineno - 1] = ",".join(fields[:2] + ["1_0"] + fields[3:])
    (tmp_path / "plus.csv").write_text("".join(lines))
    config = _write_config(tmp_path, {
        "antenna": {"pattern_files": {**{k: str(v) for k, v in state_files.items()},
                                      "+1": "plus.csv"}}})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["metrics", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert err.getvalue() == (f"error: {tmp_path / 'plus.csv'}:{lineno}: "
                              "could not convert string '1_0' to float64\n")


def _injected(error):
    def raising(tmp_path):
        raise error("injected")
    return pytest.param(raising, 1 if error is DegenerateError else 2, "injected",
                        id=error.__name__)


def _qpsk_states():
    return generate_mirror_pair(default_mirror_profile(), build_grid(5, 8),
                                PskConstellation.qpsk().ratio_set)


def _zero_pattern(grid):
    return VectorPattern(grid, np.zeros(grid.shape, complex), np.zeros(grid.shape, complex))


def _written(path, text):
    path.write_text(text)
    return path


# Each case named after one of the eight classes the two above replaced: the library call
# that raised it, whose error now exits as an InvalidArgumentError (2) or a DegenerateError (1).
_FOLDED_ERRORS = [
    pytest.param(lambda tmp_path: BasisPair(_qpsk_states().state(0),
                                            _zero_pattern(build_grid(7, 8))),
                 2, "grids differ: (5, 8) vs (7, 8)", id="GridMismatchError"),
    pytest.param(lambda tmp_path: constellation_at_angle(
                     _qpsk_states(), PskConstellation.qpsk(), 4.0, 0.0),
                 2, "theta outside grid coverage [0, pi]", id="AngleOutOfRangeError"),
    pytest.param(lambda tmp_path: constellation_at_angle(
                     _qpsk_states(), PskConstellation(8), 1.0, 0.5),
                 2, "constellation order does not match the state-pattern alphabet",
                 id="RatioSetMismatchError"),
    pytest.param(lambda tmp_path: load_pattern_csv(_written(tmp_path / "plain.csv", "a,b\n")),
                 2, ("{tmp_path}/plain.csv: missing column(s) theta_deg, phi_deg, "
                     "re_etheta, im_etheta, re_ephi, im_ephi"), id="PatternFormatError"),
    pytest.param(lambda tmp_path: load_config(_written(tmp_path / "list.json", "[]")),
                 2, "config must be a JSON object; got []", id="ConfigError"),
    pytest.param(lambda tmp_path: basis_correlation_db(
                     BasisPair(_zero_pattern(build_grid(5, 8)), _zero_pattern(build_grid(5, 8)))),
                 1, "basis pattern with (numerically) zero power; metrics undefined",
                 id="DegenerateBasisError"),
    pytest.param(lambda tmp_path: EvmMap(build_grid(5, 8), np.zeros((5, 8)),
                                         np.ones((5, 8), bool)).average(),
                 1, "every angle of the EVM map is degenerate", id="DegenerateAngleError"),
    pytest.param(lambda tmp_path: received_constellation(build_channel(
                     _qpsk_states(), ((1.0, 0.5), (1.0, 0.5)), PskConstellation.qpsk())),
                 1, "channel condition number inf exceeds cap 1e+08", id="SingularChannelError"),
]


@pytest.mark.parametrize("raising, exit_code, message", [
    *map(_injected, [BeamspaceError, *BeamspaceError.__subclasses__(), FileNotFoundError]),
    *_FOLDED_ERRORS])
def test_exit_code_of_every_error_class(monkeypatch, capsys, tmp_path, raising, exit_code,
                                        message):
    # the degenerate class exits 1, every other simulator error and a missing file 2
    monkeypatch.setattr(cli, "cmd_metrics", lambda args: raising(tmp_path))
    code = main(["metrics", "--config", "unused.json"])
    assert code == exit_code
    assert capsys.readouterr().err == (
        ("degenerate computation: " if exit_code == 1 else "error: ")
        + message.format(tmp_path=tmp_path) + "\n")


class TestPatternFileContract:
    """A mutated pattern or CDF file is read, or rejected with an InvalidArgumentError alone,
    whose message starts with the file's path.

    ``metrics`` on a config naming a mutated pattern file runs when the
    reader accepts the file and exits 2 with an ``error:`` line naming it otherwise.
    """

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_pattern_file(self, tmp_path_factory, state_files, data):
        folder = tmp_path_factory.mktemp("mutated")
        path = folder / "plus.csv"
        path.write_bytes(data.draw(_mutated(state_files["+1"].read_bytes())))
        try:
            accepted = isinstance(load_pattern_csv(path), VectorPattern)
        except InvalidArgumentError as exc:
            assert str(exc).startswith(f"{path}:")
            accepted = False
        config = _write_config(folder, {
            "antenna": {"pattern_files": {**{k: str(v) for k, v in state_files.items()},
                                          "+1": path.name}}})
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["metrics", "--config", str(config), "--out", str(folder / "out")])
        if accepted:
            assert code == 0
        else:
            assert code == 2
            assert err.getvalue().startswith(f"error: {path.resolve()}:")
            assert "Traceback" not in err.getvalue()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_cdf_file(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("cdf") / "cdf.csv"
        save_cdf_csv(path, [0.0, 1e-3, 0.25, 0.5, 2.0], [0.2, 0.4, 0.6, 0.8, 1.0])
        path.write_bytes(data.draw(_mutated(path.read_bytes())))
        try:
            errors, probs = load_cdf_csv(path)
        except InvalidArgumentError as exc:
            assert str(exc).startswith(f"{path}:")
            return
        assert errors.dtype == probs.dtype == float
        assert errors.ndim == 1 and errors.shape == probs.shape
