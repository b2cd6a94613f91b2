import contextlib
import gc
import io
import json
import time
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
    BeamspaceError,
    ConfigError,
    DegenerateAngleError,
    DegenerateBasisError,
    PatternFormatError,
    RunConfig,
    SingularChannelError,
    VectorPattern,
    load_cdf_csv,
    load_config,
    load_pattern_csv,
    save_cdf_csv,
)
from beamspace.cli import main
from helpers import load_metrics_json, pooled, sketch_rows

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
        # an odd point list leaves the side column one row short of the others
        at_angle = link.constellation_at_angle
        monkeypatch.setattr(link, "constellation_at_angle", lambda *a, **k: at_angle(*a, **k)[:-1])
        assert main(["constellation", "--config", str(hand_config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unequal lengths [31, 32]" in err
        assert "Traceback" not in err and not (tmp_path / "out" / "constellation.csv").exists()

    def test_rx_override_changes_angle(self, hand_config, tmp_path):
        assert main(["constellation", "--config", str(hand_config),
                     "--rx1-theta", "100", "--rx1-phi", "40",
                     "--out", str(tmp_path / "out2")]) == 0
        a = (tmp_path / "out" / "constellation.csv") if (tmp_path / "out").exists() else None
        b = (tmp_path / "out2" / "constellation.csv").read_text()
        assert "transmit" in b


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
    """Only ``metrics`` keeps the free-space states; the other commands let them
    and the perturbation field go before their work starts."""

    @pytest.mark.parametrize("command, work", [
        ("monte-carlo", "run_monte_carlo"), ("evm-map", "evm_map"),
        ("constellation", "constellation_at_angle")])
    def test_free_states_and_perturbation_released(self, hand_config, tmp_path, monkeypatch,
                                                   command, work):
        refs, alive = [], []

        def referenced(name):
            make = getattr(cli, name)

            def wrapped(*args, **kwargs):
                made = make(*args, **kwargs)
                refs.append(weakref.ref(made))
                return made
            monkeypatch.setattr(cli, name, wrapped)

        referenced("generate_mirror_pair")
        referenced("generate_perturbation")
        home = cli if work == "evm_map" else link  # the link layer loads when its command runs
        run = getattr(home, work)

        def checked(*args, **kwargs):
            gc.collect()
            alive.extend(type(r()).__name__ for r in refs if r() is not None)
            return run(*args, **kwargs)

        monkeypatch.setattr(home, work, checked)
        assert main([command, "--config", str(hand_config), "--out", str(tmp_path)]) == 0
        assert len(refs) == 2 and alive == []


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
    ])
    def test_exit_2_naming_the_key(self, tmp_path, path, value, flags, named):
        payload = _set(json.loads((CONFIGS / "hand_scenario.json").read_text()), path, value)
        config = _write_config(tmp_path, payload)
        command = "constellation" if "--rx1-phi" in flags else "monte-carlo"
        code, err = _exit_code([command, "--config", str(config), *flags])
        assert code == 2
        assert named in err
        assert "Traceback" not in err

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

    Accepted inputs never run: a valid ``n_theta`` of 10**9 would allocate
    without bound, so ``_assemble`` is replaced by a stub that stops the run.
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
        except ConfigError:
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
    # a chmod does not stop root from reading, so the read itself is made to fail
    def refused(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(Path, "read_bytes", refused)
    config = _write_config(tmp_path, {
        "antenna": {"pattern_files": {k: str(v) for k, v in state_files.items()}}})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["metrics", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert err.getvalue().startswith("error: ")
    assert "s0.csv: cannot be read" in err.getvalue() and "Permission denied" in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("error", [BeamspaceError, *BeamspaceError.__subclasses__(),
                                   FileNotFoundError], ids=lambda error: error.__name__)
def test_exit_code_of_every_error_class(monkeypatch, capsys, error):
    # the degenerate classes exit 1, every other simulator error and a missing file 2
    def raising(args):
        raise error("injected")

    monkeypatch.setattr(cli, "cmd_metrics", raising)
    code = main(["metrics", "--config", "unused.json"])
    degenerate = error in (DegenerateBasisError, DegenerateAngleError, SingularChannelError)
    assert code == (1 if degenerate else 2)
    assert capsys.readouterr().err == (
        "degenerate computation: injected\n" if degenerate else "error: injected\n")


class TestPatternFileContract:
    """A mutated pattern or CDF file is read, or rejected with PatternFormatError alone.

    ``metrics`` on a config naming a mutated pattern file runs when the
    reader accepts the file and exits 2 with an ``error:`` line otherwise.
    """

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_pattern_file(self, tmp_path_factory, state_files, data):
        folder = tmp_path_factory.mktemp("mutated")
        path = folder / "plus.csv"
        path.write_bytes(data.draw(_mutated(state_files["+1"].read_bytes())))
        try:
            accepted = isinstance(load_pattern_csv(path), VectorPattern)
        except PatternFormatError:
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
            assert err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_cdf_file(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("cdf") / "cdf.csv"
        save_cdf_csv(path, [0.0, 1e-3, 0.25, 0.5, 2.0], [0.2, 0.4, 0.6, 0.8, 1.0])
        path.write_bytes(data.draw(_mutated(path.read_bytes())))
        try:
            errors, probs = load_cdf_csv(path)
        except PatternFormatError:
            return
        assert errors.dtype == probs.dtype == float
        assert errors.ndim == 1 and errors.shape == probs.shape
