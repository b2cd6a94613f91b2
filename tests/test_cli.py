import json
from pathlib import Path

import numpy as np
import pytest

from beamspace import cdf_summary, load_metrics_json
from beamspace.cli import main

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
        for stream in (1, 2):
            fa = (tmp_path / "a" / f"cdf_stream{stream}.csv").read_bytes()
            fb = (tmp_path / "b" / f"cdf_stream{stream}.csv").read_bytes()
            assert fa == fb
        report = load_metrics_json(tmp_path / "a" / "mc_report.json")
        assert report["scenarios"] == 1500
        assert report["rejected"] >= 0
        assert report["seconds"] > 0
        assert set(report["stream1"]["quantiles"]) == {
            "1.0", "5.0", "25.0", "50.0", "75.0", "95.0", "99.0"}
        # the exact streams reload from errors.npz and reproduce the report
        with np.load(tmp_path / "a" / "errors.npz") as exact:
            for stream in ("stream1", "stream2"):
                quantiles = {str(q): v for q, v in cdf_summary(exact[stream]).quantiles.items()}
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
