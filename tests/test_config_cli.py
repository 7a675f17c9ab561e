import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from drlsnet import cli, theory
from drlsnet.cli import (CSV_COLUMNS, EXIT_ACCEPTANCE, EXIT_NUMERIC, EXIT_OK,
                         EXIT_VALIDATION, main, run_experiment)
from drlsnet.config import (ConfigError, config_to_text, parse_config,
                            resolve_config, with_overrides)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

SMALL = {
    "network": {"nodes": "4", "topology": "ring"},
    "signal": {"period": "8", "taps": "3"},
    "ensemble": {"runs": "3", "iterations": "120", "master_seed": "5"},
    "output": {"plot_script": "false"},
}


# a path graph with explicit combination rows, noise variances and phases:
# every list-valued field the text form has to carry
EXPLICIT = {
    "network": {"nodes": "3", "topology": "explicit", "edges": "0-1, 1-2",
                "combination_rows": "0.5, 0.5, 0; 0.5, 0.25, 0.5; 0, 0.25, 0.5",
                "noise_variances": "0.02, 0.05, 0.08"},
    "signal": {"period": "8", "taps": "2", "phases": "0, 2, 4"},
    "ensemble": {"runs": "2", "iterations": "60", "master_seed": "3"},
    "output": {"plot_script": "false"},
}


def write_ini(path, raw):
    lines = []
    for section, kv in raw.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")


class TestParsing:
    def test_reproduction_config_values(self):
        cfg = parse_config(CONFIGS / "reproduction_T512.ini")
        assert cfg["network"]["nodes"] == 20
        assert cfg["signal"]["taps"] == 32
        assert cfg["algorithm"]["forgetting_factor"] == 0.995
        assert cfg["signal"]["rho"] == 0.8
        assert cfg["signal"]["duty_cycle"] == 0.5
        assert cfg["signal"]["v_low"] == 2e-3
        assert cfg["signal"]["v_high"] == 2.0
        assert cfg["signal"]["period"] == 512

    def test_defaults_fill_in(self):
        cfg = resolve_config({"ensemble": {"runs": "1"}})
        assert cfg["algorithm"]["delta"] == 0.01
        assert cfg["network"]["combination"] == "uniform"
        assert cfg["output"]["prefix"] == "experiment"
        assert cfg["network"]["edges"] is None

    def test_lambda_out_of_range(self):
        with pytest.raises(ConfigError, match=r"algorithm\.forgetting_factor"):
            resolve_config({"algorithm": {"forgetting_factor": "1.5"}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"signal\.periodd"):
            resolve_config({"signal": {"periodd": "8"}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="plotting"):
            resolve_config({"plotting": {"dpi": "100"}})

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match=r"network\.nodes"):
            resolve_config({"network": {"nodes": "ten"}})

    def test_explicit_noise_variance_count(self):
        with pytest.raises(ConfigError, match="per node"):
            resolve_config({"network": {"nodes": "4", "topology": "ring",
                                        "noise_variances": "0.1, 0.2"}})

    def test_round_trip_through_text(self):
        cfg = parse_config(CONFIGS / "desk_pulsed_T32.ini")
        text = config_to_text(cfg)
        import configparser
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text)
        raw = {s: dict(parser.items(s)) for s in parser.sections()}
        assert resolve_config(raw).values == cfg.values

    def test_phases_build_per_node_profiles(self):
        cfg = resolve_config({"network": {"nodes": "3", "topology": "ring"},
                              "signal": {"phases": "0, 4, 8"}})
        profiles = cfg.build_profiles()
        assert [p.phase for p in profiles] == [0, 4, 8]

    def test_with_overrides_keeps_explicit_edges_and_lists(self):
        cfg = resolve_config(EXPLICIT)
        out = with_overrides(cfg, {"signal.period": "4", "ensemble.runs": "7"})
        assert out["signal"]["period"] == 4
        assert out["ensemble"]["runs"] == 7
        out.values["signal"]["period"] = cfg["signal"]["period"]
        out.values["ensemble"]["runs"] = cfg["ensemble"]["runs"]
        assert out.values == cfg.values

    def test_with_overrides_rejects_bad_key(self):
        cfg = resolve_config(SMALL)
        with pytest.raises(ConfigError, match="section.key"):
            with_overrides(cfg, {"period": "4"})
        with pytest.raises(ConfigError, match=r"signal\.periodd"):
            with_overrides(cfg, {"signal.periodd": "4"})


class TestRunExperiment:
    @pytest.fixture()
    def outputs(self, tmp_path):
        cfg = resolve_config(SMALL)
        assert run_experiment(cfg, out_dir=tmp_path) == EXIT_OK
        return tmp_path

    def test_files_written(self, outputs):
        assert (outputs / "experiment_trajectory.csv").exists()
        assert (outputs / "experiment_metadata.json").exists()

    def test_csv_shape_and_header(self, outputs):
        lines = (outputs / "experiment_trajectory.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 120  # header + one row per iteration
        assert lines[1].split(",")[0] == "1"

    def test_csv_reruns_byte_identical(self, outputs, tmp_path):
        second = tmp_path / "again"
        run_experiment(resolve_config(SMALL), out_dir=second)
        assert ((outputs / "experiment_trajectory.csv").read_bytes()
                == (second / "experiment_trajectory.csv").read_bytes())

    def test_csv_round_trips_curves(self, outputs):
        import csv
        with (outputs / "experiment_trajectory.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        parsed = np.array([float(r["msd_drls_theory_db"]) for r in rows])
        # 12 significant digits survive the round trip at these magnitudes
        from drlsnet.harness import run_ensemble, to_db
        cfg = resolve_config(SMALL)
        traj = run_ensemble(cfg.build_combiner(), cfg.noise_variances(),
                            cfg.build_profiles(), cfg.process_params(),
                            0.995, 0.01, cfg.ensemble_spec())
        assert np.abs(parsed - to_db(traj.msd_theory)).max() < 1e-9

    def test_metadata_contents(self, outputs):
        meta = json.loads((outputs / "experiment_metadata.json").read_text())
        assert meta["resolved_config"]["ensemble"]["master_seed"] == 5
        assert meta["runs_effective"] == {"rls": 3, "drls": 3}
        assert meta["deviation_report_db"] is not None
        assert "experiment_trajectory.csv" in meta["outputs"]["trajectory_csv"]

    def test_theory_only_leaves_empirical_columns_empty(self, tmp_path):
        raw = {s: dict(kv) for s, kv in SMALL.items()}
        raw["algorithm"] = {"algorithms": ""}
        run_experiment(resolve_config(raw), out_dir=tmp_path)
        lines = (tmp_path / "experiment_trajectory.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert first[1] == "" and first[2] == ""  # no empirical curves
        assert first[3] != ""                      # theory present


class TestMain:
    def test_check_command(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        assert main(["check", str(path)]) == EXIT_OK
        assert "[network]" in capsys.readouterr().out

    def test_check_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        write_ini(path, {"signal": {"rho": "1.5"}})
        assert main(["check", str(path)]) == EXIT_VALIDATION
        assert "signal: rho must lie in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("section, values, message", [
        ("network", {"topology": "random_geometric", "radius": "0.05"}, "disconnected"),
        ("signal", {"phases": "0, 2"}, "signal.phases: need one phase per node"),
        ("network", {"combination_rows": "0.5, 0.5; 0.5, 0.5"},
         "network.combination_rows: wrong shape"),
        ("network", {"combination_rows": "0.5, 0.5, 0, 0.5; 0.5, 0.5, 0.5, 0; "
                                         "0, 0.5, 0.5, 0.5; 0.5, 0, 0.5, 0.5"},
         "columns must sum to 1"),
        ("network", {"combination_rows": "; ".join(["0.25, 0.25, 0.25, 0.25"] * 4)},
         "outside the neighborhood"),
        # the filters do not re-check lam and delta, so the config is their only guard
        ("algorithm", {"forgetting_factor": "1.0"}, "algorithm.forgetting_factor: must lie"),
        ("algorithm", {"forgetting_factor": "0.89"}, "algorithm.forgetting_factor: must lie"),
        ("algorithm", {"delta": "0"}, "algorithm.delta: must be positive"),
        ("algorithm", {"guard": "0"}, "algorithm.guard: must be positive"),
        ("output", {"snapshot_every": "-1"}, "output.snapshot_every: must be >= 0"),
        # the rules below live in the objects run builds from the config
        ("network", {"nodes": "1"}, "network: need at least 2 nodes"),
        ("network", {"topology": "star"}, "network: unknown topology kind 'star'"),
        ("network", {"combination": "max"}, "network: unknown combination rule 'max'"),
        ("network", {"noise_low": "0.2", "noise_high": "0.1"},
         "network: need 0 < noise_low <= noise_high"),
        ("network", {"noise_variances": "0.1, 0, 0.1, 0.1"},
         "network.noise_variances: all entries must be positive"),
        ("signal", {"taps": "0"}, "signal: taps (filter length L) must be >= 1"),
        ("signal", {"rho": "1.0"}, "signal: rho must lie in [0, 1)"),
        ("signal", {"period": "0"}, "signal: period must be a positive integer"),
        # the algorithm list is built into the ensemble spec, so reported under it
        ("algorithm", {"algorithms": "rls, lms"}, "ensemble: unknown algorithms: ['lms']"),
        ("ensemble", {"runs": "0"}, "ensemble: runs and iterations must be >= 1"),
        ("ensemble", {"iterations": "0"}, "ensemble: runs and iterations must be >= 1"),
    ])
    def test_check_rejects_what_run_rejects(self, tmp_path, capsys, section,
                                            values, message):
        raw = {s: dict(kv) for s, kv in SMALL.items()}
        raw.setdefault(section, {}).update(values)
        path = tmp_path / "c.ini"
        write_ini(path, raw)
        for argv in (["check", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
            assert main(argv) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_keys_unread_with_explicit_values_are_not_checked(self, tmp_path):
        # explicit variances and weights are used as given, so nothing
        # reads noise_low or combination
        path = tmp_path / "c.ini"
        write_ini(path, {**EXPLICIT, "network": {**EXPLICIT["network"], "noise_low": "-1",
                                                 "combination": "max"}})
        assert main(["check", str(path)]) == EXIT_OK

    def test_missing_file(self):
        assert main(["check", "/nonexistent/nope.ini"]) == EXIT_VALIDATION

    def test_check_rejects_ephi_init(self, tmp_path, capsys):
        # E{Phi_0} = delta*I always, so the key that chose it is unknown
        path = tmp_path / "c.ini"
        write_ini(path, {**SMALL, "algorithm": {"ephi_init": "delta"}})
        assert main(["check", str(path)]) == EXIT_VALIDATION
        assert "algorithm.ephi_init: unknown key" in capsys.readouterr().err

    def test_run_command(self, tmp_path):
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert (tmp_path / "out" / "experiment_trajectory.csv").exists()

    def test_run_check_acceptance_strict_tolerance_fails(self, tmp_path):
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--check-acceptance", "--steady-tol-db", "1e-9",
                     "--transient-tol-db", "1e-9"])
        assert code == EXIT_ACCEPTANCE

    def test_sweep_labels_outputs(self, tmp_path):
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        out = tmp_path / "sweep"
        assert main(["sweep", str(path), "--param", "signal.period",
                     "--values", "4,8", "--out", str(out)]) == EXIT_OK
        assert (out / "experiment_period=4_trajectory.csv").exists()
        assert (out / "experiment_period=8_trajectory.csv").exists()

    def test_sweep_bad_param(self, tmp_path):
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        assert main(["sweep", str(path), "--param", "nonsense",
                     "--values", "1"]) == EXIT_VALIDATION

    def test_singular_ephi_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        monkeypatch.setattr(theory, "expected_phi_step",
                            lambda EPhi_prev, R_x_n, lam: np.zeros_like(EPhi_prev))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
        assert "not invertible" in capsys.readouterr().err

    def test_k_matrix_not_psd_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        step = theory.k_matrix_step
        monkeypatch.setattr(theory, "k_matrix_step", lambda *args: -step(*args))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
        assert "positive semidefiniteness" in capsys.readouterr().err

    def test_guard_exclusions_are_numeric_failure(self, tmp_path, capsys):
        # P_0 = I/delta = 100*I, so every run passes a guard of 50 at iteration 1
        path = tmp_path / "c.ini"
        write_ini(path, {**SMALL, "algorithm": {"guard": "50"}})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
        assert "3 of 3 runs excluded" in capsys.readouterr().err

    def test_programming_error_is_not_numeric_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)

        def broken(*args, **kwargs):
            raise RuntimeError("programming error")

        monkeypatch.setattr(cli, "run_ensemble", broken)
        with pytest.raises(RuntimeError, match="programming error"):
            main(["run", str(path), "--out", str(tmp_path / "out")])

    def test_sweep_explicit_edges(self, tmp_path):
        path = tmp_path / "c.ini"
        write_ini(path, EXPLICIT)
        out = tmp_path / "sweep"
        assert main(["sweep", str(path), "--param", "signal.period",
                     "--values", "4", "--out", str(out)]) == EXIT_OK
        assert (out / "experiment_period=4_trajectory.csv").exists()


def test_reproduce_full_scale_script_explicit_edges(tmp_path, capsys):
    path = tmp_path / "c.ini"
    write_ini(path, EXPLICIT)
    spec = importlib.util.spec_from_file_location(
        "reproduce_full_scale", ROOT / "scripts" / "reproduce_full_scale.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "out"
    assert script.main(["--config", str(path), "--out", str(out),
                        "--runs", "1", "--periods", "4,8"]) == 0
    for T in (4, 8):
        assert (out / f"experiment_T={T}_trajectory.csv").exists()
    assert "== period T=8 ==" in capsys.readouterr().out
