import ast
import hashlib
import importlib.util
import json
import re
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from drlsnet import cli, harness, theory
from drlsnet.cli import (CSV_COLUMNS, EXIT_ACCEPTANCE, EXIT_NUMERIC, EXIT_OK,
                         EXIT_VALIDATION, main, run_experiment)
from drlsnet.config import (ConfigError, ExperimentConfig, config_to_text, parse_config,
                            resolve_config, with_overrides)
from oracles import Profile, sigma_at

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

SMALL = {
    "network": {"nodes": "4", "topology": "ring"},
    "signal": {"period": "8", "taps": "3"},
    "ensemble": {"runs": "3", "iterations": "120", "master_seed": "5"},
    "output": {"plot_script": "false"},
}

# one run of 20 iterations: for tests of what is written, not of its numbers
TINY = {**SMALL, "ensemble": {"runs": "1", "iterations": "20", "master_seed": "5"}}


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


# per-node phases on a sinusoidal profile: the path the pulsed, in-phase
# benchmark workloads never run
WAVY = {
    "network": {"nodes": "4", "topology": "ring"},
    "signal": {"profile": "sinusoidal", "period": "8", "taps": "3", "mod_depth": "0.6",
               "phases": "0, 2, 5, 7"},
    "ensemble": {"runs": "3", "iterations": "120", "master_seed": "5"},
    "output": {"plot_script": "false"},
}

# sha256 of the trajectory CSV each config writes: a change to any output
# digit fails the pin.  A numpy or BLAS build that rounds differently
# needs them re-recorded.
CSV_SHA256 = {
    "small": "6e32a65c77b48f052f0bb44e3db43358d59b587f401093714e20fb7c0392847a",
    "wavy": "49a6bbb118d18c66193361307f50d66ce6e6b8d9d450897456f8584504c3835a",
}
# sha256 of the metadata JSON each config writes, with `runtime_s` and the
# output directory replaced (see pinned_metadata): every other value, the
# deviation report and the excluded-run record among them, is pinned too
METADATA_SHA256 = {
    "small": "fb0fccd915adbd1582db86d027f42bbd38717f051f19d57f0cf5f0a1db4632a7",
    "wavy": "ea49d518d99d18aeaa5dd6ba2986bf8cbbdd9718ca74b97a47ca7304fe000c78",
}


# sha256 of the plot script written next to experiment_trajectory.csv
PLOT_SHA256 = "258aeb853f5415d01b92c9eacdcb816ae1b29ca69b2b0af3a6a84557a536ce2a"


def pinned_metadata(directory: Path) -> bytes:
    """The metadata JSON with its two run-dependent parts made constant."""
    text = (directory / "experiment_metadata.json").read_text()
    text = re.sub(r'"runtime_s": [^,\n]+', '"runtime_s": 0', text)
    return text.replace(str(directory), "<out>").encode()


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

    def test_rule_bounds_are_inclusive(self):
        # lam may be 0.9 itself, and any positive guard is one
        cfg = resolve_config({"algorithm": {"forgetting_factor": "0.9", "guard": "0.5"}})
        assert cfg["algorithm"]["forgetting_factor"] == 0.9
        assert cfg["algorithm"]["guard"] == 0.5

    @pytest.mark.parametrize("section, values, message", [
        ("network", {"combination_rows": "1, 0; 0, 1"},
         "network.combination_rows: wrong shape"),
        ("network", {"noise_variances": "0.1, 0.2"},
         "network.noise_variances: need one variance"),
        ("network", {"noise_variances": "0.1, -0.2, 0.1, 0.1"},
         "network.noise_variances: all entries must be positive"),
        ("signal", {"phases": "0, 1"}, "signal.phases: need one phase per node"),
    ], ids=["rows-shape", "variance-count", "variance-sign", "phase-count"])
    def test_builder_errors_name_their_key_once(self, section, values, message):
        # a ConfigError from a builder already names its key, so the
        # validation passes it on rather than prefixing its section
        raw = {"network": {"nodes": "4", "topology": "ring"}}
        raw.setdefault(section, {}).update(values)
        with pytest.raises(ConfigError) as err:
            resolve_config(raw)
        assert str(err.value).startswith(message)

    def test_programming_error_in_a_builder_is_not_a_config_error(self, monkeypatch):
        # only a builder's ValueError is an input rule; anything else is a bug
        def broken(self):
            raise TypeError("programming error")

        monkeypatch.setattr(ExperimentConfig, "build_profiles", broken)
        with pytest.raises(TypeError, match="programming error"):
            resolve_config({})

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
        table = cfg.build_profiles()
        assert table.shape == (3, 32)
        # a pulsed row shifted by its phase
        for k, phase in enumerate([0, 4, 8]):
            assert np.array_equal(table[k], np.roll(table[0], phase))
        shared = resolve_config({"network": {"nodes": "3", "topology": "ring"},
                                 "signal": {"phase": "4"}}).build_profiles()
        assert np.array_equal(shared, np.stack([table[1]] * 3))

    @pytest.mark.parametrize("signal", [
        {"profile": "constant", "level": "1.5", "period": "5"},
        {"profile": "pulsed", "period": "6", "duty_cycle": "0.4"},
        {"profile": "sinusoidal", "period": "7", "mod_depth": "0.5"},
    ], ids=["constant", "pulsed", "sinusoidal"])
    def test_amplitude_table_reads_sigma_at(self, signal):
        # row[n % T] is the oracle's sigma_x(n) exactly, before time 0 as
        # after it, and for a phase past one period
        phases = (3, -2, 13)
        cfg = resolve_config({"network": {"nodes": "3", "topology": "ring"},
                              "signal": {**signal, "phases": "3, -2, 13"}})
        sig = cfg["signal"]
        table = cfg.build_profiles()
        n = np.arange(-40, 5001)
        for row, phase in zip(table, phases, strict=True):
            profile = Profile(
                kind=sig["profile"], period=sig["period"], duty_cycle=sig["duty_cycle"],
                v_low=sig["v_low"], v_high=sig["v_high"], level=sig["level"],
                mod_depth=sig["mod_depth"], phase=phase)
            assert np.array_equal(row[n % sig["period"]], sigma_at(profile, n))

    def test_with_overrides_keeps_explicit_edges_and_lists(self):
        cfg = resolve_config(EXPLICIT)
        out = with_overrides(cfg, {"signal.period": "4", "ensemble.runs": "7"})
        assert out["signal"]["period"] == 4
        assert out["ensemble"]["runs"] == 7
        out.values["signal"]["period"] = cfg["signal"]["period"]
        out.values["ensemble"]["runs"] = cfg["ensemble"]["runs"]
        assert out.values == cfg.values

    def test_with_overrides_strips_values(self):
        # as in a file, a value loses its outer whitespace, so the echoed
        # config text replays to the same value
        cfg = with_overrides(resolve_config(SMALL), {"output.directory": "  out dir \t"})
        assert cfg["output"]["directory"] == "out dir"
        assert with_overrides(cfg, {})["output"]["directory"] == "out dir"  # via its text

    def test_empty_edge_tokens_are_skipped(self):
        # as in every list: a token that strips to nothing is no entry
        cfg = resolve_config({"network": {"nodes": "3", "topology": "explicit",
                                          "edges": "0-1, , 1-2"}})
        assert cfg["network"]["edges"] == [(0, 1), (1, 2)]

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

    @pytest.mark.parametrize("name, raw", [("small", SMALL), ("wavy", WAVY)])
    def test_csv_bytes_pinned(self, tmp_path, name, raw):
        assert run_experiment(resolve_config(raw), out_dir=tmp_path) == EXIT_OK
        csv_bytes = (tmp_path / "experiment_trajectory.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == CSV_SHA256[name]
        meta_bytes = pinned_metadata(tmp_path)
        assert b"<out>/experiment_trajectory.csv" in meta_bytes
        assert hashlib.sha256(meta_bytes).hexdigest() == METADATA_SHA256[name]

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

    def test_metadata_counts_surviving_runs(self, tmp_path, monkeypatch):
        # the harness's pinned mid-run trips (faint constant input on a
        # 3-node ring, guard 440): 5 of 8 runs lost, 3 averaged per algorithm
        monkeypatch.setattr(harness, "_MAX_EXCLUDED_FRACTION", 1.0)
        cfg = resolve_config({
            "network": {"nodes": "3", "topology": "ring"},
            "signal": {"profile": "constant", "level": "0.003", "taps": "2"},
            "algorithm": {"guard": "440"},
            "ensemble": {"runs": "8", "iterations": "400", "master_seed": "21"},
            "output": {"plot_script": "false"}})
        assert run_experiment(cfg, out_dir=tmp_path) == EXIT_OK
        meta = json.loads((tmp_path / "experiment_metadata.json").read_text())
        pinned = [[1, 394], [2, 389], [3, 389], [4, 400], [7, 397]]
        assert meta["excluded_runs"] == {"rls": pinned, "drls": pinned}
        assert meta["runs_effective"] == {"rls": 3, "drls": 3}
        assert meta["master_seed"] == 21

    def test_theory_only_leaves_empirical_columns_empty(self, tmp_path):
        raw = {s: dict(kv) for s, kv in SMALL.items()}
        raw["algorithm"] = {"algorithms": ""}
        run_experiment(resolve_config(raw), out_dir=tmp_path)
        lines = (tmp_path / "experiment_trajectory.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert first[1] == "" and first[2] == ""  # no empirical curves
        assert first[3] != ""                      # theory present

    def test_runtime_is_measured_within_the_call(self, tmp_path):
        started = time.perf_counter()
        run_experiment(resolve_config(TINY), out_dir=tmp_path)
        elapsed = time.perf_counter() - started
        meta = json.loads((tmp_path / "experiment_metadata.json").read_text())
        assert 0 < meta["runtime_s"] <= elapsed

    def test_snapshots_written_beside_the_csv(self, tmp_path):
        raw = {**TINY, "output": {"plot_script": "false", "snapshot_every": "10"}}
        assert run_experiment(resolve_config(raw), out_dir=tmp_path) == EXIT_OK
        meta = json.loads((tmp_path / "experiment_metadata.json").read_text())
        path = tmp_path / "experiment_snapshots.npz"
        assert meta["outputs"]["snapshots_npz"] == str(path)
        assert np.load(path)["drls_iteration"].tolist() == [10, 20]

    @pytest.mark.parametrize("steady, transient, code", [
        (1.0, 2.0, EXIT_OK),            # each mean may equal its tolerance
        (1.5, 0.5, EXIT_ACCEPTANCE),    # steady alone over its tolerance
        (0.5, 2.5, EXIT_ACCEPTANCE),    # transient alone over its tolerance
    ])
    def test_acceptance_gate_needs_both_means_within_tolerance(
            self, tmp_path, monkeypatch, capsys, steady, transient, code):
        report = {"steady_mean_abs_db": steady, "transient_mean_abs_db": transient}
        monkeypatch.setattr(cli, "compare_theory_empirical", lambda traj: report)
        assert run_experiment(resolve_config(TINY), out_dir=tmp_path,
                              check_acceptance=True) == code
        assert capsys.readouterr().out.endswith("PASS\n" if code == EXIT_OK else "FAIL\n")

    def test_acceptance_without_drls_theory_fails(self, tmp_path, capsys):
        raw = {**TINY, "algorithm": {"algorithms": "rls"}}
        assert run_experiment(resolve_config(raw), out_dir=tmp_path,
                              check_acceptance=True) == EXIT_ACCEPTANCE
        assert "needs both theory and empirical drls curves" in capsys.readouterr().err


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
        ("ensemble", {"master_seed": "-1"}, "ensemble: master_seed must be >= 0"),
        # every float is parsed finite, so NaN and inf stop at the parser
        ("network", {"noise_variances": "nan, 0.1, 0.1, 0.1"},
         "network.noise_variances: cannot parse"),
        ("network", {"noise_variances": "0.1, inf, 0.1, 0.1"},
         "network.noise_variances: cannot parse"),
        ("network", {"combination_rows": "nan, 0.5, 0, 0.5; 0.5, 0.5, 0.5, 0; "
                                         "0, 0.5, 0.5, 0.5; 0.5, 0, 0.5, 0.5"},
         "network.combination_rows: cannot parse"),
        ("algorithm", {"guard": "nan"}, "algorithm.guard: cannot parse"),
        ("algorithm", {"guard": "inf"}, "algorithm.guard: cannot parse"),
        ("signal", {"profile": "constant", "level": "nan"}, "signal.level: cannot parse"),
        ("signal", {"rho": "-inf"}, "signal.rho: cannot parse"),
        # the sigma_x profile rules
        ("signal", {"profile": "triangular"}, "signal: unknown profile kind 'triangular'"),
        ("signal", {"profile": "constant", "level": "0"},
         "signal: constant level must be positive"),
        ("signal", {"duty_cycle": "1.5"}, "signal: duty cycle must lie in (0, 1)"),
        ("signal", {"v_low": "0"}, "signal: need 0 < v_low < v_high"),
        ("signal", {"v_low": "2.0", "v_high": "2.0"}, "signal: need 0 < v_low < v_high"),
        ("signal", {"profile": "sinusoidal", "mod_depth": "1.0"},
         "signal: need level > 0 and 0 <= mod_depth < 1"),
        # files are written as <directory>/<prefix>_*, so a prefix names no directory
        ("output", {"prefix": "sub/run"}, "output.prefix: must be a file name, not a path"),
        # appended last, so the cases above keep their ids: a negative
        # weight whose columns sum to 1 with support within the ring, and
        # two inputs that numpy rejected with its own message
        ("network", {"combination_rows": "1.2, 0.25, 0.0, 0.25; -0.1, 0.5, 0.25, 0.0; "
                                         "0.0, 0.25, 0.5, 0.25; -0.1, 0.0, 0.25, 0.5"},
         "network: combination weights must be nonnegative"),
        ("network", {"nodes": "-1"}, "network: need at least 2 nodes"),
        ("network", {"combination_rows": "1, 0; 0"},
         "network.combination_rows: cannot parse '1, 0; 0' (rows differ in length)"),
        ("output", {"plot_script": "maybe"},
         "output.plot_script: cannot parse 'maybe' (not a boolean: 'maybe')"),
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

    @pytest.mark.parametrize("text", [
        b"[network]\nnodes = 4\nnodes = 5\n",
        b"[network]\nnodes = 4\n[network]\ntopology = ring\n",
        b"nodes = 4\n[network]\ntopology = ring\n",
        b"[network]\nnodes 4\n",
        b"[network]\ntopology = ring\n# \xff\xfe\n",
    ], ids=["duplicate-key", "duplicate-section", "key-before-section",
            "line-without-equals", "not-utf8"])
    def test_malformed_file_is_validation_error(self, tmp_path, capsys, text):
        path = tmp_path / "c.ini"
        path.write_bytes(text)
        for argv in (["check", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
            assert main(argv) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert f"configuration error: cannot parse config file {path}" in err
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_default_section_is_named(self, tmp_path, capsys):
        # configparser reads [DEFAULT] keys into every section, so it is refused
        path = tmp_path / "c.ini"
        path.write_text("[DEFAULT]\nnodes = 4\n[network]\ntopology = ring\n")
        for argv in (["check", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
            assert main(argv) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert f"a [DEFAULT] section is not allowed (in {path})" in err
        assert not (tmp_path / "out").exists()

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

    def test_run_check_acceptance_fails_fixed_gate(self, tmp_path, capsys):
        # criterion 1's gate is fixed at 1 dB steady, 2 dB transient; one
        # run of 60 iterations is far from the theory
        path = tmp_path / "c.ini"
        write_ini(path, {**SMALL, "ensemble": {"runs": "1", "iterations": "60",
                                               "master_seed": "5"}})
        code = main(["run", str(path), "--out", str(tmp_path / "out"), "--check-acceptance"])
        assert code == EXIT_ACCEPTANCE
        assert capsys.readouterr().out == (
            "theory/empirical deviation: steady 5.878 dB (tol 1.0), "
            "transient 5.293 dB (tol 2.0) -> FAIL\n")

    def test_run_check_acceptance_passes_fixed_gate(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        code = main(["run", str(path), "--out", str(tmp_path / "out"), "--check-acceptance"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            "theory/empirical deviation: steady 0.858 dB (tol 1.0), "
            "transient 1.482 dB (tol 2.0) -> PASS\n")

    def test_run_out_sets_output_directory(self, tmp_path):
        # --out is an output.directory override: the metadata echoes it, and
        # its config text replays to the same files without --out
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "experiment_metadata.json").read_text())
        assert meta["resolved_config"]["output"]["directory"] == str(out)
        csv_bytes = (out / "experiment_trajectory.csv").read_bytes()
        replay = tmp_path / "replay.ini"
        replay.write_text(meta["resolved_config_text"])
        shutil.rmtree(out)
        assert main(["run", str(replay)]) == EXIT_OK
        assert (out / "experiment_trajectory.csv").read_bytes() == csv_bytes

    @pytest.mark.parametrize("argv", [
        ["sweep", "{cfg}"],
        ["run"],
        ["run", "{cfg}", "--steady-tol-db", "abc"],
        ["run", "{cfg}", "--steady-tol-db", "nan"],
        ["run", "{cfg}", "--steady-tol-db", "-0.5"],
        ["run", "{cfg}", "--transient-tol-db", "inf"],
        ["run", "{cfg}", "--check-acceptance", "--transient-tol-db", "-1"],
    ], ids=["sweep-no-param", "run-no-config", "tol-abc", "tol-nan", "tol-negative",
            "tol-inf", "tol-negative-checked"])
    def test_usage_error_is_validation_error(self, tmp_path, capsys, argv):
        # argparse's own exit code is 2, which this CLI reserves for numeric
        # failure; the gate's tolerances are fixed, so a tolerance flag is an
        # unknown option, refused before anything is simulated
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        argv = [a.format(cfg=path) for a in argv] + ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        assert "usage: drlsnet" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_labels_outputs(self, tmp_path):
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        out = tmp_path / "sweep"
        assert main(["sweep", str(path), "--param", "signal.period",
                     "--values", "4,8", "--out", str(out)]) == EXIT_OK
        assert (out / "experiment_period=4_trajectory.csv").exists()
        assert (out / "experiment_period=8_trajectory.csv").exists()

    def test_sweep_strips_each_value(self, tmp_path):
        # a value is stripped before it names the files, as it is parsed
        path = tmp_path / "c.ini"
        write_ini(path, TINY)
        out = tmp_path / "sweep"
        assert main(["sweep", str(path), "--param", "signal.period",
                     "--values", "4, 8 ", "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "experiment_period=4_trajectory.csv", "experiment_period=8_trajectory.csv"]

    def test_sweep_metadata_names_its_files(self, tmp_path):
        # the echoed config carries the prefix the files were written
        # under, so replaying it writes the same files with the same bytes
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        out = tmp_path / "sweep"
        assert main(["sweep", str(path), "--param", "signal.period",
                     "--values", "4", "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "experiment_period=4_metadata.json").read_text())
        assert meta["resolved_config"]["output"]["prefix"] == "experiment_period=4"
        replay = tmp_path / "replay.ini"
        replay.write_text(meta["resolved_config_text"])
        assert main(["run", str(replay), "--out", str(tmp_path / "replay")]) == EXIT_OK
        assert ((tmp_path / "replay" / "experiment_period=4_trajectory.csv").read_bytes()
                == (out / "experiment_period=4_trajectory.csv").read_bytes())

    def test_sweep_over_prefix_keeps_file_names(self, tmp_path):
        # the label follows the prefix the swept value sets
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        out = tmp_path / "sweep"
        assert main(["sweep", str(path), "--param", "output.prefix",
                     "--values", "a,b", "--out", str(out)]) == EXIT_OK
        for name in ("a", "b"):
            assert (out / f"{name}_prefix={name}_trajectory.csv").exists()

    def test_sweep_out_wins_over_swept_directory(self, tmp_path):
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        out = tmp_path / "sweep"
        assert main(["sweep", str(path), "--param", "output.directory",
                     "--values", "elsewhere", "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "experiment_directory=elsewhere_metadata.json").read_text())
        assert meta["resolved_config"]["output"]["directory"] == str(out)

    def test_sweep_over_nested_directory_is_validation_error(self, tmp_path, capsys):
        # the label puts the value in the prefix, so a value with a path
        # separator stops at validation instead of failing to write the CSV
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        assert main(["sweep", str(path), "--param", "output.directory",
                     "--values", "sub/dir", "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "output.prefix: must be a file name" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_sweep_checks_every_value_before_running(self, tmp_path, capsys):
        # a bad later value stops the sweep before the earlier ones run
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)
        out = tmp_path / "sweep"
        assert main(["sweep", str(path), "--param", "ensemble.runs",
                     "--values", "2,0,3", "--out", str(out)]) == EXIT_VALIDATION
        assert "ensemble: runs and iterations must be >= 1" in capsys.readouterr().err
        assert not out.exists()

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

    def test_non_finite_theory_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        # a theory-only run whose K_n turns NaN writes no CSV and exits 2
        path = tmp_path / "c.ini"
        write_ini(path, {**SMALL, "algorithm": {"algorithms": ""}})
        monkeypatch.setattr(theory, "k_matrix_step",
                            lambda prev, *args: np.full_like(prev, np.nan))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
        assert "not finite at n=1" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.csv"))

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

    def test_value_error_from_a_run_is_not_validation_error(self, tmp_path, monkeypatch):
        # a config is validated before it runs, so a ValueError from the run is a bug
        path = tmp_path / "c.ini"
        write_ini(path, SMALL)

        def broken(*args, **kwargs):
            raise ValueError("programming error")

        monkeypatch.setattr(cli, "run_ensemble", broken)
        with pytest.raises(ValueError, match="programming error"):
            main(["run", str(path), "--out", str(tmp_path / "out")])

    def test_sweep_explicit_edges(self, tmp_path):
        path = tmp_path / "c.ini"
        write_ini(path, EXPLICIT)
        out = tmp_path / "sweep"
        assert main(["sweep", str(path), "--param", "signal.period",
                     "--values", "4", "--out", str(out)]) == EXIT_OK
        assert (out / "experiment_period=4_trajectory.csv").exists()


def load_reproduce_script():
    spec = importlib.util.spec_from_file_location(
        "reproduce_full_scale", ROOT / "scripts" / "reproduce_full_scale.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_reproduce_full_scale_script_explicit_edges(tmp_path, capsys):
    path = tmp_path / "c.ini"
    write_ini(path, EXPLICIT)
    script = load_reproduce_script()
    out = tmp_path / "out"
    assert script.main(["--config", str(path), "--out", str(out),
                        "--runs", "1", "--periods", "4,8"]) == 0
    for T in (4, 8):
        assert (out / f"experiment_T={T}_trajectory.csv").exists()
        meta = json.loads((out / f"experiment_T={T}_metadata.json").read_text())
        assert meta["resolved_config"]["output"]["prefix"] == f"experiment_T={T}"
    printed = capsys.readouterr().out
    assert "== period T=8 ==" in printed
    # each period's line carries its elapsed time and the peak memory so far
    assert len(re.findall(r"^  outputs under .+/, \d+ s, peak memory \d+ MB$",
                          printed, re.MULTILINE)) == 2


def test_reproduce_full_scale_script_drls_only(tmp_path, capsys):
    # the summary covers the curves the CSV carries: no RLS level, no gain
    path = tmp_path / "c.ini"
    write_ini(path, {**EXPLICIT, "algorithm": {"algorithms": "drls"}})
    assert load_reproduce_script().main(["--config", str(path), "--out", str(tmp_path / "out"),
                                         "--periods", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"  steady-state MSD: drls [+-]\d+\.\d\d dB", lines[1])
    assert lines[2].startswith("  periodicity score at 1/4: ")


@pytest.mark.parametrize("prefix", ['a"b', "a\\b", "a'b", 'x"""y', "ü", "experiment"])
def test_plot_script_names_its_csv(tmp_path, prefix):
    # the CSV name enters the script as a string literal, whatever the prefix
    cfg = resolve_config({**SMALL, "ensemble": {"runs": "1", "iterations": "5"},
                          "output": {"prefix": prefix}})
    assert run_experiment(cfg, out_dir=tmp_path) == EXIT_OK
    csv_name = f"{prefix}_trajectory.csv"
    assert (tmp_path / csv_name).is_file()
    source = (tmp_path / f"{prefix}_plot.py").read_bytes()
    tree = ast.parse(source)
    assert ast.get_docstring(tree) == f"Plot the MSD trajectories from {csv_name} (generated file)."
    [call] = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "with_name"]
    assert ast.literal_eval(call.args[0]) == csv_name
    if prefix == "experiment":
        assert hashlib.sha256(source).hexdigest() == PLOT_SHA256


def test_readme_names_every_cli_flag(capsys):
    # README documents every option the parsers take, and no other
    flags = set()
    for command in ("run", "sweep", "check"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == EXIT_OK
        flags |= set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    assert sorted(flag for flag in flags if flag not in readme) == []
    assert sorted(set(re.findall(r"--[a-z][a-z-]*", cli_section)) - flags) == []


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
def test_shipped_config_checks_and_runs(tmp_path, config):
    # every shipped config validates, and runs end to end at a tiny size
    assert main(["check", str(config)]) == EXIT_OK
    cfg = with_overrides(parse_config(config), {
        "ensemble.runs": "2", "ensemble.iterations": "20",
        "output.directory": str(tmp_path / "out")})
    assert run_experiment(cfg) == EXIT_OK
    prefix = cfg["output"]["prefix"]
    lines = (tmp_path / "out" / f"{prefix}_trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 20
