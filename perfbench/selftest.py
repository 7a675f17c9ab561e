#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py            # about 10 s
    python3 perfbench/selftest.py --record   # rewrite reference.json

reference.json was recorded from the package at the commit that added
the benchmark: the combiner and noise variances of both networks (which
do not depend on the seed), and smoke-size curves of every workload at
master seed SMOKE_SEED.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import unittest

import numpy as np

import checks
import run
import spec
from oracle import dense_theory, empirical_msd, ground_truth
from spans import Tracer, layer_metrics

drlsnet = run.load_package()
if drlsnet is None:
    sys.exit(2)

SMOKE_SEED = 1
SMOKE = {"desk_T32": (4, 200), "full_T512": (2, 2), "mc_full_L32": (2, 50)}
OUT = run.OUT / "selftest"


def smoke_workload(name: str) -> spec.Workload:
    runs, iterations = SMOKE[name]
    return dataclasses.replace(spec.WORKLOADS[name], runs=runs, iterations=iterations,
                               gate=False)


def smoke_experiment(name: str):
    workload = smoke_workload(name)
    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cfg_path = out_dir / "config.ini"
    cfg_path.write_text(workload.config_text(SMOKE_SEED, str(out_dir)))
    cfg = drlsnet.config.parse_config(cfg_path)
    experiment = run.Experiment(drlsnet, workload, cfg, out_dir / "outputs")
    return workload, cfg, experiment


def run_captured(experiment, tracer: Tracer | None = None):
    with experiment.capturing():
        if tracer is None:
            return experiment()
        with tracer.patch(drlsnet):
            return experiment()


def record() -> None:
    """Write reference.json from the package as it is now."""
    ref = {}
    for name in spec.WORKLOADS:
        workload, cfg, experiment = smoke_experiment(name)
        _, traj, failure = run_captured(experiment)
        assert failure is None, failure
        ref.setdefault(workload.network, {
            "A": np.asarray(cfg.build_combiner().A).tolist(),
            "noise_var": cfg.noise_variances().tolist()})
        ref[name] = {"seed": SMOKE_SEED, "runs": workload.runs,
                     "iterations": workload.iterations,
                     "msd_empirical": {a: c.tolist() for a, c in traj.msd_empirical.items()}}
        if traj.msd_theory is not None:
            ref[name]["msd_theory"] = traj.msd_theory.tolist()
            ref[name]["mean_err_norm_theory"] = traj.mean_err_norm_theory.tolist()
    checks.REFERENCE.write_text("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(value)}" for key, value in ref.items()) + "\n}\n")


class ManifestTest(unittest.TestCase):
    def test_metric_names(self):
        names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
        for name in names + list(spec.WORKLOADS):
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in spec.BENCHMARK["workloads"]],
                         list(spec.WORKLOADS))

    def test_mc_workload_is_one_full_scale_chunk(self):
        """mc_full_L32 is the chunk the harness cuts from configs/reproduction_T512.ini."""
        full = drlsnet.config.parse_config(run.ROOT / "configs" / "reproduction_T512.ini")
        K, L = full["network"]["nodes"], full["signal"]["taps"]
        N = full["ensemble"]["iterations"]
        workload = spec.WORKLOADS["mc_full_L32"]
        self.assertEqual(workload.iterations, N)
        self.assertEqual(workload.runs, drlsnet.harness._default_chunk(K, N, L))

    def test_every_layer_metric_is_produced(self):
        produced = set(layer_metrics([], 1, [[]])) | {"cli.csv_bytes", "trace.overhead_pct"}
        self.assertEqual(produced, {m.name for m in spec.PER_LAYER})

    def test_readme_documents_every_metric(self):
        readme = (run.ROOT / "perfbench" / "README.md").read_text()
        for m in spec.END_TO_END + spec.PER_LAYER:
            self.assertIn(f"`{m.name}`", readme)


class SmokeTest(unittest.TestCase):
    """Each workload at smoke size: output check, references, trace identity."""

    def _smoke(self, name):
        workload, cfg, experiment = smoke_experiment(name)
        _, plain, failure = run_captured(experiment)
        self.assertIsNone(failure)
        failures, _ = checks.check_run(workload, cfg, plain, experiment.out_dir, SMOKE_SEED)
        self.assertEqual(failures, [])

        ref = json.loads(checks.REFERENCE.read_text())[name]
        for algo, curve in ref["msd_empirical"].items():
            self.assertLessEqual(checks.max_rel(plain.msd_empirical[algo], curve),
                                 spec.EMPIRICAL_RTOL)
        if "msd_theory" in ref:
            self.assertLessEqual(checks.max_rel(plain.msd_theory, ref["msd_theory"]),
                                 spec.THEORY_RTOL)
            self.assertLessEqual(checks.max_rel(plain.mean_err_norm_theory,
                                                ref["mean_err_norm_theory"]),
                                 spec.THEORY_RTOL)
            # the oracle reproduces the recorded curves on its own
            model = checks.model_from_config(cfg)
            msd, err = dense_theory(model, ground_truth(SMOKE_SEED, workload.runs,
                                                        model.taps), workload.iterations)
            self.assertLessEqual(checks.max_rel(msd, ref["msd_theory"]), spec.THEORY_RTOL)
            self.assertLessEqual(checks.max_rel(err, ref["mean_err_norm_theory"]),
                                 spec.THEORY_RTOL)
        emp = empirical_msd(checks.model_from_config(cfg), SMOKE_SEED, workload.runs,
                               workload.iterations)
        for algo, curve in ref["msd_empirical"].items():
            self.assertLessEqual(checks.max_rel(emp[algo], curve), spec.EMPIRICAL_RTOL)

        tracer = Tracer()
        _, traced, failure = run_captured(experiment, tracer)
        self.assertIsNone(failure)
        self.assertEqual(run.digest(traced), run.digest(plain))
        for algo in plain.msd_empirical:
            np.testing.assert_array_equal(traced.msd_empirical[algo],
                                          plain.msd_empirical[algo])
        return workload, cfg, layer_metrics(tracer.spans, 1, [[]])

    def _check_computed_bytes(self, workload, cfg, m):
        K, L = cfg["network"]["nodes"], cfg["signal"]["taps"]
        R, N = workload.runs, workload.iterations
        self.assertEqual(m["signals.calls"], R * K)
        self.assertEqual(m["signals.bytes_computed"], R * K * N * (L + 1) * 8)
        # one chunk holds every smoke run
        self.assertEqual(m["harness.chunk_runs"], R)
        self.assertEqual(m["filters.batch_width"], R * K)
        self.assertEqual(m["filters.p_bytes_per_step_computed"], R * K * L * L * 8)
        self.assertEqual(m["filters.calls"], 2 * N)

    def test_desk(self):
        workload, cfg, m = self._smoke("desk_T32")
        self._check_computed_bytes(workload, cfg, m)
        self.assertEqual(m["theory.steps"], workload.iterations)

    def test_full(self):
        workload, cfg, m = self._smoke("full_T512")
        self._check_computed_bytes(workload, cfg, m)
        self.assertEqual(m["theory.steps"], workload.iterations)

    def test_mc(self):
        workload, cfg, m = self._smoke("mc_full_L32")
        self._check_computed_bytes(workload, cfg, m)
        self.assertEqual(m["theory.steps"], 0)

    def test_check_catches_a_wrong_curve(self):
        workload, cfg, experiment = smoke_experiment("mc_full_L32")
        _, traj, _ = run_captured(experiment)
        for wrong in (1 + 1e-8, np.nan):
            curve = traj.msd_empirical["drls"].copy()
            traj.msd_empirical["drls"][10] *= wrong
            failures, _ = checks.check_run(workload, cfg, traj, experiment.out_dir,
                                           SMOKE_SEED)
            self.assertTrue(any(f.startswith("empirical_drls_rel_err") for f in failures))
            traj.msd_empirical["drls"] = curve


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        unittest.main()
