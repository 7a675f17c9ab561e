"""Acceptance suite: every release gate in one place, one line per criterion.

Criteria 1-4 run configs/desk_pulsed_T32.ini (K=10 seeded geometric
network, L=8, lambda=0.995, rho=0.8, pulsed amplitude profile), as
shipped or with a few overrides, and check the headline claims at their
pinned tolerances.  Expensive trajectories are shared between criteria
through module-scoped fixtures; the whole file finishes in about a
minute.  Criterion 7 (full-scale reproduction) is measured on the
full-scale config's first 600 iterations and printed, not gated;
scripts/reproduce_full_scale.py runs it in full.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from drlsnet.cli import STEADY_TOL_DB, TRANSIENT_TOL_DB, run_config
from drlsnet.config import parse_config, with_overrides
from drlsnet.filters import (DrlsNetworkState, drls_iteration, init_state, rls_iteration,
                             update_inverse_correlation)
from drlsnet.harness import compare_theory_empirical, to_db
from drlsnet.signals import (ColoredProcessParams, colored_autocorrelation,
                             generate_node_signals, make_ground_truth)
from drlsnet.theory import (expected_phi_step, initial_theory_state,
                            k_matrix_step, mean_error_step, transition_blocks)
from oracles import (Profile, amplitude_table, drls_mean_error_norm, input_covariance,
                     noise_term, sigma_at)
from reproduce_full_scale import detect_periodicity

LAM, DELTA, RHO = 0.995, 0.01, 0.8
ROOT = Path(__file__).resolve().parent.parent
DESK = parse_config(ROOT / "configs" / "desk_pulsed_T32.ini")


VERDICTS: list[str] = []  # echoed by conftest in the terminal summary


def report(criterion, name, ok, detail):
    line = f"ACCEPTANCE {criterion} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print("\n" + line)
    assert ok, f"criterion {criterion} ({name}): {detail}"


def pulsed(T):
    return Profile(kind="pulsed", period=T, duty_cycle=0.5,
                   v_low=2e-3, v_high=2.0)


def run_desk(overrides):
    """The desk config's trajectory with `overrides` (dotted key -> text)."""
    return run_config(with_overrides(DESK, overrides))


@pytest.fixture(scope="module")
def traj_fast():
    return run_desk({"signal.period": "4", "ensemble.iterations": "6000"})


def first_iterations(traj, n):
    """`traj` cut to its first n iterations: bit for bit an n-iteration run
    when no run trips after iteration n, which is asserted."""
    assert all(at <= n for trips in traj.excluded_runs.values() for _, at in trips)
    return dataclasses.replace(
        traj, iterations=n, msd_empirical={a: c[:n] for a, c in traj.msd_empirical.items()},
        msd_theory=traj.msd_theory[:n], mean_err_norm_theory=traj.mean_err_norm_theory[:n])


@pytest.fixture(scope="module")
def traj_T32():
    return run_config(DESK)


class TestCriterion1TheoryEmpiricalCoincidence:
    @pytest.mark.parametrize("T", [4, 32])
    def test_msd_curves_coincide(self, T, traj_fast, traj_T32):
        # T=4 reads the first 3000 iterations of criterion 3's 6000
        traj = {4: first_iterations(traj_fast, 3000), 32: traj_T32}[T]
        # at N = 3000 the derived windows are iterations 50..500 and the last 500
        dev = compare_theory_empirical(traj)
        ok = (dev["steady_mean_abs_db"] <= STEADY_TOL_DB
              and dev["transient_mean_abs_db"] <= TRANSIENT_TOL_DB)
        report(1, f"theory/empirical MSD, T={T}", ok,
               f"steady {dev['steady_mean_abs_db']:.3f} dB (tol {STEADY_TOL_DB:g}), "
               f"transient {dev['transient_mean_abs_db']:.3f} dB (tol {TRANSIENT_TOL_DB:g})")


def test_criterion1_seeds_are_measured_not_gated():
    # criterion 1's transient window at desk seeds 0-7, where the gate
    # above holds seed 42 only: [50,500] needs only N >= 500 and no curve
    # depends on N, so 600 iterations give a 3000-iteration run's window;
    # the DRLS curve does not depend on RLS running beside it
    gaps = []
    for seed in range(8):
        traj = run_desk({"ensemble.runs": "100", "ensemble.iterations": "600",
                         "ensemble.master_seed": str(seed), "algorithm.algorithms": "drls"})
        gaps.append(compare_theory_empirical(traj)["transient_mean_abs_db"])
    line = ("ACCEPTANCE 1 [transient gap by seed]: MEASURED, NOT GATED "
            "(desk config, T=32, 100 runs x 600 iterations per seed: transient mean "
            "|gap| over [50,500] at master_seed 0-7: "
            f"{', '.join(f'{g:.2f}' for g in gaps)} dB; tol {TRANSIENT_TOL_DB:g} dB, "
            "gated at seed 42 only, see ROADMAP Known defects)")
    VERDICTS.append(line)
    print("\n" + line)


class TestCriterion2CooperationGain:
    def test_drls_beats_rls_by_3db(self, traj_T32):
        ss = slice(-500, None)
        rls_db = to_db(traj_T32.msd_empirical["rls"][ss]).mean()
        drls_db = to_db(traj_T32.msd_empirical["drls"][ss]).mean()
        gain = rls_db - drls_db
        report(2, "cooperation gain", gain >= 3.0,
               f"steady-state gain {gain:.2f} dB (floor 3 dB)")


@pytest.fixture(scope="module")
def traj_slow():
    return run_desk({"signal.period": "512", "ensemble.iterations": "6000"})


class TestCriterion3SlowVariationPeriodicity:
    def test_slow_pulse_shows_in_both_curves(self, traj_slow):
        # the detector reads the second half: the last 3000 of 6000 iterations
        emp = detect_periodicity(to_db(traj_slow.msd_empirical["drls"]), 512)
        th = detect_periodicity(to_db(traj_slow.msd_theory), 512)
        ok = emp > 0.5 and th > 0.5
        report(3, "T=512 periodicity", ok,
               f"scores: empirical {emp:.3f}, theory {th:.3f} (floor 0.5)")

    def test_fast_pulse_leaves_no_trace(self, traj_fast):
        # the theory curve's only steady-state fluctuation is the
        # (vanishing) period-T ripple itself, so the score threshold is
        # meaningful on the noisy empirical curve
        emp = detect_periodicity(to_db(traj_fast.msd_empirical["drls"]), 4)
        report(3, "T=4 aperiodicity", emp < 0.1,
               f"empirical score {emp:.4f} (ceiling 0.1)")


class TestCriterion4MeanConvergence:
    def test_mean_error_decays(self, monkeypatch):
        cfg = with_overrides(DESK, {"signal.profile": "constant", "ensemble.runs": "500",
                                    "ensemble.iterations": "5000",
                                    "algorithm.algorithms": "drls"})
        K, R = cfg["network"]["nodes"], cfg["ensemble"]["runs"]
        traj, emp_norm = drls_mean_error_norm(monkeypatch, lambda: run_config(cfg),
                                              cfg["ensemble"]["iterations"])
        th_floor = traj.mean_err_norm_theory.min()
        n_hit = int(np.argmax(traj.mean_err_norm_theory < 1e-6)) + 1
        ok_th = th_floor < 1e-6
        # ensemble mean of R runs cannot fall below the Monte Carlo
        # noise floor sqrt(steady MSD * K / R); allow 3x that level
        floor = 3 * np.sqrt(traj.msd_theory[-1] * K / R)
        emp_tail = emp_norm[-500:].mean()
        ok_emp = emp_tail <= floor
        report(4, "mean convergence", ok_th and ok_emp,
               f"theory norm < 1e-6 at n={n_hit}, empirical tail "
               f"{emp_tail:.2e} vs 3x noise floor {floor:.2e}")


class TestCriterion5OracleEquivalences:
    def test_p_update_vs_shadow_inverse(self):
        rng = np.random.default_rng(0)
        Lw = 4
        P = np.eye(Lw) / DELTA
        Phi = DELTA * np.eye(Lw)
        work = np.empty_like(P)
        worst = 0.0
        for _ in range(10_000):
            x = rng.standard_normal(Lw)
            update_inverse_correlation(P, x, LAM, work)
            Phi = LAM * Phi + np.outer(x, x)
            direct = np.linalg.inv(Phi)
            worst = max(worst, np.linalg.norm(P - direct)
                        / np.linalg.norm(direct))
        report(5, "P vs shadow inverse", worst < 1e-8,
               f"worst relative deviation {worst:.2e} over 1e4 steps (tol 1e-8)")

    def test_identity_combiner_degeneracy(self):
        Kd, Ld, N = 4, 3, 1000
        amplitude = amplitude_table(Profile(kind="constant", level=1.0))[0]
        par = ColoredProcessParams(rho=RHO, length=Ld)
        w_star = make_ground_truth(Ld, 5)
        X = np.empty((Kd, N, Ld))
        d = np.empty((Kd, N))
        for k, ss in enumerate(np.random.SeedSequence(5).spawn(Kd)):
            su, sz = ss.spawn(2)
            X[k], d[k], _ = generate_node_signals(amplitude, par, w_star, 0.3, N,
                                                  np.random.default_rng(su),
                                                  np.random.default_rng(sz))
        net = DrlsNetworkState(init_state(Ld, DELTA, (Kd,)), np.eye(Kd))
        solo = [init_state(Ld, DELTA) for _ in range(Kd)]
        net_work, solo_work = np.empty_like(net.nodes.P), np.empty((Ld, Ld))
        for n in range(N):
            drls_iteration(net, X[:, n, :], d[:, n],
                           update_inverse_correlation(net.nodes.P, X[:, n, :], LAM, net_work))
            for k in range(Kd):
                rls_iteration(solo[k], X[k, n], d[k, n],
                              update_inverse_correlation(solo[k].P, X[k, n], LAM, solo_work))
        worst = max(np.abs(net.nodes.w[k] - solo[k].w).max() for k in range(Kd))
        report(5, "identity-combiner degeneracy", worst < 1e-12,
               f"max |w_drls - w_rls| = {worst:.2e} over 1000 iters (tol 1e-12)")

    def test_scalar_theory_vs_hand_oracle(self):
        prof = pulsed(4)
        sigma_z2 = 0.04
        w_star = np.array([1.0])
        EPhi, mean_err, Kmat = initial_theory_state(1, 1, DELTA, w_star)
        work = np.empty_like(Kmat)
        # independent scalar recursions written out longhand
        ephi, ew, kk = DELTA, -1.0, 1.0
        worst = 0.0
        for n in range(1, 1001):
            r = float(sigma_at(prof, n)) ** 2
            ephi_new = LAM * ephi + r
            b = ephi / ephi_new
            ew = LAM * b * ew
            kk = LAM ** 2 * b * b * kk + sigma_z2 * r / ephi_new ** 2
            ephi = ephi_new

            # drive the block implementation one step
            R = np.array([[[r]]])
            EPhi_new = expected_phi_step(EPhi, R, LAM)
            B = transition_blocks(EPhi_new, EPhi)
            mean_err = mean_error_step(mean_err, B, np.eye(1), LAM)
            Kmat = k_matrix_step(Kmat, B, noise_term(EPhi_new, R), np.eye(1), LAM,
                                 np.array([sigma_z2]), work)
            EPhi = EPhi_new
            worst = max(worst,
                        abs(EPhi[0, 0, 0] - ephi),
                        abs(mean_err[0, 0] - ew),
                        abs(Kmat[0, 0, 0, 0] - kk))
        report(5, "scalar theory recursions", worst < 1e-12,
               f"max deviation from hand iteration {worst:.2e} "
               f"over 1000 steps (tol 1e-12)")

    def test_expected_phi_vs_monte_carlo(self):
        prof, par = pulsed(4), ColoredProcessParams(rho=RHO, length=2)
        w_star = make_ground_truth(2, 0)
        runs, n_check = 2000, 100
        acc = np.zeros((2, 2))
        for r, ss in enumerate(np.random.SeedSequence(77).spawn(runs)):
            su, sz = ss.spawn(2)
            X, _, _ = generate_node_signals(amplitude_table(prof)[0], par, w_star, 0.1,
                                            n_check, np.random.default_rng(su),
                                            np.random.default_rng(sz))
            Phi = DELTA * np.eye(2)
            for n in range(n_check):
                Phi = LAM * Phi + np.outer(X[n], X[n])
            acc += Phi
        acc /= runs
        EPhi = DELTA * np.eye(2)[None]
        for n in range(1, n_check + 1):
            EPhi = expected_phi_step(EPhi, input_covariance(prof, par, n)[None],
                                     LAM)
        rel = np.linalg.norm(acc - EPhi[0]) / np.linalg.norm(EPhi[0])
        report(5, "E{Phi} vs Monte Carlo", rel <= 0.03,
               f"relative Frobenius deviation {rel:.4f} at n=100 (tol 3%)")


class TestCriterion6StatisticalGenerators:
    def test_ar1_moments(self):
        par = ColoredProcessParams(rho=RHO, length=1)
        unit = amplitude_table(Profile(kind="constant", level=1.0))[0]
        w_star = make_ground_truth(1, 0)
        X, _, _ = generate_node_signals(unit, par, w_star, 0.0, 1_000_000,
                                        np.random.default_rng(3),
                                        np.random.default_rng(4))
        u = X[:, 0]
        var, lag1 = u.var(), float(np.mean(u[1:] * u[:-1]))
        ok = abs(var - 1.0) < 0.01 and abs(lag1 - RHO) / RHO < 0.01
        report(6, "AR(1) moments", ok,
               f"variance {var:.4f} (target 1), lag-1 {lag1:.4f} "
               f"(target {RHO}), tol 1%")

    def test_regressor_covariance(self):
        par = ColoredProcessParams(rho=RHO, length=4)
        prof = Profile(kind="constant", level=1.0)
        w_star = make_ground_truth(4, 0)
        X, _, _ = generate_node_signals(amplitude_table(prof)[0], par, w_star, 0.0,
                                        1_000_000, np.random.default_rng(5),
                                        np.random.default_rng(6))
        R = input_covariance(prof, par, 10)
        assert np.allclose(R, colored_autocorrelation(par))
        rel = np.abs((X.T @ X / X.shape[0] - R) / R).max()
        report(6, "regressor covariance", rel < 0.02,
               f"max per-entry relative deviation {rel:.4f} at L=4 (tol 2%)")


def test_criterion7_is_documented_not_gated():
    # the full-scale config (K=20, L=32, T=512) at 24 runs: its first 600
    # iterations, the rows a 6000-iteration run starts with, cover the
    # transient window; the gaps are printed, not gated
    cfg = with_overrides(parse_config(ROOT / "configs" / "reproduction_T512.ini"),
                         {"ensemble.runs": "24", "ensemble.iterations": "600"})
    traj = run_config(cfg)
    gap = to_db(traj.msd_empirical["drls"]) - to_db(traj.msd_theory)
    windows = ", ".join(f"{gap[lo - 1:hi].mean():+.1f} on [{lo},{hi}]" for lo, hi in
                        ((1, 10), (10, 50), (50, 100), (100, 200), (200, 500)))
    transient = compare_theory_empirical(traj)["transient_mean_abs_db"]
    line = ("ACCEPTANCE 7 [full-scale reproduction]: MEASURED, NOT GATED "
            f"(24 runs x 600 iterations: empirical - theory {windows} dB; "
            f"transient mean |gap| {transient:.2f} dB over [50,500]; "
            "run scripts/reproduce_full_scale.py for the full curves, see README)")
    VERDICTS.append(line)
    print("\n" + line)
