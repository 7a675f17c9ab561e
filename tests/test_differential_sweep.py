"""Seeded differential sweep: small configs drawn over the config space.

Each case draws one config from a fixed SeedSequence branch (K 2-6, L 1-6,
T 1-40, N 5-60; ring, explicit and geometric graphs; uniform, metropolis
and explicit combination rows; all three profiles, shared or per-node
phases; rho = 0 among the draws), and about one draw in six breaks one
rule.  Each case checks the equalities the package promises for any
config:

- `check` and `run` give the same exit code, 0 or 1;
- the Monte Carlo outputs are bit-identical with one run per chunk, all
  runs in one chunk, and signal blocks of a few iterations;
- the theory MSD is within 1e-12 relative of the dense oracle;
- the theory, which solves each distinct sigma_x row once, is bit-identical
  to the per-node oracle;
- with identity combination rows, the DRLS curve equals the RLS curve.
"""

import numpy as np
import pytest

import drlsnet.harness
from drlsnet.cli import EXIT_OK, EXIT_VALIDATION, main
from drlsnet.config import parse_config, with_overrides
from drlsnet.harness import run_ensemble
from oracles import Profile, dense_theory, per_node_theory

SWEEP_SEED = 2008
CASES = 30


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _edges(rng, K) -> list[tuple[int, int]]:
    """A random spanning path plus a few random chords."""
    order = rng.permutation(K)
    edges = {tuple(sorted((int(a), int(b)))) for a, b in zip(order, order[1:])}
    for _ in range(int(rng.integers(0, K))):
        a, b = rng.choice(K, 2, replace=False)
        edges.add(tuple(sorted((int(a), int(b)))))
    return sorted(edges)


def _adjacency(K, edges) -> np.ndarray:
    adj = np.eye(K, dtype=bool)
    for a, b in edges:
        adj[a, b] = adj[b, a] = True
    return adj


def draw_config(case: int) -> dict[str, dict[str, str]]:
    """Raw config (section -> key -> text) for one sweep case."""
    rng = np.random.default_rng(np.random.SeedSequence(SWEEP_SEED).spawn(CASES)[case])
    K, L = int(rng.integers(2, 7)), int(rng.integers(1, 7))
    T, N = int(rng.integers(1, 41)), int(rng.integers(5, 61))

    net = {"nodes": str(K)}
    topology = str(rng.choice(["ring", "explicit", "random_geometric"]))
    net["topology"] = topology
    adj = None
    if topology == "ring":
        k = np.arange(K)
        adj = _adjacency(K, zip(k, (k + 1) % K))
    elif topology == "explicit":
        edges = _edges(rng, K)
        net["edges"] = ", ".join(f"{a}-{b}" for a, b in edges)
        adj = _adjacency(K, edges)
    else:
        net["radius"] = repr(float(rng.uniform(0.3, 1.0)))
        net["topology_seed"] = str(int(rng.integers(0, 1000)))
    rule = str(rng.choice(["uniform", "metropolis", "rows"]))
    if rule == "rows" and adj is not None:
        # random weights on each closed neighbourhood, columns summing to 1
        A = np.where(adj, rng.uniform(0.1, 1.0, (K, K)), 0.0)
        A /= A.sum(axis=0)
        net["combination_rows"] = "; ".join(_floats(row) for row in A)
    elif rule == "metropolis":
        net["combination"] = "metropolis"
    if rng.random() < 0.5:
        net["noise_variances"] = _floats(rng.uniform(0.005, 0.2, K))
    else:
        net["noise_seed"] = str(int(rng.integers(0, 10_000)))

    sig = {"period": str(T), "taps": str(L)}
    profile = str(rng.choice(["constant", "pulsed", "sinusoidal"]))
    sig["profile"] = profile
    if profile == "constant":
        sig["level"] = repr(float(rng.uniform(0.3, 2.0)))
    elif profile == "pulsed":
        v_low = float(10 ** rng.uniform(-3, -0.5))
        sig.update(duty_cycle=repr(float(rng.uniform(0.05, 0.95))), v_low=repr(v_low),
                   v_high=repr(v_low + float(rng.uniform(0.1, 2.0))))
    else:
        sig.update(level=repr(float(rng.uniform(0.3, 2.0))),
                   mod_depth=repr(float(rng.uniform(0.0, 0.95))))
    if rng.random() < 0.5:
        sig["phases"] = ", ".join(str(int(p)) for p in rng.integers(-50, 51, K))
    else:
        sig["phase"] = str(int(rng.integers(-50, 51)))
    sig["rho"] = "0" if rng.random() < 0.25 else repr(float(rng.uniform(0.0, 0.95)))

    alg = {"forgetting_factor": repr(float(rng.uniform(0.9, 0.999))),
           "delta": repr(float(10 ** rng.uniform(-3, 0))),
           "algorithms": str(rng.choice(["rls, drls", "drls", "rls"]))}
    ens = {"runs": str(int(rng.integers(1, 5))), "iterations": str(N),
           "master_seed": str(int(rng.integers(0, 2 ** 31)))}
    out = {"plot_script": "false", "snapshot_every": str(int(rng.integers(0, 4)))}
    raw = {"network": net, "signal": sig, "algorithm": alg, "ensemble": ens, "output": out}

    if rng.random() < 1 / 6:
        section, key, value = [
            ("signal", "phases", "0"), ("signal", "duty_cycle", "1.5"),
            ("algorithm", "forgetting_factor", "1.0"), ("ensemble", "iterations", "0"),
            ("network", "combination_rows", "; ".join(["1.0"] * K)),
        ][int(rng.integers(0, 5))]
        raw[section][key] = value
    return raw


def write_ini(path, raw) -> None:
    lines = []
    for section, kv in raw.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")


def simulate(cfg, *, theory):
    return run_ensemble(
        cfg.build_combiner(), cfg.noise_variances(), cfg.build_profiles(),
        cfg.process_params(), cfg["algorithm"]["forgetting_factor"],
        cfg["algorithm"]["delta"], cfg.ensemble_spec(), guard=cfg["algorithm"]["guard"],
        include_theory=theory, collect_mean_error=True,
        snapshot_every=cfg["output"]["snapshot_every"])


def node_profiles(cfg) -> list[Profile]:
    sig, K = cfg["signal"], cfg["network"]["nodes"]
    phases = sig["phases"] if sig["phases"] is not None else [sig["phase"]] * K
    return [Profile(kind=sig["profile"], period=sig["period"], duty_cycle=sig["duty_cycle"],
                    v_low=sig["v_low"], v_high=sig["v_high"], level=sig["level"],
                    mod_depth=sig["mod_depth"], phase=p) for p in phases]


def assert_same_outputs(got, want) -> None:
    assert got.msd_empirical.keys() == want.msd_empirical.keys()
    for algo, curve in want.msd_empirical.items():
        assert np.array_equal(got.msd_empirical[algo], curve)
        if algo in want.snapshots:
            assert got.snapshots[algo]["iteration"] == want.snapshots[algo]["iteration"]
            assert np.array_equal(got.snapshots[algo]["weights"],
                                  want.snapshots[algo]["weights"])
    assert got.snapshots.keys() == want.snapshots.keys()
    assert got.excluded_runs == want.excluded_runs
    if want.mean_err_norm_empirical is None:
        assert got.mean_err_norm_empirical is None
    else:
        assert np.array_equal(got.mean_err_norm_empirical, want.mean_err_norm_empirical)


@pytest.mark.parametrize("case", range(CASES))
def test_drawn_config(tmp_path, monkeypatch, capsys, case):
    raw = draw_config(case)
    path = tmp_path / "c.ini"
    write_ini(path, raw)
    checked = main(["check", str(path)])
    ran = main(["run", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert checked == ran and ran in (EXIT_OK, EXIT_VALIDATION), err
    if ran != EXIT_OK:
        assert "configuration error" in err
        return

    cfg = parse_config(path)
    K, L = cfg["network"]["nodes"], cfg["signal"]["taps"]
    R, N = cfg["ensemble"]["runs"], cfg["ensemble"]["iterations"]
    monkeypatch.setattr(drlsnet.harness, "_default_chunk", lambda K, N, L: R)
    whole = simulate(cfg, theory=True)
    monkeypatch.setattr(drlsnet.harness, "_default_chunk", lambda K, N, L: 1)
    assert_same_outputs(simulate(cfg, theory=False), whole)
    monkeypatch.setattr(drlsnet.harness, "_default_chunk", lambda K, N, L: R)
    block = 1 + case % 4  # iterations per signal block
    monkeypatch.setattr(drlsnet.harness, "_SIGNAL_BLOCK", block * R * K * L)
    assert_same_outputs(simulate(cfg, theory=False), whole)

    want = dense_theory(node_profiles(cfg), cfg["signal"]["rho"], cfg.build_combiner().A,
                        cfg.noise_variances(), whole.w_star,
                        cfg["algorithm"]["forgetting_factor"], cfg["algorithm"]["delta"], N)
    assert (np.abs(whole.msd_theory - want) <= 1e-12 * want).all()
    msd, err_norm = per_node_theory(
        cfg.build_profiles(), cfg.process_params(), cfg.build_combiner().A,
        cfg.noise_variances(), whole.w_star, cfg["algorithm"]["forgetting_factor"],
        cfg["algorithm"]["delta"], N)
    assert np.array_equal(whole.msd_theory, msd)
    assert np.array_equal(whole.mean_err_norm_theory, err_norm)

    # A = I: each node combines only its own estimate, so DRLS is RLS
    identity = "; ".join(_floats(row) for row in np.eye(K))
    alone = simulate(with_overrides(cfg, {"network.combination_rows": identity,
                                          "algorithm.algorithms": "rls, drls"}), theory=False)
    assert np.array_equal(alone.msd_empirical["drls"], alone.msd_empirical["rls"])
