"""Reference computations that the package does not need but the tests check it against,
and the config helpers the test files share.

The scipy-based ones are the calls the package made before it depended
on numpy alone; its own versions must match them bit for bit.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import toeplitz
from scipy.signal import detrend, lfilter
from scipy.sparse.csgraph import connected_components

import drlsnet.harness
from drlsnet.filters import init_state, update_inverse_correlation
from drlsnet.signals import (colored_autocorrelation, generate_node_signals,
                             make_ground_truth)
from drlsnet.theory import (expected_phi_step, initial_theory_state, mean_error_step,
                            network_msd, transition_blocks)


class Profile(NamedTuple):
    """One node's sigma_x: the config's signal keys and the node's phase.

    The record is not validated; `drlsnet.signals.sigma_table` owns the rules.
    """

    kind: str = "constant"
    period: int = 1
    duty_cycle: float = 0.5
    v_low: float = 1.0
    v_high: float = 1.0
    level: float = 1.0
    mod_depth: float = 0.0
    phase: int = 0


def sigma_at(profile: Profile, n) -> np.ndarray | float:
    """sigma_x(n) at any integer n, scalar or array, from the formula of its kind.

      - "constant": level
      - "pulsed": v_high where (n - phase) mod T < ceil(duty_cycle*T), else v_low
      - "sinusoidal": level * (1 + mod_depth * sin(2*pi*((n - phase) mod T)/T))
    """
    n = np.asarray(n)
    if profile.kind == "constant":
        out = np.full(n.shape, profile.level)
    elif profile.kind == "pulsed":
        pos = (n - profile.phase) % profile.period
        high = pos < math.ceil(profile.duty_cycle * profile.period)
        out = np.where(high, profile.v_high, profile.v_low)
    else:
        out = profile.level * (1.0 + profile.mod_depth
                               * np.sin(2.0 * np.pi * ((n - profile.phase) % profile.period)
                                        / profile.period))
    return out if out.ndim else float(out)


def amplitude_table(*profiles, nodes: int = 1) -> np.ndarray:
    """The (K, T) sigma_x table the engines take: one row per profile over
    n = 0..T-1, or one profile's row repeated for `nodes` nodes."""
    rows = [sigma_at(p, np.arange(p.period)) for p in profiles]
    return np.stack(rows * nodes if len(rows) == 1 else rows)


def node_profiles(cfg) -> list[Profile]:
    """One Profile per node of a resolved config: its signal keys and the
    node's phase, from `phases` or the shared `phase`."""
    sig, K = cfg["signal"], cfg["network"]["nodes"]
    phases = sig["phases"] if sig["phases"] is not None else [sig["phase"]] * K
    return [Profile(kind=sig["profile"], period=sig["period"], duty_cycle=sig["duty_cycle"],
                    v_low=sig["v_low"], v_high=sig["v_high"], level=sig["level"],
                    mod_depth=sig["mod_depth"], phase=p) for p in phases]


def write_ini(path, raw) -> None:
    """Write a raw config (section -> key -> text) as a config file."""
    lines = []
    for section, kv in raw.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")


def input_covariance(profile, params, n: int) -> np.ndarray:
    """R_x(n) = Sigma_x(n) R_u Sigma_x(n), Sigma_x(n) = diag(sigma_x(n-i)), for one n."""
    s = sigma_at(profile, n - np.arange(params.length))
    return colored_autocorrelation(params) * np.outer(s, s)


def dense_theory(profiles, rho: float, A: np.ndarray, noise_variances: np.ndarray,
                 w_star: np.ndarray, lam: float, delta: float, N: int) -> np.ndarray:
    """Theory MSD tr(K_n)/K for n = 1..N, iterated on the dense KL x KL
    matrices: E{Phi_n} block diagonal and inverted outright, the combiner
    expanded to A^T (x) I_L, and sigma_x from `sigma_at`, one profile per node."""
    K, L = len(profiles), len(w_star)
    R_u = toeplitz_autocorrelation(rho, L)
    cA = np.kron(A.T, np.eye(L))
    Sz = np.kron(np.diag(noise_variances), np.eye(L))
    phi = delta * np.eye(K * L)
    err = np.tile(-np.asarray(w_star, dtype=float), K)
    kmat = np.outer(err, err)
    msd = np.empty(N)
    for n in range(1, N + 1):
        R = np.zeros((K * L, K * L))
        for k, profile in enumerate(profiles):
            s = sigma_at(profile, n - np.arange(L))
            R[k * L:(k + 1) * L, k * L:(k + 1) * L] = R_u * np.outer(s, s)
        phi_new = lam * phi + R
        inv = np.linalg.inv(phi_new)
        B = inv @ phi
        kmat = cA @ (lam ** 2 * (B @ kmat @ B.T) + inv @ Sz @ R @ inv) @ cA.T
        kmat = 0.5 * (kmat + kmat.T)
        phi = phi_new
        msd[n - 1] = np.trace(kmat) / K
    return msd


def noise_term(EPhi_n: np.ndarray, R_x_n: np.ndarray) -> np.ndarray:
    """Phi_k^-1 R_{x,k}(n) Phi_k^-1 per block, by the theory's two solves."""
    noise = np.linalg.solve(EPhi_n, R_x_n)
    return np.linalg.solve(EPhi_n, np.swapaxes(noise, -1, -2))


def allocating_k_matrix_step(Kmat_prev, B, EPhi_n, A, lam, noise_variances, R_x_n):
    """K_n from K_{n-1} as the package computed it before its step ran in place
    on two grids: the same operations in the same order, into fresh grids."""
    work = B[:, None] @ Kmat_prev
    inner = work @ np.swapaxes(B, -1, -2)[None]
    inner *= lam ** 2
    noise = noise_term(EPhi_n, R_x_n)
    K = EPhi_n.shape[0]
    idx = np.arange(K)
    inner[idx, idx] += noise_variances[:, None, None] * noise
    np.matmul(A.T, inner.reshape(K, -1), out=work.reshape(K, -1))
    np.copyto(inner, np.swapaxes(work, 0, 1))
    np.matmul(A.T, inner.reshape(K, -1), out=work.reshape(K, -1))
    out = np.swapaxes(work, 0, 1) + np.swapaxes(work, -1, -2)
    out *= 0.5
    return out


def per_node_theory(amplitude, params, A, noise_variances, w_star, lam, delta,
                    N) -> tuple[np.ndarray, np.ndarray]:
    """(msd, mean_err_norm) of `drlsnet.theory.theoretical_trajectory`, with
    R_x(n), E{Phi_n}, B and the noise term built and solved for every node
    on its own, and K_n stepped into fresh grids; no breakdown checks."""
    K, L = A.shape[0], params.length
    EPhi, mean_err, Kmat = initial_theory_state(K, L, delta, w_star)
    msd, err_norm = np.empty(N), np.empty(N)
    R_u = colored_autocorrelation(params)
    lags = np.arange(L)
    for n in range(1, N + 1):
        s = amplitude[:, (n - lags) % amplitude.shape[1]]
        R_x_n = R_u * (s[:, :, None] * s[:, None, :])
        EPhi_n = expected_phi_step(EPhi, R_x_n, lam)
        B = transition_blocks(EPhi_n, EPhi)
        mean_err = mean_error_step(mean_err, B, A, lam)
        Kmat = allocating_k_matrix_step(Kmat, B, EPhi_n, A, lam, noise_variances, R_x_n)
        EPhi = EPhi_n
        msd[n - 1] = network_msd(Kmat)
        err_norm[n - 1] = np.linalg.norm(mean_err)
    return msd, err_norm


def blas_step(P, x, lam):
    """(P_n, gain) in the package's arithmetic, written out with fresh arrays."""
    Px = np.matmul(P, x[..., None])[..., 0]
    denom = lam + np.einsum("...i,...i->...", x, Px)
    u = Px / np.sqrt(lam * denom)[..., None]
    return P * (1.0 / lam) - u[..., :, None] * u[..., None, :], Px / denom[..., None]


def blas_combine(A, psi):
    return np.matmul(A.T, psi)


def ensemble_signals(comb, nv, amplitude, params, spec):
    """(w_star, X, d) for every run, drawn through the harness's seed layout
    in one block per node-run: X of shape (N, R, K, L), d of shape (N, R, K)."""
    K, L, N, R = comb.A.shape[0], params.length, spec.iterations, spec.runs
    children = np.random.SeedSequence(spec.master_seed).spawn(1 + R)
    w_star = make_ground_truth(L, children[0])
    sigma_z = np.sqrt(nv)
    X = np.empty((N, R, K, L))
    d = np.empty((N, R, K))
    for r in range(R):
        for k, node in enumerate(children[1 + r].spawn(K)):
            ss_u, ss_z = node.spawn(2)
            X[:, r, k], d[:, r, k], _ = generate_node_signals(
                amplitude[k], params, w_star, sigma_z[k], N,
                np.random.default_rng(ss_u), np.random.default_rng(ss_z))
    return w_star, X, d


def drls_mean_error_norm(monkeypatch, simulate, N):
    """(trajectory, ||mean_r w_{k,n} - w_star|| per iteration) for the DRLS
    ensemble of `simulate()`, one harness ensemble over N iterations.

    harness.drls_iteration is wrapped by name, since the harness looks
    its iterations up once per chunk, and each step's estimates, summed
    over the chunk's runs, are added into one (N, K, L) array.  No run may
    be excluded, so the mean is over every run; the norm is over all K
    nodes' L taps.
    """
    step, calls, runs, total = drlsnet.harness.drls_iteration, 0, 0, None

    def summed(*args):
        nonlocal calls, runs, total
        w = step(*args)
        if total is None:
            total = np.zeros((N,) + w.shape[1:])
        if calls % N == 0:  # a chunk's first step
            runs += len(w)
        total[calls % N] += w.sum(axis=0)
        calls += 1
        return w

    monkeypatch.setattr(drlsnet.harness, "drls_iteration", summed)
    traj = simulate()
    assert traj.excluded_runs["drls"] == [] and calls % N == 0
    return traj, np.linalg.norm(total / runs - traj.w_star, axis=(1, 2))


def independent_states_msd(comb, nv, amplitude, params, lam, delta, spec,
                           step=blas_step, mix=blas_combine, skip=()):
    """MSD curves from a loop that gives every algorithm its own P.

    Draws the signals through the harness's seed layout and reduces in
    run order, leaving out the runs in `skip`.  With the default step and
    combine, the package's arithmetic, the curves must equal
    the harness's bit for bit.
    """
    A = comb.A
    K, L, N, R = A.shape[0], params.length, spec.iterations, spec.runs
    w_star, X, d = ensemble_signals(comb, nv, amplitude, params, spec)
    msd = {}
    for algo in spec.algorithms:
        P = np.broadcast_to(np.eye(L) / delta, (R, K, L, L)).copy()
        w = np.zeros((R, K, L))
        dev_sq = np.empty((R, N))
        for n in range(N):
            x, dn = X[n], d[n]
            e = dn - np.einsum("...i,...i->...", x, w)
            P, gain = step(P, x, lam)
            psi = w + gain * e[..., None]
            w = mix(A, psi) if algo == "drls" else psi
            dev = w - w_star
            dev_sq[:, n] = np.einsum("bki,bki->b", dev, dev)
        total = np.zeros(N)
        for r in range(R):
            if r not in skip:
                total += dev_sq[r]
        msd[algo] = total / ((R - len(skip)) * K)
    return msd


def lfilter_ar1(innov: np.ndarray, rho: float, zi) -> tuple[np.ndarray, np.ndarray]:
    """u_n = rho u_{n-1} + sqrt(1-rho^2) w_n as a first-order IIR filter,
    continued from the filter state zi = [rho u_prev]; returns (u, final state)."""
    if innov.size == 0:  # lfilter's final state is undefined on empty input
        return innov, np.asarray(zi, dtype=float)
    return lfilter([math.sqrt(1.0 - rho ** 2)], [1.0, -rho], innov, zi=zi)


def lfilter_raw_samples(rng: np.random.Generator, rho: float, L: int,
                        blocks: list[int]) -> np.ndarray:
    """One node's raw AR(1) samples at times 2-L .. N, drawn from `rng` as
    the generator draws them for blocks of the given iteration counts: the
    first block's first draw is the stationary start, and the filter state
    chains from block to block."""
    innov = rng.standard_normal(blocks[0] + L - 1)
    rest, zf = lfilter_ar1(innov[1:], rho, [rho * innov[0]])
    parts = [innov[:1], rest]
    for size in blocks[1:]:
        u, zf = lfilter_ar1(rng.standard_normal(size), rho, zf)
        parts.append(u)
    return np.concatenate(parts)


def toeplitz_autocorrelation(rho: float, L: int) -> np.ndarray:
    """R_u as the symmetric Toeplitz matrix of rho**(0..L-1)."""
    return toeplitz(rho ** np.arange(L))


def linear_detrend(seg: np.ndarray) -> np.ndarray:
    """seg minus its least-squares line."""
    return detrend(seg, type="linear")


def unreachable_from_0(adj: np.ndarray) -> list[int]:
    """Nodes outside node 0's connected component, in index order."""
    _, labels = connected_components(adj, directed=False)
    return np.flatnonzero(labels != labels[0]).tolist()


def every_step_trips(X: np.ndarray, lam: float, delta: float,
                     guard: float) -> list[tuple[int, int]]:
    """(run, iteration of its first trip) for every run whose P passes the
    guard, checking max |P| at every step; X has shape (N, R, K, L)."""
    N, R, K, L = X.shape
    P = init_state(L, delta, batch_shape=(R, K)).P
    work = np.empty_like(P)
    bad_at = np.full(R, -1)
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(N):
            update_inverse_correlation(P, X[n], lam, work)
            trip = ~(np.maximum(P.max(axis=(-3, -2, -1)),
                                -P.min(axis=(-3, -2, -1))) <= guard)
            bad_at[trip & (bad_at < 0)] = n + 1
    return [(r, int(bad_at[r])) for r in range(R) if bad_at[r] >= 0]
