"""Reference computations that the package does not need but the tests check it against."""

import numpy as np

from drlsnet.signals import colored_autocorrelation, sigma_at


def amplitude_table(*profiles, nodes: int = 1) -> np.ndarray:
    """The (K, T) sigma_x table the engines take: one row per profile over
    n = 0..T-1, or one profile's row repeated for `nodes` nodes."""
    rows = [sigma_at(p, np.arange(p.period)) for p in profiles]
    return np.stack(rows * nodes if len(rows) == 1 else rows)


def input_covariance(profile, params, n: int) -> np.ndarray:
    """R_x(n) = Sigma_x(n) R_u Sigma_x(n), Sigma_x(n) = diag(sigma_x(n-i)), for one n."""
    s = sigma_at(profile, n - np.arange(params.length))
    return colored_autocorrelation(params) * np.outer(s, s)
