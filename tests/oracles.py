"""Reference computations that the package does not need but the tests check it against."""

import numpy as np

from drlsnet.signals import colored_autocorrelation, sigma_at


def input_covariance(profile, params, n: int) -> np.ndarray:
    """R_x(n) = Sigma_x(n) R_u Sigma_x(n), Sigma_x(n) = diag(sigma_x(n-i)), for one n."""
    s = sigma_at(profile, n - np.arange(params.length))
    return colored_autocorrelation(params) * np.outer(s, s)
