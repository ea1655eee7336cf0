"""Small numeric helpers used across modules."""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import ConfigurationError

_STANDARD_NORMAL = NormalDist()


def norm_ppf(p: float) -> float:
    """Standard normal quantile function.

    Backed by a rational approximation (Wichura's AS241 via the stdlib)
    accurate well beyond 1e-9 absolute; see tests for the oracle check.
    A level outside (0, 1), such as 1 - alpha / 2 once alpha is below about
    1e-16 and it rounds to 1, raises ConfigurationError.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"normal quantile needs a level p in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


def long_run_variance(values: np.ndarray) -> float:
    """Truncated-autocovariance (Newey-West) long-run variance estimate.

    Bartlett weights with lag window ceil(n ** (1/3)); the input order, of at
    least 2 observations, is taken as the serial order of the observations.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    d = x - x.mean()
    lag = math.ceil(n ** (1.0 / 3.0))
    lag = min(lag, n - 1)
    v = float(d @ d) / n
    for j in range(1, lag + 1):
        gamma_j = float(d[j:] @ d[:-j]) / n
        v += 2.0 * (1.0 - j / (lag + 1.0)) * gamma_j
    return max(v, 0.0)
