"""Statistical support: KS tests, Hill tail estimator, SE pooling."""

import numpy as np
from scipy import stats as sps


def ks_statistic(samples, cdf):
    """Two-sided KS statistic of samples against a CDF callable."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    F = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - F)
    d_minus = np.max(F - (i - 1) / n)
    return float(max(d_plus, d_minus))


def ks_two_sample(a, b):
    """Two-sample KS statistic and asymptotic p-value."""
    res = sps.ks_2samp(np.asarray(a, float), np.asarray(b, float), method="asymp")
    return float(res.statistic), float(res.pvalue)


def hill_exponent(samples, k=None):
    """Hill estimator of the tail exponent alpha (survival ~ x^-alpha).

    Uses the top k order statistics; default k = max(1000, 1% of N).
    """
    x = np.asarray(samples, dtype=float)
    x = x[x > 0]
    n = x.size
    if k is None:
        k = max(1000, int(np.ceil(0.01 * n)))
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    top = np.sort(x)[-(k + 1):]
    logs = np.log(top)
    return float(1.0 / np.mean(logs[1:] - logs[0]))


def pooled_mean_se(values):
    """Mean and standard error of per-replica values (flattened)."""
    x = np.asarray(values, float).ravel()
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 values")
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(n))


def complex_mean_se(values):
    """Mean of complex replica values with a (real SE, imag SE) pair."""
    z = np.asarray(values)
    mr, sr = pooled_mean_se(z.real)
    mi, si = pooled_mean_se(z.imag)
    return complex(mr, mi), (sr, si)


def tail_slope(samples, q_lo=0.90, q_hi=0.995, n_grid=40):
    """Tail exponent from the log-log slope of the empirical survival function.

    Fits -d log S / d log t between the q_lo and q_hi sample quantiles.
    Censored samples are +inf. Survival estimates at t below the censoring
    point do not depend on values beyond it, so when more than 1 - q_hi of the
    samples are censored the window ends at the largest observed value.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    # capping only changes quantiles that would fall among the censored
    observed_max = np.max(x[np.isfinite(x)], initial=0.0)
    t_lo, t_hi = np.quantile(np.minimum(x, observed_max), [q_lo, q_hi])
    if not 0 < t_lo < t_hi:
        raise ValueError("degenerate quantile window")
    grid = np.geomspace(t_lo, t_hi, n_grid)
    surv = 1.0 - np.searchsorted(x, grid, side="right") / n
    keep = surv > 0
    slope, _ = np.polyfit(np.log(grid[keep]), np.log(surv[keep]), 1)
    return float(-slope)

