"""Results computed apart from r2rcontrol, for checking its outputs.

Every function here works from the model equations stated in r2rcontrol's
docstrings, with numpy and scipy only; none calls into the package.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import kstwo, multivariate_normal, norm


def quadratic_mean_response(coeffs1, coeffs2, drift1, drift2, u, t):
    """Noiseless quadratic CMP outputs at action u (3,) and period t."""
    u1, u2, u3 = u
    f = np.array([1.0, u1, u2, u3, u1 * u1, u2 * u2, u3 * u3, u1 * u2, u1 * u3, u2 * u3])
    return np.array([f @ np.asarray(coeffs1) + drift1 * t, f @ np.asarray(coeffs2) + drift2 * t])


def oracle_mse_mean_se(Lambda, T: int, replications: int) -> tuple[float, float]:
    """Exact mean and standard error of the oracle's mean MSE.

    Under exact compensation y_t - y* = w_t ~ N(0, Lambda), so
    MSE = (1/T) sum ||w_t||^2 with mean tr(Lambda) and variance
    2 tr(Lambda^2) / T.
    """
    L = np.asarray(Lambda, dtype=float)
    var = 2.0 * np.trace(L @ L) / T
    return float(np.trace(L)), math.sqrt(var / replications)


def ewma_expected_mse(Lambda, delta, lam: float, T: int) -> float:
    """Closed-form expected MSE of EWMA on the linear CMP, a_init = A.

    With e_t the intercept error after period t,
    E||y_t - y*||^2 = tr Lambda + tr V_{t-1} + ||delta - m_{t-1}||^2,
    m_t = (1 - lam)(m_{t-1} - delta), V_t = lam^2 Lambda + (1 - lam)^2 V_{t-1}.
    """
    L = np.asarray(Lambda, dtype=float)
    d = np.asarray(delta, dtype=float)
    m = np.zeros_like(d)
    V = np.zeros_like(L)
    total = 0.0
    for _ in range(T):
        diff = d - m
        total += np.trace(L) + np.trace(V) + float(diff @ diff)
        m = (1.0 - lam) * (m - d)
        V = lam * lam * L + (1.0 - lam) ** 2 * V
    return total / T


def wiener_null_mse_mean_var(v: float, sigma: float, T: int) -> tuple[float, float]:
    """Mean and variance of MSE for X_t = v t + sigma B_t, t = 1..T."""
    t = np.arange(1, T + 1, dtype=float)
    m = v * t
    C = sigma**2 * np.minimum.outer(t, t)
    mean = float(np.mean(m * m + np.diag(C)))
    cov_sq = 2.0 * C * C + 4.0 * np.outer(m, m) * C
    return mean, float(cov_sq.sum()) / T**2


def _gamma_raw_moment(k: float, scale: float, n: int) -> float:
    out = 1.0
    for j in range(n):
        out *= k + j
    return out * scale**n


def gamma_null_mse_mean_var(alpha: float, scale: float, T: int) -> tuple[float, float]:
    """Mean and variance of MSE for G_t, a gamma process with G_t ~ Gamma(alpha t, scale)."""
    mean = sum(_gamma_raw_moment(alpha * t, scale, 2) for t in range(1, T + 1)) / T
    var = 0.0
    for s in range(1, T + 1):
        ks = alpha * s
        m2, m3, m4 = (_gamma_raw_moment(ks, scale, n) for n in (2, 3, 4))
        for t in range(1, T + 1):
            if t < s:
                continue
            kh = alpha * (t - s)
            cross = m4 + 2.0 * m3 * kh * scale + m2 * _gamma_raw_moment(kh, scale, 2)
            cov = cross - m2 * _gamma_raw_moment(alpha * t, scale, 2)
            var += cov if t == s else 2.0 * cov
    return mean, var / T**2


def pgs_fit(paths, y0: float, variance_form: str) -> dict:
    """No-intercept least squares of output on action increments, as in the PGS model.

    ``paths`` holds (u, y) arrays over t = 1..T; u_0 = 0 and y_0 = y0.
    """
    du = np.concatenate([np.diff(u, prepend=0.0) for u, _ in paths])
    dy = np.concatenate([np.diff(y, prepend=y0) for _, y in paths])
    t = np.concatenate([np.arange(1.0, len(u) + 1) for u, _ in paths])
    beta = float(du @ dy) / float(du @ du)
    r2 = (dy - beta * du) ** 2
    gamma2 = np.mean(r2 / t) if variance_form == "time_linear" else np.mean(r2)
    return {"beta": beta, "gamma": math.sqrt(gamma2), "du": du, "dy": dy}


def pgs_beta_se(paths, inc_mean: float, inc_var: float) -> float:
    """Standard error of the PGS gain estimate given the paths' actions.

    With dy_t = gain du_t + inc_t and iid increments independent of the
    actions, beta - gain = sum du_t inc_t / sum du_t^2.  Per path the
    du_t sum to u_T, so the increments' mean adds inc_mean^2 (sum u_T)^2.
    """
    du = np.concatenate([np.diff(u, prepend=0.0) for u, _ in paths])
    s2 = float(du @ du)
    end_sum = sum(float(u[-1]) for u, _ in paths)
    return math.sqrt(inc_var * s2 + inc_mean**2 * end_sum**2) / s2


def ratio_cdf(mu1, mu2, sigma1, sigma2, sigma12, u) -> np.ndarray:
    """P(X1/X2 <= u) for bivariate normal (X1, X2), via scipy's BVN.

    With Z1 = X1 - u X2 and Z2 = X2,
    F(u) = P(Z1 <= 0, Z2 > 0) + P(Z1 >= 0, Z2 < 0)
         = P(Z1 <= 0) + P(Z2 <= 0) - 2 P(Z1 <= 0, Z2 <= 0).
    """
    out = []
    for x in np.atleast_1d(u):
        mean = np.array([mu1 - x * mu2, mu2])
        v1 = sigma1**2 - 2.0 * x * sigma12 + x * x * sigma2**2
        c12 = sigma12 - x * sigma2**2
        cov = np.array([[v1, c12], [c12, sigma2**2]])
        both = multivariate_normal.cdf(np.zeros(2), mean=mean, cov=cov, abseps=1e-13, releps=1e-13)
        p1 = norm.cdf(-mean[0] / math.sqrt(v1))
        p2 = norm.cdf(-mean[1] / sigma2)
        out.append(p1 + p2 - 2.0 * both)
    return np.array(out)


def ks_critical(n: int, alpha: float) -> float:
    """One-sample Kolmogorov-Smirnov critical value at level alpha."""
    return float(kstwo.isf(alpha, n))


def rate_slope_se(replications: int, n_grid) -> float:
    """Standard error of the log-variance-vs-log-N slope under normal estimators.

    A sample variance of R normal values has log-variance sd close to
    sqrt(2 / (R - 1)); least squares over log N then gives this slope se.
    """
    x = np.log(np.asarray(n_grid, dtype=float))
    sxx = float(np.sum((x - x.mean()) ** 2))
    return math.sqrt(2.0 / (replications - 1) / sxx)
