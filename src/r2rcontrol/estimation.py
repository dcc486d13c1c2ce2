"""Estimation pieces shared by controllers and theory checks.

* ``ridged_gram`` -- the one ridge fallback of the pooled least-squares solve,
* ``PgsDistributionParams`` / ``fit_pgs_params`` -- the policy-gradient
  controller's normal output-increment model and its closed-form fit,
* ``RatioMoments`` -- moments of (y* - c_hat, b_hat) for the ratio
  distribution and the control-error bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError, UnidentifiableError

RIDGE_REL = 1e-8  # fallback ridge: RIDGE_REL * trace(X'X)/p added to the diagonal


def ridged_gram(gram: np.ndarray) -> np.ndarray:
    """``gram`` with the fallback ridge (see ``RIDGE_REL``) added to its diagonal."""
    p = gram.shape[0]
    lam = RIDGE_REL * max(np.trace(gram), 1.0) / p
    return gram + lam * np.eye(p)


# ---------------------------------------------------------------------------
# Policy-gradient output distribution
# ---------------------------------------------------------------------------

VARIANCE_FORMS = ("time_linear", "constant")


@dataclass
class PgsDistributionParams:
    """Normal output-increment model used by the policy-gradient controller.

    mean(y_t | y_{t-1}) = y_{t-1} + beta (u_t - u_{t-1});
    var(y_t | y_{t-1})  = gamma^2 t  (time_linear) or gamma^2 (constant).
    """

    beta: float
    gamma: float
    variance_form: str = "time_linear"

    def __post_init__(self):
        if self.gamma <= 0:
            raise UnidentifiableError("gamma must be positive")
        if self.variance_form not in VARIANCE_FORMS:
            raise UnidentifiableError(f"unknown variance form {self.variance_form!r}")

    def variance(self, t) -> float:
        t = np.asarray(t, dtype=float)
        v = self.gamma**2 * (t if self.variance_form == "time_linear" else np.ones_like(t))
        return v if v.ndim else float(v)

    def mean(self, y_prev, u, u_prev):
        return y_prev + self.beta * (u - u_prev)

    def score_u(self, y, y_prev, u, u_prev, t) -> float:
        """d/du log p(y; u) for the normal increment model."""
        v = self.variance(t)
        mu = self.mean(y_prev, u, u_prev)
        return self.beta * (y - mu) / v


def _increments(paths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dus, dys, ts = [], [], []
    for path in paths:
        y = np.concatenate([[path.y0[0]], path.y[:, 0]])
        u = np.concatenate([[0.0], path.u[:, 0]])
        dys.append(np.diff(y))
        dus.append(np.diff(u))
        ts.append(np.arange(1, path.horizon + 1, dtype=float))
    return np.concatenate(dus), np.concatenate(dys), np.concatenate(ts)


def fit_pgs_params(offline_paths, variance_form: str = "time_linear") -> PgsDistributionParams:
    """Estimate (beta, gamma) of the normal increment model from offline paths.

    beta: no-intercept least squares of output increments on action
    increments.  gamma: closed-form MLE of the residuals, gamma^2 =
    mean(r_t^2 / t) for the time-linear form and mean(r_t^2) otherwise.
    """
    paths = list(offline_paths)
    if len(paths) < 2 or any(p.horizon < 2 for p in paths):
        raise UnidentifiableError("need at least two offline paths of length >= 2")
    du, dy, t = _increments(paths)
    # numpy's pairwise sum, not a BLAS dot: OpenBLAS splits dot products of
    # more than about 10k elements across threads, so its result would
    # depend on the BLAS thread count
    denom = float(np.sum(du * du))
    if denom == 0.0:
        raise UnidentifiableError("all action increments are zero; beta unidentifiable")
    beta = float(np.sum(du * dy)) / denom
    resid = dy - beta * du
    if variance_form == "time_linear":
        gamma2 = float(np.mean(resid**2 / t))
    else:
        gamma2 = float(np.mean(resid**2))
    gamma = np.sqrt(max(gamma2, 1e-300))
    return PgsDistributionParams(beta=beta, gamma=gamma, variance_form=variance_form)


# ---------------------------------------------------------------------------
# Ratio moments for the control-error bound machinery
# ---------------------------------------------------------------------------


@dataclass
class RatioMoments:
    """Joint moments of (y* - c_hat, b_hat) feeding the ratio distribution."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    sigma12: float

    def __post_init__(self):
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise DegenerateDesignError("sigma1 and sigma2 must be positive")
        if abs(self.sigma12) > self.sigma1 * self.sigma2 * (1 + 1e-12):
            raise DegenerateDesignError("|sigma12| must not exceed sigma1*sigma2")

    @property
    def rho(self) -> float:
        return float(np.clip(self.sigma12 / (self.sigma1 * self.sigma2), -1.0, 1.0))

