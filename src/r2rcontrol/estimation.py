"""Least-squares and likelihood machinery shared by controllers and theory checks."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDesignError,
    SingularDesignError,
    UnidentifiableError,
)

RIDGE_REL = 1e-8  # fallback ridge: RIDGE_REL * trace(X'X)/p added to the diagonal


@dataclass
class RegressionDesign:
    """Feature matrix and observed outputs for a linear fit."""

    X: np.ndarray  # (n, p)
    y: np.ndarray  # (n,) or (n, m_y)

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float)
        if self.X.shape[0] != self.y.shape[0]:
            raise DegenerateDesignError("X and y row counts differ")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise DegenerateDesignError("design contains non-finite entries")


@dataclass
class LinearModelFit:
    """Least-squares fit with the pieces needed for variance formulas.

    ``gram_inv`` is (X'X)^{-1} (or its ridge-regularized stand-in);
    scaled by the residual variance it gives the estimator covariance.
    Multi-output fits share one design and carry one residual variance
    per output.
    """

    theta_hat: np.ndarray  # (p,) or (p, m_y)
    residual_variance: float | np.ndarray
    gram_inv: np.ndarray  # (p, p)
    n_samples: int
    ridged: bool = False


def ridged_gram(gram: np.ndarray) -> np.ndarray:
    """``gram`` with the fallback ridge (see ``RIDGE_REL``) added to its diagonal."""
    p = gram.shape[0]
    lam = RIDGE_REL * max(np.trace(gram), 1.0) / p
    return gram + lam * np.eye(p)


def fit_least_squares(design: RegressionDesign, ridge_fallback: bool = True) -> LinearModelFit:
    """Ordinary least squares with an unbiased residual-variance estimate.

    Rank-deficient designs either raise (``ridge_fallback=False``) or fall
    back to a tiny ridge proportional to trace(X'X)/p.
    """
    X, y = design.X, design.y
    n, p = X.shape
    gram = X.T @ X
    xty = X.T @ y
    rank = np.linalg.matrix_rank(gram)
    ridged = False
    if rank < p:
        if not ridge_fallback:
            raise SingularDesignError(
                f"design is rank deficient: {p - rank} of {p} columns unidentifiable",
                deficient_columns=p - rank,
            )
        gram = ridged_gram(gram)
        ridged = True
        warnings.warn("rank-deficient design; ridge fallback applied", RuntimeWarning)
    gram_inv = np.linalg.inv(gram)
    theta = gram_inv @ xty
    resid = y - X @ theta
    dof = max(n - rank, 1)
    if resid.ndim == 1:
        s2 = float(resid @ resid) / dof if n > rank else 0.0
    else:
        s2 = np.einsum("ij,ij->j", resid, resid) / dof if n > rank else np.zeros(resid.shape[1])
    return LinearModelFit(
        theta_hat=theta,
        residual_variance=s2,
        gram_inv=gram_inv,
        n_samples=n,
        ridged=ridged,
    )


def prediction_variance(fit: LinearModelFit, u_t: float, action_history) -> float:
    """Prediction variance of a scalar y = a + b*u model at action ``u_t``:

        (1/(t-1) + (u_t - ubar)^2 / sum_i (u_i - ubar)^2) * sigma^2,

    where the history u_1..u_{t-1} are the previously executed actions.
    """
    hist = np.asarray(action_history, dtype=float).ravel()
    if hist.size < 2:
        raise DegenerateDesignError("need at least two historical actions")
    ubar = hist.mean()
    spread = float(np.sum((hist - ubar) ** 2))
    if spread == 0.0:
        raise DegenerateDesignError("action history has zero spread")
    s2 = float(np.mean(np.atleast_1d(fit.residual_variance)))
    return (1.0 / hist.size + (u_t - ubar) ** 2 / spread) * s2


# ---------------------------------------------------------------------------
# Policy-gradient output distribution
# ---------------------------------------------------------------------------


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
        if self.variance_form not in ("time_linear", "constant"):
            raise UnidentifiableError(f"unknown variance form {self.variance_form!r}")

    def variance(self, t) -> float:
        t = np.asarray(t, dtype=float)
        v = self.gamma**2 * (t if self.variance_form == "time_linear" else np.ones_like(t))
        return v if v.ndim else float(v)

    def mean(self, y_prev, u, u_prev):
        return y_prev + self.beta * (u - u_prev)

    def log_pdf(self, y, y_prev, u, u_prev, t):
        v = self.variance(t)
        mu = self.mean(y_prev, u, u_prev)
        return -0.5 * np.log(2.0 * np.pi * v) - (y - mu) ** 2 / (2.0 * v)

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


def pgs_log_likelihood(params: PgsDistributionParams, offline_paths) -> float:
    """Total log-likelihood of offline increments under the fitted model."""
    du, dy, t = _increments(list(offline_paths))
    v = params.gamma**2 * (t if params.variance_form == "time_linear" else np.ones_like(t))
    r = dy - params.beta * du
    return float(np.sum(-0.5 * np.log(2.0 * np.pi * v) - r**2 / (2.0 * v)))


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


def ratio_moments_from_fit(
    fit: LinearModelFit, trajectory_features, y_star: float
) -> RatioMoments:
    """Moments of (y* - c_hat, b_hat) for a design [u | K-features].

    The fit must come from a design whose first column is the action u and
    whose remaining columns are the trajectory features; ``c_hat`` is the
    fitted feature block evaluated at ``trajectory_features``.
    """
    theta = np.asarray(fit.theta_hat, dtype=float).ravel()
    k0 = np.atleast_1d(np.asarray(trajectory_features, dtype=float))
    if theta.shape[0] != k0.shape[0] + 1:
        raise DegenerateDesignError(
            "trajectory features must match the fit's non-action columns"
        )
    s2 = float(np.mean(np.atleast_1d(fit.residual_variance)))
    cov = s2 * fit.gram_inv
    b_hat = theta[0]
    c_hat = float(theta[1:] @ k0)
    var_b = cov[0, 0]
    var_c = float(k0 @ cov[1:, 1:] @ k0)
    cov_cb = float(k0 @ cov[1:, 0])
    if var_b <= 0 or var_c <= 0:
        raise SingularDesignError("degenerate feature Gram block")
    return RatioMoments(
        mu1=float(y_star) - c_hat,
        mu2=b_hat,
        sigma1=float(np.sqrt(var_c)),
        sigma2=float(np.sqrt(var_b)),
        sigma12=-cov_cb,  # cov(y* - c_hat, b_hat) = -cov(c_hat, b_hat)
    )
