"""Executable forms of the estimator-rate and control-error-bound results.

* parameter-estimate variance decays like 1/N in the number of sample
  paths (checked by log-log regression over a grid of N),
* the probability that the estimated optimal action (a ratio of two
  correlated normal estimators) misses the true optimum by more than eta
  is bounded by a Chebyshev-plus-normal-tail expression whose numerator
  is sigma2^2 sigma1^2 - sigma12^2.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, integer
from .estimation import RatioMoments
from .rng import make_rng

# Both checks draw and reduce their Monte Carlo arrays one block of rows at a
# time, each block holding at most this many values (512 KB of float64), or
# one row when a row is longer.  Peak memory is then a few blocks, whatever
# the replication or trial count.
_BLOCK_VALUES = 1 << 16


def _row_blocks(n_rows: int, row_len: int):
    """(start, stop) of consecutive blocks of rows of length ``row_len``, at most ``_BLOCK_VALUES`` values each."""
    step = max(1, _BLOCK_VALUES // row_len)
    for start in range(0, n_rows, step):
        yield start, min(start + step, n_rows)


def _skip_draws(bitgen: np.random.Philox, k: int) -> None:
    """Move a Philox stream past ``k`` 64-bit draws in O(1), to where drawing them would leave it.

    Philox makes four 64-bit values per counter step and buffers them.
    ``advance`` moves the counter and discards the buffer, so the buffer is
    used up first, and the draws past the last whole step are then made.
    """
    head = min(k, 4 - bitgen.state["buffer_pos"])
    bitgen.random_raw(head, output=False)
    k -= head
    if k:
        bitgen.advance(k // 4)
        bitgen.random_raw(k % 4, output=False)


# ---------------------------------------------------------------------------
# Control-error probability bound
# ---------------------------------------------------------------------------


@dataclass
class BoundConfig:
    """One scalar y = b*u + c + e setting for the bound battery."""

    b: float
    c: float
    sigma: float
    y_star: float
    n_offline: int
    action_spread: float = 1.0
    name: str = ""


@dataclass
class BoundReport:
    eta: float
    bound_action: float
    bound_output: float
    empirical_freq_action: float
    empirical_freq_output: float
    n_trials: int
    moments: RatioMoments | None = None

    def satisfied(self) -> bool:
        """Empirical frequency within bound + 3 binomial standard errors."""
        ok = True
        for freq, bound in (
            (self.empirical_freq_action, self.bound_action),
            (self.empirical_freq_output, self.bound_output),
        ):
            if bound >= 1.0:  # vacuous bound, trivially satisfied
                continue
            se = np.sqrt(max(freq * (1.0 - freq), 1.0 / self.n_trials) / self.n_trials)
            ok = ok and freq <= bound + 3.0 * se
        return bool(ok)

    def to_dict(self) -> dict:
        return {
            "eta": float(self.eta),
            "bound_action": float(self.bound_action),
            "bound_output": float(self.bound_output),
            "empirical_freq_action": float(self.empirical_freq_action),
            "empirical_freq_output": float(self.empirical_freq_output),
            "n_trials": int(self.n_trials),
            "vacuous_action": bool(self.bound_action >= 1.0),
            "vacuous_output": bool(self.bound_output >= 1.0),
            "satisfied": self.satisfied(),
        }


def bound_moments(config: BoundConfig, X: np.ndarray) -> RatioMoments:
    """Exact sampling moments of (y* - c_hat, b_hat) for a fixed design X=[u, 1]."""
    cov = config.sigma**2 * np.linalg.inv(X.T @ X)
    return RatioMoments(
        mu1=config.y_star - config.c,
        mu2=config.b,
        sigma1=float(np.sqrt(cov[1, 1])),
        sigma2=float(np.sqrt(cov[0, 0])),
        sigma12=-float(cov[1, 0]),
    )


def analytic_bounds(moments: RatioMoments, eta: float) -> tuple[float, float]:
    """Both lines of the control-error bound at threshold eta."""
    m = moments
    num = m.sigma2**2 * m.sigma1**2 - m.sigma12**2
    tail = 2.0 * ndtr(-abs(m.mu2) / m.sigma2)
    return (
        num / (m.mu2 * m.sigma2 * eta) ** 2 + tail,
        num / (m.sigma2 * eta) ** 2 + tail,
    )


def _project_rows(proj: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``proj @ r`` for each row ``r`` of ``rows``, as a stack of GEMVs.

    One product of all the rows with ``proj.T`` would be a GEMM, whose last
    bits depend on the row count and the BLAS thread count; a row's GEMV
    depends on neither.
    """
    return np.matmul(proj, rows[:, :, None])[:, :, 0]


def theorem2_bound_check(
    config: BoundConfig, etas, n_trials: int, seed: int
) -> list[BoundReport]:
    """Monte Carlo exceedance frequencies versus the analytic bounds, one report per eta.

    Each trial redraws the observation noise on a fixed offline design,
    refits (b, c) by least squares, and forms the estimated optimal
    action u_hat = (y* - c_hat)/b_hat.  The action line checks
    |u_hat - u*| > eta; the output line checks the induced mean output
    error |b (u_hat - u*)| > eta.  All thresholds share one draw.
    """
    n_trials = integer("n_trials", n_trials)
    rng = make_rng(seed, tag="theorem2")
    u = (rng.random(config.n_offline) - 0.5) * 2.0 * config.action_spread
    X = np.column_stack([u, np.ones_like(u)])
    moments = bound_moments(config, X)
    proj = np.linalg.solve(X.T @ X, X.T)  # (2, n)
    # The noise is drawn in row blocks, in stream order, so each block holds the rows the whole
    # (n_trials, n_offline) draw would.
    noise_proj = np.empty((n_trials, 2))
    for start, stop in _row_blocks(n_trials, config.n_offline):
        noise = rng.standard_normal((stop - start, config.n_offline))
        noise *= config.sigma
        noise_proj[start:stop] = _project_rows(proj, noise)
    theta_hat = np.array([config.b, config.c]) + noise_proj  # (n_trials, 2)
    u_hat = (config.y_star - theta_hat[:, 1]) / theta_hat[:, 0]
    u_star = (config.y_star - config.c) / config.b
    err_action = np.abs(u_hat - u_star)
    err_output = np.abs(config.b) * err_action
    reports = []
    for eta in etas:
        bound_action, bound_output = analytic_bounds(moments, eta)
        reports.append(BoundReport(
            eta=eta,
            bound_action=bound_action,
            bound_output=bound_output,
            empirical_freq_action=float(np.mean(err_action > eta)),
            empirical_freq_output=float(np.mean(err_output > eta)),
            n_trials=n_trials,
            moments=moments,
        ))
    return reports


DEFAULT_BOUND_BATTERY: list[BoundConfig] = [
    BoundConfig(b=-1.8, c=91.7, sigma=1.0, y_star=90.0, n_offline=200, action_spread=2.0, name="dri-etch"),
    BoundConfig(b=-1.8, c=91.7, sigma=1.0, y_star=90.0, n_offline=800, action_spread=2.0, name="dri-etch-large-n"),
    BoundConfig(b=2.5, c=10.0, sigma=0.5, y_star=12.0, n_offline=600, action_spread=1.0, name="small-gain"),
    BoundConfig(b=2.5, c=10.0, sigma=2.0, y_star=12.0, n_offline=1200, action_spread=1.5, name="noisy"),
    BoundConfig(b=0.9, c=-3.0, sigma=1.0, y_star=-2.55, n_offline=800, action_spread=3.0, name="wide-design"),
    BoundConfig(b=5.0, c=0.0, sigma=1.0, y_star=4.0, n_offline=150, action_spread=1.0, name="few-samples"),
    BoundConfig(b=-0.7, c=5.0, sigma=0.3, y_star=4.0, n_offline=600, action_spread=1.5, name="neg-gain"),
    BoundConfig(b=1.0, c=0.0, sigma=1.0, y_star=1.0, n_offline=2500, action_spread=1.0, name="unit"),
    BoundConfig(b=3.0, c=100.0, sigma=4.0, y_star=95.0, n_offline=500, action_spread=2.0, name="large-offset"),
    BoundConfig(b=-2.2, c=50.0, sigma=1.5, y_star=48.0, n_offline=250, action_spread=2.5, name="mixed"),
]


# ---------------------------------------------------------------------------
# Estimator-variance rate check
# ---------------------------------------------------------------------------


# The rate check's process y = a + b*u + e, its actions u uniform on [-spread, spread]: a, b, spread.
_RATE_A, _RATE_B, _RATE_ACTION_SPREAD = 91.7, -1.8, 1.0


@dataclass
class RateReport:
    n_grid: list[int]
    variances: np.ndarray  # (len(n_grid), p)
    slopes: np.ndarray  # (p,)
    slope_se: np.ndarray  # (p,)
    bias_mean: np.ndarray  # (p,)
    bias_se: np.ndarray  # (p,)

    def bias_ci_covers_zero(self) -> bool:
        """Mean estimator bias within 3 standard errors of zero."""
        return bool(np.all(np.abs(self.bias_mean) <= 3.0 * self.bias_se))

    def to_dict(self) -> dict:
        return {
            "n_grid": list(self.n_grid),
            "variances": self.variances.tolist(),
            "slopes": self.slopes.tolist(),
            "slope_se": self.slope_se.tolist(),
            "bias_mean": self.bias_mean.tolist(),
            "bias_se": self.bias_se.tolist(),
        }


def theorem1_rate_check(
    n_grid,
    replications: int,
    seed: int,
    sigma: float = 1.0,
    periods: int = 80,
) -> RateReport:
    """Empirical var(theta_hat - theta) versus the number of sample paths N.

    Simulates N paths of ``periods`` samples from y = a + b*u + e (a, b and
    the action spread are the module's ``_RATE_*`` constants, e has standard
    deviation ``sigma``), fits (a, b) per replication, and regresses
    log variance on log N.  A slope of -1 is the expected 1/N decay.  The
    fit needs two distinct N; with two grid points it is exact, no residual
    degree of freedom is left, and ``slope_se`` is NaN.
    """
    replications = integer("replications", replications, low=2)
    periods = integer("periods", periods)
    n_grid = [integer("n_grid", n) for n in n_grid]
    if len(set(n_grid)) < 2:
        raise ConfigError(f"n_grid needs at least two distinct path counts, got {n_grid!r}")
    rng = make_rng(seed, tag="theorem1")
    variances = np.empty((len(n_grid), 2))
    all_bias = []
    for i, n_paths in enumerate(n_grid):
        n = n_paths * periods
        # The stream draws all of u (replications x n uniforms, one 64-bit draw each) and then all
        # of e.  A copy of the stream draws u block by block, while the stream skips u's draws and
        # draws e: each block holds the rows the whole arrays would.
        u_rng = copy.deepcopy(rng)
        _skip_draws(rng.bit_generator, replications * n)
        ubar = np.empty(replications)
        ybar = np.empty(replications)
        b_hat = np.empty(replications)
        for start, stop in _row_blocks(replications, n):
            # built and centred in place, each operation in the order of
            # u = (U - 0.5) * 2 * spread, y = a + b*u + e*sigma, u - ubar, y - ybar;
            # a row's reductions run along the row alone, whatever the block's row count
            u = u_rng.random((stop - start, n))
            u -= 0.5
            u *= 2.0
            u *= _RATE_ACTION_SPREAD
            e = rng.standard_normal((stop - start, n))
            e *= sigma
            y = _RATE_B * u
            y += _RATE_A
            y += e
            u_mean = u.mean(axis=1, keepdims=True)
            y_mean = y.mean(axis=1, keepdims=True)
            u -= u_mean
            y -= y_mean
            b_hat[start:stop] = np.sum(u * y, axis=1) / np.sum(u**2, axis=1)
            ubar[start:stop] = u_mean.ravel()
            ybar[start:stop] = y_mean.ravel()
        a_hat = ybar - b_hat * ubar
        est = np.column_stack([a_hat - _RATE_A, b_hat - _RATE_B])
        variances[i] = est.var(axis=0, ddof=1)
        all_bias.append(est)
    bias = np.vstack(all_bias)
    logn = np.log(np.asarray(n_grid, dtype=float))
    slopes = np.empty(2)
    slope_se = np.empty(2)
    for j in range(2):
        if np.all(variances[:, j] == 0.0):
            slopes[j] = 0.0
            slope_se[j] = 0.0
            continue
        logv = np.log(variances[:, j])
        A = np.column_stack([logn, np.ones_like(logn)])
        coef, res, _, _ = np.linalg.lstsq(A, logv, rcond=None)
        slopes[j] = coef[0]
        dof = len(n_grid) - 2
        s2 = res[0] / dof if dof else np.nan
        slope_se[j] = float(np.sqrt(s2 * np.linalg.inv(A.T @ A)[0, 0]))
    return RateReport(
        n_grid=n_grid,
        variances=variances,
        slopes=slopes,
        slope_se=slope_se,
        bias_mean=bias.mean(axis=0),
        bias_se=bias.std(axis=0, ddof=1) / np.sqrt(bias.shape[0]),
    )
