import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import r2rcontrol

from r2rcontrol.errors import DegenerateDesignError, SingularDesignError
from r2rcontrol.estimation import (
    LinearModelFit,
    PgsDistributionParams,
    RatioMoments,
    RegressionDesign,
    fit_least_squares,
    fit_pgs_params,
    pgs_log_likelihood,
    prediction_variance,
    ratio_moments_from_fit,
)
from r2rcontrol.processes import (
    ArimaProcess,
    ArimaProcessParams,
    simulate_path,
)
from r2rcontrol.controllers import RandomActionController
from r2rcontrol.rng import make_rng


def test_least_squares_recovers_noiseless_coefficients():
    rng = make_rng(1, tag="lsq")
    X = np.column_stack([np.ones(40), rng.normal(size=40), rng.normal(size=40)])
    theta = np.array([2.0, -1.5, 0.25])
    fit = fit_least_squares(RegressionDesign(X=X, y=X @ theta))
    assert np.allclose(fit.theta_hat.ravel(), theta, atol=1e-10)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-18)
    assert not fit.ridged


def test_least_squares_unbiased_noise_variance():
    # average sigma^2_hat over replications approaches sigma^2 with the
    # (n - p) denominator
    rng = make_rng(2, tag="lsq-var")
    X = np.column_stack([np.ones(25), rng.normal(size=25)])
    theta = np.array([1.0, 3.0])
    s2 = []
    for _ in range(3000):
        y = X @ theta + rng.normal(0, 2.0, size=25)
        s2.append(float(np.atleast_1d(fit_least_squares(RegressionDesign(X=X, y=y)).residual_variance)[0]))
    assert np.mean(s2) == pytest.approx(4.0, rel=0.03)


def test_singular_design_raises_and_names_deficiency():
    X = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
    y = np.arange(10.0)
    with pytest.raises(SingularDesignError) as err:
        fit_least_squares(RegressionDesign(X=X, y=y), ridge_fallback=False)
    assert err.value.deficient_columns == 1
    fit = fit_least_squares(RegressionDesign(X=X, y=y), ridge_fallback=True)
    assert fit.ridged


def test_prediction_variance_examples():
    fit = LinearModelFit(theta_hat=np.zeros(2), residual_variance=1.0,
                         gram_inv=np.eye(2), n_samples=4, ridged=False)
    assert prediction_variance(fit, 1.5, [0, 1, 2, 3]) == pytest.approx(0.25)
    fit2 = LinearModelFit(theta_hat=np.zeros(2), residual_variance=2.0,
                          gram_inv=np.eye(2), n_samples=4, ridged=False)
    assert prediction_variance(fit2, 5.0, [0, 1, 2, 3]) == pytest.approx(5.4)


def test_prediction_variance_degenerate_history():
    fit = LinearModelFit(theta_hat=np.zeros(2), residual_variance=1.0,
                         gram_inv=np.eye(2), n_samples=4, ridged=False)
    with pytest.raises(DegenerateDesignError):
        prediction_variance(fit, 0.0, [1.0])
    with pytest.raises(DegenerateDesignError):
        prediction_variance(fit, 0.0, [2.0, 2.0, 2.0])


def test_prediction_variance_minimized_at_history_mean():
    fit = LinearModelFit(theta_hat=np.zeros(2), residual_variance=1.0,
                         gram_inv=np.eye(2), n_samples=6, ridged=False)
    hist = [0.0, 1.0, 2.0, 3.0, 4.0]
    base = prediction_variance(fit, 2.0, hist)
    for u in (-1.0, 0.5, 3.7, 10.0):
        assert prediction_variance(fit, u, hist) >= base


# --- PGS output distribution --------------------------------------------------


def _random_pgs_inputs(rng, n=100):
    for _ in range(n):
        yield (
            rng.normal(90, 5),       # y
            rng.normal(90, 5),       # y_prev
            rng.normal(0, 3),        # u
            rng.normal(0, 3),        # u_prev
            int(rng.integers(1, 60)),  # t
        )


@pytest.mark.parametrize("form", ["time_linear", "constant"])
def test_score_matches_finite_difference(form):
    params = PgsDistributionParams(beta=-1.7, gamma=0.9, variance_form=form)
    rng = make_rng(3, tag="score")
    h = 1e-6
    for y, y_prev, u, u_prev, t in _random_pgs_inputs(rng):
        fd = (
            params.log_pdf(y, y_prev, u + h, u_prev, t)
            - params.log_pdf(y, y_prev, u - h, u_prev, t)
        ) / (2 * h)
        an = params.score_u(y, y_prev, u, u_prev, t)
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_pgs_fit_recovers_parameters():
    beta_true, gamma_true = -1.25, 0.8
    rng = make_rng(4, tag="pgs-sim")
    paths = []
    T = 40
    from r2rcontrol.processes import SamplePath

    for _ in range(300):
        u = rng.normal(0, 1.0, size=T)
        y = np.empty(T)
        y_prev, u_prev = 90.0, 0.0
        for t in range(1, T + 1):
            mu = y_prev + beta_true * (u[t - 1] - u_prev)
            y[t - 1] = rng.normal(mu, gamma_true * np.sqrt(t))
            y_prev, u_prev = y[t - 1], u[t - 1]
        paths.append(SamplePath(u=u.reshape(-1, 1), y=y.reshape(-1, 1), d=None,
                                y0=np.array([90.0]), seed=0))
    fit = fit_pgs_params(paths, "time_linear")
    assert fit.beta == pytest.approx(beta_true, abs=0.02)
    assert fit.gamma == pytest.approx(gamma_true, rel=0.03)


def test_constant_variance_fits_integrated_arma_increments_better():
    # conditioning on y_{t-1} leaves the stationary ARMA increment, whose
    # variance does not grow with t, so the constant family wins the
    # likelihood comparison on this data
    model = ArimaProcess(ArimaProcessParams(a=91.7, b=-1.8, phi=0.6, theta=0.5, sigma=1.0, T=80))
    policy = RandomActionController(1.0)
    paths = [simulate_path(model, policy, seed) for seed in range(60)]
    lin = fit_pgs_params(paths, "time_linear")
    con = fit_pgs_params(paths, "constant")
    assert pgs_log_likelihood(con, paths) > pgs_log_likelihood(lin, paths)
    assert lin.beta == pytest.approx(con.beta)


def test_time_linear_variance_wins_when_increment_scale_grows():
    rng = make_rng(6, tag="tl")
    from r2rcontrol.processes import SamplePath

    paths = []
    T = 40
    for _ in range(80):
        u = rng.normal(0, 1.0, size=T)
        y, y_prev, u_prev = np.empty(T), 90.0, 0.0
        for t in range(1, T + 1):
            y[t - 1] = rng.normal(y_prev - 1.2 * (u[t - 1] - u_prev), 0.7 * np.sqrt(t))
            y_prev, u_prev = y[t - 1], u[t - 1]
        paths.append(SamplePath(u=u.reshape(-1, 1), y=y.reshape(-1, 1), d=None,
                                y0=np.array([90.0]), seed=0))
    lin = fit_pgs_params(paths, "time_linear")
    con = fit_pgs_params(paths, "constant")
    assert pgs_log_likelihood(lin, paths) > pgs_log_likelihood(con, paths)


# Fits 150 paths x 80 periods = 12,000 increments: past the length at which
# OpenBLAS splits a dot product across threads.  With BLAS dot products the
# two thread counts below gave betas that differ in the last bits.
_PGS_FIT_SCRIPT = """
import numpy as np
from r2rcontrol.estimation import fit_pgs_params
from r2rcontrol.processes import SamplePath
from r2rcontrol.rng import make_rng
rng = make_rng(12, tag="pgs-blas")
paths = [SamplePath(u=rng.normal(0, 1.0, size=(80, 1)), y=90 + np.cumsum(rng.normal(0, 1.0, size=(80, 1)), axis=0),
                    d=None, y0=np.array([90.0]), seed=0) for _ in range(150)]
fit = fit_pgs_params(paths, "time_linear")
print(repr(fit.beta), repr(float(fit.gamma)))
"""


def test_pgs_fit_does_not_depend_on_blas_threads():
    src = str(Path(r2rcontrol.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        res = subprocess.run([sys.executable, "-c", _PGS_FIT_SCRIPT], env=env, capture_output=True,
                             text=True, check=True)
        out.append(res.stdout)
    assert out[0] == out[1]


# --- ratio moments -------------------------------------------------------------


def test_ratio_moments_validation_and_rho():
    m = RatioMoments(mu1=1.0, mu2=2.0, sigma1=2.0, sigma2=0.5, sigma12=0.3)
    assert m.rho == pytest.approx(0.3 / (2.0 * 0.5))
    with pytest.raises(Exception):
        RatioMoments(mu1=0, mu2=1, sigma1=-1.0, sigma2=1.0, sigma12=0.0)


def test_ratio_moments_from_fit_matches_sampling_covariance():
    # moments of (y* - c_hat, b_hat) under repeated noise on a fixed design
    rng = make_rng(5, tag="ratio-mom")
    n = 60
    u = rng.normal(0, 2.0, size=n)
    X = np.column_stack([u, np.ones(n)])
    b_true, c_true, sigma, y_star = -1.8, 91.7, 1.0, 90.0
    fits = np.empty((4000, 2))
    for i in range(4000):
        y = b_true * u + c_true + rng.normal(0, sigma, size=n)
        fits[i] = np.linalg.lstsq(X, y, rcond=None)[0]
    emp_mu1 = y_star - fits[:, 1].mean()
    emp_mu2 = fits[:, 0].mean()
    emp_s1 = fits[:, 1].std(ddof=1)
    emp_s2 = fits[:, 0].std(ddof=1)
    emp_s12 = -np.cov(fits[:, 1], fits[:, 0])[0, 1]

    base = fit_least_squares(RegressionDesign(X=X, y=b_true * u + c_true + rng.normal(0, sigma, n)))
    m = ratio_moments_from_fit(base, trajectory_features=np.array([1.0]), y_star=y_star)
    # the fitted residual variance replaces sigma^2; compare shapes loosely
    assert m.mu2 == pytest.approx(base.theta_hat.ravel()[0])
    assert np.sign(m.sigma12) == np.sign(emp_s12) or abs(emp_s12) < 1e-4
    assert m.sigma1 == pytest.approx(emp_s1, rel=0.25)
    assert m.sigma2 == pytest.approx(emp_s2, rel=0.25)
    assert emp_mu1 == pytest.approx(y_star - c_true, abs=5 * emp_s1 / np.sqrt(4000) + 0.01)
    assert emp_mu2 == pytest.approx(b_true, abs=5 * emp_s2 / np.sqrt(4000) + 0.01)
