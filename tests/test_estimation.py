import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import r2rcontrol

from r2rcontrol.errors import DegenerateDesignError
from r2rcontrol.estimation import PgsDistributionParams, RatioMoments, fit_pgs_params
from r2rcontrol.processes import SamplePath
from r2rcontrol.rng import make_rng


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
        sd = np.sqrt(params.variance(t))
        fd = (
            norm.logpdf(y, params.mean(y_prev, u + h, u_prev), sd)
            - norm.logpdf(y, params.mean(y_prev, u - h, u_prev), sd)
        ) / (2 * h)
        an = params.score_u(y, y_prev, u, u_prev, t)
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_pgs_fit_recovers_parameters():
    beta_true, gamma_true = -1.25, 0.8
    rng = make_rng(4, tag="pgs-sim")
    paths = []
    T = 40
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
    # beta is the same no-intercept regression whatever the variance form
    assert fit_pgs_params(paths, "constant").beta == pytest.approx(fit.beta)


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
    with pytest.raises(DegenerateDesignError):
        RatioMoments(mu1=0, mu2=1, sigma1=-1.0, sigma2=1.0, sigma12=0.0)

