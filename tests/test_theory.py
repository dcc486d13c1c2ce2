"""Tests for the control-error bound and estimator-rate checkers."""

import numpy as np
import pytest

from r2rcontrol.rng import make_rng
from r2rcontrol.theory import (
    BoundConfig,
    DEFAULT_BOUND_BATTERY,
    analytic_bounds,
    bound_moments,
    theorem1_rate_check,
    theorem2_bound_check,
)


# ---------------------------------------------------------------------------
# control-error probability bound
# ---------------------------------------------------------------------------


def test_bound_moments_match_least_squares_covariance():
    cfg = BoundConfig(b=-1.8, c=91.7, sigma=1.0, y_star=90.0, n_offline=200, action_spread=2.0)
    rng = make_rng(34, tag="bmom")
    u = (rng.random(cfg.n_offline) - 0.5) * 2.0 * cfg.action_spread
    X = np.column_stack([u, np.ones_like(u)])
    m = bound_moments(cfg, X)
    cov = cfg.sigma**2 * np.linalg.inv(X.T @ X)
    assert m.mu1 == pytest.approx(90.0 - 91.7)
    assert m.mu2 == pytest.approx(-1.8)
    assert m.sigma1**2 == pytest.approx(cov[1, 1])
    assert m.sigma2**2 == pytest.approx(cov[0, 0])
    assert m.sigma12 == pytest.approx(-cov[0, 1])


def test_bounds_shrink_toward_tail_term_for_large_eta():
    cfg = BoundConfig(b=2.5, c=10.0, sigma=0.5, y_star=12.0, n_offline=600)
    rep, = theorem2_bound_check(cfg, etas=(50.0,), n_trials=2000, seed=7)
    tail = analytic_bounds(rep.moments, 1.0)[0] - (
        analytic_bounds(rep.moments, 1.0)[0] - analytic_bounds(rep.moments, 1e9)[0]
    )
    assert rep.empirical_freq_action == 0.0
    assert rep.empirical_freq_output == 0.0
    # as eta grows both lines converge to the constant normal-tail term
    assert rep.bound_action == pytest.approx(tail, abs=1e-6)


def test_large_sample_bound_is_informative_and_holds():
    cfg = BoundConfig(b=2.5, c=10.0, sigma=0.5, y_star=12.0, n_offline=600)
    rep, = theorem2_bound_check(cfg, etas=(0.5,), n_trials=5000, seed=8)
    assert rep.bound_action < 0.1
    assert rep.satisfied()


def test_bound_battery_satisfied_at_moderate_trials():
    for cfg in DEFAULT_BOUND_BATTERY:
        for i, eta in enumerate((0.1, 0.5, 1.0)):
            rep, = theorem2_bound_check(cfg, etas=(eta,), n_trials=2000, seed=100 + i)
            assert rep.satisfied(), (cfg.name, eta, rep.to_dict())


def test_thresholds_share_one_draw():
    cfg = DEFAULT_BOUND_BATTERY[4]
    etas = (0.1, 0.5, 1.0)
    shared = theorem2_bound_check(cfg, etas, 1000, seed=11)
    single = [theorem2_bound_check(cfg, (eta,), 1000, seed=11)[0] for eta in etas]
    assert [r.to_dict() for r in shared] == [r.to_dict() for r in single]


def test_bound_report_serializes_to_plain_types():
    rep, = theorem2_bound_check(DEFAULT_BOUND_BATTERY[0], etas=(0.5,), n_trials=500, seed=9)
    d = rep.to_dict()
    assert isinstance(d["satisfied"], bool)
    assert isinstance(d["vacuous_action"], bool)
    assert all(isinstance(d[k], float) for k in
               ("eta", "bound_action", "bound_output",
                "empirical_freq_action", "empirical_freq_output"))


# ---------------------------------------------------------------------------
# estimator-variance rate
# ---------------------------------------------------------------------------


def test_rate_slope_near_minus_one_with_zero_bias():
    rep = theorem1_rate_check([25, 50, 100, 200], replications=80, seed=21)
    assert rep.slopes == pytest.approx([-1.0, -1.0], abs=0.2)
    assert rep.bias_ci_covers_zero()


def test_noiseless_data_has_zero_estimator_variance():
    rep = theorem1_rate_check([25, 50], replications=20, seed=22, sigma=0.0)
    # zero up to least-squares rounding noise
    assert np.all(rep.variances <= 1e-24)
    assert np.all(np.abs(rep.bias_mean) <= 1e-12)


def test_rate_check_deterministic_in_seed():
    a = theorem1_rate_check([25, 50], replications=20, seed=23)
    b = theorem1_rate_check([25, 50], replications=20, seed=23)
    np.testing.assert_array_equal(a.variances, b.variances)
    np.testing.assert_array_equal(a.slopes, b.slopes)
