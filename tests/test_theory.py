"""Tests for the control-error bound and estimator-rate checkers."""

import copy
import tracemalloc

import numpy as np
import pytest

from r2rcontrol import theory
from r2rcontrol.errors import ConfigError
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


# ---------------------------------------------------------------------------
# degenerate sizes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, args, kwargs", [
    ("replications", ([25, 50], 1, 3), {}),
    ("n_grid", ([0, 25], 20, 3), {}),
    ("periods", ([25, 50], 20, 3), {"periods": 0}),
])
def test_rate_check_rejects_degenerate_sizes(name, args, kwargs):
    with pytest.raises(ConfigError, match=name):
        theorem1_rate_check(*args, **kwargs)


@pytest.mark.parametrize("n_grid", [[25], [25, 25], [40, 40, 40], []])
def test_rate_check_needs_two_distinct_path_counts(n_grid):
    with pytest.raises(ConfigError, match="n_grid"):
        theorem1_rate_check(n_grid, 20, 3)


def test_two_point_rate_fit_has_no_slope_se():
    # an exact two-point fit leaves no residual degree of freedom: the slopes stand, their se is unknown
    rep = theorem1_rate_check([25, 50], 20, 3)
    assert np.isfinite(rep.slopes).all()
    assert np.isnan(rep.slope_se).all()
    three = theorem1_rate_check([25, 50, 100], 20, 3)
    assert (np.isfinite(three.slope_se) & (three.slope_se > 0.0)).all()


def test_bound_check_needs_one_trial():
    with pytest.raises(ConfigError, match="n_trials"):
        theorem2_bound_check(DEFAULT_BOUND_BATTERY[0], (0.5,), 0, 3)


# ---------------------------------------------------------------------------
# block-by-block drawing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("used", [0, 1, 2, 3])  # raw values taken before: buffer_pos 4, 1, 2, 3
@pytest.mark.parametrize("k", [0, 1, 3, 4, 5, 17, 400_003])
def test_skip_draws_lands_where_drawing_uniforms_does(used, k):
    drawn = make_rng(5, tag="skip")
    drawn.bit_generator.random_raw(used)
    skipped = copy.deepcopy(drawn.bit_generator)
    drawn.random(k)  # the rate check skips its uniforms, one 64-bit draw each
    theory._skip_draws(skipped, k)
    np.testing.assert_array_equal(skipped.random_raw(16), drawn.bit_generator.random_raw(16))


def _oracle_rate_estimates(n_grid, replications, seed, a=91.7, b=-1.8, sigma=1.0, periods=80, spread=1.0):
    """theorem1_rate_check's per-replication (a_hat - a, b_hat - b), from whole arrays."""
    rng = make_rng(seed, tag="theorem1")
    out = []
    for n_paths in n_grid:
        n = n_paths * periods
        u = (rng.random((replications, n)) - 0.5) * 2.0 * spread
        y = b * u + a + rng.standard_normal((replications, n)) * sigma
        ubar = u.mean(axis=1, keepdims=True)
        ybar = y.mean(axis=1, keepdims=True)
        u = u - ubar
        y = y - ybar
        b_hat = np.sum(u * y, axis=1) / np.sum(u**2, axis=1)
        a_hat = ybar.ravel() - b_hat * ubar.ravel()
        out.append(np.column_stack([a_hat - a, b_hat - b]))
    return out


def _oracle_bound_freqs(cfg, etas, n_trials, seed):
    """theorem2_bound_check's (action, output) exceedance frequencies, from one whole noise draw."""
    rng = make_rng(seed, tag="theorem2")
    u = (rng.random(cfg.n_offline) - 0.5) * 2.0 * cfg.action_spread
    X = np.column_stack([u, np.ones_like(u)])
    proj = np.linalg.solve(X.T @ X, X.T)
    theta_hat = np.array([cfg.b, cfg.c]) + (rng.standard_normal((n_trials, cfg.n_offline)) * cfg.sigma) @ proj.T
    err = np.abs((cfg.y_star - theta_hat[:, 1]) / theta_hat[:, 0] - (cfg.y_star - cfg.c) / cfg.b)
    return [(float(np.mean(err > eta)), float(np.mean(abs(cfg.b) * err > eta))) for eta in etas]


def _rate_arrays(rep):
    return [rep.variances, rep.slopes, rep.slope_se, rep.bias_mean, rep.bias_se]


# 1 forces one-row blocks; 7,000 values make 3- and 1-row blocks of the 2,000- and
# 4,000-value rate rows (ragged over 20 replications) and 35-row blocks of the
# 200-sample bound design (ragged over 500 trials)
@pytest.mark.parametrize("block_values", [1, 7000])
def test_blocked_checks_match_default_blocks_and_whole_arrays(monkeypatch, block_values):
    grid, reps, cfg, etas = [25, 50], 20, DEFAULT_BOUND_BATTERY[0], (0.1, 0.5, 1.0)
    rate = theorem1_rate_check(grid, reps, seed=24)
    bounds = [r.to_dict() for r in theorem2_bound_check(cfg, etas, 500, seed=25)]

    oracle = _oracle_rate_estimates(grid, reps, seed=24)
    np.testing.assert_array_equal(rate.variances, [est.var(axis=0, ddof=1) for est in oracle])
    np.testing.assert_array_equal(rate.bias_mean, np.vstack(oracle).mean(axis=0))
    assert [(d["empirical_freq_action"], d["empirical_freq_output"]) for d in bounds] == \
        _oracle_bound_freqs(cfg, etas, 500, seed=25)

    monkeypatch.setattr(theory, "_BLOCK_VALUES", block_values)
    for got, want in zip(_rate_arrays(theorem1_rate_check(grid, reps, seed=24)), _rate_arrays(rate)):
        np.testing.assert_array_equal(got, want)
    assert [r.to_dict() for r in theorem2_bound_check(cfg, etas, 500, seed=25)] == bounds


def _traced_peak_mb(fn, *args) -> float:
    """Peak traced memory of one call, in MB (numpy reports its data buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_checks_run_in_bounded_memory():
    # the benchmark's sizes; whole arrays peaked at 36.6 and 19.2 MB
    rate_peak = _traced_peak_mb(theorem1_rate_check, [25, 50, 100, 200, 400], 50, 26)
    bound_peak = _traced_peak_mb(theorem2_bound_check, DEFAULT_BOUND_BATTERY[7], (0.1, 0.5, 1.0), 1000, 27)
    assert rate_peak < 4.0
    assert bound_peak < 4.0


@pytest.mark.parametrize("n", [150, 600, 1200, 2500])
def test_bound_projection_bits_do_not_depend_on_the_block(n):
    # the bound battery projects its noise a block of rows at a time: a row's bits must not depend on the block
    rng = make_rng(61, tag=f"projection-{n}")
    proj, rows = rng.normal(size=(2, n)), rng.normal(size=(1000, n))
    whole = theory._project_rows(proj, rows)
    for block in (1, 7, 436):
        parts = [theory._project_rows(proj, rows[i:i + block]) for i in range(0, len(rows), block)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
    # each row's bits are those of its own matrix-vector product
    assert all(whole[i].tobytes() == (proj @ rows[i]).tobytes() for i in (0, 1, 435, 999))
