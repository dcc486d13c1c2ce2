"""Tests for the five control policies and their construction from config."""

import warnings
from importlib import resources

import numpy as np
import pytest

from r2rcontrol.controllers import (
    EwmaController,
    GhrController,
    LinearOracleController,
    NullController,
    OapeController,
    RandomActionController,
    RlAlg1Controller,
    RlPgsController,
    _PooledFit,
    controller_from_config,
    rl_alg1_action_optimize,
)
from r2rcontrol.errors import ConfigError, PeriodAbortError
from r2rcontrol.estimation import PgsDistributionParams
from r2rcontrol.experiments import load_preset, preset_config
from r2rcontrol.harness import run_replication
from r2rcontrol.processes import (
    ArimaProcess,
    ArimaProcessParams,
    LinearCmpParams,
    LinearCmpProcess,
    ProcessModel,
    QuadraticCmpProcess,
    process_from_config,
    simulate_path,
)
from r2rcontrol.rng import make_rng

CMP = dict(
    A=[-180.0, 70.0],
    B=[[120.0, -30.0, 40.0], [-60.0, 80.0, -25.0]],
    delta=[1.5, -0.8],
    T=30,
)
Y_STAR = [-150.0, 100.0]


def _cmp_process(noise=1.0, T=30):
    return LinearCmpProcess(
        LinearCmpParams(Lambda=np.eye(2) * noise**2, **{**CMP, "T": T})
    )


def _scalar_process(sigma=0.0, T=30):
    return LinearCmpProcess(
        LinearCmpParams(A=[91.7], B=[[-1.8]], delta=[0.0], Lambda=[[sigma**2]], T=T)
    )


# ---------------------------------------------------------------------------
# configuration contract
# ---------------------------------------------------------------------------


def test_config_rejects_nonpositive_thresholds():
    with pytest.raises(ConfigError):
        RlAlg1Controller(Y_STAR, 3, 2, epsilon=0.0)
    with pytest.raises(ConfigError):
        RlAlg1Controller(Y_STAR, 3, 2, eta=-1.0)
    with pytest.raises(ConfigError):
        RlAlg1Controller(Y_STAR, 3, 2, max_inner_iters=0)
    with pytest.raises(ConfigError):
        RlPgsController(y_star=90.0, alpha_step=0.0)
    with pytest.raises(ConfigError):
        RlPgsController(y_star=90.0, eta=-1.0)
    with pytest.raises(ConfigError):
        RlPgsController(y_star=90.0, max_inner_iters=0)
    with pytest.raises(ConfigError):
        EwmaController(CMP["B"], Y_STAR, lambda_ewma=1.5)


# ---------------------------------------------------------------------------
# EWMA
# ---------------------------------------------------------------------------


def test_ewma_zero_lambda_freezes_the_filter():
    model = _cmp_process(noise=2.0)
    ctrl = EwmaController(CMP["B"], Y_STAR, lambda_ewma=0.0)
    path = simulate_path(model, ctrl, seed=3)
    assert np.allclose(path.u, path.u[0])


def test_ewma_full_correction_noiseless_no_drift():
    params = LinearCmpParams(A=CMP["A"], B=CMP["B"], delta=[0.0, 0.0],
                             Lambda=np.zeros((2, 2)), T=10)
    model = LinearCmpProcess(params)
    ctrl = EwmaController(CMP["B"], Y_STAR, lambda_ewma=1.0, a_init=[0.0, 0.0])
    path = simulate_path(model, ctrl, seed=0)
    # first period is off (wrong intercept guess); exact from t = 2 onward
    np.testing.assert_allclose(path.y[1:], np.tile(Y_STAR, (9, 1)), atol=1e-9)


def test_ewma_rejects_gain_without_right_inverse():
    with pytest.raises(ConfigError):
        EwmaController(np.array([[1.0, 2.0], [2.0, 4.0]]), [0.0, 0.0])


# ---------------------------------------------------------------------------
# GHR
# ---------------------------------------------------------------------------


def test_ghr_zero_c_is_dead_reckoning():
    model = ArimaProcess(ArimaProcessParams(a=91.7, b=-1.8, phi=0.6, theta=0.5, sigma=1.0, T=40))
    ctrl = GhrController(b=-1.8, y_star=90.0, ghr_c=0.0, ghr_s=19.0, a_init=91.7)
    path = simulate_path(model, ctrl, seed=5)
    assert np.allclose(path.u, path.u[0])
    assert path.u[0, 0] == pytest.approx((90.0 - 91.7) / -1.8)


def test_ghr_huge_s_matches_frozen_ewma():
    mk = lambda: ArimaProcess(ArimaProcessParams(a=91.7, b=-1.8, phi=0.6, theta=0.5, sigma=1.0, T=40))
    ghr = GhrController(b=-1.8, y_star=90.0, ghr_c=20.0, ghr_s=1e12, a_init=91.7)
    ewma = EwmaController([[-1.8]], [90.0], lambda_ewma=0.0, a_init=[91.7])
    p1 = simulate_path(mk(), ghr, seed=6)
    p2 = simulate_path(mk(), ewma, seed=6)
    np.testing.assert_allclose(p1.u, p2.u, atol=1e-9)
    np.testing.assert_allclose(p1.y, p2.y, atol=1e-9)


def test_ghr_rejects_zero_gain():
    with pytest.raises(ConfigError):
        GhrController(b=0.0, y_star=90.0)


# ---------------------------------------------------------------------------
# action optimization for the fitted families
# ---------------------------------------------------------------------------


def test_linear_scalar_solve():
    theta = np.array([91.7, -1.8, 0.0])  # intercept, gain, drift slope
    u = rl_alg1_action_optimize(theta, [90.0], t=1, model_family="linear",
                                bounds=(-1e6, 1e6))
    assert u[0] == pytest.approx(17.0 / 18.0)


def test_linear_identity_gain_solves_exactly():
    A = np.array([2.0, -1.0])
    delta = np.array([0.1, 0.3])
    theta = np.vstack([A, np.eye(2), delta])  # rows: intercept, B rows (B = I), drift
    y_star = np.array([5.0, 5.0])
    for t in (1, 7):
        u = rl_alg1_action_optimize(theta, y_star, t=t, model_family="linear",
                                    bounds=(-1e6, 1e6))
        np.testing.assert_allclose(u, y_star - A - delta * t, atol=1e-10)


def test_linear_solution_respects_action_box():
    theta = np.array([91.7, -1.8, 0.0])
    u = rl_alg1_action_optimize(theta, [90.0], t=1, model_family="linear",
                                bounds=(-0.5, 0.5))
    assert u[0] == pytest.approx(0.5)


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        rl_alg1_action_optimize(np.zeros(3), [0.0], 1, "cubic", (-1, 1))


def test_quadratic_optimizer_beats_random_search():
    rng = make_rng(41, tag="quad-opt")
    from r2rcontrol.controllers import _quad_objective

    for _ in range(5):
        theta = rng.normal(0, 1.0, size=(11, 2))
        theta[4:7] += 1.0  # keep the squared terms mostly positive
        y_star = rng.normal(0, 2.0, size=2)
        u = rl_alg1_action_optimize(theta, y_star, t=3, model_family="quadratic",
                                    bounds=(-3.0, 3.0))
        fun = _quad_objective(theta, y_star, 3)
        best = fun(u)[0]
        cand = rng.uniform(-3.0, 3.0, size=(2000, 3))
        rand_best = min(fun(c)[0] for c in cand)
        assert best <= rand_best + 1e-8


@pytest.fixture
def minimize_calls(monkeypatch):
    """Count the L-BFGS-B starts of the quadratic optimizer's fallback."""
    from r2rcontrol import controllers

    calls = []
    minimize = controllers.optimize.minimize

    def counting(*args, **kwargs):
        calls.append(args[1])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(controllers.optimize, "minimize", counting)
    return calls


def test_quadratic_fast_path_hits_reachable_target_without_minimize(minimize_calls):
    from r2rcontrol.controllers import _quad_objective

    rng = make_rng(43, tag="quad-fast")
    for _ in range(20):
        theta = rng.normal(0, 1.0, size=(11, 2))
        theta[4:7] += 1.0
        u_star = rng.uniform(-2.5, 2.5, size=3)
        y_star = np.array(QuadraticCmpProcess.quad_terms(*u_star) + [3.0]) @ theta
        warm = u_star + rng.normal(0, 0.3, size=3)
        u = rl_alg1_action_optimize(theta, y_star, t=3, model_family="quadratic",
                                    bounds=(-3.0, 3.0), warm_start=warm)
        assert np.all((u >= -3.0) & (u <= 3.0))
        assert _quad_objective(theta, y_star, 3)(u)[0] <= 1e-12
    assert minimize_calls == []


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_quadratic_unreachable_target_falls_back_to_multistart(minimize_calls):
    from r2rcontrol.controllers import _QUAD_STENCIL, _quad_objective

    stencil = _QUAD_STENCIL.copy()
    rng = make_rng(44, tag="quad-fallback")
    theta = rng.normal(0, 1.0, size=(11, 2))
    theta[4:7] += 1.0
    y_star = np.array([500.0, -500.0])  # |prediction| stays far below 500 on [-3, 3]^3
    u = rl_alg1_action_optimize(theta, y_star, t=3, model_family="quadratic",
                                bounds=(-3.0, 3.0), warm_start=np.zeros(3))
    assert len(minimize_calls) > 0
    assert np.all((u >= -3.0) & (u <= 3.0))
    fun = _quad_objective(theta, y_star, 3)
    cand = rng.uniform(-3.0, 3.0, size=(10_000, 3))
    assert fun(u)[0] <= min(fun(c)[0] for c in cand) + 1e-8

    # the starts, in order: the clipped warm start, then the clipped stencil rows
    warm = np.array([4.0, -0.25, -9.0])
    for warm_start, first in ((warm, [np.clip(warm, -0.75, 0.75)]), (None, [])):
        minimize_calls.clear()
        u = rl_alg1_action_optimize(theta, y_star, t=3, model_family="quadratic",
                                    bounds=(-0.75, 0.75), warm_start=warm_start)
        expected = first + list(np.clip(stencil, -0.75, 0.75))
        assert len(minimize_calls) == len(expected)
        assert all(_same_bits(got, want) for got, want in zip(minimize_calls, expected))
        u[:] = 7.0
    assert _same_bits(_QUAD_STENCIL, stencil)
    assert _same_bits(warm, [4.0, -0.25, -9.0])


def test_quadratic_action_does_not_share_memory_with_the_stencil(minimize_calls):
    from r2rcontrol.controllers import _QUAD_STENCIL, _quadratic_feature_rows

    stencil = _QUAD_STENCIL.copy()
    theta = make_rng(45, tag="quad-alias").normal(0, 1.0, size=(11, 2))
    y_star = _quadratic_feature_rows(np.zeros((1, 3)), 3)[0] @ theta  # the stencil's origin is an exact hit
    u = rl_alg1_action_optimize(theta, y_star, t=3, model_family="quadratic", bounds=(-3.0, 3.0))
    assert minimize_calls == []
    assert _same_bits(u, np.zeros(3))
    u[:] = 7.0
    assert _same_bits(_QUAD_STENCIL, stencil)


# ---------------------------------------------------------------------------
# per-call helpers: the same bits as the numpy builders they replace
# ---------------------------------------------------------------------------


def _reference_quad_features(u):
    u1, u2, u3 = u
    return np.array([1.0, u1, u2, u3, u1 * u1, u2 * u2, u3 * u3, u1 * u2, u1 * u3, u2 * u3])


def _reference_quadratic_features(u, t):
    return np.concatenate([_reference_quad_features(u), [float(t)]])


def _reference_quad_residual(theta, y_star, t, u):
    r = _reference_quadratic_features(u, t) @ theta - y_star
    u1, u2, u3 = u
    jac_f = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [2 * u1, 0.0, 0.0],
            [0.0, 2 * u2, 0.0],
            [0.0, 0.0, 2 * u3],
            [u2, u1, 0.0],
            [u3, 0.0, u1],
            [0.0, u3, u2],
        ]
    )
    return r, jac_f.T @ theta[:-1]


_EDGE_ACTIONS = [
    [-0.0, 0.0, -0.0],
    [1e150, -1e150, 0.5],
    [5e-324, -5e-324, -0.0],
    [-1e150, 2.2250738585072014e-308, 1e150],
]


def test_feature_vectors_and_residual_match_the_numpy_scalar_builders():
    from r2rcontrol.controllers import _quad_residual, _quadratic_feature_rows

    rng = make_rng(46, tag="feature-bits")
    actions = np.concatenate([rng.normal(0.0, 3.0, size=(200, 3)), _EDGE_ACTIONS])
    stacked = _quadratic_feature_rows(actions, 7)  # the 204 actions in one call here, then row by row
    assert _same_bits(stacked, np.array([_reference_quadratic_features(u, 7) for u in actions]))
    for i, u in enumerate(actions):
        theta = rng.normal(0.0, 1.0, size=(11, 2))
        y_star = rng.normal(0.0, 10.0, size=2)
        t = 1 + i % 30
        assert _same_bits(np.array(QuadraticCmpProcess.quad_terms(*u.tolist())), _reference_quad_features(u))
        assert _same_bits(_quadratic_feature_rows(u[None], t), _reference_quadratic_features(u, t)[None])
        for got, want in zip(_quad_residual(theta, y_star, t, u), _reference_quad_residual(theta, y_star, t, u)):
            assert _same_bits(got, want)


def _system(rng, n, cond):
    """A random n x n float64 matrix with 2-norm condition number ``cond``."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q1 * np.logspace(0.0, -np.log10(cond), n)) @ q2.T


def test_solve_matches_numpy_solve_bit_for_bit():
    from r2rcontrol.controllers import _solve

    rng = make_rng(47, tag="solve-bits")
    for n in range(2, 12):
        for cond in (1.0, 1e3, 1e7, 1e11, 1e14):
            for _ in range(5):
                a = _system(rng, n, cond)
                for b in (rng.normal(size=n), rng.normal(size=(n, 2)), rng.normal(size=(n, 1))):
                    assert _same_bits(_solve(a, b), np.linalg.solve(a, b))
    # the pooled fit's Gram and X'y are strided column views of one array
    pool = _PooledFit(11, 2)
    for _ in range(40):
        pool.add(rng.normal(size=(1, 11)), rng.normal(size=(1, 2)))
    gram, xty = pool.gram[0], pool.xty[0]
    assert not gram.flags.c_contiguous
    assert _same_bits(_solve(gram, xty), np.linalg.solve(gram, xty))
    assert _same_bits(_solve(gram, xty[:, 0]), np.linalg.solve(gram, xty[:, 0]))


@pytest.mark.parametrize("a", [[[1.0, 2.0], [2.0, 4.0]], np.zeros((3, 3))], ids=["rank_one", "zero"])
def test_solve_raises_on_an_exactly_singular_matrix(a):
    from r2rcontrol.controllers import _solve

    a = np.array(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (np.ones(len(a)), np.ones((len(a), 2))):
            with pytest.raises(np.linalg.LinAlgError):
                _solve(a, b)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 4), (3, 5), (2, 2), (4, 2), (5, 3)])
def test_lstsq_matches_numpy_lstsq_bit_for_bit(m, n):
    from r2rcontrol.controllers import _lstsq

    rng = make_rng(48, tag=f"lstsq-bits-{m}-{n}")
    for cond in (1.0, 1e3, 1e8, 1e14):
        for _ in range(10):
            q1, _ = np.linalg.qr(rng.normal(size=(m, m)))
            q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
            k = min(m, n)
            a = (q1[:, :k] * np.logspace(0.0, -np.log10(cond), k)) @ q2[:, :k].T
            b = rng.normal(0.0, 10.0, size=m)
            assert _same_bits(_lstsq(a, b), np.linalg.lstsq(a, b, rcond=None)[0])
    # rank-deficient B_hat, as the transposed view of a fitted theta the RL action takes
    for rank in range(min(m, n)):
        theta = rng.normal(size=(n + 2, m))
        theta[1:1 + n] = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m)) if rank else 0.0
        B_hat = theta[1:1 + n].T
        b = rng.normal(size=m)
        assert _same_bits(_lstsq(B_hat, b), np.linalg.lstsq(B_hat, b, rcond=None)[0])


def test_controllers_call_no_numpy_linalg_wrapper():
    # the linear action, the oracle and the pooled solve go through _lstsq and _solve
    import ast

    tree = ast.parse(resources.files("r2rcontrol").joinpath("controllers.py").read_text())
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert "_lstsq" in calls and "_solve" in calls
    wrapped = {"np.linalg.lstsq", "np.linalg.solve", "numpy.linalg.lstsq", "numpy.linalg.solve", "lstsq", "solve"}
    assert [c for c in calls if c in wrapped] == []


# ---------------------------------------------------------------------------
# RL controller (learning by doing)
# ---------------------------------------------------------------------------


ALG1 = dict(epsilon=1e-6, eta=1e-6, max_inner_iters=10, explore_scale=1.0)


def test_rl_alg1_noiseless_reaches_zero_cost():
    model = _cmp_process(noise=0.0)
    ctrl = RlAlg1Controller(Y_STAR, control_dim=3, output_dim=2, **ALG1)
    path = ctrl.run_path(model, seed=10)
    tail = path.y[-10:]
    target = np.tile(Y_STAR, (10, 1))
    np.testing.assert_allclose(tail, target, atol=1e-6)


def test_rl_alg1_pool_persists_across_paths():
    ctrl = RlAlg1Controller(Y_STAR, control_dim=3, output_dim=2, **ALG1)
    model = _cmp_process(noise=1.0)
    ctrl.run_path(model, seed=1)
    n1 = ctrl.diagnostics["pooled_samples"]
    model.reset(2)
    ctrl.run_path(model, seed=2)
    assert ctrl.diagnostics["pooled_samples"] > n1
    assert ctrl.diagnostics["paths_run"] == 2


def test_rl_alg1_noiseless_rerun_is_idempotent():
    ctrl = RlAlg1Controller(Y_STAR, control_dim=3, output_dim=2, **ALG1)
    model = _cmp_process(noise=0.0)
    ctrl.run_path(model, seed=10)
    theta_before = ctrl.theta.copy()
    model.reset(11)
    ctrl.run_path(model, seed=11)
    assert np.linalg.norm(ctrl.theta - theta_before) < 1e-6


def test_rl_alg1_deterministic_in_seed():
    paths = []
    for _ in range(2):
        ctrl = RlAlg1Controller(Y_STAR, control_dim=3, output_dim=2, **ALG1)
        model = _cmp_process(noise=1.0)
        paths.append(ctrl.run_path(model, seed=7))
    np.testing.assert_array_equal(paths[0].u, paths[1].u)
    np.testing.assert_array_equal(paths[0].y, paths[1].y)


def test_pooled_ridge_decision_matches_the_condition_number(monkeypatch):
    # two cmp_rl replications at preset size, stacked: every row's ridge flag against the exact condition number
    real_solve, real_near_singular, real_svd, real_cond = (
        _PooledFit.solve, _PooledFit._near_singular, np.linalg.svd, np.linalg.cond)
    counts = [{"solves": 0, "svds": 0, "ridged": 0, "period_one_ridged": 0} for _ in range(2)]
    svds = []

    def reference_ridged(gram, xty) -> bool:
        try:
            theta = np.linalg.solve(gram, xty)
        except np.linalg.LinAlgError:
            return True
        return not np.all(np.isfinite(theta)) or bool(real_cond(gram) > 1e12)

    def checked_solve(pool, rows=None):
        ids = list(range(pool.n.size)) if rows is None else list(rows)
        grams, xtys = pool.gram[ids].copy(), pool.xty[ids].copy()
        theta, ridged = real_solve(pool, rows)
        for j, row in enumerate(ids):
            gram, row_ridged, c = grams[j], bool(ridged[j]), counts[row]
            assert row_ridged == reference_ridged(gram, xtys[j]), f"solve {c['solves']} of row {row}"
            c["solves"] += 1
            c["ridged"] += row_ridged
            # period 1 adds 1 + k samples by inner iteration k, with the intercept and t columns equal
            c["period_one_ridged"] += row_ridged and pool.n[row] <= 21 and np.array_equal(gram[0], gram[-1])
        return theta, ridged

    def row_near_singular(pool, row):
        # the SVDs taken for a row
        before = len(svds)
        near = real_near_singular(pool, row)
        counts[row]["svds"] += len(svds) - before
        return near

    def counted(fn):
        def wrapper(*args, **kwargs):
            svds.append(1)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_PooledFit, "solve", checked_solve)
    monkeypatch.setattr(_PooledFit, "_near_singular", row_near_singular)
    # an SVD is taken through either function
    monkeypatch.setattr(np.linalg, "svd", counted(real_svd))
    monkeypatch.setattr(np.linalg, "cond", counted(real_cond))
    run_replication(preset_config("cmp_rl"), [0, 1])
    for c in counts:
        assert c["solves"] > 1000
        assert c["ridged"] == c["period_one_ridged"] == 20
        assert 1 <= c["svds"] <= 10
    assert len(svds) == sum(c["svds"] for c in counts)  # every SVD is one row's


@pytest.mark.parametrize("gram", [np.diag([4.0, 1.0, 0.0]), np.zeros((3, 3))], ids=["rank_two", "zero"])
def test_singular_gram_is_near_singular_without_a_warning(gram):
    pool = _PooledFit(3, 1)
    pool.gram[:] = gram
    assert np.linalg.cond(gram) == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pool._near_singular(0)


@pytest.mark.parametrize("second", ["overflowing", "singular"])
def test_finite_fit_whose_sum_overflows_is_not_ridged(second):
    # row 0's entries are finite and their sum is inf: its fit is the plain solve, whatever the other row holds
    pool = _PooledFit(2, 1, rows=2)
    pool.gram[:] = np.eye(2)
    pool.xty[:] = 1.5e308
    if second == "singular":
        pool.gram[1], pool.xty[1] = 0.0, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta, ridged = pool.solve()
    assert _same_bits(theta[0], np.linalg.solve(np.eye(2), np.full((2, 1), 1.5e308)))
    assert ridged.tolist() == [False, second == "singular"]
    assert np.isfinite(theta).all()


def test_rl_alg1_quadratic_family_needs_three_controls():
    with pytest.raises(ConfigError):
        RlAlg1Controller(Y_STAR, control_dim=2, output_dim=2, model_family="quadratic", **ALG1)


# ---------------------------------------------------------------------------
# OAPE
# ---------------------------------------------------------------------------


def test_oape_requires_learning_before_running():
    ctrl = OapeController(Y_STAR, control_dim=3, output_dim=2)
    with pytest.raises(ConfigError):
        ctrl.run_path(_cmp_process(), seed=0)


def test_oape_noiseless_controls_exactly():
    ctrl = OapeController(Y_STAR, control_dim=3, output_dim=2, offline_action_spread=2.0)
    ctrl.learn_offline(_cmp_process(noise=0.0), n_paths=3, seeds=[12])
    model = _cmp_process(noise=0.0)
    path = ctrl.run_path(model, seed=13)
    np.testing.assert_allclose(path.y, np.tile(Y_STAR, (30, 1)), atol=1e-6)


# ---------------------------------------------------------------------------
# policy gradient search
# ---------------------------------------------------------------------------


def _arima_model(T=20):
    return ArimaProcess(ArimaProcessParams(a=91.7, b=-1.8, phi=0.6, theta=0.5, sigma=1.0, T=T))


def test_pgs_requires_fitted_params():
    with pytest.raises(ConfigError):
        RlPgsController(y_star=90.0).run_path(_arima_model(), seed=0)


def test_pgs_deterministic_in_seed():
    params = PgsDistributionParams(beta=-1.8, gamma=1.0, variance_form="time_linear")
    paths = []
    for _ in range(2):
        ctrl = RlPgsController(params, y_star=90.0, eta=0.2, alpha_step=0.05,
                               max_inner_iters=20, guard_bound=1000.0)
        model = _arima_model()
        model.reset(9)
        paths.append(ctrl.run_path(model, seed=9))
        assert ctrl.diagnostics["inner_iterations"]
    np.testing.assert_array_equal(paths[0].u, paths[1].u)
    np.testing.assert_array_equal(paths[0].y, paths[1].y)


def test_pgs_aborts_after_five_failed_halvings():
    params = PgsDistributionParams(beta=-1.8, gamma=1.0)
    ctrl = RlPgsController(params, y_star=90.0, eta=1e-9, alpha_step=1e6,
                           guard_bound=1e-3, max_inner_iters=20)
    model = _arima_model()
    model.reset(5)
    with pytest.raises(PeriodAbortError):
        ctrl.run_path(model, seed=5)


# ---------------------------------------------------------------------------
# open-loop controllers
# ---------------------------------------------------------------------------


def test_random_actions_equal_per_period_draws():
    model = _cmp_process()
    path = simulate_path(model, RandomActionController(2.5, tag="offline-x"), seed=17)
    rng = make_rng(17, tag="offline-x")
    expected = np.array([rng.normal(0.0, 2.5, size=model.control_dim) for _ in range(model.T)])
    assert path.u.tobytes() == expected.tobytes()


def test_oracle_actions_are_the_per_period_minimum_norm_solves():
    B, A, delta, y_star = (np.asarray(v, dtype=float) for v in (CMP["B"], CMP["A"], CMP["delta"], Y_STAR))
    expected = [np.linalg.lstsq(B, y_star - A - delta * t, rcond=None)[0] for t in range(1, 31)]
    # every path of every controller solves the same actions
    for seed in (3, 4):
        model = _cmp_process()
        path = simulate_path(model, LinearOracleController(CMP["A"], CMP["B"], CMP["delta"], Y_STAR), seed=seed)
        for t in range(1, model.T + 1):
            assert path.u[t - 1].tobytes() == expected[t - 1].tobytes()


def test_oracle_paths_do_not_share_their_actions():
    oracle = LinearOracleController(CMP["A"], CMP["B"], CMP["delta"], Y_STAR)
    first = simulate_path(_cmp_process(), oracle, seed=1)
    before = first.u.copy()
    first.u[:] = 0.0
    second = simulate_path(_cmp_process(), oracle, seed=2)
    assert second.u.tobytes() == before.tobytes()


def test_oracles_of_different_processes_get_different_actions():
    oracle = LinearOracleController(CMP["A"], CMP["B"], CMP["delta"], Y_STAR)
    base = simulate_path(_cmp_process(), oracle, 1).u
    other_delta = LinearOracleController(CMP["A"], CMP["B"], [1.5, -0.7], Y_STAR)
    assert not np.array_equal(simulate_path(_cmp_process(), other_delta, 1).u, base)
    # another horizon has its own actions, equal to these where the periods overlap
    shorter = simulate_path(_cmp_process(T=20), oracle, 1).u
    longer = simulate_path(_cmp_process(T=40), oracle, 1).u
    assert shorter.shape == (20, 3) and shorter.tobytes() == base[:20].tobytes()
    assert longer.shape == (40, 3) and longer[:30].tobytes() == base.tobytes()


@pytest.mark.parametrize("controller", [
    NullController(),
    RandomActionController(1.5),
    LinearOracleController(CMP["A"], CMP["B"], CMP["delta"], Y_STAR),
], ids=["null", "random", "oracle"])
def test_open_loop_controllers_run_the_path_in_one_batch(controller, monkeypatch):
    def no_stepping(*args):
        raise AssertionError("an open-loop path went through the per-period loop")

    monkeypatch.setattr(ProcessModel, "step", no_stepping)
    monkeypatch.setattr(ProcessModel, "commit", no_stepping)
    model = _cmp_process()
    path = simulate_path(model, controller, seed=4)
    assert path.u.shape == (30, 3) and path.y.shape == (30, 2)
    assert model.period == 30


# ---------------------------------------------------------------------------
# the recorded path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make_controller",
    [
        lambda: GhrController(b=-1.8, y_star=90.0, a_init=91.7),
        lambda: RlPgsController(PgsDistributionParams(beta=-1.8, gamma=1.0),
                                y_star=90.0, eta=0.2, guard_bound=1000.0),
    ],
    ids=["ghr", "pgs"],
)
def test_arima_path_records_the_committed_disturbance(make_controller):
    model = _arima_model()
    path = simulate_path(model, make_controller(), seed=8)
    assert path.d is not None
    p = model.params
    np.testing.assert_allclose(path.y[:, 0], p.a + p.b * path.u[:, 0] + path.d, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# config factory
# ---------------------------------------------------------------------------


def test_controller_factory_builds_every_kind():
    model = _cmp_process()
    assert isinstance(controller_from_config({"kind": "null"}, model, Y_STAR), NullController)
    assert isinstance(controller_from_config({"kind": "oracle"}, model, Y_STAR), LinearOracleController)
    assert isinstance(controller_from_config({"kind": "ewma"}, model, Y_STAR), EwmaController)
    assert isinstance(controller_from_config({"kind": "rl_alg1"}, model, Y_STAR), RlAlg1Controller)
    assert isinstance(controller_from_config({"kind": "oape"}, model, Y_STAR), OapeController)
    arima = _arima_model()
    assert isinstance(controller_from_config({"kind": "ghr"}, arima, 90.0), GhrController)
    assert isinstance(controller_from_config({"kind": "rl_pgs"}, arima, 90.0), RlPgsController)


def _preset_process(name):
    raw = load_preset(name)
    return process_from_config(raw["process"]), raw["y_star"]


@pytest.mark.parametrize("preset", sorted(f.name[:-5] for f in resources.files("r2rcontrol.configs").iterdir()
                                          if f.name.endswith(".json")))
def test_every_preset_builds_its_process_and_controller(preset):
    model, y_star = _preset_process(preset)
    controller_from_config(load_preset(preset)["controller"], model, y_star)


@pytest.mark.parametrize("preset, cfg", [
    ("cmp_ewma", {"kind": "pid"}),
    ("cmp_ewma", {"kind": "random"}),
    ("cmp_ewma", {"kind": [1]}),
    ("cmp_ewma", {"kind": "ewma", "lamda_ewma": 0.7}),
    ("arima_ghr", {"kind": "ghr", "lambda_ewma": 0.7}),
    ("cmp_oape", {"kind": "oape", "epsilon": 1.0}),
    ("arima_pgs", {"kind": "rl_pgs", "model_family": "linear"}),
    ("cmp_ewma", {"kind": "ewma", "a_init": [0.0, 0.0]}),
    ("arima_pgs", {"kind": "rl_pgs", "params": None}),
    ("cmp_rl", {"kind": "rl_alg1", "control_dim": 3}),
], ids=["unknown_kind", "random_kind", "unhashable_kind", "misspelt_key", "ghr_lambda_ewma", "oape_epsilon",
        "pgs_model_family", "ewma_a_init", "pgs_params", "rl_control_dim"])
def test_controller_factory_rejects_unknown_kind(preset, cfg):
    with pytest.raises(ConfigError):
        controller_from_config(cfg, *_preset_process(preset))


@pytest.mark.parametrize("preset, kind", [
    ("cmp_ewma", "ghr"), ("arima_ghr", "ewma"), ("arima_ghr", "oracle"), ("wiener_null", "ghr"),
])
def test_kind_that_cannot_control_the_process_family_is_config_error(preset, kind):
    model, y_star = _preset_process(preset)
    with pytest.raises(ConfigError, match=f"'{kind}' cannot control process family '{model.family}'"):
        controller_from_config({"kind": kind}, model, y_star)
