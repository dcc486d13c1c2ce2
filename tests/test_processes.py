import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from r2rcontrol.errors import ConfigError, DimensionError, HorizonError, NonFiniteActionError
from r2rcontrol.processes import (
    ArimaProcess,
    ArimaProcessParams,
    GammaParams,
    GammaProcess,
    LinearCmpParams,
    LinearCmpProcess,
    QuadraticCmpParams,
    QuadraticCmpProcess,
    WienerParams,
    WienerProcess,
    arima_output_variance,
    process_from_config,
    simulate_path,
)
from r2rcontrol.controllers import NullController, RandomActionController
from r2rcontrol.rng import make_rng


CMP_A = [-138.21, -627.32]
CMP_B = [[5.018, -0.665, 16.34, 0.845], [13.67, 19.95, 27.52, 5.25]]
CMP_DELTA = [-17.0, -1.5]
CMP_LAMBDA = [[665.64, 0.0], [0.0, 5.29]]


def cmp_params(noise=True, T=30):
    lam = CMP_LAMBDA if noise else np.zeros((2, 2))
    return LinearCmpParams(A=CMP_A, B=CMP_B, delta=CMP_DELTA, Lambda=lam, T=T)


def test_linear_cmp_noiseless_first_step():
    model = LinearCmpProcess(cmp_params(noise=False))
    model.reset(seed=1)
    y = model.step(np.zeros((1, 4)), 1)
    assert np.allclose(y, [[-155.21, -628.82]], atol=1e-12)


def test_linear_cmp_mean_is_affine_in_action():
    model = LinearCmpProcess(cmp_params(noise=False))
    model.reset(seed=0)
    u = np.array([1.0, -2.0, 0.5, 3.0])
    y = model.step(u[None], 1)[0]
    expected = np.asarray(CMP_A) + np.asarray(CMP_B) @ u + np.asarray(CMP_DELTA)
    assert np.allclose(y, expected)


def test_step_redraw_is_repeatable_and_commit_advances():
    model = LinearCmpProcess(cmp_params())
    model.reset(seed=7)
    u = np.zeros((1, 4))
    y1 = model.step(u, 1)
    y2 = model.step(u, 1)  # re-draw from the same committed state
    assert y1.shape == y2.shape
    model.commit()
    assert model.period == 1
    y3 = model.step(u, 2)
    assert y3.shape == (1, 2)


def test_step_validates_dimension_and_period():
    model = LinearCmpProcess(cmp_params())
    model.reset(seed=3)
    with pytest.raises(DimensionError):
        model.step(np.zeros((1, 3)), 1)
    with pytest.raises(HorizonError):
        model.step(np.zeros((1, 4)), 2)  # must be period 1 first
    with pytest.raises(HorizonError):
        model.step(np.zeros((1, 4)), 0)
    model.step(np.zeros((1, 4)), 1)
    model.commit()
    with pytest.raises(HorizonError):
        model.commit()  # nothing pending


def test_same_seed_same_path():
    model = LinearCmpProcess(cmp_params())
    p1 = simulate_path(model, NullController(), seed=99)
    p2 = simulate_path(model, NullController(), seed=99)
    assert np.array_equal(p1.y, p2.y)
    p3 = simulate_path(model, NullController(), seed=100)
    assert not np.array_equal(p1.y, p3.y)


def test_sample_path_shapes_and_horizon():
    model = LinearCmpProcess(cmp_params(T=5))
    path = simulate_path(model, NullController(), seed=1)
    assert path.u.shape == (5, 4)
    assert path.y.shape == (5, 2)
    assert path.horizon == 5


def test_param_validation():
    with pytest.raises(DimensionError):
        LinearCmpParams(A=[0.0], B=CMP_B, delta=CMP_DELTA, Lambda=CMP_LAMBDA)
    with pytest.raises(DimensionError):
        LinearCmpParams(A=CMP_A, B=CMP_B, delta=CMP_DELTA, Lambda=np.eye(3))
    with pytest.raises(ConfigError):
        LinearCmpParams(A=CMP_A, B=CMP_B, delta=CMP_DELTA, Lambda=CMP_LAMBDA, T=0)
    with pytest.raises(ConfigError):
        WienerParams(y0=90.0, v=0.5, sigma=0.0)
    with pytest.raises(ConfigError):
        GammaParams(alpha=0.0, beta=1.0)


# --- ARIMA ------------------------------------------------------------------


def arima_params(**kw):
    base = dict(a=91.7, b=-1.8, phi=0.6, theta=0.5, sigma=1.0, T=80)
    base.update(kw)
    return ArimaProcessParams(**base)


def test_arima_variance_reduces_to_random_walk_when_phi_equals_theta():
    p = arima_params(phi=0.4, theta=0.4, sigma=1.3)
    for t in (1, 7, 40):
        assert arima_output_variance(p, t) == pytest.approx(t * 1.3**2, rel=1e-12)


def test_arima_variance_exact_exceeds_independent_increment_form():
    p = arima_params()
    for t in (5, 20, 80):
        exact = arima_output_variance(p, t, form="exact")
        indep = arima_output_variance(p, t, form="independent_increments")
        assert exact > indep


def test_arima_variance_monte_carlo_small():
    p = arima_params(T=20)
    n = 20000
    model = ArimaProcess(p)
    d20 = np.array([simulate_path(model, NullController(), i).d[-1] for i in range(n)])
    v_emp = d20.var(ddof=1)
    v_exact = arima_output_variance(p, 20)
    se = v_emp * np.sqrt(2.0 / (n - 1))
    assert abs(v_emp - v_exact) < 4 * se


def test_arima_process_mean_structure():
    p = arima_params(sigma=1e-12, T=4)
    model = ArimaProcess(p)
    model.reset(seed=0)
    y = model.step(np.array([[2.0]]), 1)
    # without noise the first-period output is a + b*u
    assert y[0, 0] == pytest.approx(91.7 - 1.8 * 2.0, abs=1e-6)


# --- quadratic CMP ----------------------------------------------------------


QUAD_C1 = [2756.5, 547.6, 616.3, -126.7, -1109.5, -286.1, 989.1, -52.9, -156.9, -550.3]
QUAD_C2 = [746.3, 62.3, 128.6, -152.1, -289.7, -32.1, 237.7, -28.9, -122.1, -140.6]


def quad_params(noise=True):
    n1, n2 = (60.0, 30.0) if noise else (1e-300, 1e-300)
    return QuadraticCmpParams(
        coeffs1=QUAD_C1, coeffs2=QUAD_C2, drift1=-10.0, drift2=1.5,
        noise1=n1, noise2=n2, T=30,
    )


def test_quad_features_layout():
    u = np.array([2.0, 3.0, 5.0])
    f = np.array(QuadraticCmpProcess.quad_terms(*u))
    assert np.allclose(f, [1, 2, 3, 5, 4, 9, 25, 6, 10, 15])


def test_quadratic_mean_response_matches_polynomial():
    model = QuadraticCmpProcess(quad_params())
    u = np.array([0.3, -0.7, 1.1])
    t = 4
    f = np.array(QuadraticCmpProcess.quad_terms(*u))
    expect = np.array([f @ np.asarray(QUAD_C1) - 10.0 * t, f @ np.asarray(QUAD_C2) + 1.5 * t])
    assert np.allclose(model._means(u[None, None], t)[0, 0], expect)


# --- Wiener and gamma -------------------------------------------------------


def test_wiener_increment_moments():
    p = WienerParams(y0=90.0, v=0.66, sigma=1.0, T=1)
    model = WienerProcess(p)
    draws = []
    for seed in range(4000):
        model.reset(seed)
        draws.append(model.step(np.zeros((1, 1)), 1)[0, 0] - 90.0)
    draws = np.array(draws)
    assert draws.mean() == pytest.approx(0.66, abs=0.06)
    assert draws.var(ddof=1) == pytest.approx(1.0, rel=0.12)


def test_gamma_rate_vs_scale_interpretation():
    rate = GammaParams(alpha=0.36, beta=0.64, beta_is_rate=True)
    scale = GammaParams(alpha=0.36, beta=0.64, beta_is_rate=False)
    assert rate.scale == pytest.approx(1.0 / 0.64)
    assert scale.scale == pytest.approx(0.64)


def test_gamma_increments_nonnegative_without_control():
    model = GammaProcess(GammaParams(alpha=0.36, beta=0.64, y0=90.0, T=40))
    path = simulate_path(model, NullController(), seed=11)
    inc = np.diff(np.concatenate([[90.0], path.y[:, 0]]))
    assert np.all(inc >= 0.0)


def test_control_shifts_wiener_output_additively():
    p = WienerParams(y0=90.0, v=0.66, sigma=1.0, T=1, control_gain=-1.0)
    m1, m2 = WienerProcess(p), WienerProcess(p)
    m1.reset(seed=21)
    m2.reset(seed=21)
    y_zero = m1.step(np.zeros((1, 1)), 1)[0, 0]
    y_ctl = m2.step(np.array([[2.5]]), 1)[0, 0]
    assert y_ctl == pytest.approx(y_zero - 2.5, abs=1e-9)


# --- config plumbing --------------------------------------------------------


def test_process_from_config_families():
    cfgs = {
        "linear_cmp": dict(family="linear_cmp", A=CMP_A, B=CMP_B, delta=CMP_DELTA,
                           Lambda=CMP_LAMBDA, T=30),
        "arima": dict(family="arima", a=91.7, b=-1.8, phi=0.6, theta=0.5, sigma=1.0, T=80),
        "wiener": dict(family="wiener", y0=90.0, v=0.66, sigma=1.0, T=80),
        "gamma": dict(family="gamma", alpha=0.36, beta=0.64, y0=90.0, T=80),
    }
    for family, cfg in cfgs.items():
        model = process_from_config(cfg)
        assert model.family == family


def test_process_from_config_unknown_family():
    with pytest.raises(ConfigError):
        process_from_config({"family": "brownian-bridge"})


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), spread=st.floats(0.1, 3.0))
def test_random_policy_paths_are_finite_and_reproducible(seed, spread):
    model = WienerProcess(WienerParams(y0=90.0, v=0.66, sigma=1.0, T=12))
    policy = RandomActionController(spread)
    p1 = simulate_path(model, policy, seed)
    p2 = simulate_path(model, policy, seed)
    assert np.array_equal(p1.y, p2.y)
    assert np.array_equal(p1.u, p2.u)
    assert np.all(np.isfinite(p1.y))


# --- open-loop paths --------------------------------------------------------


FAMILIES = {
    "linear_cmp": lambda: LinearCmpProcess(cmp_params()),
    "arima": lambda: ArimaProcess(arima_params()),
    "quadratic_cmp": lambda: QuadraticCmpProcess(quad_params()),
    "wiener": lambda: WienerProcess(WienerParams(y0=90.0, v=0.66, sigma=1.0, T=40)),
    "gamma": lambda: GammaProcess(GammaParams(alpha=0.36, beta=0.64, y0=90.0, T=40)),
}


def _model_state(model) -> dict:
    """Every attribute of the model but its parameters, its generators as their states."""
    return {k: [g.bit_generator.state for g in v] if k == "_rng" else v
            for k, v in vars(model).items() if k != "params"}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_open_loop_path_equals_step_commit_loop(family):
    stepped, batched = FAMILIES[family](), FAMILIES[family]()
    u = make_rng(5, tag="open-loop").normal(0.0, 2.0, size=(1, stepped.T, stepped.control_dim))
    stepped.reset(31)
    ys, ds = [], []
    for t in range(1, stepped.T + 1):
        stepped.step(u[:, t - 1], t)
        ys.append(stepped.commit())
        ds.append(stepped.d_committed)
    batched.reset(31)
    y, d = batched.run_open_loop(u)
    assert y.tobytes() == np.array(ys).tobytes()
    if family == "arima":
        assert d.tobytes() == np.array(ds).tobytes()
    else:
        assert d is None
    assert batched.period == stepped.period == stepped.T
    assert batched.y_committed.tobytes() == stepped.y_committed.tobytes()
    assert batched.u_committed.tobytes() == stepped.u_committed.tobytes()
    # the ARIMA disturbance state and the generator's position as well
    np.testing.assert_equal(_model_state(batched), _model_state(stepped))


@pytest.mark.parametrize("m_y, m_u", [(1, 1), (2, 4), (3, 2), (5, 7)])
def test_linear_draws_equal_row_by_row_products(m_y, m_u):
    # the draw the stacked and the one-row expressions replace: one B @ u[i] and L @ z[i] a row, in a list
    rng = make_rng(8, tag=f"linear-draws-{m_y}-{m_u}")
    root = rng.normal(size=(m_y, m_y))  # a non-diagonal Lambda for m_y > 1
    params = LinearCmpParams(A=rng.normal(0.0, 100.0, m_y), B=rng.normal(0.0, 20.0, (m_y, m_u)),
                             delta=rng.normal(size=m_y), Lambda=root @ root.T + np.eye(m_y), T=12)
    u = rng.normal(0.0, 3.0, size=(params.T, m_u))
    stepped, batched = LinearCmpProcess(params), LinearCmpProcess(params)
    L = batched._noise_factor
    z = make_rng(41, tag="linear_cmp").standard_normal((params.T, m_y))
    want = np.array([params.A + params.B @ u[i] + params.delta * (1 + i) + L @ z[i] for i in range(params.T)])
    batched.reset(41)
    y, _ = batched.run_open_loop(u[None])
    assert y.tobytes() == want.tobytes()
    stepped.reset(41)
    for t in range(1, params.T + 1):  # one-row draws
        assert stepped.step(u[None, t - 1], t).tobytes() == want[t - 1].tobytes()
        stepped.commit()


def test_open_loop_rejects_wrong_shape_and_a_stepped_model():
    model = WienerProcess(WienerParams(y0=90.0, v=0.66, sigma=1.0, T=5))
    model.reset(1)
    for bad in (np.zeros((1, 4, 1)), np.zeros((1, 5, 2)), np.zeros((5, 1)), np.zeros(5)):
        with pytest.raises(DimensionError):
            model.run_open_loop(bad)
    model.step(np.zeros((1, 1)), 1)  # a pending draw has moved the generator
    with pytest.raises(HorizonError):
        model.run_open_loop(np.zeros((1, 5, 1)))
    model.commit()
    with pytest.raises(HorizonError):
        model.run_open_loop(np.zeros((1, 5, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_action_is_its_own_error_naming_the_period(bad):
    model = LinearCmpProcess(cmp_params())
    model.reset(2)
    model.step(np.zeros((1, 4)), 1)
    model.commit()
    with pytest.raises(NonFiniteActionError, match="action at period 2 is not finite"):
        model.step(np.array([[0.0, bad, 0.0, 0.0]]), 2)
    model.reset(2)
    u = np.zeros((1, model.T, 4))
    u[0, 6, 1] = bad
    with pytest.raises(NonFiniteActionError, match="action at period 7 is not finite"):
        model.run_open_loop(u)


# --- the row axis -------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_row_stack_gives_each_row_the_bytes_of_its_own_model(family):
    # four rows in lockstep against four one-row models: steps of every row, redraws of subsets, commits,
    # then an open-loop path of every row
    seeds = [31, 7, 2**62 + 5, 0]
    stack, singles = FAMILIES[family](), [FAMILIES[family]() for _ in seeds]
    rng = make_rng(9, tag=f"row-stack-{family}")
    m_u = stack.control_dim
    stack.reset(seeds)
    for model, seed in zip(singles, seeds):
        model.reset(seed)
    for t in range(1, stack.T + 1):
        u = rng.normal(0.0, 2.0, size=(len(seeds), m_u))
        y = stack.step(u, t)
        for i, model in enumerate(singles):
            assert model.step(u[i:i + 1], t).tobytes() == y[i].tobytes()
        for _ in range(t % 3):
            rows = np.flatnonzero(rng.random(len(seeds)) < 0.5)
            rows = rows if rows.size else np.array([t % len(seeds)])
            u = rng.normal(0.0, 2.0, size=(len(rows), m_u))
            y = stack.step(u, t, rows)
            for j, i in enumerate(rows):
                assert singles[i].step(u[j:j + 1], t).tobytes() == y[j].tobytes()
        y = stack.commit()
        for i, model in enumerate(singles):
            assert model.commit().tobytes() == y[i].tobytes()
            assert model.d_committed is None if stack.d_committed is None else (
                model.d_committed.tobytes() == stack.d_committed[i:i + 1].tobytes())
    for i, model in enumerate(singles):
        assert model.u_committed.tobytes() == stack.u_committed[i:i + 1].tobytes()
        assert model.y_committed.tobytes() == stack.y_committed[i:i + 1].tobytes()
        if family == "arima":
            assert model._state.tobytes() == stack._state[i:i + 1].tobytes()
        np.testing.assert_equal(model._rng[0].bit_generator.state, stack._rng[i].bit_generator.state)
    seeds = seeds[::-1]
    stack.reset(seeds)
    u = rng.normal(0.0, 2.0, size=(len(seeds), stack.T, m_u))
    y, d = stack.run_open_loop(u)
    assert y.shape == (len(seeds), stack.T, stack.output_dim)
    for i, (model, seed) in enumerate(zip(singles, seeds)):
        model.reset(seed)
        y_i, d_i = model.run_open_loop(u[i:i + 1])
        assert y_i.tobytes() == y[i].tobytes()
        assert d_i is None if d is None else d_i.tobytes() == d[i].tobytes()
        assert model.y_committed.tobytes() == stack.y_committed[i:i + 1].tobytes()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_period_opens_with_a_step_of_every_row(family):
    model = FAMILIES[family]()
    m_u = model.control_dim
    model.reset([3, 4, 5])
    for t in (1, 2):
        # a step of some rows before the period's step of every row is refused before any stream moves
        before = _model_state(model)
        with pytest.raises(HorizonError, match=f"^period {t} opens with a step of every row, not of some$"):
            model.step(np.zeros((2, m_u)), t, np.array([0, 2]))
        np.testing.assert_equal(_model_state(model), before)
        with pytest.raises(HorizonError, match="^no pending draw to commit$"):
            model.commit()
        u = np.zeros((3, m_u))
        y = model.step(u, t)
        held = y.copy()
        model.step(np.ones((2, m_u)), t, np.array([0, 2]))  # re-draws rows 0 and 2
        assert y.tobytes() == held.tobytes() and not u.any()  # the caller's arrays are not written over
        committed = model.commit()
        assert committed.shape == (3, model.output_dim) and model.period == t
        assert committed[1].tobytes() == held[1].tobytes()
        assert model.u_committed.tolist() == [[1.0] * m_u, [0.0] * m_u, [1.0] * m_u]


def test_non_finite_action_names_its_row():
    # the rows' bad actions differ, so the message shows whose it prints: the first bad row's
    model = LinearCmpProcess(cmp_params())
    model.reset([3, 4, 5])
    u = np.zeros((3, 4))
    u[1, 2] = np.nan
    u[2, 0] = -np.inf
    with pytest.raises(NonFiniteActionError, match=re.escape(f"action at period 1 is not finite: {u[1]}") + "$"):
        model.step(u, 1)
    with pytest.raises(NonFiniteActionError, match=re.escape(f"action at period 1 is not finite: {u[2]}") + "$"):
        model.step(u[[0, 2]], 1, np.array([0, 2]))
    model.reset([3, 4, 5])
    u = np.zeros((3, model.T, 4))
    u[2, 4, 0] = np.inf
    u[1, 9, 3] = np.nan
    u[1, 12, 1] = -np.inf
    # row 2 fails at an earlier period, but row 1 comes first: its first bad period, 10
    with pytest.raises(NonFiniteActionError, match=re.escape(f"action at period 10 is not finite: {u[1, 9]}") + "$"):
        model.run_open_loop(u)
