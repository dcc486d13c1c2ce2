"""Run-to-run control policies behind one contract.

Five controllers: EWMA and GHR benchmarks, the model-based RL controller
(alternating refit / action optimization with learning across paths),
the optimize-after-parameter-estimation baseline, and the policy
gradient search controller driven by a fitted output distribution.

Every policy subclasses :class:`Controller`.  ``prepare`` does any
offline learning for one replication and returns how many online paths
that replication runs; ``run_path`` runs one path on a freshly reset
process.  A policy only chooses actions, in one of two ways.  A policy
whose actions do not depend on the outputs (no control, random actions,
the known-model oracle) returns all T of them from
``open_loop_actions``, and ``run_path`` hands them to
``ProcessModel.run_open_loop``.  A feedback policy implements ``reset``,
which sets up per-path state, and ``act``, which calls ``model.step``
once or, for controllers that iterate trial actions, several times per
period; ``run_path`` commits the last trial of each period and records
the committed action, output and disturbance.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg
from scipy import optimize

from .errors import ConfigError, PeriodAbortError, integer, number, positive
from .estimation import VARIANCE_FORMS, PgsDistributionParams, fit_pgs_params, ridged_gram
from .processes import ProcessModel, QuadraticCmpProcess, SamplePath, simulate_path
from .rng import derive_int_seed, make_rng

log = logging.getLogger(__name__)


class Controller:
    """Choose each period's action; ``run_path`` commits and records it.

    The harness calls ``prepare`` once per replication, then ``run_path``
    once per online path.
    """

    diagnostics: dict = {}

    def prepare(self, model: ProcessModel, n_learning_paths: int, master_seed: int, replication: int) -> int:
        """Do any offline learning; return how many online paths the replication runs."""
        return n_learning_paths

    def open_loop_actions(self, model: ProcessModel, seed: int) -> np.ndarray | None:
        """All (T, m_u) actions of the path when they do not depend on its outputs, else None."""
        return None

    def reset(self, model: ProcessModel, seed: int) -> None:
        """Set up per-path state before period 1."""

    def act(self, model: ProcessModel, t: int) -> None:
        """Call ``model.step(u, t)`` one or more times; the last draw is committed."""
        raise NotImplementedError

    def run_path(self, model: ProcessModel, seed: int) -> SamplePath:
        """One T-period trajectory on a model already reset to ``seed``."""
        u = self.open_loop_actions(model, seed)
        if u is not None:
            y, d = model.run_open_loop(u)
            return SamplePath(u=u, y=y, d=d, y0=model.y0, seed=seed)
        self.reset(model, seed)
        us, ys, ds = [], [], []
        for t in range(1, model.T + 1):
            self.act(model, t)
            ys.append(model.commit())
            us.append(model.u_committed)
            ds.append(model.d_committed)
        d = None if ds[0] is None else np.asarray(ds, dtype=float)
        return SamplePath(u=np.array(us), y=np.array(ys), d=d, y0=model.y0, seed=seed)


class NullController(Controller):
    """u = 0 every period (the no-control baseline)."""

    def open_loop_actions(self, model, seed):
        return np.zeros((model.T, model.control_dim))


class LinearOracleController(Controller):
    """Exact compensation for a known linear model: solve B u = y* - A - delta*t."""

    def __init__(self, A, B, delta, y_star):
        self.A = np.atleast_1d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.delta = np.atleast_1d(np.asarray(delta, dtype=float))
        self.y_star = np.atleast_1d(np.asarray(y_star, dtype=float))

    def open_loop_actions(self, model, seed):
        # the actions do not depend on the seed: solved once per (A, B, delta, y*, T), copied per path
        key = [(a.shape, a.tobytes()) for a in (self.A, self.B, self.delta, self.y_star)]
        return _oracle_actions(*key, model.T).copy()


@functools.lru_cache(maxsize=16)
def _oracle_actions(A, B, delta, y_star, T: int) -> np.ndarray:
    """The T solves of B u = y* - A - delta*t; each array comes as its (shape, bytes)."""
    A, B, delta, y_star = (np.frombuffer(data).reshape(shape) for shape, data in (A, B, delta, y_star))
    # one minimum-norm solve per period: a multi-column lstsq may differ in the last bit
    return np.array([_lstsq(B, y_star - A - delta * t) for t in range(1, T + 1)])


class RandomActionController(Controller):
    """Seeded random exploration actions; used to generate offline datasets."""

    def __init__(self, spread: float = 1.0, tag: str = "random-action"):
        self.spread = float(spread)
        self.tag = tag

    def open_loop_actions(self, model, seed):
        # one draw of all T periods equals T draws of size m_u from the same stream
        return make_rng(seed, tag=self.tag).normal(0.0, self.spread, size=(model.T, model.control_dim))


def random_action_paths(model: ProcessModel, n: int, seed: int, spread: float, tag: str) -> list[SamplePath]:
    """``n`` offline paths under seeded random actions, streams keyed by ``tag``."""
    policy = RandomActionController(spread, tag=f"{tag}-offline")
    return [
        simulate_path(model, policy, int(make_rng(seed, replication=i, tag=f"{tag}-seed").integers(2**63)))
        for i in range(n)
    ]


class EwmaController(Controller):
    """Single-EWMA intercept filter with known gain matrix.

    a_hat_t = lambda*(y_t - B u_t) + (1 - lambda)*a_hat_{t-1};
    the next action is the minimum-norm solution of B u = y* - a_hat.
    """

    def __init__(self, B, y_star, lambda_ewma: float = 0.3, a_init=None):
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        if np.linalg.matrix_rank(self.B) < self.B.shape[0]:
            raise ConfigError("gain matrix has no right inverse")
        self.y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
        self.lam = number("lambda_ewma", lambda_ewma)
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lambda_ewma must lie in [0, 1]")
        self.a_init = None if a_init is None else np.atleast_1d(np.asarray(a_init, dtype=float))
        self._pinv = np.linalg.pinv(self.B)

    def reset(self, model, seed):
        if self.a_init is not None:
            self.a_hat = self.a_init.copy()
        else:
            self.a_hat = np.zeros(model.output_dim)

    def act(self, model, t):
        u = self._pinv @ (self.y_star - self.a_hat)
        y = model.step(u, t)
        self.a_hat = self.lam * (y - self.B @ u) + (1.0 - self.lam) * self.a_hat


class GhrController(Controller):
    """Harmonic-discount EWMA variant for scalar processes.

    The discount weight at period t is lambda_t = c/(t + s) with c = ghr_c
    and s = ghr_s; c = 0 gives a dead-reckoned controller and s -> infinity
    recovers the frozen filter.
    """

    def __init__(self, b: float, y_star: float, ghr_c: float = 20.0, ghr_s: float = 19.0, a_init: float = 0.0):
        if b == 0.0:
            raise ConfigError("process gain b must be nonzero")
        self.b = float(b)
        self.y_star = float(np.atleast_1d(y_star)[0])
        self.c = number("ghr_c", ghr_c)
        self.s = number("ghr_s", ghr_s)
        if self.s <= -1.0:  # s > -1 keeps t + s positive from period 1 on
            raise ConfigError(f"ghr_s must be > -1, got {ghr_s!r}")
        self.a_init = float(a_init)

    def reset(self, model, seed):
        self.a_hat = self.a_init

    def act(self, model, t):
        u = (self.y_star - self.a_hat) / self.b
        y = model.step(np.array([u]), t)
        lam = self.c / (t + self.s)
        lam = min(max(lam, 0.0), 1.0)
        self.a_hat = lam * (float(y[0]) - self.b * u) + (1.0 - lam) * self.a_hat


# ---------------------------------------------------------------------------
# Model-based RL controller (learning by doing)
# ---------------------------------------------------------------------------


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a square float64 ``a`` and a float64 ``b``, without its wrapper.

    Makes the LAPACK ``dgesv`` call that ``np.linalg.solve`` makes, through
    numpy's ``solve1`` (1-D ``b``) or ``solve`` (2-D ``b``) gufunc under the
    same error state, set per call by the decorator.  So the bits are the
    same and an exactly singular ``a`` raises ``LinAlgError``; only the
    dtype and shape checks are skipped, and here both hold by construction.
    ``scipy.linalg.lapack.dgesv`` is not used: scipy's wheel bundles a
    different OpenBLAS build, whose solutions differ from numpy's in the
    last bits on a share of small systems.
    """
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return gufunc(a, b, signature="dd->d")


def _raise_lstsq(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


_EPS = np.finfo(float).eps


@np.errstate(call=_raise_lstsq, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(a, b, rcond=None)[0]`` for a float64 (m, n) ``a`` with m >= 1 and a float64 (m,) ``b``.

    Makes the LAPACK ``dgelsd`` call that ``np.linalg.lstsq`` makes, through
    numpy's ``lstsq`` gufunc with ``b`` as one column, the default cut-off
    eps * max(m, n) and the same error state.  So the minimum-norm solution
    has the same bits; the checks, the residuals and the singular values the
    wrapper also returns are skipped.
    """
    m, n = a.shape
    return _umath_linalg.lstsq(a, b[:, None], _EPS * max(m, n), signature="ddd->ddid")[0][:, 0]


# a pooled design with a larger 2-norm condition number is treated as rank-deficient
_COND_LIMIT = 1e12


class _PooledFit:
    """Incremental [Gram | X'y] accumulator for pooled least squares.

    ``solve`` reports a fit as ridged when the Gram is singular or, exactly
    as ``np.linalg.cond(gram) > _COND_LIMIT`` would, near-singular.  The
    condition number is not recomputed at every solve.  Adding x x' never
    lowers the Gram's smallest eigenvalue and raises its largest by at most
    |x|^2 (Weyl), so after one exact SVD, (s_max + sum |x|^2) / s_min bounds
    the condition number of every later Gram from above.  While that bound
    is below a tenth of the limit, the condition number is certainly below
    the limit and the SVD is skipped; otherwise it is recomputed and the
    bound restarts from the new singular values.
    """

    def __init__(self, n_features: int, n_outputs: int):
        self.aug = np.zeros((n_features, n_features + n_outputs))
        self.gram = self.aug[:, :n_features]
        self.xty = self.aug[:, n_features:]
        self._outer = np.empty_like(self.aug)  # one sample's x [x' | y'], reused by every add
        self.n = 0
        self._s_min = 0.0
        self._s_max_bound = np.inf

    def add(self, x: np.ndarray, y: np.ndarray) -> None:
        np.multiply(x[:, None], np.concatenate((x, y)), out=self._outer)
        self.aug += self._outer
        self._s_max_bound += x @ x
        self.n += 1

    def _near_singular(self) -> bool:
        if self._s_max_bound < 0.1 * _COND_LIMIT * self._s_min:
            return False
        s = np.linalg.svd(self.gram, compute_uv=False)
        self._s_min, self._s_max_bound = s[-1], s[0]
        # a zero s_min is np.linalg.cond's inf
        return s[-1] == 0.0 or s[0] / s[-1] > _COND_LIMIT

    def solve(self) -> tuple[np.ndarray, bool]:
        gram = self.gram
        ridged = False
        try:
            theta = _solve(gram, self.xty)
            if not np.isfinite(theta).all():
                raise LinAlgError
        except LinAlgError:
            ridged = True
            theta = _solve(ridged_gram(gram), self.xty)
        # near-singular pooled designs behave like rank-deficient ones
        if not ridged and self._near_singular():
            ridged = True
        return theta, ridged


def _quad_residual(theta: np.ndarray, y_star: np.ndarray, t: int, u: np.ndarray):
    """Target miss r of the fitted quadratic family at ``u`` and its transposed Jacobian dr/du (3 x m_y)."""
    r = _quadratic_features(u, t) @ theta - y_star
    # gradient of features wrt u (10 x 3), from Python floats: their products round as float64 ones do
    u1, u2, u3 = u.tolist()
    jac_f = np.array(
        [
            0.0, 0.0, 0.0,
            1.0, 0.0, 0.0,
            0.0, 1.0, 0.0,
            0.0, 0.0, 1.0,
            2 * u1, 0.0, 0.0,
            0.0, 2 * u2, 0.0,
            0.0, 0.0, 2 * u3,
            u2, u1, 0.0,
            u3, 0.0, u1,
            0.0, u3, u2,
        ]
    ).reshape(10, 3)
    return r, jac_f.T @ theta[:-1]


def _quad_objective(theta: np.ndarray, y_star: np.ndarray, t: int):
    """Squared target miss of the fitted quadratic family and its gradient."""

    def fun(u):
        r, jac_pred = _quad_residual(theta, y_star, t, u)
        return float(r @ r), 2.0 * jac_pred @ r

    return fun


_QUAD_STENCIL = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.5, 0.5, 0.5],
        [-0.5, -0.5, -0.5],
        [1.0, -1.0, 0.0],
        [-1.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)

# residual evaluations the projected Gauss-Newton fast path may spend
_GAUSS_NEWTON_ITERS = 20
# a squared miss this small is an exact hit: no start or step can do better
_EXACT_MISS = 1e-12


def _quad_gauss_newton(theta, y_star, t, u, lo, hi) -> np.ndarray | None:
    """Projected minimum-norm Gauss-Newton from ``u``; the action if it hits y* exactly, else None."""
    for _ in range(_GAUSS_NEWTON_ITERS):
        r, jac_t = _quad_residual(theta, y_star, t, u)
        if r @ r <= _EXACT_MISS:
            return u
        try:
            step = jac_t @ _solve(jac_t.T @ jac_t, r)
        except LinAlgError:
            return None
        u = (u - step).clip(lo, hi)
    return None


def rl_alg1_action_optimize(
    theta: np.ndarray,
    y_star: np.ndarray,
    t: int,
    model_family: str,
    bounds: tuple[float, float],
    warm_start: np.ndarray | None = None,
) -> np.ndarray:
    """Minimize the fitted model's squared target miss over the action box.

    Linear family: closed-form minimum-norm solve, clipped to the box.

    Quadratic family: the fitted model has more actions than outputs, so
    its exact hits generically form a curve.  The fast path starts from the
    clipped warm start (the stencil's origin without one) and takes up to
    ``_GAUSS_NEWTON_ITERS`` projected minimum-norm Gauss-Newton steps
    u <- clip(u - J^T (J J^T)^-1 r); it returns the first iterate whose
    squared miss is at most ``_EXACT_MISS``.  If it does not get there (a
    singular J J^T, the iteration cap, or no exact hit inside the box), a
    bounded L-BFGS multistart from the same start and a fixed stencil
    minimizes the miss, with first-found tie-breaking.  The stencil is
    clipped to the box only when the fallback runs.
    """
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
    lo, hi = bounds
    if model_family == "linear":
        # theta rows: intercept, control coefficients, drift slope
        theta2 = np.atleast_2d(np.asarray(theta, dtype=float))
        if theta2.shape[0] == 1:
            theta2 = theta2.T
        m_u = theta2.shape[0] - 2
        A_hat = theta2[0]
        B_hat = theta2[1 : 1 + m_u].T
        delta_hat = theta2[-1]
        rhs = y_star - A_hat - delta_hat * t
        return _lstsq(B_hat, rhs).clip(lo, hi)
    if model_family == "quadratic":
        first = _QUAD_STENCIL[0] if warm_start is None else np.asarray(warm_start, dtype=float)
        start = first.clip(lo, hi)
        u = _quad_gauss_newton(theta, y_star, t, start, lo, hi)
        if u is not None:
            return u
        starts = [] if warm_start is None else [start]
        starts.extend(_QUAD_STENCIL.clip(lo, hi))
        fun = _quad_objective(theta, y_star, t)
        best_u, best_val = None, np.inf
        box = [(lo, hi)] * 3
        for x0 in starts:
            res = optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=box)
            if res.fun < best_val - 1e-12:
                best_val = res.fun
                best_u = res.x
            # the objective is a sum of squares: no later start can beat this
            if best_val <= _EXACT_MISS:
                break
        return np.asarray(best_u)
    raise ConfigError(f"unknown model family {model_family!r}")


def _linear_features(u: np.ndarray, t: int) -> np.ndarray:
    return np.concatenate([[1.0], u, [float(t)]])


def _quadratic_features(u: np.ndarray, t: int) -> np.ndarray:
    return np.array(QuadraticCmpProcess.quad_terms(*u.tolist()) + [float(t)])


class _ModelFitController(Controller):
    """Pooled least-squares fit of an approximate model family, and the action it prescribes."""

    def __init__(self, y_star, control_dim: int, output_dim: int, *,
                 model_family: str = "linear", action_low: float = -1e6, action_high: float = 1e6):
        self.y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
        self.control_dim = control_dim
        self.output_dim = output_dim
        self.model_family = model_family
        self.action_low = number("action_low", action_low)
        self.action_high = number("action_high", action_high)
        if not self.action_low < self.action_high:
            raise ConfigError(f"action_low {self.action_low!r} must be below action_high {self.action_high!r}")
        if model_family == "linear":
            self._features = _linear_features
            self.n_features = control_dim + 2
        elif model_family == "quadratic":
            if control_dim != 3:
                raise ConfigError("quadratic family expects 3 control variables")
            self._features = _quadratic_features
            self.n_features = 11
        else:
            raise ConfigError(f"unknown model family {model_family!r}")
        self.pool = _PooledFit(self.n_features, output_dim)
        self.theta = np.zeros((self.n_features, output_dim))

    def _optimize(self, t: int, warm: np.ndarray) -> np.ndarray:
        return rl_alg1_action_optimize(
            self.theta, self.y_star, t, self.model_family, (self.action_low, self.action_high), warm_start=warm
        )


class RlAlg1Controller(_ModelFitController):
    """Model-based RL controller: alternate refit and action optimization.

    The pooled dataset persists across sample paths (the approximate
    families here are time-independent, with t entering as a regressor),
    so later paths start from an already-informed fit.  While the pooled
    design is still uninformative (fewer than 3 * n_features samples, or a
    ridged solve), trial actions are dithered around the warm start by a
    seeded exploration stream of scale ``explore_scale``.  A period ends
    when the fit moves less than ``epsilon`` and the action less than ``eta``.
    """

    def __init__(self, y_star, control_dim: int, output_dim: int, *, epsilon: float = 1.0, eta: float = 1.0,
                 max_inner_iters: int = 20, explore_scale: float = 1.0, **model_fit):
        super().__init__(y_star, control_dim, output_dim, **model_fit)
        self.epsilon = positive("epsilon", epsilon)
        self.eta = positive("eta", eta)
        self.max_inner_iters = integer("max_inner_iters", max_inner_iters)
        self.explore_scale = positive("explore_scale", explore_scale)
        self.paths_run = 0

    def reset(self, model, seed):
        self._explore_rng = make_rng(seed, tag="alg1-explore")
        self.paths_run += 1
        self.diagnostics = {
            "inner_iterations": [],
            "converged": [],
            "pooled_samples": self.pool.n,
            "paths_run": self.paths_run,
        }

    def act(self, model, t):
        # warm start: the action committed last period (zero at t = 1)
        u_k = model.u_committed.copy()
        self.pool.add(self._features(u_k, t), model.step(u_k, t))
        converged = False
        for k in range(self.max_inner_iters):
            theta_prev = self.theta
            self.theta, ridged = self.pool.solve()
            if ridged or self.pool.n < 3 * self.n_features:
                u_next = u_k + self._explore_rng.normal(0.0, self.explore_scale, size=self.control_dim)
                u_next = u_next.clip(self.action_low, self.action_high)
            else:
                u_next = self._optimize(t, u_k)
            self.pool.add(self._features(u_next, t), model.step(u_next, t))
            # np.linalg.norm of a real array, without its wrapper
            d_theta = (self.theta - theta_prev).ravel()
            d_u = u_next - u_k
            theta_step = math.sqrt(d_theta @ d_theta)
            action_step = math.sqrt(d_u @ d_u)
            u_k = u_next
            if theta_step < self.epsilon and action_step < self.eta:
                converged = True
                break
        if not converged:
            log.debug("period %d: inner loop hit max_inner_iters, using last iterate", t)
        self.diagnostics["inner_iterations"].append(k + 1)
        self.diagnostics["converged"].append(converged)
        self.diagnostics["pooled_samples"] = self.pool.n


class OapeController(_ModelFitController):
    """Optimize-after-parameter-estimation baseline.

    Fits the model family once from offline paths whose actions are normal
    with standard deviation ``offline_action_spread``, then controls one
    online path with the frozen fit (no learning by doing).
    """

    def __init__(self, y_star, control_dim: int, output_dim: int, *, offline_action_spread: float = 1.0, **model_fit):
        super().__init__(y_star, control_dim, output_dim, **model_fit)
        self.offline_action_spread = positive("offline_action_spread", offline_action_spread)

    def prepare(self, model, n_learning_paths, master_seed, replication):
        self.learn_offline(
            model, n_learning_paths, derive_int_seed(master_seed, replication=replication, tag="oape-learn")
        )
        return 1

    def learn_offline(self, model: ProcessModel, n_paths: int, seed: int) -> None:
        """Pool ``n_paths`` random-action paths and freeze the fit."""
        for path in random_action_paths(model, n_paths, seed, self.offline_action_spread, "oape"):
            for t in range(1, path.horizon + 1):
                self.pool.add(self._features(path.u[t - 1], t), path.y[t - 1])
        self.theta, _ = self.pool.solve()

    def reset(self, model, seed):
        if self.pool.n == 0:
            raise ConfigError("OAPE controller must learn before running")

    def act(self, model, t):
        # warm start: the action committed last period (zero at t = 1)
        model.step(self._optimize(t, model.u_committed), t)


# ---------------------------------------------------------------------------
# Policy gradient search controller
# ---------------------------------------------------------------------------


class RlPgsController(Controller):
    """Online policy gradient search against a fitted output distribution.

    Per period the action is iterated by u <- u - alpha * C(y) * d/du log
    p(y; u), alpha = ``alpha_step``, each step re-observing the process at
    the current action, until the action increment falls below ``eta``.
    An iterate beyond ``guard_bound`` halves the step size; five failed
    halvings abort the period.  ``prepare`` fits ``params`` from
    ``n_offline_paths`` paths of random actions.
    """

    def __init__(self, params: PgsDistributionParams | None = None, /, *, y_star, variance_form: str = "time_linear",
                 alpha_step: float = 0.05, eta: float = 1.0, max_inner_iters: int = 20, guard_bound: float = 1e6,
                 n_offline_paths: int = 100, offline_action_spread: float = 1.0):
        if variance_form not in VARIANCE_FORMS:
            raise ConfigError(f"variance_form must be one of {VARIANCE_FORMS}, got {variance_form!r}")
        self.params = params
        self.y_star = float(np.atleast_1d(y_star)[0])
        self.variance_form = variance_form
        self.alpha_step = positive("alpha_step", alpha_step)
        self.eta = positive("eta", eta)
        self.max_inner_iters = integer("max_inner_iters", max_inner_iters)
        self.guard_bound = positive("guard_bound", guard_bound)
        self.n_offline_paths = integer("n_offline_paths", n_offline_paths)
        self.offline_action_spread = positive("offline_action_spread", offline_action_spread)
        self.offline_store: list[SamplePath] = []

    def prepare(self, model, n_learning_paths, master_seed, replication):
        self.learn_offline(
            model,
            self.n_offline_paths,
            derive_int_seed(master_seed, replication=replication, tag="pgs-learn"),
        )
        return n_learning_paths

    def learn_offline(self, model: ProcessModel, n_paths: int, seed: int) -> None:
        """Populate the offline store with random-action paths and fit (beta, gamma)."""
        self.offline_store += random_action_paths(model, n_paths, seed, self.offline_action_spread, "pgs")
        self.params = fit_pgs_params(self.offline_store, self.variance_form)

    def reset(self, model, seed):
        if self.params is None:
            raise ConfigError("PGS controller needs fitted distribution parameters")
        self.diagnostics = {"inner_iterations": []}

    def act(self, model, t):
        u_prev = float(model.u_committed[0])
        y_prev = float(model.y_committed[0])
        alpha = self.alpha_step
        halvings = 0
        while True:  # restart the period from the last committed action on divergence
            u_k = u_prev
            y = float(model.step(np.array([u_k]), t)[0])
            diverged = False
            for k in range(self.max_inner_iters):
                cost = (y - self.y_star) ** 2
                grad = cost * self.params.score_u(y, y_prev, u_k, u_prev, t)
                u_next = u_k - alpha * grad
                if abs(u_next) > self.guard_bound:
                    diverged = True
                    break
                if abs(u_next - u_k) < self.eta:
                    break
                u_k = u_next
                y = float(model.step(np.array([u_k]), t)[0])
            if not diverged:
                break
            halvings += 1
            if halvings > 5:
                raise PeriodAbortError(f"period {t}: iterates diverged after 5 step-size halvings")
            alpha /= 2.0
        self.diagnostics["inner_iterations"].append(k + 1)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _model_fit_args(model: ProcessModel, y_star) -> dict:
    return dict(y_star=y_star, control_dim=model.control_dim, output_dim=model.output_dim)


# kind -> (class, the arguments it takes from the process model and the target)
_KINDS = {
    "null": (NullController, lambda model, y_star: {}),
    "oracle": (
        LinearOracleController,
        lambda model, y_star: dict(A=model.params.A, B=model.params.B, delta=model.params.delta, y_star=y_star),
    ),
    "ewma": (EwmaController, lambda model, y_star: dict(B=model.params.B, y_star=y_star, a_init=model.params.A)),
    "ghr": (GhrController, lambda model, y_star: dict(b=model.params.b, y_star=y_star, a_init=model.params.a)),
    "rl_alg1": (RlAlg1Controller, _model_fit_args),
    "oape": (OapeController, _model_fit_args),
    "rl_pgs": (RlPgsController, lambda model, y_star: dict(y_star=y_star)),
}


def controller_from_config(cfg: dict, model: ProcessModel, y_star) -> Controller:
    """Build a controller from a config mapping with a ``kind`` key.

    Every other key is a keyword argument of that kind's constructor, so a
    key the kind does not read is a :class:`ConfigError`.
    """
    settings = dict(cfg)
    kind = settings.pop("kind", None)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"unknown controller kind {kind!r}")
    cls, model_args = _KINDS[kind]
    try:
        args = model_args(model, y_star)
    except AttributeError as exc:
        raise ConfigError(f"controller kind {kind!r} cannot control process family {model.family!r}") from exc
    try:
        return cls(**args, **settings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad controller settings for {kind!r}: {exc}") from exc
