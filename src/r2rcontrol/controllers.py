"""Run-to-run control policies behind one contract.

Five controllers: EWMA and GHR benchmarks, the model-based RL controller
(alternating refit / action optimization with learning across paths),
the optimize-after-parameter-estimation baseline, and the policy
gradient search controller driven by a fitted output distribution.

Every policy subclasses :class:`Controller`, and one controller runs a
stack of replications in lockstep: the rows of a
:class:`~r2rcontrol.processes.ProcessModel`, one replication each.
``prepare`` does any offline learning for each row and returns how many
online paths the rows run; ``run_path`` runs one path of every row on a
freshly reset process.  A one-row model is the single-path case of the
same code.  A policy only chooses actions, in one of two ways.  A policy
whose actions do not depend on the outputs (no control, random actions,
the known-model oracle) returns all T of them for every row from
``open_loop_actions``, and ``run_path`` hands them to
``ProcessModel.run_open_loop``.  A feedback policy implements ``reset``,
which sets up per-path state, and ``act``, which opens each period with
a ``model.step`` of every row and, for controllers that iterate trial
actions, re-steps some rows; ``run_path`` commits each row's last trial
of each period.  Either way the model records each row's path, and
``run_path`` reads the paths off that record.

A row's numbers do not depend on the other rows: every stacked product,
solve and least-squares call gives each slice the bits of its one-row
call, and every row draws from its own streams.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from numpy._core.umath import clip as _clip  # the ufunc ``ndarray.clip`` calls, without its wrapper: the same bits
from numpy.linalg import LinAlgError, _umath_linalg
from scipy import optimize

from .errors import ConfigError, PeriodAbortError, integer, number, positive
from .estimation import VARIANCE_FORMS, PgsDistributionParams, fit_pgs_params, ridged_gram
from .processes import ProcessModel, QuadraticCmpProcess, SamplePath, simulate_path
from .rng import derive_int_seed, make_rng

log = logging.getLogger(__name__)


class Controller:
    """Choose each period's actions for the rows of a model; ``run_path`` commits them and reads the model's record.

    The harness calls ``prepare`` once per stack of replications, then
    ``run_path`` once per online path, on a model with one row per
    replication.
    """

    rows = 1

    def prepare(self, model: ProcessModel, n_learning_paths: int, master_seed: int, replications) -> int:
        """Do any offline learning for each of ``replications``, one per row; return how many online paths they run."""
        return n_learning_paths

    def open_loop_actions(self, model: ProcessModel, seeds: list) -> np.ndarray | None:
        """All (R, T, m_u) actions of the rows' paths when they do not depend on the outputs, else None."""
        return None

    def reset(self, model: ProcessModel, seeds: list) -> None:
        """Set up every row's per-path state before period 1."""

    def act(self, model: ProcessModel, t: int) -> None:
        """Call ``model.step`` on every row, then on any rows again; each row's last draw is committed."""
        raise NotImplementedError

    def row_diagnostics(self, row: int) -> dict:
        """One row's convergence diagnostics of the last path."""
        return {}

    @property
    def diagnostics(self) -> dict:
        """The rows' diagnostics, lists joined in row order and counts summed: a one-row model's own."""
        merged = {}
        for row in range(self.rows):
            for key, value in self.row_diagnostics(row).items():
                merged[key] = merged[key] + value if key in merged else value
        return merged

    def run_path(self, model: ProcessModel, seed) -> SamplePath | list[SamplePath]:
        """One T-period trajectory of every row of a model already reset to ``seed``.

        ``seed`` is a sequence with one seed per row, for a list of paths, or
        one int for a one-row model, for its path.
        """
        one = np.ndim(seed) == 0
        seeds = [seed] if one else list(seed)
        self.rows = len(seeds)
        u = self.open_loop_actions(model, seeds)
        if u is not None:
            model.run_open_loop(u)
        else:
            self.reset(model, seeds)
            for t in range(1, model.T + 1):
                self.act(model, t)
                model.commit()
        paths = model.paths(seeds)
        return paths[0] if one else paths


class NullController(Controller):
    """u = 0 every period (the no-control baseline)."""

    def open_loop_actions(self, model, seeds):
        return np.zeros((len(seeds), model.T, model.control_dim))


class LinearOracleController(Controller):
    """Exact compensation for a known linear model: solve B u = y* - A - delta*t."""

    def __init__(self, A, B, delta, y_star):
        self.A = np.atleast_1d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.delta = np.atleast_1d(np.asarray(delta, dtype=float))
        self.y_star = np.atleast_1d(np.asarray(y_star, dtype=float))

    def open_loop_actions(self, model, seeds):
        # one minimum-norm solve per period: a multi-column lstsq may differ in the last bit; the actions
        # do not depend on the seed, so every row gets a copy
        u = np.array([_lstsq(self.B, self.y_star - self.A - self.delta * t) for t in range(1, model.T + 1)])
        return np.repeat(u[None], len(seeds), axis=0)


class RandomActionController(Controller):
    """Seeded random exploration actions; used to generate offline datasets."""

    def __init__(self, spread: float = 1.0, tag: str = "random-action"):
        self.spread = float(spread)
        self.tag = tag

    def open_loop_actions(self, model, seeds):
        # one draw of all T periods equals T draws of size m_u from the same stream
        size = (model.T, model.control_dim)
        return np.array([make_rng(s, tag=self.tag).normal(0.0, self.spread, size=size) for s in seeds])


def random_action_paths(model: ProcessModel, n: int, seed: int, spread: float, tag: str) -> list[SamplePath]:
    """``n`` offline paths under seeded random actions, streams keyed by ``tag``, run as one stack of ``n`` rows."""
    seeds = [int(make_rng(seed, replication=i, tag=f"{tag}-seed").integers(2**63)) for i in range(n)]
    return simulate_path(model, RandomActionController(spread, tag=f"{tag}-offline"), seeds)


def _matvecs(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``mat @ v`` for each row ``v`` of ``vecs``, as a stack of the GEMVs one product makes, so with its bits."""
    return np.matmul(mat, vecs[:, :, None])[:, :, 0]


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

    def reset(self, model, seeds):
        a_init = np.zeros(model.output_dim) if self.a_init is None else self.a_init
        self.a_hat = np.tile(a_init, (len(seeds), 1))

    def act(self, model, t):
        u = _matvecs(self._pinv, self.y_star - self.a_hat)
        y = model.step(u, t)
        self.a_hat = self.lam * (y - _matvecs(self.B, u)) + (1.0 - self.lam) * self.a_hat


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

    def reset(self, model, seeds):
        self.a_hat = np.full(len(seeds), self.a_init)

    def act(self, model, t):
        u = (self.y_star - self.a_hat) / self.b
        y = model.step(u[:, None], t)[:, 0]
        lam = self.c / (t + self.s)
        lam = min(max(lam, 0.0), 1.0)
        self.a_hat = lam * (y - self.b * u) + (1.0 - lam) * self.a_hat


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


@np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")
def _solve_or_nan(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """``_solve`` of a stack of systems, a slice each, where an exactly singular slice comes back NaN.

    Under ``invalid="ignore"`` numpy's gufunc fills a failed slice with NaN
    and leaves the others as their own calls make them.  Also returns
    whether the sum of all the solutions' entries is finite, which it is
    only if every entry is; it may also overflow when every entry is finite.
    """
    x = _umath_linalg.solve(a, b, signature="dd->d")
    return x, math.isfinite(np.add.reduce(x, axis=None))


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
    wrapper also returns are skipped.  A stack of systems, (k, m, n) and
    (k, m), is one call that solves each slice as its own call would.
    """
    m, n = a.shape[-2:]
    return _umath_linalg.lstsq(a, b[..., None], _EPS * max(m, n), signature="ddd->ddid")[0][..., 0]


# a pooled design with a larger 2-norm condition number is treated as rank-deficient
_COND_LIMIT = 1e12


class _PooledFit:
    """Incremental [Gram | X'y] accumulators for pooled least squares, one per row of a stack.

    ``solve`` reports a row's fit as ridged when its Gram is singular or,
    exactly as ``np.linalg.cond(gram) > _COND_LIMIT`` would, near-singular.
    The condition number is not recomputed at every solve.  Adding x x'
    never lowers the Gram's smallest eigenvalue and raises its largest by at
    most |x|^2, the rise of its trace (Weyl), so after one exact SVD,
    (s_max + trace - trace at the SVD) / s_min bounds the condition number
    of every later Gram from above.  While that bound is below a tenth of
    the limit, the condition number is certainly below the limit and the
    SVD is skipped; otherwise it is recomputed and the bound restarts from
    the new singular values.  Each row keeps its own bound, as the trace
    below which its SVD is skipped, and the SVD runs only for the rows that
    reach it.

    ``rows`` arguments are index arrays into the stack; None is every row.
    """

    def __init__(self, n_features: int, n_outputs: int, rows: int = 1):
        self.aug = np.zeros((rows, n_features, n_features + n_outputs))
        self.gram = self.aug[:, :, :n_features]
        self.xty = self.aug[:, :, n_features:]
        self._diagonal = self.gram.diagonal(axis1=1, axis2=2)  # a view: each row's Gram diagonal, for its trace
        self._outer = np.empty_like(self.aug)  # every row's x [x' | y'], reused by every add of all rows
        self._adds = 0  # samples added to every row, counted once
        self._row_adds = np.zeros(rows, dtype=int)  # samples added to some rows
        self._trace_limit = [-math.inf] * rows  # no SVD yet: every row takes one

    @property
    def n(self) -> np.ndarray:
        """Each row's sample count."""
        return self._row_adds + self._adds

    def add(self, x: np.ndarray, y: np.ndarray, rows=None) -> None:
        """Add one sample to each of ``rows``: its row of the features ``x`` and of the outputs ``y``."""
        xy = np.concatenate((x, y), axis=1)
        if rows is None:
            self.aug += np.multiply(x[:, :, None], xy[:, None, :], out=self._outer)
            self._adds += 1
        else:
            self.aug[rows] += x[:, :, None] * xy[:, None, :]
            self._row_adds[rows] += 1

    def _near_singular(self, row: int) -> bool:
        """Whether ``row``'s Gram is above the condition limit, from an exact SVD that restarts its bound."""
        s = np.linalg.svd(self.gram[row], compute_uv=False)
        # later SVDs are skipped while s_max + (trace - trace now) < 0.1 * _COND_LIMIT * s_min
        self._trace_limit[row] = 0.1 * _COND_LIMIT * s[-1] - s[0] + np.add.reduce(self._diagonal[row])
        # a zero s_min is np.linalg.cond's inf
        return s[-1] == 0.0 or s[0] / s[-1] > _COND_LIMIT

    def solve(self, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """The fits of ``rows``, (len(rows), n_features, n_outputs), and whether each is ridged."""
        gram, xty, diagonal, limits = (self.gram, self.xty, self._diagonal, self._trace_limit) if rows is None else (
            self.gram[rows], self.xty[rows], self._diagonal[rows], [self._trace_limit[i] for i in rows.tolist()])
        theta, finite_sum = _solve_or_nan(gram, xty)
        ridged = np.zeros(len(theta), dtype=bool)
        if not finite_sum:
            ridged = ~np.isfinite(theta).reshape(len(theta), -1).all(axis=1)
            if ridged.any():
                theta[ridged] = _solve(np.array([ridged_gram(g) for g in gram[ridged]]), xty[ridged])
        # near-singular pooled designs behave like rank-deficient ones
        for j, (trace, limit) in enumerate(zip(np.add.reduce(diagonal, axis=1).tolist(), limits)):
            if not trace < limit and not ridged[j]:
                ridged[j] = self._near_singular(j if rows is None else rows[j])
        return theta, ridged


def _quad_residual(theta: np.ndarray, y_star: np.ndarray, t: int, u: np.ndarray):
    """Target miss r of the fitted quadratic family at ``u`` and its transposed Jacobian dr/du (3 x m_y)."""
    u = u.tolist()
    return _quad_miss(theta, y_star, float(t), u), _quad_jacobian(theta[:-1], u)


def _quad_miss(theta: np.ndarray, y_star: np.ndarray, t: float, u: list) -> np.ndarray:
    """The target miss at the action ``u``, a list of 3 floats: ``[quad_terms(u), t] @ theta - y_star``."""
    return np.array(QuadraticCmpProcess.quad_terms(*u) + [t]) @ theta - y_star


def _quad_jacobian(theta_u: np.ndarray, u: list) -> np.ndarray:
    """The miss's transposed Jacobian at ``u``, a list of 3 floats, from the fit's first 10 rows ``theta_u``."""
    # gradient of features wrt u (10 x 3), from Python floats: their products round as float64 ones do
    u1, u2, u3 = u
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
    return jac_f.T @ theta_u


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
    """Projected minimum-norm Gauss-Newton from ``u``; the action if it hits y* exactly, else None.

    The iterations run under ``_solve``'s error state, entered once: an
    exactly singular J J^T raises ``LinAlgError`` and ends them.  So does
    an invalid operation anywhere in them, which would otherwise leave NaN
    iterates that never hit y*; either way the answer is None.
    """
    t, theta_u = float(t), theta[:-1]
    try:
        with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
            for _ in range(_GAUSS_NEWTON_ITERS):
                u_list = u.tolist()
                r = _quad_miss(theta, y_star, t, u_list)
                if r @ r <= _EXACT_MISS:  # an exact hit: the Jacobian there is not needed
                    return u
                jac_t = _quad_jacobian(theta_u, u_list)
                u = _clip(u - jac_t @ _umath_linalg.solve1(jac_t.T @ jac_t, r, signature="dd->d"), lo, hi)
    except LinAlgError:
        pass
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

    Linear family: closed-form minimum-norm solve, clipped to the box; a
    stack of fits is solved in one call.

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
    y_star = np.array(y_star, dtype=float, ndmin=1, copy=None)
    lo, hi = bounds
    if model_family == "linear":
        # theta rows: intercept, control coefficients, drift slope; a (k, p, m_y) stack of fits
        # gives the (k, m_u) actions of one stacked least-squares call
        theta2 = np.asarray(theta, dtype=float)
        if theta2.ndim < 3:
            theta2 = np.atleast_2d(theta2)
            if theta2.shape[0] == 1:
                theta2 = theta2.T
        m_u = theta2.shape[-2] - 2
        A_hat = theta2[..., 0, :]
        B_hat = np.swapaxes(theta2[..., 1 : 1 + m_u, :], -1, -2)
        delta_hat = theta2[..., -1, :]
        rhs = y_star - A_hat - delta_hat * t
        return _clip(_lstsq(B_hat, rhs), lo, hi)
    if model_family == "quadratic":
        first = _QUAD_STENCIL[0] if warm_start is None else np.asarray(warm_start, dtype=float)
        start = _clip(first, lo, hi)
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


def _linear_feature_rows(u: np.ndarray, t: int) -> np.ndarray:
    """[1, u, t] for each row ``u`` of the actions."""
    return np.concatenate([np.ones((len(u), 1)), u, np.full((len(u), 1), float(t))], axis=1)


def _quadratic_feature_rows(u: np.ndarray, t: int) -> np.ndarray:
    """[``quad_terms``, t] for each row ``u`` of the actions."""
    return np.array([QuadraticCmpProcess.quad_terms(*row) + [float(t)] for row in u.tolist()])


class _ModelFitController(Controller):
    """Pooled least-squares fits of an approximate model family, one per row, and the actions they prescribe."""

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
            self._features = _linear_feature_rows
            self.n_features = control_dim + 2
        elif model_family == "quadratic":
            if control_dim != 3:
                raise ConfigError("quadratic family expects 3 control variables")
            self._features = _quadratic_feature_rows
            self.n_features = 11
        else:
            raise ConfigError(f"unknown model family {model_family!r}")
        self._start(1)

    def _start(self, rows: int) -> None:
        """An empty pooled fit and a zero model for each of ``rows`` rows."""
        self.pool = _PooledFit(self.n_features, self.output_dim, rows)
        self.theta = np.zeros((rows, self.n_features, self.output_dim))

    def prepare(self, model, n_learning_paths, master_seed, replications):
        self._start(len(replications))
        return n_learning_paths

    def _optimize(self, t: int, warm: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """The action each fit of ``theta`` prescribes, from the warm starts ``warm``, a row each."""
        bounds = (self.action_low, self.action_high)
        if self.model_family == "linear":  # one stacked least-squares call
            return rl_alg1_action_optimize(theta, self.y_star, t, "linear", bounds)
        return np.array([rl_alg1_action_optimize(fit, self.y_star, t, "quadratic", bounds, warm_start=start)
                         for fit, start in zip(theta, warm)])


class RlAlg1Controller(_ModelFitController):
    """Model-based RL controller: alternate refit and action optimization.

    The pooled dataset persists across sample paths (the approximate
    families here are time-independent, with t entering as a regressor),
    so later paths start from an already-informed fit.  While the pooled
    design is still uninformative (fewer than 3 * n_features samples, or a
    ridged solve), trial actions are dithered around the warm start by a
    seeded exploration stream of scale ``explore_scale``.  A period ends
    when the fit moves less than ``epsilon`` and the action less than ``eta``.

    The rows iterate in lockstep: a row leaves the period's active set when
    it converges, and the others go on with their own iteration counts.
    """

    def __init__(self, y_star, control_dim: int, output_dim: int, *, epsilon: float = 1.0, eta: float = 1.0,
                 max_inner_iters: int = 20, explore_scale: float = 1.0, **model_fit):
        super().__init__(y_star, control_dim, output_dim, **model_fit)
        self.epsilon = positive("epsilon", epsilon)
        self.eta = positive("eta", eta)
        self.max_inner_iters = integer("max_inner_iters", max_inner_iters)
        self.explore_scale = positive("explore_scale", explore_scale)
        self.paths_run = 0

    def _start(self, rows):
        super()._start(rows)
        self._informed = False  # whether every row has 3 * n_features samples, so explores only on a ridged fit

    def reset(self, model, seeds):
        self._explore_rng = [make_rng(s, tag="alg1-explore") for s in seeds]
        self.paths_run += 1
        self._inner, self._converged = [[] for _ in seeds], [[] for _ in seeds]  # each row's periods

    def row_diagnostics(self, row):
        return {
            "inner_iterations": list(self._inner[row]),
            "converged": list(self._converged[row]),
            "pooled_samples": int(self.pool.n[row]),
            "paths_run": self.paths_run,
        }

    def act(self, model, t):
        # warm starts: the actions committed last period (zero at t = 1)
        u = model.u_committed.copy()
        self.pool.add(self._features(u, t), model.step(u, t))
        self._informed = self._informed or bool(self.pool.n.min() >= 3 * self.n_features)
        ids, rows = range(len(u)), None  # the rows still iterating; rows is None while that is all of them
        for k in range(1, self.max_inner_iters + 1):
            theta_prev, u_k = (self.theta, u) if rows is None else (self.theta[rows], u[rows])
            theta, explore = self.pool.solve(rows)  # a ridged fit explores
            if not self._informed:
                explore = explore | ((self.pool.n if rows is None else self.pool.n[rows]) < 3 * self.n_features)
            u_next = self._next_actions(t, u_k, theta, explore, rows) if np.count_nonzero(explore) else (
                self._optimize(t, u_k, theta))
            self.pool.add(self._features(u_next, t), model.step(u_next, t, rows), rows)
            # np.linalg.norm of each row without its wrapper: vecdot makes a row's dot call, where an
            # einsum or a sum would add in another order
            d_theta, d_u = (theta - theta_prev).reshape(len(theta), -1), u_next - u_k
            theta_steps, action_steps = np.vecdot(d_theta, d_theta).tolist(), np.vecdot(d_u, d_u).tolist()
            if rows is None:
                self.theta, u = theta, u_next
            else:
                self.theta[rows], u[rows] = theta, u_next
            left = []
            for row, theta_step, action_step in zip(ids, theta_steps, action_steps):
                if math.sqrt(theta_step) < self.epsilon and math.sqrt(action_step) < self.eta:
                    self._inner[row].append(k)
                    self._converged[row].append(True)
                else:
                    left.append(row)
            if not left:
                break
            if len(left) < len(ids):
                ids, rows = left, np.array(left)
        else:
            log.debug("period %d: %d rows hit max_inner_iters, using their last iterates", t, len(ids))
            for row in ids:
                self._inner[row].append(self.max_inner_iters)
                self._converged[row].append(False)

    def _next_actions(self, t, u_k, theta, explore, rows) -> np.ndarray:
        """Each row's next trial: dithered around ``u_k`` while its fit is uninformative, else the fit's optimum."""
        ids = np.arange(len(u_k)) if rows is None else rows
        noise = [self._explore_rng[i].normal(0.0, self.explore_scale, size=self.control_dim)
                 for i in ids[explore].tolist()]
        dithered = _clip(u_k[explore] + noise, self.action_low, self.action_high)
        if explore.all():
            return dithered
        u_next = np.empty_like(u_k)
        u_next[explore] = dithered
        u_next[~explore] = self._optimize(t, u_k[~explore], theta[~explore])
        return u_next


class OapeController(_ModelFitController):
    """Optimize-after-parameter-estimation baseline.

    Fits the model family once from offline paths whose actions are normal
    with standard deviation ``offline_action_spread``, then controls one
    online path with the frozen fit (no learning by doing).
    """

    def __init__(self, y_star, control_dim: int, output_dim: int, *, offline_action_spread: float = 1.0, **model_fit):
        super().__init__(y_star, control_dim, output_dim, **model_fit)
        self.offline_action_spread = positive("offline_action_spread", offline_action_spread)

    def prepare(self, model, n_learning_paths, master_seed, replications):
        self._start(len(replications))
        seeds = [derive_int_seed(master_seed, replication=rep, tag="oape-learn") for rep in replications]
        self.learn_offline(model, n_learning_paths, seeds)
        return 1

    def learn_offline(self, model: ProcessModel, n_paths: int, seeds: list) -> None:
        """Pool ``n_paths`` random-action paths for each row, one of ``seeds`` each, and freeze the fits."""
        paths = [random_action_paths(model, n_paths, s, self.offline_action_spread, "oape") for s in seeds]
        u = np.array([[path.u for path in row] for row in paths])  # (R, n_paths, T, m_u)
        y = np.array([[path.y for path in row] for row in paths])
        for i in range(n_paths):  # each row adds its samples in the order of its paths, then periods
            for t in range(1, model.T + 1):
                self.pool.add(self._features(u[:, i, t - 1], t), y[:, i, t - 1])
        self.theta, _ = self.pool.solve()

    def reset(self, model, seeds):
        if not self.pool.n.all():
            raise ConfigError("OAPE controller must learn before running")

    def act(self, model, t):
        # warm starts: the actions committed last period (zero at t = 1)
        model.step(self._optimize(t, model.u_committed, self.theta), t)


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
    ``n_offline_paths`` paths of random actions, for each row.  A period
    opens with one step of every row at its committed action, each row's
    first trial; then the rows iterate one after another, re-stepping
    themselves alone, since each row's halvings depend on its own data.
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
        self._row_params = None  # each row's fit, once ``prepare`` has made them

    def prepare(self, model, n_learning_paths, master_seed, replications):
        self._row_params = []
        for rep in replications:
            self.learn_offline(
                model,
                self.n_offline_paths,
                derive_int_seed(master_seed, replication=rep, tag="pgs-learn"),
            )
            self._row_params.append(self.params)
        return n_learning_paths

    def learn_offline(self, model: ProcessModel, n_paths: int, seed: int) -> None:
        """Draw the offline store, ``n_paths`` random-action paths, and fit (beta, gamma) to it."""
        self.offline_store = random_action_paths(model, n_paths, seed, self.offline_action_spread, "pgs")
        self.params = fit_pgs_params(self.offline_store, self.variance_form)

    def reset(self, model, seeds):
        if self.params is None:
            raise ConfigError("PGS controller needs fitted distribution parameters")
        self._fits = self._row_params or [self.params] * len(seeds)
        self._inner = [[] for _ in seeds]  # each row's periods

    def row_diagnostics(self, row):
        return {"inner_iterations": list(self._inner[row])}

    def act(self, model, t):
        # every row's first trial, at its committed action, in one step of all rows
        first = model.step(model.u_committed, t)[:, 0].tolist()
        committed = zip(model.u_committed[:, 0].tolist(), model.y_committed[:, 0].tolist(), first)
        for row, (u_prev, y_prev, y) in enumerate(committed):
            self._inner[row].append(self._act_row(model, t, [row], self._fits[row], u_prev, y_prev, y))

    def _act_row(self, model, t, rows, params, u_prev, y_prev, y) -> int:
        """One row's period from its committed action and output and its first trial's output ``y``.

        Returns the row's inner iteration count.
        """
        alpha = self.alpha_step
        halvings = 0
        while True:  # restart the period from the last committed action on divergence
            u_k = u_prev
            diverged = False
            for k in range(self.max_inner_iters):
                cost = (y - self.y_star) ** 2
                grad = cost * params.score_u(y, y_prev, u_k, u_prev, t)
                u_next = u_k - alpha * grad
                if abs(u_next) > self.guard_bound:
                    diverged = True
                    break
                if abs(u_next - u_k) < self.eta:
                    break
                u_k = u_next
                y = float(model.step([[u_k]], t, rows)[0, 0])
            if not diverged:
                return k + 1
            halvings += 1
            if halvings > 5:
                raise PeriodAbortError(f"period {t}: iterates diverged after 5 step-size halvings")
            alpha /= 2.0
            y = float(model.step([[u_prev]], t, rows)[0, 0])


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
