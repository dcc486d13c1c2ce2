"""Seeded stochastic simulators for the five process families.

Each simulator is a single-threaded state machine over integer periods
t = 1..T that runs R paths in lockstep, one per row: ``reset`` takes one
seed per row and gives each row its own stream and its own record of
periods 0..T: actions, outputs and, for ARIMA, disturbances, with a
leading row axis.  A period opens with ``step(u, t)``, which draws the
period-t outputs of every row from its state at t-1 into period t of the
record without advancing; a later ``step(u, t, rows)`` re-draws some of
them, and ``commit()`` advances every row to period t (``u_committed`` and
``y_committed`` are the record's current period).  A feedback
controller's ``act`` calls ``step`` once or, to try several actions within
one period, repeatedly; ``Controller.run_path`` then calls ``commit`` once
per period.  Paths whose actions are fixed before period 1 (no control,
random or oracle actions) go through ``run_open_loop`` instead, which
draws each row's whole path at once.  Either way ``paths`` then reads each
row's path off the record.  A family supplies one hook, its output equation
``_draw_path(u, t0, rows)``, which reads the rows' state at t0-1 and
returns its successor, and one constant, one row's state before period 1
(``initial_state``).  ``step`` is the one-period case of ``_draw_path``, so
a stepped and an open-loop path give the same bits; every row draws from
its own stream and every stacked product gives a row the bits of its own,
so a row's path does not depend on the other rows.

Families:

* ``LinearCmpProcess``   -- y_t = A + B u_t + delta*t + w_t (CMP, 2 outputs, 4 actions)
* ``ArimaProcess``       -- scalar y_t = a + b u_t + d_t with ARIMA(1,1,1) disturbance
* ``QuadraticCmpProcess``-- two full-quadratic responses in 3 actions plus linear drift
* ``WienerProcess``      -- drift + diffusion random walk, additive control channel
* ``GammaProcess``       -- non-negative gamma increments, additive control channel
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, DimensionError, HorizonError, NonFiniteActionError, finite_array, integer, number, positive,
)
from .rng import make_rng

DEFAULT_CONTROL_GAIN = -1.0


@dataclass
class SamplePath:
    """One complete T-period trajectory of actions, outputs, disturbances."""

    u: np.ndarray  # (T, m_u)
    y: np.ndarray  # (T, m_y)
    d: np.ndarray | None  # (T,) or None when the family has no scalar disturbance
    y0: np.ndarray  # (m_y,)
    seed: int

    def __post_init__(self):
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        self.y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if self.u.shape[0] != self.y.shape[0]:
            raise DimensionError("action and output records must cover the same periods")
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))

    @property
    def horizon(self) -> int:
        return self.y.shape[0]


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


def _check_psd(mat: np.ndarray, name: str) -> None:
    if not np.allclose(mat, mat.T):
        raise ConfigError(f"{name} must be symmetric")
    eigvals = np.linalg.eigvalsh(mat)
    if eigvals.min() < -1e-10 * max(1.0, abs(eigvals).max()):
        raise ConfigError(f"{name} must be positive semidefinite")


@dataclass
class LinearCmpParams:
    A: np.ndarray
    B: np.ndarray
    delta: np.ndarray
    Lambda: np.ndarray
    T: int = 30

    def __post_init__(self):
        self.A = finite_array("A", self.A)
        self.B = finite_array("B", self.B, ndmin=2)
        self.delta = finite_array("delta", self.delta)
        self.Lambda = finite_array("Lambda", self.Lambda, ndmin=2)
        self.T = integer("T", self.T)
        m_y = self.A.shape[0]
        if self.B.shape[0] != m_y or self.delta.shape[0] != m_y:
            raise DimensionError("A, B, delta must share the output dimension")
        if self.Lambda.shape != (m_y, m_y):
            raise DimensionError("Lambda must be m_y x m_y")
        _check_psd(self.Lambda, "Lambda")


@dataclass
class ArimaProcessParams:
    a: float
    b: float
    phi: float
    theta: float
    sigma: float
    T: int = 80

    def __post_init__(self):
        self.a, self.b = number("a", self.a), number("b", self.b)
        self.phi, self.theta = number("phi", self.phi), number("theta", self.theta)
        if not (0.0 < self.phi < 1.0 and 0.0 < self.theta < 1.0):
            raise ConfigError("phi and theta must lie strictly inside (0, 1)")
        self.sigma = positive("sigma", self.sigma)
        self.T = integer("T", self.T)


@dataclass
class QuadraticCmpParams:
    coeffs1: np.ndarray  # intercept, 3 linear, 3 square, 3 cross
    coeffs2: np.ndarray
    drift1: float
    drift2: float
    noise1: float
    noise2: float
    T: int = 30

    def __post_init__(self):
        self.coeffs1 = finite_array("coeffs1", self.coeffs1, ndmin=0)
        self.coeffs2 = finite_array("coeffs2", self.coeffs2, ndmin=0)
        if self.coeffs1.shape != (10,) or self.coeffs2.shape != (10,):
            raise DimensionError("quadratic responses need 10 coefficients each")
        self.drift1, self.drift2 = number("drift1", self.drift1), number("drift2", self.drift2)
        self.noise1, self.noise2 = positive("noise1", self.noise1), positive("noise2", self.noise2)
        self.T = integer("T", self.T)


@dataclass
class WienerParams:
    y0: float
    v: float
    sigma: float
    T: int = 80
    control_gain: float = DEFAULT_CONTROL_GAIN

    def __post_init__(self):
        self.y0, self.v = number("y0", self.y0), number("v", self.v)
        self.sigma = positive("sigma", self.sigma)
        self.T = integer("T", self.T)
        self.control_gain = number("control_gain", self.control_gain)


@dataclass
class GammaParams:
    alpha: float
    beta: float
    y0: float = 90.0
    T: int = 80
    control_gain: float = DEFAULT_CONTROL_GAIN
    # The printed increment density uses beta as a rate (mean = alpha/beta).
    # Set False to reinterpret beta as a scale (mean = alpha*beta).
    beta_is_rate: bool = True

    def __post_init__(self):
        self.alpha, self.beta = positive("alpha", self.alpha), positive("beta", self.beta)
        self.y0 = number("y0", self.y0)
        self.T = integer("T", self.T)
        self.control_gain = number("control_gain", self.control_gain)
        if not isinstance(self.beta_is_rate, bool):
            raise ConfigError(f"beta_is_rate must be true or false, got {self.beta_is_rate!r}")

    @property
    def scale(self) -> float:
        return 1.0 / self.beta if self.beta_is_rate else self.beta


# ---------------------------------------------------------------------------
# Simulators
# ---------------------------------------------------------------------------


def _columns(a: np.ndarray) -> list:
    """The columns of a (k, n) array in order: (k,) arrays or, for one row, Python floats.

    A float rounds as float64 elementwise arithmetic does, without a numpy
    call's cost, so a recursion over the columns gives one row the bits of
    its stacked run.
    """
    return a[0].tolist() if len(a) == 1 else list(a.T)


def _stack_columns(columns: list) -> np.ndarray:
    """The (k, n) array whose columns ``_columns`` gave, or a recursion made from them."""
    return np.array(columns).reshape(len(columns), -1).T


class ProcessModel:
    """Stateful simulator of R rows in lockstep: draw each row's y_t for a trial action, commit once a period.

    Every row is one path with its own seed, stream and record of periods
    0..T; the rows share the parameters and the period.
    """

    control_dim: int
    output_dim: int
    family: str
    initial_state = None  # one row's disturbance state before period 1

    def __init__(self, horizon: int, y0):
        self.T = int(horizon)
        self.y0 = np.array(y0, dtype=float, ndmin=1)  # a copy: never aliases the params
        self.reset(0)

    def reset(self, seed) -> None:
        """Start one row per seed of a sequence at period 0, each with its own stream; an int is one row."""
        self.seeds = [int(seed)] if np.ndim(seed) == 0 else [int(s) for s in seed]
        self.rows = len(self.seeds)
        self._rng = tuple(make_rng(s, tag=self.family) for s in self.seeds)
        self._state = None if self.initial_state is None else np.array([self.initial_state] * self.rows)
        self._next, self._opened = None, False  # the rows' state after their latest draws; whether the period has any
        self.period = 0
        # a new record, so the paths ``paths`` handed out before keep their bytes
        self._u = np.zeros((self.rows, self.T + 1, self.control_dim))
        self._y = np.zeros((self.rows, self.T + 1, self.output_dim))
        self._y[:, 0] = self.y0
        self._d = None if self.initial_state is None else np.zeros((self.rows, self.T + 1))

    @property
    def u_committed(self) -> np.ndarray:
        """Every row's action of the last committed period, zero at period 0: a view of the record."""
        return self._u[:, self.period]

    @property
    def y_committed(self) -> np.ndarray:
        """Every row's output of the last committed period, ``y0`` at period 0: a view of the record."""
        return self._y[:, self.period]

    def paths(self, seeds) -> list[SamplePath]:
        """Each row's recorded periods 1..T, labelled with its seed from ``seeds``: views of the record."""
        return [SamplePath(u=self._u[i, 1:], y=self._y[i, 1:], d=None if self._d is None else self._d[i, 1:],
                           y0=self.y0, seed=s) for i, s in enumerate(seeds)]

    def _check_step(self, u, t: int, rows) -> np.ndarray:
        n = self.rows if rows is None else len(rows)
        if u.shape != (n, self.control_dim):
            raise DimensionError(f"actions have shape {u.shape}, process expects {(n, self.control_dim)}")
        # per element in Python: a numpy reduction costs more than a step's draw
        if not all(map(math.isfinite, u.ravel().tolist())):
            j = int(np.argmin(np.isfinite(u).all(axis=1)))
            raise NonFiniteActionError(f"action at period {t} is not finite: {u[j]}")
        if not 1 <= t <= self.T:
            raise HorizonError(f"period {t} outside horizon 1..{self.T}")
        if t != self.period + 1:
            raise HorizonError(
                f"next step must be period {self.period + 1}, got {t}"
            )
        return u

    def _draws(self, rows, method, *args) -> np.ndarray:
        """``method(g, *args)``, a ``Generator`` method, for the stream ``g`` of each of ``rows`` (None: all).

        The draws are stacked on a leading row axis.
        """
        streams = self._rng if rows is None else [self._rng[i] for i in rows]
        if len(streams) == 1:
            return method(streams[0], *args)[None]
        return np.array([method(g, *args) for g in streams])

    def step(self, u, t: int, rows=None) -> np.ndarray:
        """Draw y_t of ``rows`` (an index array; all rows by default) from their t-1 state; returns the outputs.

        ``u`` holds one action per stepped row.  The draw, its action
        included, goes into period t of the record.  A period opens with a
        step of every row, and a later step of some rows re-draws theirs.
        Repeatable, does not advance: ``commit`` advances to each row's
        latest draw.
        """
        u = self._check_step(np.array(u, dtype=float, copy=None), t, rows)
        if rows is not None and not self._opened:
            raise HorizonError(f"period {t} opens with a step of every row, not of some")
        y, d, state = self._draw_path(u[:, None], t, rows)
        at = slice(None) if rows is None else rows
        self._u[at, t], self._y[at, t] = u, y[:, 0]
        if d is not None:
            self._d[at, t] = d[:, 0]
        if rows is None:
            self._next, self._opened = state, True
        elif state is not None:
            self._next[rows] = state
        return y[:, 0]

    def commit(self) -> np.ndarray:
        """Advance every row one period, to its latest draw; returns the outputs."""
        if not self._opened:
            raise HorizonError("no pending draw to commit")
        self.period += 1
        self._state, self._next, self._opened = self._next, None, False
        return self.y_committed

    def run_open_loop(self, u) -> None:
        """Run periods 1..T of every row under actions fixed in advance, ``u`` of shape (R, T, m_u).

        Starts from the state ``reset`` left.  The family's ``_draw_path``
        draws each row's whole path in one call on its stream; ``step`` is its
        one-period case and takes from each stream what one period takes, so
        the record equals a ``step``/``commit`` loop's bit for bit, and the
        model is left committed at period T as that loop leaves it.
        """
        u = np.asarray(u, dtype=float)
        expected = (self.rows, self.T, self.control_dim)
        if u.shape != expected:
            raise DimensionError(f"open-loop actions have shape {u.shape}, process expects {expected}")
        finite = np.isfinite(u).all(axis=2)
        if not finite.all():
            row, t = np.argwhere(~finite)[0].tolist()  # the first row, then its first period
            raise NonFiniteActionError(f"action at period {t + 1} is not finite: {u[row, t]}")
        if self.period != 0 or self._opened:
            raise HorizonError(f"an open-loop path starts from a reset model, not from period {self.period}")
        y, d, self._state = self._draw_path(u, 1, None)
        self._u[:, 1:], self._y[:, 1:] = u, y
        if d is not None:
            self._d[:, 1:] = d
        self.period = self.T

    # family-specific -------------------------------------------------------

    def _draw_path(self, u: np.ndarray, t0: int, rows):
        """Periods t0..t0+n-1 of ``rows`` (None: all) under their (len(rows), n, m_u) actions ``u``.

        Reads each row's state at t0-1 and draws from its stream.  Returns
        the (len(rows), n, m_y) outputs, the (len(rows), n) disturbances or
        None, and the rows' successor of ``self._state``.
        """
        raise NotImplementedError


class LinearCmpProcess(ProcessModel):
    """Linear CMP model: y_t = A + B u_t + delta*t + w_t."""

    family = "linear_cmp"

    def __init__(self, params: LinearCmpParams):
        self.params = params
        self.output_dim = params.A.shape[0]
        self.control_dim = params.B.shape[1]
        # symmetric PSD factor so non-diagonal Lambda is accepted
        vals, vecs = np.linalg.eigh(params.Lambda)
        self._noise_factor = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
        self._drift = np.outer(np.arange(1.0, params.T + 1), params.delta)  # delta * t for t = 1..T
        super().__init__(params.T, params.A)

    def _draw_path(self, u, t0, rows):
        p = self.params
        n = u.shape[1]
        z = self._draws(rows, np.random.Generator.standard_normal, (n, self.output_dim))
        # stacked matrix-vector products: each slice is the GEMV of B @ u, where one product of
        # all the actions with B.T would be a GEMM, which may differ in the last bit
        y = p.A + np.matmul(p.B, u[..., None])[..., 0] + self._drift[t0 - 1:t0 - 1 + n]
        return y + np.matmul(self._noise_factor, z[..., None])[..., 0], None, None


class ArimaProcess(ProcessModel):
    """Scalar linear process with ARIMA(1,1,1) disturbance.

    d_t = d_{t-1} + dd_t,  dd_t = phi*dd_{t-1} + w_t - theta*w_{t-1},
    with d_0 = dd_0 = w_0 = 0 and y_t = a + b u_t + d_t.
    """

    family = "arima"
    control_dim = 1
    output_dim = 1
    initial_state = (0.0, 0.0, 0.0)  # d_0, dd_0, w_0

    def __init__(self, params: ArimaProcessParams):
        self.params = params
        super().__init__(params.T, params.a)

    def _draw_path(self, u, t0, rows):
        p = self.params
        w = self._draws(rows, np.random.Generator.normal, 0.0, p.sigma, u.shape[1])
        d, dd, w_prev = _columns(self._state if rows is None else self._state[rows])
        ds = []
        for w_t in _columns(w):  # one period of every row
            dd = p.phi * dd + w_t - p.theta * w_prev
            d = d + dd
            ds.append(d)
            w_prev = w_t
        ds = _stack_columns(ds)
        return (p.a + p.b * u[..., 0] + ds)[..., None], ds, _stack_columns([d, dd, w_prev])


class QuadraticCmpProcess(ProcessModel):
    """Two quadratic responses in three control variables with linear drift."""

    family = "quadratic_cmp"
    control_dim = 3
    output_dim = 2

    def __init__(self, params: QuadraticCmpParams):
        self.params = params
        self._noise_sd = np.array([params.noise1, params.noise2])
        self._coeffs = np.array([params.coeffs1, params.coeffs2])
        self._drift = np.outer(np.arange(1.0, params.T + 1), [params.drift1, params.drift2])  # drift * t, t = 1..T
        super().__init__(params.T, [params.coeffs1[0], params.coeffs2[0]])

    @staticmethod
    def quad_terms(u1: float, u2: float, u3: float) -> list:
        """[1, u1, u2, u3, u1^2, u2^2, u3^2, u1 u2, u1 u3, u2 u3] of Python floats.

        A product of Python floats rounds as a float64 product does, so an
        array built from this list has the bits of one built from numpy scalars.
        """
        return [1.0, u1, u2, u3, u1 * u1, u2 * u2, u3 * u3, u1 * u2, u1 * u3, u2 * u3]

    def _means(self, u: np.ndarray, t0: int) -> np.ndarray:
        """The noise-free outputs at the (k, n, 3) actions in periods t0..t0+n-1.

        Each is the DOT of the action's ``quad_terms`` with an output's
        coefficients, ``vecdot`` making one call a pair, plus its drift.
        """
        k, n = u.shape[:2]
        terms = np.array([self.quad_terms(*u_t) for u_t in u.reshape(-1, 3).tolist()])
        return np.vecdot(terms.reshape(k, n, 1, 10), self._coeffs) + self._drift[t0 - 1:t0 - 1 + n]

    def _draw_path(self, u, t0, rows):
        n = u.shape[1]
        eps = self._draws(rows, np.random.Generator.standard_normal, (n, 2)) * self._noise_sd
        return self._means(u, t0) + eps, None, None


class _AdditiveControlProcess(ProcessModel):
    """Scalar output with drawn increments and an additive control channel:
    y_t = y_{t-1} + inc_t + control_gain*(u_t - u_{t-1}).
    """

    control_dim = 1
    output_dim = 1

    def __init__(self, params):
        self.params = params
        super().__init__(params.T, params.y0)

    def _increments(self, rows, size: int) -> np.ndarray:
        """``size`` uncontrolled increments of each of ``rows`` (None: all), each from its row's stream."""
        raise NotImplementedError

    def _draw_path(self, u, t0, rows):
        gain = self.params.control_gain
        (y,), (u_prev,) = (_columns(a if rows is None else a[rows]) for a in (self.y_committed, self.u_committed))
        inc = self._increments(rows, u.shape[1])
        ys = []
        for inc_t, u_t in zip(_columns(inc), _columns(u[..., 0])):  # one period of every row
            y = y + inc_t + gain * (u_t - u_prev)
            u_prev = u_t
            ys.append(y)
        return _stack_columns(ys)[..., None], None, None


class WienerProcess(_AdditiveControlProcess):
    """Random drift process y_t = y_0 + v t + sigma B(t).

    Control shifts the observed increment additively:
    y_t = y_{t-1} + v + sigma*(B(t)-B(t-1)) + control_gain*(u_t - u_{t-1}).
    """

    family = "wiener"

    def _increments(self, rows, size):
        p = self.params
        return p.v + p.sigma * self._draws(rows, np.random.Generator.standard_normal, size)


class GammaProcess(_AdditiveControlProcess):
    """Monotone degradation with gamma-distributed increments.

    Uncontrolled increments are Gamma(alpha, scale); control shifts the
    observed output by control_gain*(u_t - u_{t-1}) per period.
    """

    family = "gamma"

    def _increments(self, rows, size):
        p = self.params
        return self._draws(rows, np.random.Generator.gamma, p.alpha, p.scale, size)


# ---------------------------------------------------------------------------
# Path generation and the closed-form ARIMA output variance
# ---------------------------------------------------------------------------


def simulate_path(model: ProcessModel, policy, seed) -> SamplePath | list[SamplePath]:
    """Reset ``model`` to ``seed`` and run one T-period trajectory under ``policy``.

    A sequence of seeds runs one row per seed in lockstep and returns one
    path per row.  Identical (model, policy, seed) triples produce
    bit-identical paths, and a row's path does not depend on the other rows.
    ``policy`` is any :class:`r2rcontrol.controllers.Controller`.
    """
    model.reset(seed)
    return policy.run_path(model, seed)


def arima_output_variance(
    params: ArimaProcessParams, t: int, form: str = "exact"
) -> float:
    """Closed-form var(y_t) of the uncontrolled ARIMA(1,1,1) output.

    ``form="exact"`` sums the squared moving-average weights of d_t:
        var = sigma^2 * sum_{k=0}^{t-1} (1 + (phi-theta)(1-phi^k)/(1-phi))^2,
    which reduces to t*sigma^2 when phi = theta (random walk).

    ``form="independent_increments"`` is the Brownian-motion-style
    approximation that sums per-increment variances only:
        var = sigma^2 * (sum_{i=1}^{t-1} (t-i) (phi^{i-1}(phi-theta))^2 + t).
    It drops the positive cross-covariances between increments and
    understates the exact variance whenever phi != theta.
    """
    phi, theta, sigma = params.phi, params.theta, params.sigma
    if form == "exact":
        k = np.arange(t)
        coef = 1.0 + (phi - theta) * (1.0 - phi**k) / (1.0 - phi)
        return float(sigma**2 * np.sum(coef**2))
    if form == "independent_increments":
        i = np.arange(1, t)
        s = np.sum((t - i) * (phi ** (i - 1) * (phi - theta)) ** 2)
        return float(sigma**2 * (s + t))
    raise ConfigError(f"unknown variance form {form!r}")


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

_PARAM_CLASSES = {
    "linear_cmp": (LinearCmpParams, LinearCmpProcess),
    "arima": (ArimaProcessParams, ArimaProcess),
    "quadratic_cmp": (QuadraticCmpParams, QuadraticCmpProcess),
    "wiener": (WienerParams, WienerProcess),
    "gamma": (GammaParams, GammaProcess),
}


def process_from_config(cfg: dict) -> ProcessModel:
    """Build a simulator from a config mapping with a ``family`` key."""
    cfg = dict(cfg)
    family = cfg.pop("family", None)
    if family not in _PARAM_CLASSES:
        raise ConfigError(f"unknown process family {family!r}")
    param_cls, model_cls = _PARAM_CLASSES[family]
    try:
        params = param_cls(**cfg)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {family}: {exc}") from exc
    return model_cls(params)
