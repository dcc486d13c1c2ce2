"""End-to-end acceptance suite: nine statistical reproduction criteria.

Each test prints one PASS/FAIL line with its headline numbers (bypassing
capture so the verdicts always appear in the terminal), then asserts.
The full suite is Monte Carlo heavy and takes several minutes.
"""

import numpy as np
import pytest
from scipy import integrate, stats

from r2rcontrol.controllers import _quad_objective, rl_alg1_action_optimize
from r2rcontrol.estimation import PgsDistributionParams
from r2rcontrol.experiments import (
    _ks_distance,
    figure5_experiment,
    quadratic_error_ratio_experiment,
    table1_experiment,
    table2_experiment,
)
from r2rcontrol.harness import mse, run_replications, total_cost
from r2rcontrol.processes import ArimaProcessParams, arima_output_variance
from r2rcontrol.ratio_normal import RatioDistribution
from r2rcontrol.rng import derive_int_seed, make_rng
from r2rcontrol.theory import (
    DEFAULT_BOUND_BATTERY,
    RatioMoments,
    theorem1_rate_check,
    theorem2_bound_check,
)

SEED = 20260826


@pytest.fixture
def announce(capsys):
    def _report(name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)

    return _report


# ---------------------------------------------------------------------------
# 1. learning controller vs fit-once baseline, mean/std MSE grid
# ---------------------------------------------------------------------------


def test_criterion1_mse_grid_learning_vs_fit_once(announce):
    rl_targets = {10: 681.30, 30: 671.15, 50: 672.61, 100: 673.02}
    oape_targets = {10: 4228.74, 30: 1670.92, 50: 1019.64, 100: 904.67}
    report = table1_experiment(SEED, replications=50)
    ok = True
    details = []
    prev_oape = np.inf
    for row in report["rows"]:
        n = row["n_paths"]
        rl, oape = row["rl_mean_mse"], row["oape_mean_mse"]
        ok &= abs(rl - rl_targets[n]) <= 0.25 * rl_targets[n]
        ok &= abs(oape - oape_targets[n]) <= 0.50 * oape_targets[n]
        ok &= rl < oape
        ok &= oape < prev_oape
        prev_oape = oape
        details.append(f"N={n} rl={rl:.1f} oape={oape:.1f}")
    announce("criterion 1 (RL vs OAPE mean-MSE grid)", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 2. policy-gradient control vs no control on degradation processes
# ---------------------------------------------------------------------------


def test_criterion2_degradation_cost_reduction(announce):
    report = table2_experiment(SEED, replications=30)
    w = report["cases"]["wiener"]
    g = report["cases"]["gamma"]
    ok = (
        w["mean_ratio"] <= 0.05
        and g["mean_ratio"] <= 0.10
        and w["std_ratio"] <= 0.15
        and g["std_ratio"] <= 0.15
    )
    announce(
        "criterion 2 (PGS vs no-control cost ratios)",
        ok,
        f"wiener mean/std ratio {w['mean_ratio']:.4f}/{w['std_ratio']:.4f}, "
        f"gamma {g['mean_ratio']:.4f}/{g['std_ratio']:.4f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. error-ratio quality after long learning on the quadratic process
# ---------------------------------------------------------------------------


def test_criterion3_quadratic_error_ratios(announce):
    report = quadratic_error_ratio_experiment(SEED, n_learning_paths=1000, n_eval_paths=50)
    f1, f2 = report["frac_y1_below_0.1"], report["frac_y2_below_0.2"]
    ok = f1 >= 0.75 and f2 >= 0.75
    announce(
        "criterion 3 (quadratic-process error ratios)",
        ok,
        f"|rho|<0.1 for y1 on {f1:.3f}, |rho|<0.2 for y2 on {f2:.3f} of periods",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. estimator variance decays like 1/N
# ---------------------------------------------------------------------------


def test_criterion4_estimator_rate(announce):
    rep = theorem1_rate_check([25, 50, 100, 200, 400], replications=200, seed=SEED)
    slope_ok = bool(np.all(np.abs(rep.slopes + 1.0) <= 0.2))
    bias_ok = rep.bias_ci_covers_zero()
    ok = slope_ok and bias_ok
    announce(
        "criterion 4 (1/N estimator-variance rate)",
        ok,
        f"slopes {rep.slopes[0]:.3f}/{rep.slopes[1]:.3f}, bias CIs cover 0: {bias_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. control-error probability bound battery
# ---------------------------------------------------------------------------


def test_criterion5_control_error_bound_battery(announce):
    failures = []
    for i, cfg in enumerate(DEFAULT_BOUND_BATTERY):
        seed_i = derive_int_seed(SEED, replication=i, tag="bound")
        for rep in theorem2_bound_check(cfg, (0.1, 0.5, 1.0), 10_000, seed_i):
            if not rep.satisfied():
                failures.append(f"{cfg.name}@eta={rep.eta}")
    ok = not failures
    announce(
        "criterion 5 (exceedance-probability bound battery)",
        ok,
        f"{30 - len(failures)}/30 configurations satisfied"
        + (f"; violations: {', '.join(failures)}" if failures else ""),
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. ratio-of-normals distribution suite
# ---------------------------------------------------------------------------


def test_criterion6_ratio_distribution_suite(announce):
    moments = RatioMoments(mu1=1.5, mu2=3.0, sigma1=0.8, sigma2=0.7, sigma12=0.2)
    dist = RatioDistribution(moments)
    center = moments.mu1 / moments.mu2
    left, _ = integrate.quad(dist.pdf, -np.inf, center, limit=200)
    right, _ = integrate.quad(dist.pdf, center, np.inf, limit=200)
    integral = left + right
    integral_ok = abs(integral - 1.0) <= 1e-4

    rng = make_rng(SEED, tag="acc-ratio")
    ks = _ks_distance(dist, 1_000_000, rng)
    ks_ok = ks <= 0.005

    gap_ok = True
    worst = 0.0
    for snr in (0.5, 1.0, 2.0, 4.0, 8.0):
        d = RatioDistribution(RatioMoments(1.0, snr * 0.5, 0.8, 0.5, 0.1))
        grid = np.linspace(-40.0, 45.0, 1000)
        gap = np.max(np.abs(d.cdf(grid) - d.cdf_normal_approx(grid)))
        bound = d.approx_error_bound
        worst = max(worst, gap - bound)
        gap_ok &= gap <= bound + 1e-6

    ok = integral_ok and ks_ok and gap_ok
    announce(
        "criterion 6 (ratio-distribution diagnostics)",
        ok,
        f"pdf integral {integral:.8f}, KS {ks:.5f}, worst approx gap minus bound {worst:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. integrated-ARMA output variance law
# ---------------------------------------------------------------------------


def test_criterion7_output_variance_law(announce):
    params = ArimaProcessParams(a=91.7, b=-1.8, phi=0.6, theta=0.5, sigma=1.0, T=80)
    n = 100_000
    rng = make_rng(SEED, tag="acc-arima-var")
    w = rng.normal(0.0, params.sigma, size=(n, params.T))
    dd = np.zeros(n)
    w_prev = np.zeros(n)
    d = np.zeros(n)
    samples = {}
    for t in range(1, params.T + 1):
        dd = params.phi * dd + w[:, t - 1] - params.theta * w_prev
        w_prev = w[:, t - 1]
        d = d + dd
        if t in (5, 20, 80):
            samples[t] = d.copy()
    ok = True
    details = []
    for t, d_t in samples.items():
        v_hat = d_t.var(ddof=1)
        v = arima_output_variance(params, t, form="exact")
        se = v * np.sqrt(2.0 / (n - 1))  # variance-estimator SE for Gaussian data
        ok &= abs(v_hat - v) <= 3.0 * se
        details.append(f"t={t}: {v_hat:.3f} vs {v:.3f} ({abs(v_hat - v) / se:.2f} SE)")
    announce("criterion 7 (output variance closed form)", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 8. harmonic-rule vs policy-gradient cost distributions
# ---------------------------------------------------------------------------


def test_criterion8_ghr_vs_pgs_distributions(announce):
    report = figure5_experiment(SEED, replications=30)
    ghr = report["controllers"]["ghr"]
    pgs = report["controllers"]["rl_pgs"]
    overlap = ghr["q1"] <= pgs["q3"] and pgs["q1"] <= ghr["q3"]
    ratio = pgs["median"] / ghr["median"]
    ok = overlap and 0.5 <= ratio <= 2.0
    announce(
        "criterion 8 (GHR vs PGS cost distributions)",
        ok,
        f"IQR overlap {overlap}, median ratio {ratio:.3f} "
        f"(ghr {ghr['median']:.1f}, pgs {pgs['median']:.1f})",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. gradient, optimizer, determinism, and metric properties
# ---------------------------------------------------------------------------


def _logp(params: PgsDistributionParams, y, y_prev, u, u_prev, t):
    mean = y_prev + params.beta * (u - u_prev)
    return stats.norm.logpdf(y, loc=mean, scale=np.sqrt(params.variance(t)))


def test_criterion9_property_suite(announce):
    rng = make_rng(SEED, tag="acc-props")

    # analytic score vs central finite differences, both variance families
    grad_ok = True
    for form in ("time_linear", "constant"):
        params = PgsDistributionParams(beta=-1.8, gamma=0.9, variance_form=form)
        for _ in range(100):
            y, y_prev = rng.normal(90, 5, size=2)
            u, u_prev = rng.normal(0, 2, size=2)
            t = int(rng.integers(1, 80))
            h = 1e-6 * max(1.0, abs(u))
            fd = (_logp(params, y, y_prev, u + h, u_prev, t)
                  - _logp(params, y, y_prev, u - h, u_prev, t)) / (2 * h)
            an = params.score_u(y, y_prev, u, u_prev, t)
            grad_ok &= abs(an - fd) <= 1e-5 * max(1.0, abs(fd))

    # closed-search optimizer vs dense random search on random quadratic fits
    opt_ok = True
    for _ in range(20):
        theta = rng.normal(0, 1.0, size=(11, 2))
        theta[4:7] += 1.0
        y_star = rng.normal(0, 2.0, size=2)
        u = rl_alg1_action_optimize(theta, y_star, t=3, model_family="quadratic",
                                    bounds=(-3.0, 3.0))
        fun = _quad_objective(theta, y_star, 3)
        best = fun(u)[0]
        cand = rng.uniform(-3.0, 3.0, size=(10_000, 3))
        rand_best = min(fun(c)[0] for c in cand)
        opt_ok &= best <= rand_best + 1e-8

    # determinism and metric identities on a seeded experiment
    from r2rcontrol.harness import ExperimentConfig

    cfg = dict(
        process={"family": "arima", "a": 91.7, "b": -1.8, "phi": 0.6,
                 "theta": 0.5, "sigma": 1.0, "T": 40},
        controller={"kind": "ghr"},
        y_star=[90.0],
        replications=5,
        master_seed=SEED,
    )
    r1 = run_replications(ExperimentConfig(**cfg))
    r2 = run_replications(ExperimentConfig(**cfg))
    det_ok = all(np.array_equal(a.path.y, b.path.y) for a, b in zip(r1, r2))
    metric_ok = all(
        res.total_cost == pytest.approx(res.path.horizon * res.mse)
        and res.total_cost >= 0.0
        and res.total_cost == pytest.approx(total_cost(res.path, [90.0]))
        and res.mse == pytest.approx(mse(res.path, [90.0]))
        for res in r1
    )

    ok = grad_ok and opt_ok and det_ok and metric_ok
    announce(
        "criterion 9 (gradient/optimizer/determinism properties)",
        ok,
        f"gradients {grad_ok}, optimizer {opt_ok}, determinism {det_ok}, metrics {metric_ok}",
    )
    assert ok
