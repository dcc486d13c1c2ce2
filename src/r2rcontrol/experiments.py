"""Preset experiment protocols: comparison tables, figure data, theory report.

Each function is a thin, parameterized wrapper over the harness so the
CLI presets and the acceptance suite run exactly the same code paths.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .controllers import controller_from_config
from .errors import ConfigError, integer
from .estimation import RatioMoments
from .harness import (
    BOXPLOT_HEADER,
    ExperimentConfig,
    boxplot_rows,
    compare_controllers,
    csv_text,
    error_ratio_series,
    run_replications,
    summarize,
    write_report,
)
from .processes import process_from_config, simulate_path
from .ratio_normal import RatioDistribution
from .rng import derive_int_seed, make_rng
from .theory import DEFAULT_BOUND_BATTERY, theorem1_rate_check, theorem2_bound_check


def load_preset(name: str) -> dict:
    """Load one of the checked-in experiment configs by stem name."""
    ref = resources.files("r2rcontrol.configs").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ConfigError(f"unknown preset {name!r}")
    return json.loads(ref.read_text())


def preset_config(name: str, **overrides) -> ExperimentConfig:
    raw = load_preset(name)
    raw.update(overrides)
    return ExperimentConfig(**raw)


def _presets(names, seed: int, replications: int, threads: int, **overrides) -> list[ExperimentConfig]:
    """The configs of ``names`` at a protocol's seed, replication count and thread count."""
    common = dict(master_seed=seed, replications=replications, threads=threads, **overrides)
    return [preset_config(name, **common) for name in names]


def _report_files(name: str, report: dict, tables: dict) -> dict:
    """``<name>.json`` and each CSV table (file name -> (header, rows)), as texts for :func:`write_report`."""
    files = {file: csv_text(header, rows) for file, (header, rows) in tables.items()}
    return {**files, f"{name}.json": json.dumps(report, indent=2) + "\n"}


# ---------------------------------------------------------------------------
# Table protocols
# ---------------------------------------------------------------------------


def table1_experiment(
    seed: int,
    replications: int = 50,
    n_grid=(10, 30, 50, 100),
    out_dir=None,
    threads: int = 1,
) -> dict:
    """RL versus OAPE mean/std of final-path MSE over a grid of N."""
    rows = []
    for n in n_grid:
        configs = _presets(("cmp_rl", "cmp_oape"), seed, replications, threads, n_learning_paths=int(n))
        rl, oape = (summarize(run_replications(cfg)) for cfg in configs)
        rows.append(
            {
                "n_paths": int(n),
                "rl_mean_mse": rl.mean_mse,
                "oape_mean_mse": oape.mean_mse,
                "rl_std_mse": rl.std_mse,
                "oape_std_mse": oape.std_mse,
            }
        )
    report = {"seed": seed, "replications": replications, "rows": rows}
    header = ["n_paths", "rl_mean_mse", "oape_mean_mse", "rl_std_mse", "oape_std_mse"]
    write_report(out_dir, lambda: _report_files("table1", report, {"table1.csv": (header, rows)}))
    return report


def table2_experiment(seed: int, replications: int = 30, out_dir=None, threads: int = 1) -> dict:
    """No-control versus policy-gradient control on the Wiener and gamma processes.

    The ratio of standard deviations needs at least two replications.
    """
    integer("table2 replications", replications, low=2)
    rows = {}
    for case in ("wiener", "gamma"):
        configs = _presets((f"{case}_null", f"{case}_pgs"), seed, replications, threads)
        null_stats, pgs_stats = (summarize(run_replications(cfg)) for cfg in configs)
        rows[case] = {
            "no_control_mean_mse": null_stats.mean_mse,
            "no_control_std_mse": null_stats.std_mse,
            "rl_mean_mse": pgs_stats.mean_mse,
            "rl_std_mse": pgs_stats.std_mse,
            "mean_ratio": pgs_stats.mean_mse / null_stats.mean_mse,
            "std_ratio": pgs_stats.std_mse / null_stats.std_mse,
        }
    report = {"seed": seed, "replications": replications, "cases": rows}
    columns = ["no_control_mean_mse", "rl_mean_mse", "mean_ratio",
               "no_control_std_mse", "rl_std_mse", "std_ratio"]
    write_report(out_dir, lambda: _report_files("table2", report, {
        "table2.csv": (["case", *columns], [{"case": case, **r} for case, r in rows.items()])
    }))
    return report


# ---------------------------------------------------------------------------
# Figure protocols
# ---------------------------------------------------------------------------


def figure2_experiment(
    seed: int, replications: int = 200, n_paths: int = 30, out_dir=None, threads: int = 1
) -> dict:
    """Per-path-index total-cost distributions: RL controller versus known-parameter EWMA."""
    report = {"seed": seed, "replications": replications, "n_paths": n_paths}
    boxplots = {}
    configs = _presets(("cmp_rl", "cmp_ewma"), seed, replications, threads, n_learning_paths=n_paths)
    for label, cfg in zip(("rl", "ewma"), configs):
        costs = np.array([r.per_path_costs for r in run_replications(cfg)])
        rows = boxplot_rows(costs)
        boxplots[f"figure2_{label}.csv"] = (BOXPLOT_HEADER, rows)
        report[label] = {
            "per_path_median": [r["median"] for r in rows],
            "final_median": rows[-1]["median"],
            "total_outliers": int(sum(r["n_outliers"] for r in rows)),
        }
    write_report(out_dir, lambda: _report_files("figure2", report, boxplots))
    return report


def figure5_experiment(seed: int, replications: int = 30, out_dir=None, threads: int = 1) -> dict:
    """GHR versus policy-gradient-search total-cost distributions on the ARIMA process."""
    labels = ["ghr", "rl_pgs"]
    report = compare_controllers(_presets(("arima_ghr", "arima_pgs"), seed, replications, threads), labels)
    report["seed"] = seed
    columns = [report["controllers"][label]["costs"] for label in labels]
    write_report(out_dir, lambda: _report_files("figure5", report, {
        "figure5.csv": (["replication", *labels], [[rep, *row] for rep, row in enumerate(zip(*columns))])
    }))
    return report


def quadratic_error_ratio_experiment(
    seed: int, n_learning_paths: int = 1000, n_eval_paths: int = 50, out_dir=None
) -> dict:
    """Learn the quadratic CMP model, then measure per-period error ratios.

    One long-learning replication: the controller keeps its pooled dataset
    across all learning paths, then the next ``n_eval_paths`` paths are
    scored by |(y - y*)/y*| per output coordinate.
    """
    cfg = preset_config("quadratic_cmp_rl", master_seed=seed, n_learning_paths=n_learning_paths)
    model = process_from_config(cfg.process)
    y_star = np.asarray(cfg.y_star)
    controller = controller_from_config(cfg.controller, model, y_star)
    for i in range(n_learning_paths):
        simulate_path(model, controller, derive_int_seed(seed, replication=0, tag="quad-learn", index=i))
    ratios = []
    for i in range(n_eval_paths):
        path = simulate_path(model, controller, derive_int_seed(seed, replication=0, tag="quad-eval", index=i))
        ratios.append(np.abs(error_ratio_series(path, y_star)))
    ratios = np.concatenate(ratios, axis=0)  # (n_eval*T, 2)
    report = {
        "seed": seed,
        "n_learning_paths": n_learning_paths,
        "n_eval_paths": n_eval_paths,
        "frac_y1_below_0.1": float(np.mean(ratios[:, 0] < 0.1)),
        "frac_y2_below_0.2": float(np.mean(ratios[:, 1] < 0.2)),
        "max_ratio_y1": float(ratios[:, 0].max()),
        "max_ratio_y2": float(ratios[:, 1].max()),
    }
    write_report(out_dir, lambda: _report_files("quadratic_error_ratios", report, {}))
    return report


# ---------------------------------------------------------------------------
# Theory report
# ---------------------------------------------------------------------------


def _ks_distance(dist: RatioDistribution, n_draws: int, rng) -> float:
    draws = np.sort(dist.rvs(n_draws, rng))
    cdf_vals = dist.cdf(draws)
    i = np.arange(1, n_draws + 1)
    return float(
        max(np.max(i / n_draws - cdf_vals), np.max(cdf_vals - (i - 1) / n_draws))
    )


def theory_check(
    seed: int,
    out_dir=None,
    n_bound_trials: int = 10_000,
    rate_replications: int = 200,
    ks_draws: int = 200_000,
) -> dict:
    """Bound battery, estimator-rate check, and ratio-distribution diagnostics."""
    from scipy import integrate  # here alone, to keep it off the CLI's import path

    rng = make_rng(seed, tag="theory-check")
    report: dict = {"seed": seed}

    bounds = []
    for i, cfg in enumerate(DEFAULT_BOUND_BATTERY):
        seed_i = derive_int_seed(seed, replication=i, tag="bound")
        for rep in theorem2_bound_check(cfg, (0.1, 0.5, 1.0), n_bound_trials, seed_i):
            entry = rep.to_dict()
            entry["config"] = cfg.name
            bounds.append(entry)
    report["bounds"] = bounds

    rate = theorem1_rate_check([25, 50, 100, 200, 400], rate_replications, seed)
    report["rate"] = rate.to_dict()

    moments = RatioMoments(mu1=1.5, mu2=3.0, sigma1=0.8, sigma2=0.7, sigma12=0.2)
    dist = RatioDistribution(moments)
    center = moments.mu1 / moments.mu2
    left, _ = integrate.quad(dist.pdf, -np.inf, center, limit=200)
    right, _ = integrate.quad(dist.pdf, center, np.inf, limit=200)
    integral = left + right
    grid = np.linspace(-3.0, 4.0, 201)
    F = dist.cdf(grid)
    F_star = dist.cdf_normal_approx(grid)
    report["ratio_distribution"] = {
        "pdf_integral": float(integral),
        "ks_distance": _ks_distance(dist, ks_draws, rng),
        "max_normal_approx_gap": float(np.max(np.abs(F - F_star))),
        "normal_approx_bound": dist.approx_error_bound,
    }

    write_report(out_dir, lambda: _report_files("theory_report", report, {
        "theory_grid.csv": (["u", "cdf", "cdf_normal_approx", "pdf"], zip(grid, F, F_star, dist.pdf(grid)))
    }))
    return report
