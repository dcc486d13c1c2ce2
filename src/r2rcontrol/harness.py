"""Seeded multi-replication experiment runner, metrics, and persistence.

Artifacts per experiment (under ``output_dir``):

* ``paths.csv``    -- final sample path of every replication
* ``summary.json`` -- summary statistics plus the resolved config and seed
* ``boxplot.csv``  -- per-path-index total-cost quartiles and 1.5*IQR whiskers
* ``audit/<rep>.json`` -- per-replication convergence diagnostics

:func:`write_report` writes them, and every protocol's report: it is the one
function that creates a directory, writes a file or deletes one.  The
formatters return text.  A rerun into the same ``output_dir`` replaces ``audit/``.

Re-running with the same master seed reproduces every artifact
byte-for-byte; replications are keyed by index, so execution order does
not matter.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .controllers import controller_from_config
from .errors import ConfigError, DimensionError, R2RError, UndefinedRatioError, finite_array, integer
from .processes import ProcessModel, SamplePath, process_from_config, simulate_path
from .rng import derive_int_seed

FLOAT_FMT = "%.17g"  # 17 significant digits: byte-exact reproducibility


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def total_cost(path: SamplePath, y_star) -> float:
    """Sum over periods of (y_t - y*)'(y_t - y*)."""
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
    if y_star.shape[0] != path.y.shape[1]:
        raise DimensionError("target dimension does not match outputs")
    dev = path.y - y_star
    return float(np.sum(dev * dev))


def mse(path: SamplePath, y_star) -> float:
    """total_cost / T."""
    return total_cost(path, y_star) / path.horizon


def error_ratio_series(path: SamplePath, y_star) -> np.ndarray:
    """(y_t - y*)/y* per period and output coordinate, shape (T, m_y)."""
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
    if y_star.shape[0] != path.y.shape[1]:
        raise DimensionError("target dimension does not match outputs")
    if np.any(y_star == 0.0):
        raise UndefinedRatioError("error ratio undefined for zero target coordinate")
    return (path.y - y_star) / y_star


# ---------------------------------------------------------------------------
# Config and results
# ---------------------------------------------------------------------------


def read_config(path) -> dict:
    """The JSON object in the file at ``path``; anything else is a :class:`ConfigError`."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # a missing or unreadable file, or invalid JSON
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, not a {type(raw).__name__}")
    return raw


@dataclass
class ExperimentConfig:
    process: dict
    controller: dict
    y_star: list
    n_learning_paths: int = 1
    replications: int = 1
    master_seed: int = 0
    output_dir: str | None = None
    threads: int = 1

    def __post_init__(self):
        for name in ("process", "controller"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a mapping, got {getattr(self, name)!r}")
        for name, low in (("replications", 1), ("n_learning_paths", 1), ("threads", 1), ("master_seed", 0)):
            setattr(self, name, integer(name, getattr(self, name), low))
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        y_star = finite_array("y_star", self.y_star)
        if y_star.ndim != 1:
            raise ConfigError(f"y_star must be a flat list of numbers, got {self.y_star!r}")
        self.y_star = list(y_star)


@dataclass
class RunResult:
    path: SamplePath
    total_cost: float
    mse: float
    per_path_costs: list
    diagnostics: dict


@dataclass
class SummaryStats:
    mean_mse: float
    std_mse: float
    mean_cost: float
    std_cost: float
    quartiles: list  # [min, q1, median, q3, max] of total cost
    ratio_vs_baseline: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Replication execution
# ---------------------------------------------------------------------------


def _process(config: ExperimentConfig) -> ProcessModel:
    """The run's process model; a ``y_star`` of the wrong length is a :class:`ConfigError`."""
    model = process_from_config(config.process)
    if len(config.y_star) != model.output_dim:
        raise ConfigError(f"y_star has {len(config.y_star)} coordinates, process emits {model.output_dim}")
    return model


def run_replication(config: ExperimentConfig, rep, model: ProcessModel | None = None):
    """Execute replication ``rep``, or a sequence of them as one stack, with seeds derived from (master_seed, rep).

    The replications advance together, period by period, on the rows of
    ``model``, the run's process.  Without it one is built and checked as
    :func:`run_replications` builds and checks its own, which re-runs one
    replication alone.  A row's numbers do not depend on the other rows,
    so a stack gives each replication the result it gets alone.  Returns a
    :class:`RunResult` for an index and a list of them for a sequence.

    A toolkit error of one replication is re-raised as the same type, its
    message prefixed with the replication and either ``offline learning``
    or the path index and the path seed, so the failure can be re-run
    alone.  A stack that fails is re-run one replication at a time, in
    index order, on the same model, and the first error is raised: the
    lowest failing replication's, with the message a run of one
    replication after another gives.
    """
    if model is None:
        model = _process(config)
    reps = [rep] if np.ndim(rep) == 0 else list(rep)
    try:
        results = _run_stack(config, reps, model)
    except R2RError:
        if len(reps) == 1:
            raise
        for r in reps:
            _run_stack(config, [r], model)
        raise
    return results[0] if np.ndim(rep) == 0 else results


def _run_stack(config: ExperimentConfig, reps: list, model: ProcessModel) -> list[RunResult]:
    y_star = np.asarray(config.y_star, dtype=float)
    controller = controller_from_config(config.controller, model, y_star)
    costs = [[] for _ in reps]
    seeds = None  # the seeds of the path running, once offline learning is done
    try:
        n_paths = controller.prepare(model, config.n_learning_paths, config.master_seed, reps)
        for i in range(n_paths):
            seeds = [derive_int_seed(config.master_seed, replication=rep, tag="path", index=i) for rep in reps]
            paths = simulate_path(model, controller, seeds)
            for row_costs, path in zip(costs, paths):
                row_costs.append(total_cost(path, y_star))
    except R2RError as exc:
        if len(reps) == 1:  # a stack's error is named by re-running its replications one at a time
            where = "offline learning" if seeds is None else f"path {i} (seed {seeds[0]})"
            exc.args = (f"replication {reps[0]}, {where}: {exc}",) + exc.args[1:]
        raise
    results = []
    for row, (path, row_costs) in enumerate(zip(paths, costs)):
        diagnostics = controller.row_diagnostics(row)
        diagnostics["kind"] = config.controller.get("kind")
        results.append(RunResult(path=path, total_cost=row_costs[-1], mse=row_costs[-1] / path.horizon,
                                 per_path_costs=row_costs, diagnostics=diagnostics))
    return results


def run_replications(config: ExperimentConfig) -> list[RunResult]:
    """All replications on the run's one process model, in index order: one stack, or one per worker under ``threads``.

    The replications are split into at most ``threads`` contiguous stacks, and the pool starts one worker
    a stack.  A ``y_star`` of the wrong length is a :class:`ConfigError` before any path runs or any worker starts.
    """
    model = _process(config)
    if config.threads == 1:
        return run_replication(config, range(config.replications), model)
    stacks = [s.tolist() for s in np.array_split(np.arange(config.replications), config.threads) if s.size]
    with ProcessPoolExecutor(max_workers=len(stacks)) as pool:
        return [res for stack in pool.map(run_replication, repeat(config), stacks, repeat(model)) for res in stack]


# ---------------------------------------------------------------------------
# Aggregation and persistence
# ---------------------------------------------------------------------------


def summarize(results: list[RunResult]) -> SummaryStats:
    mses = np.array([r.mse for r in results])
    costs = np.array([r.total_cost for r in results])
    q = np.percentile(costs, [0, 25, 50, 75, 100])
    return SummaryStats(
        mean_mse=float(mses.mean()),
        std_mse=float(mses.std(ddof=1)) if len(results) > 1 else 0.0,
        mean_cost=float(costs.mean()),
        std_cost=float(costs.std(ddof=1)) if len(results) > 1 else 0.0,
        quartiles=[float(v) for v in q],
    )


def write_report(out_dir, files) -> None:
    """Write every text ``files()`` maps a relative path to, under ``out_dir``; nothing when it is unset.

    ``files`` is called only when writing, so a caller can leave work that
    only its artifacts need inside it.  Each directory is created once.  A
    subdirectory written to keeps no file ``files()`` does not name, so a
    rerun leaves no stale ``audit/<rep>.json``; top-level files are left alone.
    """
    if not out_dir:
        return
    out = Path(out_dir)
    texts = files()
    for folder in sorted({name.rpartition("/")[0] for name in texts}):
        (out / folder).mkdir(parents=True, exist_ok=True)
        for old in (out / folder).iterdir() if folder else ():
            if f"{folder}/{old.name}" not in texts and old.is_file():
                old.unlink()
    for name, text in texts.items():
        (out / name).write_text(text)


def _csv_lines(header: list[str], lines) -> str:
    return "\n".join([",".join(header), *lines]) + "\n"


def csv_text(header: list[str], rows) -> str:
    """One line per row, a sequence or a mapping keyed by ``header``: numbers in ``FLOAT_FMT``, strings verbatim."""
    rows = ([row[k] for k in header] if isinstance(row, dict) else row for row in rows)
    return _csv_lines(header, (",".join(v if isinstance(v, str) else FLOAT_FMT % v for v in row) for row in rows))


def paths_csv_text(results: list[RunResult]) -> str:
    """The final path of every replication, as :func:`csv_text` would format its rows."""
    first = results[0].path
    m_u = first.u.shape[1]
    m_y = first.y.shape[1]
    header = (
        ["replication", "t"]
        + [f"u_{j + 1}" for j in range(m_u)]
        + [f"y_{j + 1}" for j in range(m_y)]
        + ["d"]
    )
    lines = []
    for rep, res in enumerate(results):
        path = res.path
        values = np.hstack([path.u, path.y] + ([] if path.d is None else [path.d[:, None]]))
        # one template a replication: t prints as an integer, and without disturbances the d field is empty
        line = ",".join([str(rep), "%d", *[FLOAT_FMT] * values.shape[1]]) + ("," if path.d is None else "")
        lines += [line % (t, *row) for t, row in enumerate(values.tolist(), start=1)]
    return _csv_lines(header, lines)


BOXPLOT_HEADER = ["path_index", "q1", "median", "q3", "whisker_low", "whisker_high", "n_outliers"]


def boxplot_rows(cost_matrix: np.ndarray) -> list[dict]:
    """1.5*IQR boxplot statistics per column of a (reps, paths) cost matrix."""
    rows = []
    for j in range(cost_matrix.shape[1]):
        col = cost_matrix[:, j]
        q1, med, q3 = np.percentile(col, [25, 50, 75])
        iqr = q3 - q1
        lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inliers = col[(col >= lo) & (col <= hi)]
        rows.append(
            {
                "path_index": j + 1,
                "q1": q1,
                "median": med,
                "q3": q3,
                "whisker_low": float(inliers.min()),
                "whisker_high": float(inliers.max()),
                "n_outliers": int(np.sum((col < lo) | (col > hi))),
            }
        )
    return rows


def _run_artifacts(config: ExperimentConfig, results: list[RunResult], stats: SummaryStats) -> dict:
    """The text of every artifact of a run, keyed by its path under ``output_dir``."""
    n_paths = min(len(r.per_path_costs) for r in results)
    costs = np.array([r.per_path_costs[:n_paths] for r in results])
    summary = {
        "version": __version__,
        "master_seed": config.master_seed,
        "replications": config.replications,
        "n_learning_paths": config.n_learning_paths,
        "process": config.process,
        "controller": config.controller,
        "y_star": list(config.y_star),
        "stats": stats.to_dict(),
    }
    docs = {"summary.json": summary}
    for rep, res in enumerate(results):
        docs[f"audit/{rep}.json"] = {"replication": rep, "total_cost": res.total_cost, "mse": res.mse,
                                     "per_path_costs": res.per_path_costs, "diagnostics": res.diagnostics}
    return {
        "paths.csv": paths_csv_text(results),
        "boxplot.csv": csv_text(BOXPLOT_HEADER, boxplot_rows(costs)),
        **{name: json.dumps(doc, indent=2, sort_keys=True) + "\n" for name, doc in docs.items()},
    }


def run_experiment(config: ExperimentConfig) -> SummaryStats:
    """Run all replications, and write their artifacts if ``output_dir`` is set."""
    results = run_replications(config)
    stats = summarize(results)
    write_report(config.output_dir, lambda: _run_artifacts(config, results, stats))
    return stats


def compare_controllers(configs: list[ExperimentConfig], labels: list[str]) -> dict:
    """Paired per-replication costs for controllers sharing process, target, seeds."""
    base = configs[0]
    for cfg in configs[1:]:
        if (
            cfg.process != base.process
            or list(cfg.y_star) != list(base.y_star)
            or cfg.master_seed != base.master_seed
            or cfg.replications != base.replications
        ):
            raise ConfigError("compared controllers must share process, target, and seeds")
    report = {"labels": list(labels), "controllers": {}}
    for cfg, label in zip(configs, labels):
        results = run_replications(cfg)
        costs = np.array([r.total_cost for r in results])
        box = boxplot_rows(costs[:, None])[0]
        report["controllers"][label] = {
            "costs": costs.tolist(),
            **{k: box[k] for k in ("median", "q1", "q3", "n_outliers")},
        }
    return report
