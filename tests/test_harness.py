"""Tests for metrics, the replication runner, and artifact persistence."""

import ast
import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest

import r2rcontrol
from r2rcontrol import harness
from r2rcontrol.errors import ConfigError, DimensionError, NonFiniteActionError, PeriodAbortError, UndefinedRatioError
from r2rcontrol.experiments import preset_config
from r2rcontrol.harness import (
    ExperimentConfig,
    boxplot_rows,
    compare_controllers,
    error_ratio_series,
    mse,
    run_experiment,
    run_replication,
    run_replications,
    summarize,
    paths_csv_text,
    total_cost,
    write_report,
)
from r2rcontrol.processes import SamplePath
from r2rcontrol.rng import derive_int_seed, make_rng
from test_artifact_hashes import PRESETS, SWAPPED


def _path(y, u=None):
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if u is None:
        u = np.zeros_like(y)
    return SamplePath(u=np.asarray(u, dtype=float), y=y, d=None,
                      y0=np.zeros(y.shape[1]), seed=0)


CMP_PROCESS = {
    "family": "linear_cmp",
    "A": [-180.0, 70.0],
    "B": [[120.0, -30.0, 40.0], [-60.0, 80.0, -25.0]],
    "delta": [1.5, -0.8],
    "Lambda": [[16.0, 0.0], [0.0, 9.0]],
    "T": 10,
}
Y_STAR = [-150.0, 100.0]
ARIMA_PROCESS = {"family": "arima", "a": 91.7, "b": -1.8, "phi": 0.6, "theta": 0.5,
                 "sigma": 1.0, "T": 20}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_total_cost_zero_on_target():
    assert total_cost(_path([[90.0], [90.0]]), [90.0]) == 0.0


def test_total_cost_scalar_example():
    assert total_cost(_path([[91.0], [89.0]]), [90.0]) == pytest.approx(2.0)


def test_total_cost_vector_example():
    assert total_cost(_path([[1701.0, 151.0]]), [1700.0, 150.0]) == pytest.approx(2.0)


def test_total_cost_dimension_mismatch():
    with pytest.raises(DimensionError):
        total_cost(_path([[1.0, 2.0]]), [0.0])


def test_mse_is_cost_over_horizon():
    rng = make_rng(51, tag="mse")
    p = _path(rng.normal(90, 5, size=(17, 1)))
    assert total_cost(p, [90.0]) == pytest.approx(17 * mse(p, [90.0]))


def test_error_ratio_scalar_example():
    r = error_ratio_series(_path([[99.0]]), [90.0])
    assert r[0, 0] == pytest.approx(0.1)


def test_error_ratio_zero_target_rejected():
    with pytest.raises(UndefinedRatioError):
        error_ratio_series(_path([[1.0, 2.0]]), [0.0, 1.0])


def test_metrics_nonnegative_and_zero_iff_on_target():
    rng = make_rng(52, tag="metric-prop")
    for _ in range(20):
        y = rng.normal(0, 3, size=(8, 2))
        p = _path(y)
        c = total_cost(p, [0.0, 0.0])
        assert c >= 0.0
        assert (c == 0.0) == bool(np.all(y == 0.0))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_rejects_bad_counts():
    with pytest.raises(ConfigError):
        ExperimentConfig(process=CMP_PROCESS, controller={"kind": "null"},
                         y_star=Y_STAR, replications=0)


def test_config_dimension_validation():
    cfg = ExperimentConfig(process=CMP_PROCESS, controller={"kind": "null"},
                           y_star=[1.0, 2.0, 3.0])
    with pytest.raises(ConfigError, match="y_star"):
        run_replications(cfg)


def test_config_rejects_non_string_output_dir():
    with pytest.raises(ConfigError):
        ExperimentConfig(process=CMP_PROCESS, controller={"kind": "null"},
                         y_star=Y_STAR, output_dir=5)


# ---------------------------------------------------------------------------
# replication runner
# ---------------------------------------------------------------------------


def _oracle_config(**kw):
    noiseless = dict(CMP_PROCESS, Lambda=[[0.0, 0.0], [0.0, 0.0]], delta=[0.0, 0.0])
    base = dict(process=noiseless, controller={"kind": "oracle"}, y_star=Y_STAR,
                replications=1, master_seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_degenerate_oracle_run_has_zero_cost():
    stats = run_experiment(_oracle_config())
    assert stats.mean_cost == pytest.approx(0.0, abs=1e-18)


def test_summary_permutation_invariant():
    cfg = ExperimentConfig(process=CMP_PROCESS, controller={"kind": "ewma"},
                           y_star=Y_STAR, replications=8, master_seed=3)
    results = run_replications(cfg)
    a = summarize(results).to_dict()
    b = summarize(results[::-1]).to_dict()
    assert a == b


def test_threading_does_not_change_results():
    kw = dict(process=CMP_PROCESS, controller={"kind": "ewma"}, y_star=Y_STAR,
              replications=4, master_seed=5)
    serial = run_replications(ExperimentConfig(**kw, threads=1))
    parallel = run_replications(ExperimentConfig(**kw, threads=2))
    for r1, r2 in zip(serial, parallel):
        np.testing.assert_array_equal(r1.path.y, r2.path.y)
        assert r1.total_cost == r2.total_cost


def _same_result(a, b) -> bool:
    paths = [(p.u, p.y, p.d, p.y0, p.seed) for p in (a.path, b.path)]
    same_path = all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(*paths))
    return same_path and (a.total_cost, a.mse, a.per_path_costs, a.diagnostics) == (
        b.total_cost, b.mse, b.per_path_costs, b.diagnostics)


@pytest.mark.parametrize("name", sorted([*PRESETS, *SWAPPED]))
def test_one_model_per_run_gives_the_results_of_fresh_models(name, monkeypatch):
    preset, swap = (SWAPPED[name][0], {"controller": SWAPPED[name][1]}) if name in SWAPPED else (name, {})
    n_paths = min(preset_config(preset).n_learning_paths, 4)
    cfg = preset_config(preset, replications=3, n_learning_paths=n_paths, **swap)
    fresh = [run_replication(cfg, rep) for rep in range(cfg.replications)]  # each builds its own model
    built = []
    build, parent = harness.process_from_config, os.getpid()

    def counted(process):
        # the pool's workers are forked with this patch in place: a model built there fails the run
        assert os.getpid() == parent, "a worker built a process model"
        built.append(1)
        return build(process)

    monkeypatch.setattr(harness, "process_from_config", counted)
    shared = run_replications(cfg)
    assert len(built) == 1
    assert all(_same_result(a, b) for a, b in zip(shared, fresh, strict=True))
    built.clear()
    run_experiment(cfg)
    assert len(built) == 1
    built.clear()
    stacks = []

    class RecordingPool(harness.ProcessPoolExecutor):
        def map(self, fn, config, reps, model):
            reps = list(reps)
            stacks.extend(reps)
            return super().map(fn, config, reps, model)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    threaded = run_replications(dataclasses.replace(cfg, threads=2))
    assert len(built) == 1
    assert stacks == [[0, 1], [2]]  # three replications on two workers: uneven stacks
    assert all(_same_result(a, b) for a, b in zip(threaded, shared, strict=True))


@pytest.mark.parametrize("kind", ["null", "ewma", "rl_alg1", "oracle"])
@pytest.mark.parametrize("entry, threads", [("run_replications", 1), ("run_replications", 2), ("run_experiment", 1),
                                            ("run_replication", 1)])
def test_wrong_length_target_is_config_error_before_any_path(entry, threads, kind, monkeypatch):
    started = []
    monkeypatch.setattr(harness, "simulate_path", lambda *args: started.append("path"))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", lambda *args, **kw: started.append("pool"))
    cfg = ExperimentConfig(process=CMP_PROCESS, controller={"kind": kind}, y_star=[1.0, 2.0, 3.0],
                           replications=2, threads=threads)
    run = (lambda cfg: run_replication(cfg, 1)) if entry == "run_replication" else getattr(harness, entry)
    with pytest.raises(ConfigError, match="^y_star has 3 coordinates, process emits 2$"):
        run(cfg)
    assert started == []


def test_pool_starts_one_worker_per_stack(monkeypatch):
    workers = []

    class RecordingPool:  # records the pool's size and runs its stacks here, starting no process
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    cfg = ExperimentConfig(process=CMP_PROCESS, controller={"kind": "ewma"}, y_star=Y_STAR, replications=3,
                           master_seed=5)
    serial = run_replications(cfg)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    pooled = run_replications(dataclasses.replace(cfg, threads=8))
    assert workers == [3]  # three replications on eight threads: three stacks of one
    assert all(_same_result(a, b) for a, b in zip(pooled, serial, strict=True))


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_replication_names_its_index_and_seed(threads):
    # the diverging PGS settings of test_pgs_aborts_after_five_failed_halvings
    cfg = ExperimentConfig(
        process=ARIMA_PROCESS,
        controller={"kind": "rl_pgs", "eta": 1e-9, "alpha_step": 1e6, "guard_bound": 1e-3,
                    "max_inner_iters": 20, "n_offline_paths": 3},
        y_star=[90.0], replications=2, master_seed=5, threads=threads,
    )
    seed = derive_int_seed(5, replication=0, tag="path", index=0)
    with pytest.raises(PeriodAbortError, match=rf"^replication 0, path 0 \(seed {seed}\): period 1: "):
        run_replications(cfg)


@pytest.mark.parametrize("threads", [1, 2])
def test_lowest_failing_replication_is_reported_when_a_higher_one_fails_first(threads):
    # replication 4 aborts in path 0 (period 78); replication 0 only in path 1 (period 41), and 3 in path 1
    # (period 76): a run of one replication after another meets replication 0's abort first
    cfg = preset_config("gamma_pgs", master_seed=46, replications=5, n_learning_paths=2, threads=threads)
    cfg.controller["n_offline_paths"] = 20
    seed = derive_int_seed(46, replication=0, tag="path", index=1)
    with pytest.raises(PeriodAbortError, match=rf"^replication 0, path 1 \(seed {seed}\): period 41: "):
        run_replications(cfg)
    with pytest.raises(PeriodAbortError, match=r"^replication 4, path 0 \(seed \d+\): period 78: "):
        run_replication(cfg, 4)


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_offline_learning_names_its_replication(threads):
    # every replication's first offline action overflows: the run names the lowest, replication 0
    cfg = preset_config("cmp_oape", master_seed=1, replications=3, threads=threads)
    cfg.controller["offline_action_spread"] = 1e308
    message = r"^replication 0, offline learning: action at period 1 is not finite"
    with pytest.raises(NonFiniteActionError, match=message):
        run_replications(cfg)


def test_replication_seeding_is_stable():
    cfg = ExperimentConfig(process=CMP_PROCESS, controller={"kind": "ewma"},
                           y_star=Y_STAR, replications=3, master_seed=9)
    r1 = run_replication(cfg, 2)
    r2 = run_replication(cfg, 2)
    np.testing.assert_array_equal(r1.path.y, r2.path.y)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def test_artifacts_reproduce_byte_for_byte(tmp_path):
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = ExperimentConfig(process=CMP_PROCESS, controller={"kind": "ewma"},
                               y_star=Y_STAR, replications=4, master_seed=7,
                               output_dir=str(out))
        run_experiment(cfg)
        blobs.append({p.name: p.read_bytes() for p in out.iterdir() if p.is_file()})
    assert set(blobs[0]) == {"paths.csv", "summary.json", "boxplot.csv"}
    assert blobs[0] == blobs[1]


def test_paths_csv_schema():
    cfg = ExperimentConfig(process=CMP_PROCESS, controller={"kind": "ewma"},
                           y_star=Y_STAR, replications=2, master_seed=7)
    results = run_replications(cfg)
    lines = paths_csv_text(results).splitlines()
    assert lines[0] == "replication,t,u_1,u_2,u_3,y_1,y_2,d"
    assert len(lines) == 1 + 2 * CMP_PROCESS["T"]


def _value_by_value_paths_csv(results) -> bytes:
    """``paths.csv`` formatted one value at a time: the writer's reference."""
    first = results[0].path
    header = (["replication", "t"] + [f"u_{j + 1}" for j in range(first.u.shape[1])]
              + [f"y_{j + 1}" for j in range(first.y.shape[1])] + ["d"])
    lines = [",".join(header)]
    for rep, res in enumerate(results):
        p = res.path
        for t in range(p.horizon):
            row = [rep, t + 1, *p.u[t], *p.y[t], "" if p.d is None else p.d[t]]
            lines.append(",".join(v if isinstance(v, str) else "%.17g" % v for v in row))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("process, controller", [
    (CMP_PROCESS, {"kind": "ewma"}),
    (ARIMA_PROCESS, {"kind": "null"}),
], ids=["linear_cmp", "arima"])
def test_paths_csv_bytes_match_value_by_value_formatting(process, controller):
    cfg = ExperimentConfig(process=process, controller=controller,
                           y_star=Y_STAR if process is CMP_PROCESS else [90.0], replications=3, master_seed=7)
    results = run_replications(cfg)
    # values that need all 17 digits, integers, signed zero, extremes
    path = results[1].path
    path.u[0, 0] = 0.1 + 0.2
    path.y[1, 0] = 1.0 / 3.0
    path.y[2, 0] = -0.0
    path.y[3, 0] = 5e-324
    path.y[4, 0] = 1.7976931348623157e308
    path.u[5, 0] = 12.0
    assert (path.d is None) == (process is CMP_PROCESS)
    if path.d is not None:
        path.d[0] = 2.0 / 3.0
    text = paths_csv_text(results)
    assert text.encode() == _value_by_value_paths_csv(results)
    assert "0.30000000000000004" in text


@pytest.mark.parametrize("out_dir", [None, ""], ids=["none", "empty"])
def test_write_report_without_out_dir_never_builds_files(out_dir):
    def files():
        raise AssertionError("files() was called without an output directory")

    write_report(out_dir, files)


def test_write_report_makes_each_directory_once(tmp_path, monkeypatch):
    made = []
    mkdir = pathlib.Path.mkdir

    def counting_mkdir(path, *args, **kwargs):
        made.append(path)
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "mkdir", counting_mkdir)
    out = tmp_path / "out"
    texts = {"a.csv": "x\n", "audit/0.json": "{}\n", "audit/1.json": "[]\n", "b.json": "1\n"}
    write_report(out, lambda: texts)
    assert sorted(made) == [out, out / "audit"]
    assert {p.relative_to(out).as_posix(): p.read_text() for p in out.rglob("*") if p.is_file()} == texts


def test_write_report_replaces_each_subdirectory_it_writes(tmp_path):
    out = tmp_path / "out"
    write_report(out, lambda: {"a.csv": "x\n", "audit/0.json": "{}\n", "audit/1.json": "{}\n",
                               "audit/2.json": "{}\n"})
    (out / "notes.txt").write_text("kept\n")
    (out / "audit" / "keep").mkdir()
    write_report(out, lambda: {"b.csv": "y\n", "audit/0.json": "[]\n"})
    # the rewritten folder holds only what the second report named, and no folder is deleted;
    # top-level files, the first report's a.csv included, stay
    assert sorted(p.name for p in (out / "audit").iterdir()) == ["0.json", "keep"]
    assert (out / "audit" / "0.json").read_text() == "[]\n"
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == ["a.csv", "b.csv", "notes.txt"]


WRITING_CALLS = {"mkdir", "makedirs", "write_text", "write_bytes", "touch", "unlink", "rmdir", "rmtree", "rename"}


def _writes(call: ast.Call) -> bool:
    """A call that makes, writes or deletes a file or directory, ``open`` in a write mode included."""
    func = call.func
    if isinstance(func, ast.Attribute):  # Path.open(mode): the mode comes first
        name, mode_at = func.attr, 0
    else:  # open(file, mode)
        name, mode_at = getattr(func, "id", None), 1
    if name != "open":
        return name in WRITING_CALLS
    modes = call.args[mode_at:mode_at + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    # a mode that is not a literal counts as writing
    return any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt")) for m in modes)


def test_write_report_is_the_only_code_that_touches_the_file_system():
    found = []
    for source in sorted(pathlib.Path(r2rcontrol.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text())
        owner = {}
        for node in ast.walk(tree):  # outer functions first, so an inner function claims its own calls
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((inner, node.name) for inner in ast.walk(node))
        found += [(source.name, owner.get(node, "<module>"), node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _writes(node)]
    assert {(file, func) for file, func, _ in found} == {("harness.py", "write_report")}, found


def test_audit_files_written(tmp_path):
    cfg = ExperimentConfig(process=CMP_PROCESS, controller={"kind": "ewma"},
                           y_star=Y_STAR, replications=3, master_seed=7,
                           output_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    audit = tmp_path / "out" / "audit"
    payload = json.loads((audit / "0.json").read_text())
    assert payload["replication"] == 0
    assert payload["mse"] == pytest.approx(payload["total_cost"] / CMP_PROCESS["T"])
    assert len(list(audit.iterdir())) == 3


def test_boxplot_whiskers_clip_outliers():
    col = np.array([1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 50.0])
    rows = boxplot_rows(col.reshape(-1, 1))
    row = rows[0]
    assert row["n_outliers"] == 1
    assert row["whisker_high"] < 50.0
    q1, q3 = np.percentile(col, [25, 75])
    assert row["q1"] == pytest.approx(q1)
    assert row["q3"] == pytest.approx(q3)


# ---------------------------------------------------------------------------
# controller comparison
# ---------------------------------------------------------------------------


def test_compare_identical_controllers_gives_identical_columns():
    kw = dict(process=CMP_PROCESS, y_star=Y_STAR, replications=5, master_seed=11)
    cfgs = [ExperimentConfig(controller={"kind": "ewma"}, **kw) for _ in range(2)]
    report = compare_controllers(cfgs, ["one", "two"])
    assert report["labels"] == ["one", "two"]
    one, two = (report["controllers"][label] for label in ("one", "two"))
    assert len(one["costs"]) == 5
    assert one == two


def test_compare_rejects_mismatched_targets():
    kw = dict(process=CMP_PROCESS, replications=2, master_seed=11)
    cfgs = [
        ExperimentConfig(controller={"kind": "ewma"}, y_star=Y_STAR, **kw),
        ExperimentConfig(controller={"kind": "null"}, y_star=[0.0, 0.0], **kw),
    ]
    with pytest.raises(ConfigError):
        compare_controllers(cfgs, ["a", "b"])


def test_compare_rejects_different_process_parameters():
    kw = dict(controller={"kind": "ghr"}, y_star=[90.0], replications=2, master_seed=11)
    cfgs = [
        ExperimentConfig(process=ARIMA_PROCESS, **kw),
        ExperimentConfig(process=dict(ARIMA_PROCESS, sigma=5.0), **kw),
    ]
    with pytest.raises(ConfigError):
        compare_controllers(cfgs, ["a", "b"])
