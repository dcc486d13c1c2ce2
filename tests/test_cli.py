"""Tests for the command-line front end."""

import functools
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import r2rcontrol
from r2rcontrol import experiments
from r2rcontrol.cli import main


CONFIG = {
    "process": {
        "family": "linear_cmp",
        "A": [-180.0, 70.0],
        "B": [[120.0, -30.0, 40.0], [-60.0, 80.0, -25.0]],
        "delta": [1.5, -0.8],
        "Lambda": [[16.0, 0.0], [0.0, 9.0]],
        "T": 10,
    },
    "controller": {"kind": "ewma"},
    "y_star": [-150.0, 100.0],
    "replications": 3,
    "master_seed": 7,
}


@pytest.fixture
def config_file(tmp_path):
    f = tmp_path / "exp.json"
    f.write_text(json.dumps(CONFIG))
    return f


def test_version_prints_package_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == r2rcontrol.__version__


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_run_writes_artifacts_and_prints_stats(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert {"mean_mse", "std_mse", "mean_cost", "quartiles"} <= set(stats)
    assert (out / "summary.json").is_file()
    assert (out / "paths.csv").is_file()


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("bad, key", [
    ({"bogus": 1}, "bogus"),
    ({"controller": {"kind": "ewma", "lamda_ewma": 0.7}}, "lamda_ewma"),
], ids=["top_level", "controller"])
def test_bad_config_key_is_config_error(bad, key, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({**CONFIG, **bad}))
    assert main(["run", "--config", str(f), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


def test_set_override_changes_nested_value(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "run", "--config", str(config_file), "--out", str(out),
        "--set", "replications=5",
        "--set", "controller.lambda_ewma=0.7",
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replications"] == 5
    assert summary["controller"]["lambda_ewma"] == 0.7


MALFORMED = [
    (None, "replications"),
    (None, "replications.x=1"),
    (None, "process=5"),
    (None, "controller=[1]"),
    (None, 'y_star="abc"'),
    (None, "n_learning_paths=2.5"),
    (None, "y_star=[null, 100]"),
    (None, "master_seed=true"),
    (None, "master_seed=-1"),
    ("arima_ghr", "controller.lambda_ewma=0.7"),
    ("arima_ghr", 'controller.ghr_c="abc"'),
    ("arima_ghr", "controller.ghr_s=null"),
    ("cmp_rl", 'controller.explore_scale="abc"'),
    ("cmp_rl", "controller.explore_scale=-1"),
    ("cmp_rl", 'controller.action_low="x"'),
    ("cmp_rl", "controller.max_inner_iters=2.5"),
    ("cmp_rl", "controller.action_low=5000"),
    ("cmp_oape", "controller.action_high=-1000"),
    ("arima_pgs", 'controller.n_offline_paths="many"'),
    ("arima_pgs", "controller.guard_bound=null"),
    ("arima_pgs", 'controller.variance_form="cubic"'),
    ("cmp_oape", 'controller.offline_action_spread="x"'),
    ("cmp_ewma", 'controller.kind="ghr"'),
    ("arima_ghr", 'controller.kind="ewma"'),
    ("arima_ghr", 'controller.kind="oracle"'),
    ("wiener_null", 'controller.kind="ghr"'),
    ("arima_ghr", "process.T=2.5"),
    ("arima_ghr", "process.T=true"),
    ("wiener_null", "process.sigma=NaN"),
    ("wiener_null", "process.y0=NaN"),
    ("gamma_null", "process.alpha=NaN"),
    ("quadratic_cmp_rl", "process.noise1=NaN"),
    ("gamma_null", "process.beta=Infinity"),
    ("arima_ghr", 'process.phi="0.5"'),
    ("cmp_rl", "controller.max_inner_iters=true"),
    ("arima_ghr", "controller.ghr_c=NaN"),
    ("arima_ghr", "controller.ghr_s=-21"),
    ("arima_ghr", "y_star=[[90]]"),
    ("cmp_ewma", "y_star=[1700, 150, 1]"),
]


@pytest.mark.parametrize("preset, override", MALFORMED,
                         ids=[o if p is None else f"{p} {o}" for p, o in MALFORMED])
def test_malformed_override_is_config_error(preset, override, config_file, tmp_path, capsys):
    config = config_file if preset is None else resources.files("r2rcontrol.configs") / f"{preset}.json"
    rc = main(["run", "--config", str(config), "--out", str(tmp_path / "o"), "--replications", "1",
               "--set", override])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if override.startswith(("controller.", "process.", "y_star=")):
        # the message names the controller, process or target key that was bad
        assert override.split("=")[0].split(".")[-1] in err


NEGATIVE_SEED = {
    "run": ["run", "--config", str(resources.files("r2rcontrol.configs") / "wiener_null.json"),
            "--replications", "1", "--seed", "-1"],
    "table2": ["table2", "--replications", "1", "--seed", "-5"],
    "theory-check": ["theory-check", "--seed", "-1"],
}


@pytest.mark.parametrize("argv", NEGATIVE_SEED.values(), ids=NEGATIVE_SEED.keys())
def test_negative_seed_is_config_error(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--seed" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["[1, 2]", "{not json", '"a string"'], ids=["list", "invalid_json", "string"])
def test_config_file_that_is_not_a_json_object_is_config_error(text, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main(["run", "--config", str(f), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_seed_flag_overrides_config_seed(config_file, tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_file), "--out", str(out), "--seed", "99"])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["master_seed"] == 99


def test_env_var_output_dir(config_file, tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("R2R_OUTPUT_DIR", str(env_dir))
    assert main(["run", "--config", str(config_file)]) == 0
    assert (env_dir / "summary.json").is_file()


@pytest.mark.parametrize("configured, env, out, expect", [
    (None, None, None, "r2r-output"),
    ("from-config", None, None, "from-config"),
    ("from-config", "from-env", None, "from-env"),
    ("from-config", "from-env", "from-out", "from-out"),
], ids=["default", "config", "env_over_config", "out_over_env"])
def test_output_dir_precedence(configured, env, out, expect, tmp_path, monkeypatch, capsys):
    # --out, then $R2R_OUTPUT_DIR, then the config's output_dir, then r2r-output
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("R2R_OUTPUT_DIR", raising=False)
    else:
        monkeypatch.setenv("R2R_OUTPUT_DIR", env)
    (tmp_path / "exp.json").write_text(json.dumps({**CONFIG, "output_dir": configured}))
    assert main(["run", "--config", "exp.json", *(["--out", out] if out else [])]) == 0
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [expect]
    assert (tmp_path / expect / "summary.json").is_file()


def test_rerun_into_the_same_out_replaces_audit(config_file, tmp_path):
    out = tmp_path / "out"
    for reps in ("5", "3"):
        assert main(["run", "--config", str(config_file), "--out", str(out), "--replications", reps]) == 0
    assert json.loads((out / "summary.json").read_text())["replications"] == 3
    assert sorted(p.name for p in (out / "audit").iterdir()) == ["0.json", "1.json", "2.json"]


def test_same_seed_reproduces_artifacts(config_file, tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["run", "--config", str(config_file), "--out", str(out), "--seed", "42"])
        blobs.append((out / "paths.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_table2_preset_smoke(tmp_path, capsys):
    rc = main(["table2", "--replications", "2", "--out", str(tmp_path / "t2"),
               "--seed", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert "wiener" in report["cases"] and "gamma" in report["cases"]


def test_theory_check_writes_its_report(tmp_path, monkeypatch, capsys):
    # the full battery takes minutes; the wiring is the same at small sizes
    monkeypatch.setattr(experiments, "theory_check", functools.partial(
        experiments.theory_check, n_bound_trials=50, rate_replications=4, ks_draws=500))
    out = tmp_path / "theory"
    assert main(["theory-check", "--seed", "3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["theory_grid.csv", "theory_report.json"]
    assert capsys.readouterr().out == (out / "theory_report.json").read_text()


def test_table2_with_one_replication_is_config_error(tmp_path, capsys):
    # a ratio of standard deviations needs two replications a side
    assert main(["table2", "--replications", "1", "--out", str(tmp_path / "t2")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "replications must be >= 2" in err
    assert "Traceback" not in err


def test_replications_flag_overrides_config(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out), "--replications", "2"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replications"] == 2
    assert len(list((out / "audit").iterdir())) == 2


def test_zero_replications_on_preset_is_config_error(tmp_path, capsys):
    assert main(["table2", "--replications", "0", "--out", str(tmp_path / "t2")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--config", str(resources.files("r2rcontrol.configs") / "wiener_null.json"),
     "--replications", "1", "--threads", "-3"],
    ["figure2", "--replications", "1", "--threads", "0"],
], ids=["run", "preset"])
def test_thread_count_below_one_is_config_error(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert "config error: threads must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["theory-check", "--threads", "2"],
    ["theory-check", "--replications", "5"],
    ["simulate", "--config", "exp.json"],
])
def test_unsupported_flags_and_commands_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs about half a second of start-up; scipy.special.ndtr is all the CLI needs,
    # and scipy.integrate is imported by theory_check's pdf integral alone
    src = str(Path(r2rcontrol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = "import sys, r2rcontrol.cli; print('scipy.stats' in sys.modules, 'scipy.integrate' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False False"
