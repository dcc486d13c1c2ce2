"""The benchmark's per-layer trace still finds every function it wraps.

``perfbench/layertrace.py`` wraps r2rcontrol functions by module and
attribute name, and leaves out the metrics of a name that no longer
resolves, so a rename would silently drop a per-layer metric from the
benchmark.  These tests read the tracer and ``BENCHMARK.json`` as they
are and run one traced round of a small quadratic learner.
"""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from r2rcontrol import controllers
from r2rcontrol.controllers import controller_from_config
from r2rcontrol.experiments import preset_config
from r2rcontrol.processes import process_from_config
from r2rcontrol.rng import derive_int_seed

ROOT = Path(__file__).resolve().parents[1]
# added by the benchmark worker, not by the tracer
WORKER_METRICS = {"import.s", "trace.overhead_s"}


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _per_layer_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"] if m["name"] not in WORKER_METRICS]


def test_every_traced_function_resolves(layertrace):
    for prefix, module, attr in layertrace.FUNCTIONS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{prefix}: {module}.{attr} does not exist"
        assert callable(owner), f"{prefix}: {module}.{attr} is not callable"
    assert callable(controllers.optimize.minimize)


def test_traced_quadratic_learner_reports_every_per_layer_metric(layertrace):
    cfg = preset_config("quadratic_cmp_rl", master_seed=7)
    model = process_from_config(cfg.process)
    ctl = controller_from_config(cfg.controller, model, np.asarray(cfg.y_star, dtype=float))
    with layertrace.Tracer() as tracer:
        for i in range(2):
            seed = derive_int_seed(7, replication=0, tag="trace-targets", index=i)
            model.reset(seed)
            ctl.run_path(model, seed)
    values = tracer.values
    missing = [name for name in _per_layer_names() if name not in values]
    assert missing == []
    for name in _per_layer_names():
        assert isinstance(values[name], (int, float)) and math.isfinite(values[name]), (name, values[name])
    json.dumps(values, allow_nan=False)
    # the functions the RL inner loop calls through their traced names
    for name in ("processes.step.calls", "controllers.action_optimize.calls", "controllers.pooled_solve.calls",
                 "controllers.run_path.calls", "controllers.inner_iterations"):
        assert values[name] > 0, name
    assert values["controllers.run_path.calls"] == 2
