"""One benchmark process: set up a workload, run timed rounds, check outputs.

Started by ``run.py``; prints ``ready`` once set-up is done and, at the
end, one ``result`` line of JSON.  With ``--setup-only`` it exits after
``ready``, so the caller can time set-up alone.
"""

from __future__ import annotations

import os

# BLAS/OpenMP threads are pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

_t0 = time.perf_counter()
import r2rcontrol  # noqa: E402
import r2rcontrol.experiments  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0

import ctypes  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402


def blas_threads() -> int:
    """Largest thread count reported by the OpenBLAS libraries loaded in this process."""
    counts = []
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                counts.append(fn())
                break
    return max(counts) if counts else 0


def measure(wl, seconds: float, traced: bool) -> dict:
    """Repeat identical rounds while another round still fits in ``seconds``.

    Untraced runs time every round.  Traced runs alternate an untraced
    round with a traced one, so the trace's overhead is measured too.
    """
    walls, cpus, traced_walls, layers = [], [], [], []
    attempted = failed = 0
    problems, first_digest = [], None
    start = time.perf_counter()
    r = 0
    while True:
        tracer = layertrace.Tracer() if traced and r % 2 == 1 else None
        c0, w0 = time.process_time(), time.perf_counter()
        if tracer is None:
            out, done = wl.run_round()
        else:
            with tracer:
                out, done = wl.run_round()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        attempted += wl.ops_per_round
        failed += wl.ops_per_round - done
        if tracer is None:
            walls.append(wall)
            cpus.append(cpu)
        else:
            traced_walls.append(wall)
            layers.append(tracer.values)
        if out is not None:
            digest = wl.digest(out)
            if first_digest is None:
                first_digest = digest
                problems += wl.check(out)
            elif digest != first_digest:
                problems.append(f"round {r} outputs differ from the first round's")
        wl.cleanup()
        r += 1
        need_more = traced and not traced_walls
        if not need_more and time.perf_counter() - start + wall > seconds:
            break
    result = {"walls": walls, "cpus": cpus, "attempted": attempted, "failed": failed,
              "problems": problems}
    if traced:
        first = layers[0]
        for later in layers[1:]:
            counts_differ = [k for k in first if not k.endswith(".s") and later.get(k) != first[k]]
            if counts_differ:
                problems.append(f"traced counts differ between rounds: {counts_differ}")
        values = {k: (statistics.fmean(l[k] for l in layers) if k.endswith(".s") else v)
                  for k, v in first.items()}
        values["import.s"] = IMPORT_S
        values["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
        result["layers"] = values
        result["traced_walls"] = traced_walls
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(r2rcontrol.__file__).resolve().parents:
        print(f"r2rcontrol was imported from {r2rcontrol.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    threads = blas_threads()
    if threads != 1:
        print(f"BLAS runs {threads} threads; the benchmark needs 1", file=sys.stderr)
        return 2
    result = measure(wl, args.seconds, bool(args.trace))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "r2rcontrol": r2rcontrol.__version__,
    }
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
