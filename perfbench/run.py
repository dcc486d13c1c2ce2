"""Benchmark runner: run one workload of r2rcontrol and print its metrics.

    python3 perfbench/run.py --workload quad_learn --seed 1 --seconds 50 --trace 0

Starts the workload processes one at a time (never more than one at
once), each with OpenBLAS/OpenMP/MKL pinned to one thread and importing
r2rcontrol from ``src/`` of this checkout.  Without ``--trace`` it first
times set-up alone in a few processes, then runs the measured process;
with ``--trace 1`` it runs one process that reports per-layer counters.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # set-up-only processes; with the measured one, setup_s is a median of 4
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until it was ready, its result or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    timer.start()
    ready_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("ready") and ready_s is None:
                ready_s = time.perf_counter() - t0
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise BenchError(f"worker {' '.join(argv)} exited with code {code}")
    return ready_s, result


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "r2rcontrol" / "__init__.py").is_file():
        raise BenchError(f"no r2rcontrol sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    workdir = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir)]

    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(run_worker(argv + ["--setup-only"], deadline)[0])
        ready_s, res = run_worker(argv, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append(ready_s)
    if res is None:
        raise BenchError("worker printed no result")

    if args.trace:
        wanted, measured = spec["per_layer"], res["layers"]
        trace_dir = HERE / "trace"
        trace_dir.mkdir(exist_ok=True)
        (trace_dir / f"{args.workload}-{args.seed}.json").write_text(json.dumps(res, indent=1) + "\n")
    else:
        wanted = spec["end_to_end"]
        measured = {
            "wall_s": statistics.fmean(res["walls"]),
            "cpu_s": statistics.fmean(res["cpus"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    env = dict(res["env"], git_sha=git_sha(), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, rounds=len(res["walls"]))
    print("env " + json.dumps(env))
    print("round wall_s " + " ".join(f"{w:.4f}" for w in res["walls"] + res.get("traced_walls", [])))
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}")
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:34s} {measured[m['name']]:14.6g} {m['unit']}")
        else:
            print(f"{m['name']:34s} {'absent':>14s}")
    print(f"operations attempted {res['attempted']}, failed {res['failed']}")
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
