"""Benchmark workloads: inputs from a seed, a timed round, checks.

``quad_learn`` and ``linear_pgs_ratio`` are the workloads; the latter runs
``linear_mix``, ``degradation_pgs`` and ``ratio_theory`` as its parts.

A workload builds its configs from the seed when constructed (that is
part of set-up).  ``run_round`` is the timed body: the same calls into
r2rcontrol on the same inputs every round, counted one operation per
call.  ``check`` compares a round's outputs with results computed in
``reference`` or with properties the method must have; ``digest``
fingerprints the outputs so later rounds can be compared with the first.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

import reference
from r2rcontrol import controllers, experiments, harness, processes
from r2rcontrol.estimation import RatioMoments
from r2rcontrol.ratio_normal import RatioDistribution

# A statistical check passes within this many standard errors, so a correct
# program fails it on a negligible share of seeds.
N_SE = 6.0


def _int_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, dtype=np.uint64)[0] >> 1)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


class _Counter:
    """Counts the program calls of a round that returned."""

    def __init__(self):
        self.done = 0

    def __call__(self, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.done += 1
        return out


class Workload:
    name = ""
    ops_per_round = 0

    def run_round(self) -> tuple[dict | None, int]:
        """Run the timed body; return (outputs or None on a failed call, calls done)."""
        calls = _Counter()
        try:
            return self._body(calls), calls.done
        except Exception:  # a failing call is counted, reported and survived
            traceback.print_exc(file=sys.stderr)
            return None, calls.done

    def _body(self, call) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> list[str]:
        raise NotImplementedError

    def digest(self, out: dict) -> str:
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


class QuadLearn(Workload):
    """RL controller learns the quadratic CMP preset, then runs eval paths."""

    name = "quad_learn"
    N_LEARN = 30
    N_EVAL = 6
    ops_per_round = N_LEARN + N_EVAL
    # The learning paths are the same for every seed.  A learner's optimizer
    # work is set by the data it learned from and stays with it on every
    # later path: over seeds 1..10, 36 seed-drawn paths took 191k to 263k
    # L-BFGS-B function evaluations (quartile spread 14%), more than one
    # run can average out.  The eval paths come from the seed.
    LEARN_SEED = 20260826

    def __init__(self, seed: int, workdir: Path):
        self.cfg = experiments.preset_config("quadratic_cmp_rl", master_seed=seed)
        self.y_star = np.asarray(self.cfg.y_star, dtype=float)
        self.path_seeds = [_int_seed(self.LEARN_SEED, 1, i) for i in range(self.N_LEARN)]
        self.path_seeds += [_int_seed(seed, 2, i) for i in range(self.N_EVAL)]

    def _body(self, call) -> dict:
        model = processes.process_from_config(self.cfg.process)
        ctl = controllers.controller_from_config(self.cfg.controller, model, self.y_star)
        actions, inner = [], []
        for s in self.path_seeds:
            model.reset(s)
            path = call(ctl.run_path, model, s)
            actions.append(path.u)
            inner.append(list(ctl.diagnostics["inner_iterations"]))
        return {"u": actions, "inner": inner, "pooled": ctl.diagnostics["pooled_samples"]}

    def check(self, out: dict) -> list[str]:
        bad = []
        expected = sum(k + 1 for path in out["inner"] for k in path)
        if out["pooled"] != expected:
            bad.append(f"pooled samples {out['pooled']} != sum(inner + 1) = {expected}")
        lo, hi = self.cfg.controller["action_low"], self.cfg.controller["action_high"]
        u_all = np.concatenate(out["u"])
        if not (np.all(u_all >= lo) and np.all(u_all <= hi)):
            bad.append(f"actions leave the [{lo}, {hi}] box: {u_all.min()}..{u_all.max()}")
        p = self.cfg.process
        sigma = np.array([p["noise1"], p["noise2"]])
        worst = np.zeros(2)
        for u in out["u"][self.N_LEARN :]:
            for t in range(1, u.shape[0] + 1):
                mean = reference.quadratic_mean_response(
                    p["coeffs1"], p["coeffs2"], p["drift1"], p["drift2"], u[t - 1], t
                )
                worst = np.maximum(worst, np.abs(mean - self.y_star))
        if np.any(worst >= sigma / 4.0):
            bad.append(f"eval actions miss y* by {worst.tolist()} (noise std {sigma.tolist()})")
        return bad

    def digest(self, out: dict) -> str:
        return _sha(*(u.tobytes() for u in out["u"]), json.dumps(out["inner"]).encode())


class LinearMix(Workload):
    """run_experiment with artifacts for RL, OAPE, EWMA and oracle on the linear CMP."""

    name = "linear_mix"
    # (label, preset, replications, learning paths, controller override)
    RUNS = (
        ("rl", "cmp_rl", 6, 12, None),
        ("oape", "cmp_oape", 6, 20, None),
        ("ewma", "cmp_ewma", 200, 1, None),
        ("oracle", "cmp_ewma", 200, 1, {"kind": "oracle"}),
    )
    ops_per_round = len(RUNS)

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.configs = {}
        for label, preset, reps, n_paths, ctl in self.RUNS:
            overrides = {"master_seed": seed, "replications": reps, "n_learning_paths": n_paths,
                         "output_dir": str(workdir / label)}
            if ctl is not None:
                overrides["controller"] = ctl
            self.configs[label] = experiments.preset_config(preset, **overrides)

    def _body(self, call) -> dict:
        return {label: call(harness.run_experiment, cfg) for label, cfg in self.configs.items()}

    def check(self, out: dict) -> list[str]:
        bad = []
        for label, cfg in self.configs.items():
            bad += self._check_artifacts(label, cfg, out[label])
        p = self.configs["oracle"].process
        mean, se = reference.oracle_mse_mean_se(p["Lambda"], p["T"], self.configs["oracle"].replications)
        got = out["oracle"].mean_mse
        if abs(got - mean) > N_SE * se:
            bad.append(f"oracle mean MSE {got:.4f} vs tr(Lambda) {mean:.4f} (se {se:.4f})")
        cfg = self.configs["ewma"]
        expect = reference.ewma_expected_mse(
            cfg.process["Lambda"], cfg.process["delta"], cfg.controller["lambda_ewma"], cfg.process["T"]
        )
        st = out["ewma"]
        se = st.std_mse / math.sqrt(cfg.replications)
        if abs(st.mean_mse - expect) > N_SE * se:
            bad.append(f"EWMA mean MSE {st.mean_mse:.4f} vs closed form {expect:.4f} (se {se:.4f})")
        return bad

    def _check_artifacts(self, label: str, cfg, stats) -> list[str]:
        out = Path(cfg.output_dir)
        T = cfg.process["T"]
        m_u = len(cfg.process["B"][0])
        m_y = len(cfg.y_star)
        bad = []
        with open(out / "paths.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header = ["replication", "t"] + [f"u_{j + 1}" for j in range(m_u)] + [f"y_{j + 1}" for j in range(m_y)] + ["d"]
        if rows[0] != header:
            bad.append(f"{label}: paths.csv header {rows[0]}")
        body = rows[1:]
        if len(body) != cfg.replications * T:
            return bad + [f"{label}: paths.csv has {len(body)} rows, expected {cfg.replications * T}"]
        y = np.array([[float(v) for v in r[2 + m_u : 2 + m_u + m_y]] for r in body])
        per_rep = ((y - np.asarray(cfg.y_star)) ** 2).sum(axis=1).reshape(cfg.replications, T).mean(axis=1)
        if not math.isclose(per_rep.mean(), stats.mean_mse, rel_tol=1e-12):
            bad.append(f"{label}: mean MSE from paths.csv {per_rep.mean()} != summary {stats.mean_mse}")
        with open(out / "boxplot.csv", newline="") as fh:
            n_box = len(list(csv.reader(fh))) - 1
        expect_box = 1 if cfg.controller["kind"] == "oape" else cfg.n_learning_paths
        if n_box != expect_box:
            bad.append(f"{label}: boxplot.csv has {n_box} rows, expected {expect_box}")
        summary = json.loads((out / "summary.json").read_text())
        if summary["replications"] != cfg.replications or summary["stats"]["mean_mse"] != stats.mean_mse:
            bad.append(f"{label}: summary.json disagrees with the run")
        audits = sorted((out / "audit").iterdir())
        if [a.name for a in audits] != sorted(f"{r}.json" for r in range(cfg.replications)):
            bad.append(f"{label}: audit/ holds {len(audits)} files, expected {cfg.replications}")
        elif any(json.loads(a.read_text())["replication"] != int(a.stem) for a in audits):
            bad.append(f"{label}: an audit file names the wrong replication")
        return bad

    def digest(self, out: dict) -> str:
        files = sorted(f for f in self.workdir.rglob("*") if f.is_file())
        return _sha(*(str(f.relative_to(self.workdir)).encode() + f.read_bytes() for f in files))

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class DegradationPgs(Workload):
    """PGS offline learning and null control on the Wiener and gamma presets.

    The online PGS paths of table2 are left out: on the gamma preset they
    raise PeriodAbortError on some seeds (203 and 210 of 201..210 at 4
    replications).  Offline random-action stepping, which is nearly all of
    table2's time, stays.
    """

    name = "degradation_pgs"
    LEARNERS = 4  # PGS offline fits per process and round, one per table2 replication
    # a null run of 200 replications per process gives the closed-form check
    # a standard error near 25
    NULL_REPLICATIONS = 200
    CASES = ("wiener", "gamma")
    ops_per_round = len(CASES) * (LEARNERS + 1)

    def __init__(self, seed: int, workdir: Path):
        self.pgs = {case: experiments.preset_config(f"{case}_pgs", master_seed=seed) for case in self.CASES}
        self.null = {
            case: experiments.preset_config(f"{case}_null", master_seed=seed, replications=self.NULL_REPLICATIONS)
            for case in self.CASES
        }
        self.learn_seeds = {case: [_int_seed(seed, 3, k, j) for j in range(self.LEARNERS)]
                            for k, case in enumerate(self.CASES)}
        for case, cfg in self.null.items():
            if cfg.process["y0"] != cfg.y_star[0]:
                raise ValueError(f"{case}: the closed-form null MSE assumes y0 == y*")

    def _body(self, call) -> dict:
        fits = {}
        for case, cfg in self.pgs.items():
            model = processes.process_from_config(cfg.process)
            fits[case] = []
            for s in self.learn_seeds[case]:
                ctl = controllers.controller_from_config(cfg.controller, model, cfg.y_star)
                call(ctl.learn_offline, model, cfg.controller["n_offline_paths"], s)
                fits[case].append((ctl.params, [(p.u[:, 0], p.y[:, 0]) for p in ctl.offline_store]))
        null = {case: call(harness.run_replications, cfg) for case, cfg in self.null.items()}
        return {"fits": fits, "null_mse": {case: [r.mse for r in res] for case, res in null.items()}}

    def check(self, out: dict) -> list[str]:
        bad = []
        for case in self.CASES:
            p = self.null[case].process
            if case == "wiener":
                mean, var = reference.wiener_null_mse_mean_var(p["v"], p["sigma"], p["T"])
                inc_mean, inc_var = p["v"], p["sigma"] ** 2
            else:
                scale = 1.0 / p["beta"] if p.get("beta_is_rate", True) else p["beta"]
                mean, var = reference.gamma_null_mse_mean_var(p["alpha"], scale, p["T"])
                inc_mean, inc_var = p["alpha"] * scale, p["alpha"] * scale**2
            got = float(np.mean(out["null_mse"][case]))
            se = math.sqrt(var / self.NULL_REPLICATIONS)
            if abs(got - mean) > N_SE * se:
                bad.append(f"{case}: null MSE {got:.4f} vs closed form {mean:.4f} (se {se:.4f})")
            gain = self.pgs[case].process["control_gain"]
            form = self.pgs[case].controller["variance_form"]
            incs = []
            for j, (params, paths) in enumerate(out["fits"][case]):
                fit = reference.pgs_fit(paths, p["y0"], form)
                if not (math.isclose(params.beta, fit["beta"], rel_tol=1e-9)
                        and math.isclose(params.gamma, fit["gamma"], rel_tol=1e-9)):
                    bad.append(f"{case} fit {j}: (beta, gamma) = ({params.beta}, {params.gamma}), "
                               f"recomputed ({fit['beta']}, {fit['gamma']})")
                beta_se = reference.pgs_beta_se(paths, inc_mean, inc_var)
                if abs(params.beta - gain) > N_SE * beta_se:
                    bad.append(f"{case} fit {j}: beta {params.beta:.5f} vs control gain {gain} (se {beta_se:.5f})")
                incs.append(fit["dy"] - gain * fit["du"])
            incs = np.concatenate(incs)
            se = math.sqrt(inc_var / incs.size)
            if abs(incs.mean() - inc_mean) > N_SE * se:
                bad.append(f"{case}: mean uncontrolled increment {incs.mean():.5f} vs {inc_mean:.5f} (se {se:.5f})")
        return bad

    def digest(self, out: dict) -> str:
        parts = [json.dumps(out["null_mse"]).encode()]
        for case in self.CASES:
            for params, paths in out["fits"][case]:
                parts.append(repr((params.beta, params.gamma)).encode())
                parts += [u.tobytes() + y.tobytes() for u, y in paths]
        return _sha(*parts)


class RatioTheory(Workload):
    """theory_check at reduced size plus CDF points of two ratio distributions."""

    name = "ratio_theory"
    BOUND_TRIALS = 1000
    RATE_REPLICATIONS = 50
    KS_DRAWS = 5000
    KS_ALPHA = 1e-6
    N_POINTS = 40
    ops_per_round = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        # theory_check's distribution, and one with a negative denominator mean
        rho = rng.uniform(-0.8, 0.8)
        s1, s2 = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.0)
        self.moments = [
            (1.5, 3.0, 0.8, 0.7, 0.2),
            (rng.uniform(-2.0, 2.0), -rng.uniform(1.0, 3.0), s1, s2, rho * s1 * s2),
        ]
        self.points = [
            np.sort(m[0] / m[1] + rng.uniform(-4.0, 4.0, self.N_POINTS)) for m in self.moments
        ]

    def _body(self, call) -> dict:
        report = call(
            experiments.theory_check,
            self.seed,
            n_bound_trials=self.BOUND_TRIALS,
            rate_replications=self.RATE_REPLICATIONS,
            ks_draws=self.KS_DRAWS,
        )
        cdfs = [call(RatioDistribution(RatioMoments(*m)).cdf, x) for m, x in zip(self.moments, self.points)]
        return {"report": report, "cdf": cdfs}

    def check(self, out: dict) -> list[str]:
        bad = []
        for i, (F, m, x) in enumerate(zip(out["cdf"], self.moments, self.points)):
            ref = reference.ratio_cdf(*m, x)
            err = float(np.max(np.abs(F - ref)))
            if err > 1e-9:
                bad.append(f"cdf set {i}: max |F - scipy BVN| = {err:.3g}")
            if np.any(F < 0.0) or np.any(F > 1.0) or np.any(np.diff(F) < -1e-12):
                bad.append(f"cdf set {i}: not a monotone function into [0, 1]")
        rd = out["report"]["ratio_distribution"]
        crit = reference.ks_critical(self.KS_DRAWS, self.KS_ALPHA)
        if rd["ks_distance"] > crit:
            bad.append(f"KS distance {rd['ks_distance']:.4g} > critical {crit:.4g}")
        if abs(rd["pdf_integral"] - 1.0) > 1e-8:
            bad.append(f"pdf integrates to {rd['pdf_integral']!r}")
        if rd["max_normal_approx_gap"] > rd["normal_approx_bound"]:
            bad.append(f"normal-approximation gap {rd['max_normal_approx_gap']:.3g} > bound {rd['normal_approx_bound']:.3g}")
        rate = out["report"]["rate"]
        se = reference.rate_slope_se(self.RATE_REPLICATIONS, rate["n_grid"])
        for j, slope in enumerate(rate["slopes"]):
            if abs(slope + 1.0) > N_SE * se:
                bad.append(f"rate slope {j} = {slope:.4f}, expected -1 within {N_SE} x {se:.4f}")
        # Each entry's exceedance frequencies must stay within N_SE binomial
        # standard errors of its bound.  The report's own "satisfied" flag
        # allows 3, which the large-offset entry misses on some seeds.
        unmet = []
        for b in out["report"]["bounds"]:
            n = b["n_trials"]
            for freq, bound in ((b["empirical_freq_action"], b["bound_action"]),
                                (b["empirical_freq_output"], b["bound_output"])):
                se = math.sqrt(max(freq * (1.0 - freq), 1.0 / n) / n)
                if bound < 1.0 and freq > bound + N_SE * se:
                    unmet.append(f"{b['config']}@{b['eta']}")
        if unmet:
            bad.append(f"bound battery entries not satisfied: {unmet}")
        return bad

    def digest(self, out: dict) -> str:
        return _sha(json.dumps(out["report"], sort_keys=True).encode(), *(F.tobytes() for F in out["cdf"]))


class MixedLayers(Workload):
    """linear_mix, degradation_pgs and ratio_theory run back to back as one round.

    Each part takes about 2 s a round.  Run alone for 20 seconds, their
    per-run times followed the shared host between a fast and a slow state,
    and their quartile spreads over 10 seeds reached 27%.  As one workload
    they can run for 50 seconds within the benchmark's time budget, and
    each part is still a quarter or more of a round, so a change to one
    part's layers moves wall_s.
    """

    name = "linear_pgs_ratio"
    PARTS = (LinearMix, DegradationPgs, RatioTheory)

    def __init__(self, seed: int, workdir: Path):
        self.parts = [part(seed, workdir) for part in self.PARTS]
        self.ops_per_round = sum(part.ops_per_round for part in self.parts)

    def _body(self, call) -> dict:
        return {part.name: part._body(call) for part in self.parts}

    def check(self, out: dict) -> list[str]:
        return [f"{part.name}: {msg}" for part in self.parts for msg in part.check(out[part.name])]

    def digest(self, out: dict) -> str:
        return _sha(*(part.digest(out[part.name]).encode() for part in self.parts))

    def cleanup(self) -> None:
        for part in self.parts:
            part.cleanup()


WORKLOADS = {w.name: w for w in (QuadLearn, MixedLayers)}
