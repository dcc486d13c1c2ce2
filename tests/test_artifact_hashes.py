"""Fixed-seed artifacts stay byte-identical to recorded sha256 digests.

The digests were recorded from small runs of the presets and protocols
below (numpy 2.4, scipy 1.17, OpenBLAS on x86-64), and agree between one
and two BLAS threads.  The preset runs, ``table1``, ``figure2`` and
``figure5`` are written once more with two worker processes, and must give
the same bytes.  A preset or protocol run without an output directory
writes nothing.
``gamma_pgs``, and hence ``table2``, are left out:
their online PGS paths abort with ``PeriodAbortError`` on some seeds (see
the open ``FOUND`` line in CHANGES.md), so a small run of them is not a
stable fixture.

The products that reach an artifact only through a threshold, so that a
last-bit change shows in a digest only when it flips a decision, are
pinned by their own digests, recorded the same way and at both thread
counts: RL Algorithm 1's convergence norms and the bound battery's
projection.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from r2rcontrol.experiments import (
    figure2_experiment,
    figure5_experiment,
    preset_config,
    quadratic_error_ratio_experiment,
    table1_experiment,
    table2_experiment,
    theory_check,
)
from r2rcontrol.harness import run_experiment

SEED = 20260826
PRESETS = ("cmp_rl", "cmp_oape", "cmp_ewma", "arima_ghr", "wiener_null", "gamma_null", "arima_pgs", "wiener_pgs")
# open-loop controllers on a preset's process: output name -> (preset, controller)
SWAPPED = {
    "cmp_oracle": ("cmp_ewma", {"kind": "oracle"}),
    "arima_null": ("arima_ghr", {"kind": "null"}),  # fills the d column
}

EXPECTED = {
    "arima_ghr/audit/0.json": "38c87853a501ccac6c6648ca114884bc7749423c00a3a373ed648ac62a7dc0b8",
    "arima_ghr/audit/1.json": "45b784ca926dd96a437933ce00fb9325539ce364cb3dcd4c4fd64ebde2f2a243",
    "arima_ghr/audit/2.json": "88a280f7442b23cb0d89a67dafa6a5c63a56c05542895d838d9d301d00b8907b",
    "arima_ghr/boxplot.csv": "1ae946dbd2716a2d6101e66597aed83d238c2245de52c665dd002f1859e89a1d",
    "arima_ghr/paths.csv": "b096bc0e8aa9187254dcb494d64441d03a8a95584479edc85f187293cdf0b6b6",
    "arima_ghr/summary.json": "b188419645e51399fce22050d2f25cebdb24450483bf346019ae1424f618c4b9",
    "arima_null/audit/0.json": "30db0a1030c4425f569c38a5f273e6a4176aac780cdd8a02a85769efe46429ea",
    "arima_null/audit/1.json": "d507676fddb95d314c4b31a26c81b1d1973b863469f0ffb6887c90216557df1b",
    "arima_null/audit/2.json": "20c2313264b6b828f07f002a1ee077a98381242929486c0552a5db71e3925172",
    "arima_null/boxplot.csv": "51886e85ad1e49a6d654cec48deac3d857de5477a70a7e7f02cfa6e4f98275ab",
    "arima_null/paths.csv": "62b2761e18e7d52a0af7b1738529599fdf097f48e53da2f3343651d8e31d20df",
    "arima_null/summary.json": "48eaee285647a308189962bb00e47de2d0510f75eb7cf8b766d038cd6435fd91",
    "arima_pgs/audit/0.json": "d31edf661ad22cc7207d90cd513c30af8dd34b7baa8a227bfba88bccedfd7d6a",
    "arima_pgs/audit/1.json": "92c55821a49ae156c2dc419c8cbf9443e8631683b0ca69ef7bc742a65a2c9f63",
    "arima_pgs/audit/2.json": "f2c7a69238b5b1b9df0642b877d9e0578717b44092ce9343bf100aac6899a53a",
    "arima_pgs/boxplot.csv": "eb8dc802688433837b5c57d82e2240dd16e68d307171cd4b1dfb6d5f5c5d329f",
    "arima_pgs/paths.csv": "ca9a63962a9df6e7c58831fa878edb23e4cf6a9a1df2362ef3dbe917a1417f41",
    "arima_pgs/summary.json": "075c727fc4cc83c21c31f50129fa623ca7ed7d03a7c67d44d7a7d36681f2c854",
    "cmp_ewma/audit/0.json": "2b712d9a04a79600a02dc6d4b99c17a091e6ba998b3686145c3c15b1df3beb6b",
    "cmp_ewma/audit/1.json": "1c556534b4e12bc7121f5224597a7457aed2ec9a09c501c58a791f3e714b4b3c",
    "cmp_ewma/audit/2.json": "31eeb385e8966e08359b917c6b4df615bb93b6a77e490e1423a48b7c7247e7db",
    "cmp_ewma/boxplot.csv": "e21026347b0fce7a814764f50ac1f3d60c284eb444f7ba292f4ee674910691cd",
    "cmp_ewma/paths.csv": "3c5e8a7668955675cad3e1b33092cb60663bd302c07c3794b119fb83dcb013e8",
    "cmp_ewma/summary.json": "a9999d65ddb2c09fa78ffe3f69975368fc84f12a16b5c3c40c57498d739c685c",
    "cmp_oape/audit/0.json": "53abb08763b7e086e831f7ca62c5e57c0d7e3b421f85962ea06ba1269086203a",
    "cmp_oape/audit/1.json": "d44149004559987f2a76345e0d61eeccbe5a3415bffbba15d6f52b941c43ea24",
    "cmp_oape/audit/2.json": "d6003884deee0dffdf0f1f71fd3cd4f90dfe3b43fcf592a8e17bf852a2e03e52",
    "cmp_oape/boxplot.csv": "62db38420f488902eba5cb0e7f075cea7f4cbe1ebcb985d9537043137cc923de",
    "cmp_oape/paths.csv": "299937911fb3f36ba873dcea3741ac66ca072e1b458641fa04caa125032b6740",
    "cmp_oape/summary.json": "9869159e81e68d6644fd5404e54e6294b67d6bbc6b927a4defa6f41b0dbbac9a",
    "cmp_oracle/audit/0.json": "c4f98f98a9570ee85051205731830c6adcc92ee0168aa3bbbfc8a37efaf90b28",
    "cmp_oracle/audit/1.json": "53256f17409e54b2d112dbf7fd7a9af38c4c24bd3e66c3a2abe91d4a38029354",
    "cmp_oracle/audit/2.json": "f586ad9190e42f5b4536cc51f58e700a7c782596af70019fb55b3e5a4df10b40",
    "cmp_oracle/boxplot.csv": "bc7923f9b93371b353c81ed0cc53894f103fccd5188e5f8fdfb727da1a4d12cf",
    "cmp_oracle/paths.csv": "1b07e13c92597e3304f361bdbaf8f7c1ca0b7d4935dc71c0a6107586bfda3045",
    "cmp_oracle/summary.json": "93e14e18e62735f3d2785baf8f6f5028795355f45ba4261f1196560768245352",
    "cmp_rl/audit/0.json": "93334ff4ff8449367015cef916636f8c3721d1ce48095bebdde690623cf7a375",
    "cmp_rl/audit/1.json": "383ae300780a44da9171da2c4233acc63375fd3e39af04553a992392442525b2",
    "cmp_rl/audit/2.json": "330ec78239f1442576e39cfd25e74b5d8d96962e752a6af51d6cca38706e4246",
    "cmp_rl/boxplot.csv": "53d343a98e931626205cd2334eb9e21299c56ff493933be4c7ea9a72190d1b82",
    "cmp_rl/paths.csv": "7a6190d020a5044beb49d0103949d0032f569634d593aee0ec1490010d29c9f1",
    "cmp_rl/summary.json": "8520d4b7aabc99d31e2faf7ba7c4dc432c4d8e7078d4a0ab315961f847a7703f",
    "figure2/figure2.json": "bd1e34a704049f2d0d1dacb0d2153a332bc56ea9389229cf0e3cca0ee30b6fc8",
    "figure2/figure2_ewma.csv": "e21026347b0fce7a814764f50ac1f3d60c284eb444f7ba292f4ee674910691cd",
    "figure2/figure2_rl.csv": "53d343a98e931626205cd2334eb9e21299c56ff493933be4c7ea9a72190d1b82",
    "figure5/figure5.csv": "d55af51f9e3a4c448991bdc2172ba5d5dc687897a04e45bb9715e8753081dbfa",
    "figure5/figure5.json": "ce5d00299cd8bc1121b9e357dcfeb8a0e3b478b2472cd22a7d1890262dd56385",
    "gamma_null/audit/0.json": "666bb5908ac3cd68db5c19397f42fe14a84acc23056a2ae58cafc269c86c73c4",
    "gamma_null/audit/1.json": "7d0c01ecfee989323dca91f6ae0a7c2f4aeedbf44c9789b21ba4d0d1963abfdf",
    "gamma_null/audit/2.json": "7486847f721d7bb8b3af225e94d5bf1f63c8329409d7abb6ce0b0e1239ba4f2b",
    "gamma_null/boxplot.csv": "b237a36da6c6ebf11e28b86c3de60d10c75217e90e92563e85d1bfb2b5310a97",
    "gamma_null/paths.csv": "cdc941baadbc4ccce1fea58c65a7458de8d857f150d7bce155f5cc9a8ba6646f",
    "gamma_null/summary.json": "a3918f59a18940330c79298aec650dcb828b4f4047fc0ca92a5d7a9e45477e46",
    "quadratic/quadratic_error_ratios.json": "68835f503cf0ed60b612f455adf1298c8672ec0de4c01cf69bbdad37671bc551",
    "table1/table1.csv": "67f16e00c4e95569b8fb91285ad5dc9595d38d2b982fe2a400f9ea195023c1dc",
    "table1/table1.json": "947d2d3b4db70282d523ab048627fbab176a62999f0fa3e81f23a51b738a2044",
    "theory/theory_grid.csv": "a0750b2239a1882ff3c643c40232dd99ea1efa6d1bc48c4264d477c19a3b3084",
    "theory/theory_report.json": "1f4f2779964a95d297716c01a99b0774ebbbbab054e906ef97ecb0b9db11039b",
    "wiener_null/audit/0.json": "d1c683af442710540e7e902559c568d42c1196ef023176a31e779afd91fdc060",
    "wiener_null/audit/1.json": "92cc25363ec6b2f921773a91c1a9faf5bbea1734e74b6624750a5c6961e997bf",
    "wiener_null/audit/2.json": "e6f140858bf1a4cd3c47fb454b4b692c33ddd8ee4119a18cb14f6b6209893066",
    "wiener_null/boxplot.csv": "19b0d36eb0974667ee244cd0ba478f6035524d19aa8516e5c7ffbc0d914a9920",
    "wiener_null/paths.csv": "214f8fa2447f33a5cd210a99d32a38c1b8b7482e6d099b2b7cf0288ffbd5ca36",
    "wiener_null/summary.json": "6f742413b0ea6eacde47fc05abaa632e0ed2e3827ac45c2cffb330b3d57617e5",
    "wiener_pgs/audit/0.json": "f6aacbd53e9677f3647b0b170c934f41ad618d519d26bb2228a1d0cb9db6682e",
    "wiener_pgs/audit/1.json": "2ae3fc1ac298e130a61314ae71ae8786527c2b129088160ad3d0819328654153",
    "wiener_pgs/audit/2.json": "65f4c1976cb6a47c194794ba66d0ba13954f184e56c7abd22826b071ab59a628",
    "wiener_pgs/boxplot.csv": "cd1c28f271b42d0809db3d6962608a43a0ee6ba59125fcc30be3fcf14739ec3d",
    "wiener_pgs/paths.csv": "25b230ce6de2e5f191602662939a499178e7b9e669bc0d53c2d19c70153e6e21",
    "wiener_pgs/summary.json": "2e0bc619118a4c08094056bad4f17e9d2dd6231bdad3ecc605805b990b9f0aa6",
}


def write_artifacts(root, threads=1) -> dict:
    """Every artifact, or with ``threads`` > 1 those of the protocols that take worker processes."""
    runs = [(name, name, {}) for name in PRESETS]
    runs += [(name, preset, {"controller": ctl}) for name, (preset, ctl) in SWAPPED.items()]
    for name, preset, swap in runs:
        n_paths = min(preset_config(preset).n_learning_paths, 4)
        run_experiment(preset_config(preset, replications=3, n_learning_paths=n_paths, threads=threads,
                                     output_dir=str(root / name), **swap))
    table1_experiment(SEED, replications=3, n_grid=(2, 4), out_dir=root / "table1", threads=threads)
    figure2_experiment(SEED, replications=3, n_paths=4, out_dir=root / "figure2", threads=threads)
    figure5_experiment(SEED, replications=3, out_dir=root / "figure5", threads=threads)
    if threads == 1:
        quadratic_error_ratio_experiment(SEED, n_learning_paths=2, n_eval_paths=2,
                                         out_dir=root / "quadratic")
        theory_check(SEED, out_dir=root / "theory", n_bound_trials=200, rate_replications=10,
                     ks_draws=2000)
    return {
        f.relative_to(root).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(root.rglob("*")) if f.is_file()
    }


def _assert_recorded(got: dict, expected: dict) -> None:
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"artifacts changed: {changed}"


def test_artifacts_match_recorded_digests(tmp_path):
    _assert_recorded(write_artifacts(tmp_path), EXPECTED)


def test_parallel_artifacts_match_recorded_digests(tmp_path):
    serial_only = ("quadratic/", "theory/")
    _assert_recorded(write_artifacts(tmp_path, threads=2),
                     {k: v for k, v in EXPECTED.items() if not k.startswith(serial_only)})


def _in_fresh_interpreter(blas_threads: str, call: str, *args) -> dict:
    """The JSON that ``call``, an expression over this module's names and ``sys.argv``, returns in a new
    interpreter at ``blas_threads`` OpenBLAS threads: OpenBLAS reads its thread count when numpy loads."""
    tests = pathlib.Path(__file__).parent
    code = f"import json, pathlib, sys; from test_artifact_hashes import *; print(json.dumps({call}))"
    path = os.pathsep.join([str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_digests_do_not_depend_on_the_blas_thread_count(blas_threads, tmp_path):
    got = _in_fresh_interpreter(blas_threads, "write_artifacts(pathlib.Path(sys.argv[1]))", str(tmp_path))
    _assert_recorded(got, EXPECTED)


THRESHOLD_PRODUCTS = {
    "bound_projection": "62c7719d93511e164d7be903e1717d9e7ea444c33c118d149f76db2d2b0268ad",
    "rl_norms": "56b1c6d622ff4afadb763dae29e7cfff192cd42454ad72ea24aa491beb692563",
}


def threshold_products() -> dict:
    """sha256 of the bytes of the products that only a threshold reads.

    ``rl_norms``: every squared step ``np.vecdot`` gives RL Algorithm 1's
    convergence test in a ``cmp_rl`` stack of three replications.
    ``bound_projection``: for each configuration of the bound battery, the
    projection ``np.linalg.solve(X.T @ X, X.T)`` and each block of its
    projected noise, as ``theory._project_rows`` receives and returns them.
    """
    import numpy as np

    from r2rcontrol import controllers, theory
    from r2rcontrol.harness import run_replication
    from r2rcontrol.theory import DEFAULT_BOUND_BATTERY, theorem2_bound_check

    norms, projections = hashlib.sha256(), hashlib.sha256()
    project = theory._project_rows

    class RecordingNumpy:  # numpy, with every vecdot's output recorded
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def vecdot(a, b):
            out = np.vecdot(a, b)
            norms.update(out.tobytes())
            return out

    def recording_project(proj, rows):
        out = project(proj, rows)
        projections.update(proj.tobytes() + out.tobytes())
        return out

    controllers.np, theory._project_rows = RecordingNumpy(), recording_project
    try:
        run_replication(preset_config("cmp_rl", master_seed=SEED, replications=3, n_learning_paths=2), range(3))
        for i, cfg in enumerate(DEFAULT_BOUND_BATTERY):
            theorem2_bound_check(cfg, (0.1, 0.5, 1.0), 500, SEED + i)
    finally:
        controllers.np, theory._project_rows = np, project
    return {"bound_projection": projections.hexdigest(), "rl_norms": norms.hexdigest()}


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_threshold_products_do_not_depend_on_the_blas_thread_count(blas_threads):
    assert _in_fresh_interpreter(blas_threads, "threshold_products()") == THRESHOLD_PRODUCTS


# a preset run and every protocol at a small size, without an output directory
UNWRITTEN = {
    "run": lambda: run_experiment(preset_config("arima_ghr", replications=2)).to_dict(),
    "table1": lambda: table1_experiment(SEED, replications=2, n_grid=(2,)),
    "table2": lambda: table2_experiment(1, replications=2),  # a seed whose gamma PGS paths do not abort
    "figure2": lambda: figure2_experiment(SEED, replications=2, n_paths=2),
    "figure5": lambda: figure5_experiment(SEED, replications=2),
    "quadratic": lambda: quadratic_error_ratio_experiment(SEED, n_learning_paths=1, n_eval_paths=1),
    "theory": lambda: theory_check(SEED, n_bound_trials=50, rate_replications=5, ks_draws=500),
}


@pytest.mark.parametrize("protocol", UNWRITTEN)
def test_protocol_without_out_dir_writes_nothing(protocol, tmp_path, monkeypatch):
    def refuse(path, *args, **kwargs):
        raise AssertionError(f"{protocol} wrote {path} without an output directory")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pathlib.Path, "write_text", refuse)
    monkeypatch.setattr(pathlib.Path, "mkdir", refuse)
    assert isinstance(UNWRITTEN[protocol](), dict)
    assert list(tmp_path.iterdir()) == []
