import ctypes
import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import qge
from qge.cli import main

from conftest import k5, petersen


def run(*argv) -> int:
    return main(list(argv))


def child_env(**env) -> dict:
    """The environment of a child interpreter that imports this qge."""
    src = str(Path(qge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


def run_child(*argv, prelude: str = "", **env) -> None:
    """Run the CLI in a fresh interpreter, whose BLAS reads `env` at load,
    after the Python statements `prelude`."""
    code = f"{prelude}import sys; from qge.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *argv], env=child_env(**env), check=True)


# the OpenBLAS libraries are opened once per process: open them before a
# test patches ctypes.CDLL, whose fake would otherwise stay in the cache
qge._runtime._openblas()

# a child prelude that leaves the CLI a C library without mallopt
NO_MALLOPT = "import ctypes, qge.cli; ctypes.CDLL = lambda name: object(); "
THRESHOLDS = {"M_MMAP_THRESHOLD": 8 << 20, "M_TRIM_THRESHOLD": 16 << 20}


@pytest.fixture()
def k5_file(tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text(qge.export_graph(k5()))
    return path


@pytest.fixture()
def petersen_file(tmp_path):
    path = tmp_path / "petersen.txt"
    path.write_text(qge.export_graph(petersen()))
    return path


class TestGraphCommands:
    def test_gen_produces_valid_file(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run("graph", "gen", "--n", "20", "--d", "4", "--seed", "1", "--out", str(out)) == 0
        g = qge.import_graph(out.read_text())
        assert g.n == 20 and g.d == 4 and g.B == 40
        assert Path(str(out) + ".manifest.json").exists()

    def test_gen_hopeless_degree_exits_at_once(self, tmp_path, capsys):
        # rejection sampling at d = 8 would spin about 49 minutes at this n
        out = tmp_path / "g.txt"
        start = time.perf_counter()
        assert run("graph", "gen", "--n", "100000", "--d", "8", "--seed", "1", "--out", str(out)) == 4
        assert time.perf_counter() - start < 5.0
        assert json.loads(capsys.readouterr().err)["error"] == "SamplingError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "seed, sha256",
        [
            (1, "32e87b0c4b049657e05becd27ea0fde6e4e4e47d538567983d7a6652489ee2f8"),
            (2, "7df870ac1b11b1103297eeb68b5480b61b23c1d60680f6273cd93078814895ab"),
            (3, "a6cc1186035538fb3e69be8f22ecc8d8677b45506500fb847f9fa98f3e26270b"),
        ],
    )
    def test_gen_bytes_pinned(self, tmp_path, seed, sha256):
        # the file that the tuple-edge generator wrote for these seeds
        out = tmp_path / "g.txt"
        argv = ["graph", "gen", "--n", "1000", "--d", "4", "--seed", str(seed), "--out", str(out)]
        assert run(*argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_info_k5(self, k5_file, tmp_path, capsys):
        assert run("graph", "info", str(k5_file)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["beta"] == pytest.approx(3.0, abs=1e-9)
        assert payload["girth"] == 3
        assert payload["ramanujan"] is True
        assert payload["B"] == 10

    def test_census_petersen_empty(self, petersen_file, tmp_path):
        out = tmp_path / "census.json"
        assert run("graph", "census", str(petersen_file), "--t", "3", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["c_bonds"] == []
        # every bond lies on a 5-cycle, so the near-cycle set is full
        assert payload["t_bonds"] == list(range(30))
        assert "manifest" in payload

    def test_census_k5(self, k5_file, tmp_path):
        out = tmp_path / "census.json"
        assert run("graph", "census", str(k5_file), "--t", "3", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["c_bonds"] == list(range(10))
        assert sorted(payload["t_bonds"]) == list(range(20))


class TestScatterDump:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "sigma.csv"
        assert run("scatter", "dump", "--kind", "et", "--d", "4", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        values = np.array([complex(float(a), float(b)) for a, b in rows]).reshape(4, 4)
        assert np.allclose(values, qge.equi_transmitting_sigma(4).entries)


class TestVarianceCommand:
    def test_json_contract(self, k5_file, tmp_path):
        out = tmp_path / "var.json"
        code = run(
            "variance", "--graph", str(k5_file), "--sigma", "et",
            "--K", "20", "--samples", "10", "--obs", "parity", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"B", "K", "samples", "estimate", "stderr", "manifest"}
        assert payload["B"] == 10
        assert payload["samples"] == 10
        assert payload["estimate"] >= 0.0

    def test_observable_file(self, k5_file, tmp_path):
        obs = tmp_path / "obs.txt"
        f = qge.parity_observable(k5().bond_index)
        qge.fileio.save_observable(obs, f)
        out = tmp_path / "var.json"
        code = run(
            "variance", "--graph", str(k5_file), "--K", "20", "--samples", "5",
            "--obs", str(obs), "--out", str(out),
        )
        assert code == 0

    def test_single_sample_stderr_is_null(self, k5_file, tmp_path):
        out = tmp_path / "var.json"
        code = run(
            "variance", "--graph", str(k5_file), "--K", "20", "--samples", "1",
            "--out", str(out),
        )
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["stderr"] is None
        assert payload["estimate"] >= 0.0


class TestWalkCommands:
    def test_decay_bound_dominates(self, tmp_path):
        gpath = tmp_path / "g.txt"
        run("graph", "gen", "--n", "20", "--d", "4", "--seed", "3", "--out", str(gpath))
        out = tmp_path / "decay.csv"
        svg = tmp_path / "decay.svg"
        code = run(
            "walk", "decay", "--graph", str(gpath), "--T", "30",
            "--out", str(out), "--plot", str(svg),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# manifest ")
        assert lines[1] == "t,norm,bound,bound_kind"
        for line in lines[2:]:
            t, norm, bound, kind = line.split(",")
            assert kind == "general"
            assert float(norm) <= float(bound)
        ET.fromstring(svg.read_text())  # valid XML

    def test_decay_at_large_kappa(self, tmp_path):
        # the parity observable at kappa = 1e6 is traceless up to rounding
        # at the scale of kappa, so the decay bounds apply
        gpath = tmp_path / "g.txt"
        gpath.write_text(qge.export_graph(qge.generate_random_regular(81, 4, seed=1)))
        out = tmp_path / "decay.csv"
        argv = ["walk", "decay", "--graph", str(gpath), "--T", "5", "--kappa", "1e6"]
        assert run(*argv, "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 2 + 5

    def test_decay_computes_no_girth(self, k5_file, tmp_path, monkeypatch):
        # walk decay reads only beta; graph info reports the girth, so it
        # shows that the spy sees every call
        calls = []
        real = qge.graphs.girth

        def spy(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(qge.graphs, "girth", spy)
        monkeypatch.setattr(qge.cli, "girth", spy, raising=False)
        out = tmp_path / "decay.csv"
        assert run("walk", "decay", "--graph", str(k5_file), "--T", "5", "--out", str(out)) == 0
        assert calls == []
        assert run("graph", "info", str(k5_file), "--out", str(tmp_path / "info.json")) == 0
        assert calls == [5]

    def test_singular_profile(self, k5_file, tmp_path):
        out = tmp_path / "sv.csv"
        assert run("walk", "singular", "--graph", str(k5_file), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "value,multiplicity"
        rows = [line.split(",") for line in lines[2:]]
        assert [(round(float(v), 9), int(m)) for v, m in rows] == [
            (1.0, 5),
            (round(1 / 3, 9), 15),
        ]


class TestExperimentCommand:
    def test_run_from_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "sweep.csv"
        cfg.write_text(
            f"d=4\nn_list=10,12\nseeds=1,2\nK=15\nsamples=10\nkappa=1\noutput={out}\n"
        )
        svg = tmp_path / "sweep.svg"
        assert run("experiment", "--config", str(cfg), "--plot", str(svg)) == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        assert header[:8] == ["n", "B", "beta", "girth", "census_2T", "T", "variance", "bound"]
        assert len(lines) == 2 + 4  # manifest comment + header + 4 rows
        assert Path(str(out) + ".constants.json").exists()
        ET.fromstring(svg.read_text())

    def test_walk_unavailable_row(self, tmp_path):
        # n = 5 at d = 4 draws K5, whose beta = 3 >= d - 2 leaves no walk bound
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "k5.csv"
        cfg.write_text("d=4\nn_list=5\nseeds=1\nK=10\nsamples=3\n")
        assert run("experiment", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert float(row["beta"]) == pytest.approx(3.0, abs=1e-9)
        assert (row["bound"], row["bound_kind"], row["status"]) == ("nan", "walk-unavailable", "ok")
        sidecar = json.loads(Path(str(out) + ".constants.json").read_text())
        assert sidecar["rows"] == [{"n": 5, "seed": 1, "terms": {}, "status": "ok"}]

    def test_plot_with_a_walk_unavailable_row(self, tmp_path, monkeypatch):
        # K5's row (n = 5) is walk-unavailable, so the plotted bound is NaN
        # there and drawn from the n = 10 row alone
        plotted, line_plot = [], qge.cli.line_plot

        def spy(series, *args, **kwargs):
            plotted.append(series)
            line_plot(series, *args, **kwargs)

        monkeypatch.setattr(qge.cli, "line_plot", spy)
        cfg = tmp_path / "exp.cfg"
        out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        cfg.write_text("d=4\nn_list=5,10\nseeds=1\nK=10\nsamples=3\n")
        assert run("experiment", "--config", str(cfg), "--out", str(out), "--plot", str(svg)) == 0
        (_, ns, variance), (_, bound_ns, bounds) = plotted[0]
        assert ns == bound_ns == [5.0, 10.0] and all(map(math.isfinite, variance))
        assert math.isnan(bounds[0]) and math.isfinite(bounds[1])
        ET.fromstring(svg.read_text())

    def test_manifest_reproducibility(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg.write_text("d=4\nn_list=10\nseeds=1\nK=10\nsamples=5\n")
        assert run("experiment", "--config", str(cfg), "--out", str(out1)) == 0
        assert run("experiment", "--config", str(cfg), "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()


VARIANCE_DEFAULTS = {
    "sigma": "et", "K": 20.0, "samples": 3, "obs": "parity", "kappa": 1.0,
    "lengths": None, "length_seed": 0,
}

# argv (with {graph}, {cfg} and {out} placeholders) and the command, params,
# seeds and input-digest names its manifest must record
MANIFEST_CASES = {
    "graph gen": (
        "graph gen --n 12 --d 4 --seed 7 --out {out}",
        {"n": 12, "d": 4, "seed": 7}, [7], [],
    ),
    "graph info": ("graph info {graph} --out {out}", {"graph": "{graph}"}, [], ["graph"]),
    "graph census": (
        "graph census {graph} --t 3 --out {out}",
        {"graph": "{graph}", "t": 3}, [], ["graph"],
    ),
    "scatter dump": (
        "scatter dump --kind kirchhoff --d 4 --out {out}",
        {"kind": "kirchhoff", "d": 4}, [], [],
    ),
    "variance": (
        "variance --graph {graph} --K 20 --samples 3 --out {out}",
        {"graph": "{graph}", **VARIANCE_DEFAULTS}, [0], ["graph"],
    ),
    "walk decay": (
        "walk decay --graph {graph} --T 4 --out {out} --plot {out}.svg",
        {"graph": "{graph}", "T": 4, "sigma": "et", "obs": "parity", "kappa": 1.0},
        [], ["graph"],
    ),
    "walk singular": (
        "walk singular --graph {graph} --sigma kirchhoff --out {out}",
        {"graph": "{graph}", "sigma": "kirchhoff"}, [], ["graph"],
    ),
    "experiment": (
        "experiment --config {cfg} --out {out} --plot {out}.svg",
        {"d": 4, "n_list": [10], "seeds": [1, 2], "K": 10.0, "samples": 3, "kappa": 1.0},
        [1, 2], ["config"],
    ),
}


class TestManifest:
    @pytest.fixture()
    def paths(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(qge.export_graph(qge.generate_random_regular(20, 4, 3)))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("d=4\nn_list=10\nseeds=1,2\nK=10\nsamples=3\n")
        return {"graph": str(graph), "cfg": str(cfg), "out": str(tmp_path / "out")}

    @pytest.mark.parametrize("command", list(MANIFEST_CASES))
    def test_fields(self, paths, command):
        argv, params, seeds, inputs = MANIFEST_CASES[command]
        assert run(*argv.format(**paths).split()) == 0
        manifest = json.loads(Path(paths["out"] + ".manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["params"] == {
            k: v.format(**paths) if isinstance(v, str) else v for k, v in params.items()
        }
        assert manifest["seeds"] == seeds
        assert sorted(manifest["input_digests"]) == inputs

    @pytest.mark.parametrize(
        "argv, name",
        [
            ("variance --graph {graph} --K 20 --samples 3 --lengths {file}", "lengths"),
            ("variance --graph {graph} --K 20 --samples 3 --obs {file}", "obs"),
            ("walk decay --graph {graph} --T 4 --obs {file}", "obs"),
        ],
        ids=["variance-lengths", "variance-obs", "walk-decay-obs"],
    )
    def test_digest_covers_file_contents(self, paths, tmp_path, argv, name):
        bi = qge.import_graph(Path(paths["graph"]).read_text()).bond_index
        path = tmp_path / "input.txt"
        argv = (argv + " --out {out}").format(file=path, **paths).split()
        digests = []
        for scale in (1.0, 2.0):
            if name == "lengths":
                qge.fileio.save_lengths(path, scale * np.ones(bi.B))
            else:
                qge.fileio.save_observable(path, qge.parity_observable(bi, scale))
            assert run(*argv) == 0
            manifest = json.loads(Path(paths["out"] + ".manifest.json").read_text())
            assert name in manifest["input_digests"]
            digests.append(manifest["digest"])
        assert digests[0] != digests[1]

    def test_run_setup_outside_digest(self, paths):
        argv = MANIFEST_CASES["experiment"][0].format(**paths).split()
        out = Path(paths["out"])
        runs = []
        for threads in ("1", "2"):
            run_child(*argv, OPENBLAS_NUM_THREADS=threads)
            manifest = json.loads(Path(paths["out"] + ".manifest.json").read_text())
            assert manifest["run"]["OPENBLAS_NUM_THREADS"] == threads
            assert manifest["run"]["numpy"] == np.__version__
            constants = Path(paths["out"] + ".constants.json").read_bytes()
            runs.append((manifest["digest"], out.read_bytes(), constants))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("found", [True, False], ids=["dstemr", "dense"])
    def test_ritz_route_outside_digest(self, tmp_path, found, monkeypatch):
        # above 512 vertices beta comes from Lanczos, whose checks take
        # dstemr or, where it is not found, the dense eigh; the run block
        # names the route, which can move beta's last bits
        dstemr = qge._runtime.lapacke_dstemr()
        if found and dstemr is None:
            pytest.skip("no dstemr found")
        if not found:
            monkeypatch.setattr(qge._runtime, "lapacke_dstemr", lambda: None)
        graph, out = tmp_path / "g.txt", tmp_path / "info.json"
        graph.write_text(qge.export_graph(qge.generate_random_regular(600, 4, 3)))
        assert run("graph", "info", str(graph), "--out", str(out)) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["run"]["ritz"] == (dstemr.__name__ if found else None)
        oracle = 4 - np.max(np.abs(np.linalg.eigvalsh(qge.import_graph(graph.read_text()).adjacency)[:-1]))
        assert abs(json.loads(out.read_text())["beta"] - oracle) <= 1e-8

    def test_allocator_setting_outside_digest(self, paths):
        argv = MANIFEST_CASES["experiment"][0].format(**paths).split()
        out = Path(paths["out"])
        runs, mallocs = [], []
        for prelude in ("", NO_MALLOPT):
            run_child(*argv, prelude=prelude, OPENBLAS_NUM_THREADS="1")
            manifest = json.loads(Path(paths["out"] + ".manifest.json").read_text())
            mallocs.append(manifest["run"]["malloc"])
            constants = Path(paths["out"] + ".constants.json").read_bytes()
            runs.append((manifest["digest"], out.read_bytes(), constants))
        assert runs[0] == runs[1]
        assert mallocs[1] is None
        # without a C library to open, no BLAS setter or dstemr is found either
        assert (manifest["run"]["workers"], manifest["run"]["blas_threads"]) == (1, None)
        assert manifest["run"]["ritz"] is None
        if platform.libc_ver()[0] == "glibc":
            assert mallocs[0] == THRESHOLDS

    def test_row_pool_outside_digest(self, paths, monkeypatch):
        argv = MANIFEST_CASES["experiment"][0].format(**paths).split()
        out = Path(paths["out"])
        pinned = qge._runtime.openblas_threads() is not None
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
            assert run(*argv) == 0
            manifest = json.loads(Path(paths["out"] + ".manifest.json").read_text())
            pool = manifest["run"]["workers"], manifest["run"]["blas_threads"]
            assert pool == ((cores, 1) if pinned else (1, None))
            constants = Path(paths["out"] + ".constants.json").read_bytes()
            runs.append((manifest["digest"], out.read_bytes(), constants))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command", list(MANIFEST_CASES))
    def test_no_pool_outside_experiment_and_variance(self, paths, command, monkeypatch):
        # the k-samples of the sweep's rows and of the variance run on the
        # pool; no other command has one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert run(*MANIFEST_CASES[command][0].format(**paths).split()) == 0
        record = json.loads(Path(paths["out"] + ".manifest.json").read_text())["run"]
        if command not in ("experiment", "variance"):
            assert "workers" not in record and "blas_threads" not in record
        elif qge._runtime.openblas_threads() is None:
            assert (record["workers"], record["blas_threads"]) == (1, None)
        else:
            # three k-samples a row
            assert (record["workers"], record["blas_threads"]) == (3, 1)


class TestAllocator:
    """main keeps freed scratch pages in the process through mallopt."""

    def test_main_sets_both_thresholds(self, k5_file, tmp_path, monkeypatch):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc)
        out = tmp_path / "var.json"
        assert run("variance", "--graph", str(k5_file), "--samples", "3", "--out", str(out)) == 0
        assert sorted(calls) == [(-3, 8 << 20), (-1, 16 << 20)]
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["run"]["malloc"] == THRESHOLDS

    def test_runs_without_mallopt(self, k5_file, tmp_path, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        out = tmp_path / "var.json"
        assert run("variance", "--graph", str(k5_file), "--samples", "3", "--out", str(out)) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["run"]["malloc"] is None

    def test_import_sets_nothing(self):
        # the child reads the OpenBLAS thread count and looks up dstemr
        # through a copy of qge/_runtime.py loaded on its own, then imports
        # qge: no C library is opened (no mallopt, no BLAS lookup), the
        # count is unchanged and no lookup of qge's own has run
        code = (
            "import ctypes, importlib.util, json, sys; "
            "spec = importlib.util.spec_from_file_location('probe', sys.argv[1]); "
            "probe = importlib.util.module_from_spec(spec); spec.loader.exec_module(probe); "
            "blas = probe.openblas_threads(); count = lambda: blas and blas[1](); before = count(); "
            "found = probe.lapacke_dstemr() is not None; "
            "real, opened = ctypes.CDLL, []; "
            "ctypes.CDLL = lambda name, *a, **k: opened.append(name) or real(name, *a, **k); "
            "import qge, qge.cli; rt = qge._runtime; "
            "cached = [f.cache_info().currsize for f in (rt._openblas, rt.openblas_threads, rt.lapacke_dstemr)]; "
            "print(json.dumps([opened, before, count(), cached, found]))"
        )
        runtime = Path(qge.__file__).with_name("_runtime.py")
        child = subprocess.run(
            [sys.executable, "-c", code, str(runtime)],
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        opened, before, after, cached, found = json.loads(child.stdout)
        assert opened == [] and cached == [0, 0, 0]
        assert after == before
        # the probe's own lookup finds what this process finds
        assert found == (qge._runtime.lapacke_dstemr() is not None)

    def test_import_loads_no_pool(self):
        # thread_map imports concurrent.futures, which loads logging, on
        # first use: importing qge pays for neither
        code = (
            "import json, sys, qge, qge.cli; "
            "print(json.dumps([name in sys.modules for name in ('concurrent.futures', 'logging')]))"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
        )
        assert json.loads(child.stdout) == [False, False]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator")
    def test_k_samples_fault_in_no_fresh_pages(self, tmp_path):
        # at 2B = 320 each k-sample frees and reallocates megabytes of
        # scratch; with glibc's default thresholds every sample faulted
        # about 2,600 pages back in
        graph = tmp_path / "g.txt"
        graph.write_text(qge.export_graph(qge.generate_random_regular(80, 4, 1)))
        code = (
            "import resource, sys; from qge.cli import main; code = main(sys.argv[1:]); "
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt)"
        )
        faults = {}
        for samples in (40, 80):
            argv = ["variance", "--graph", str(graph), "--samples", str(samples), "--out", str(tmp_path / "v.json")]
            child = subprocess.run(
                [sys.executable, "-c", code, *argv],
                env=child_env(OPENBLAS_NUM_THREADS="1"),
                capture_output=True,
                text=True,
                check=True,
            )
            code_out, faults[samples] = map(int, child.stdout.split())
            assert code_out == 0
        assert (faults[80] - faults[40]) / 40 < 10


def test_import_loads_no_scipy():
    # one BLAS/LAPACK runtime: scipy would bring its own OpenBLAS thread pool
    code = "import sys, qge, qge.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    child = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    assert child.stdout.strip() == "[]"


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        assert run("graph", "info", str(bad)) == 2

    @pytest.mark.parametrize("fmt", ["graph", "lengths", "obs"])
    def test_wrong_column_count_is_2(self, k5_file, tmp_path, capsys, fmt):
        bad = tmp_path / "bad.txt"
        out = tmp_path / "out.json"
        if fmt == "graph":
            bad.write_text(qge.export_graph(k5()).replace("\n", " 0\n"))
            argv = ["graph", "info", str(bad)]
        elif fmt == "lengths":
            bad.write_text("1.5 2.5\n" * 10)
            argv = ["variance", "--graph", str(k5_file), "--lengths", str(bad), "--samples", "5"]
        else:
            bad.write_text("1.0 0.0 0.0\n" * 20)
            argv = ["walk", "decay", "--graph", str(k5_file), "--obs", str(bad)]
        assert run(*argv, "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ParseError"

    def test_missing_file_is_2(self, tmp_path):
        assert run("graph", "info", str(tmp_path / "nope.txt")) == 2

    def test_validation_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        # header promises d=4 but the graph is 3-regular
        bad.write_text("10 4\n" + "\n".join(f"{u} {v}" for u, v in petersen().edges) + "\n")
        assert run("graph", "info", str(bad)) == 3

    def test_no_partial_output_on_failure(self, k5_file, tmp_path):
        out = tmp_path / "census.json"
        assert run("graph", "census", str(k5_file), "--t", "1", "--out", str(out)) == 3
        assert not out.exists()

    def test_directory_path_is_2(self, tmp_path, capsys):
        assert run("graph", "info", str(tmp_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "IsADirectoryError"

    def test_infinite_length_is_3(self, k5_file, tmp_path, capsys):
        lengths = tmp_path / "lengths.txt"
        lengths.write_text("inf\n" + "1.5\n" * 9)
        out = tmp_path / "var.json"
        code = run(
            "variance", "--graph", str(k5_file), "--lengths", str(lengths),
            "--K", "20", "--samples", "5", "--out", str(out),
        )
        assert code == 3
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    @staticmethod
    def _config(tmp_path, bad: str, extra: str = "") -> tuple[Path, Path]:
        """A small sweep config whose key=value lines `bad` replace its own."""
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "sweep.csv"
        entries = {"d": "4", "n_list": "10", "seeds": "1", "K": "10", "samples": "5"}
        entries.update(line.split("=", 1) for line in bad.splitlines())
        body = "".join(f"{k}={v}\n" for k, v in entries.items())
        cfg.write_text(f"{body}{extra}output={out}\n")
        return cfg, out

    @pytest.mark.parametrize(
        "bad",
        [
            "samples=0", "K=0", "kappa=-1", "d=2\nn_list=10", "n_list=10,4", "K=inf", "kappa=inf",
            "seeds=1,-3", f"seeds={2**64 - 1}",
        ],
    )
    def test_invalid_config_is_3(self, tmp_path, bad):
        cfg, out = self._config(tmp_path, bad)
        assert run("experiment", "--config", str(cfg)) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, line",
        [("sample=50\n", 6), ("samples=50\n", 6), ("seeds=2\n", 6), ("# note\nd=5\n", 7)],
    )
    def test_invalid_config_is_2(self, tmp_path, capsys, extra, line):
        # an unknown key (a typo of samples) or a repeated key
        cfg, out = self._config(tmp_path, "", extra)
        assert run("experiment", "--config", str(cfg)) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ParseError"
        assert f"line {line}:" in json.loads(err[0])["message"]

    @pytest.mark.parametrize(
        "d, error", [("3", "NoEquiTransmittingMatrixError"), ("6", "HadamardOrderError")]
    )
    def test_degree_without_construction_is_3(self, tmp_path, capsys, d, error):
        # rejected before any row runs, instead of a CSV of error rows
        cfg, out = self._config(tmp_path, f"d={d}\nn_list=10,12")
        assert run("experiment", "--config", str(cfg)) == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == error

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "gen", "--n", "10", "--d", "4", "--seed", "-1"],
            ["graph", "gen", "--n", "10", "--d", "4", "--seed", str(2**64)],
            ["variance", "--graph", "K5", "--samples", "5", "--length-seed", "-5"],
            ["experiment", "--config", "CFG"],
        ],
        ids=["gen-negative", "gen-2^64", "variance-length-seed", "config-seeds"],
    )
    def test_bad_seed_is_3(self, k5_file, tmp_path, capsys, argv):
        cfg, _ = self._config(tmp_path, "seeds=-3")
        out = tmp_path / "out.txt"
        argv = [{"K5": str(k5_file), "CFG": str(cfg)}.get(a, a) for a in argv]
        assert run(*argv, "--out", str(out)) == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] in {"ParameterError", "ValidationError"}

    @pytest.mark.parametrize("option, value", [("--K", "inf"), ("--K", "nan"), ("--kappa", "inf")])
    def test_non_finite_option_is_3(self, k5_file, tmp_path, capsys, option, value):
        out = tmp_path / "var.json"
        code = run(
            "variance", "--graph", str(k5_file), "--samples", "5", option, value,
            "--out", str(out),
        )
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ParameterError"

    def test_non_finite_observable_is_3(self, k5_file, tmp_path, capsys):
        obs = tmp_path / "obs.txt"
        obs.write_text("nan 0\n" + "1.0 0.0\n" * 19)
        out = tmp_path / "var.json"
        code = run(
            "variance", "--graph", str(k5_file), "--K", "20", "--samples", "5",
            "--obs", str(obs), "--out", str(out),
        )
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "argv",
        [["variance", "--K", "20", "--samples", "5"], ["walk", "decay", "--T", "4"]],
        ids=["variance", "walk-decay"],
    )
    def test_kappa_with_observable_file_is_3(self, k5_file, tmp_path, capsys, argv):
        # an observable file carries its own scale, so --kappa has nothing to scale
        obs = tmp_path / "obs.txt"
        qge.fileio.save_observable(obs, qge.parity_observable(k5().bond_index))
        out = tmp_path / "out.txt"
        argv = [*argv, "--graph", str(k5_file), "--obs", str(obs), "--out", str(out)]
        assert run(*argv, "--kappa", "1") == 0
        out.unlink()
        assert run(*argv, "--kappa", "5") == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ValidationError"

    def test_linalg_error_is_4(self, k5_file, monkeypatch, capsys):
        def fail(args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(qge.cli, "_cmd_graph_info", fail)
        assert run("graph", "info", str(k5_file)) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "LinAlgError",
            "message": "Eigenvalues did not converge",
        }

    def test_memory_error_is_4(self, k5_file, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise MemoryError("Unable to allocate 47.7 GiB")

        monkeypatch.setattr(qge.cli, "variance_estimate", fail)
        out = tmp_path / "var.json"
        assert run("variance", "--graph", str(k5_file), "--samples", "5", "--out", str(out)) == 4
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "MemoryError", "message": "Unable to allocate 47.7 GiB"}

    def test_memory_error_in_a_pooled_sample_is_4(self, k5_file, tmp_path, monkeypatch, capsys):
        # raised on a worker thread of the k-sample pool, it still reaches
        # main, and every worker is joined first
        monkeypatch.setattr(qge._runtime, "pool_workers", lambda items: 2)
        eigenbasis, calls = qge.evolution.eigenbasis, itertools.count()

        def fail(u):
            if next(calls) == 2:
                raise MemoryError("Unable to allocate 47.7 GiB")
            return eigenbasis(u)

        monkeypatch.setattr(qge.evolution, "eigenbasis", fail)
        blas = qge._runtime.openblas_threads()
        threads, count = threading.active_count(), blas[1]() if blas else None
        out = tmp_path / "var.json"
        assert run("variance", "--graph", str(k5_file), "--samples", "6", "--out", str(out)) == 4
        assert not out.exists()
        assert (threading.active_count(), blas[1]() if blas else None) == (threads, count)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "MemoryError", "message": "Unable to allocate 47.7 GiB"}

    def test_error_json_on_stderr(self, tmp_path, capsys):
        assert run("graph", "info", str(tmp_path / "nope.txt")) == 2
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}
