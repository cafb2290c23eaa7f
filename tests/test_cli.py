import hashlib
import json
import os
import subprocess
import sys
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


def run_child(*argv, **env) -> None:
    """Run the CLI in a fresh interpreter, whose BLAS reads `env` at load."""
    code = "import sys; from qge.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *argv], env=child_env(**env), check=True)


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

    def test_error_json_on_stderr(self, tmp_path, capsys):
        assert run("graph", "info", str(tmp_path / "nope.txt")) == 2
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}
