import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import qge
from qge.cli import main

from conftest import k5, petersen


def run(*argv) -> int:
    return main(list(argv))


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


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        assert run("graph", "info", str(bad)) == 2

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

    @pytest.mark.parametrize(
        "bad", ["samples=0", "K=0", "kappa=-1", "d=2\nn_list=10", "n_list=10,4"]
    )
    def test_invalid_config_is_3(self, tmp_path, bad):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "sweep.csv"
        # later keys override earlier ones
        cfg.write_text(f"d=4\nn_list=10\nseeds=1\nK=10\nsamples=5\n{bad}\noutput={out}\n")
        assert run("experiment", "--config", str(cfg)) == 3
        assert not out.exists()

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
