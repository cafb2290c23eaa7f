import warnings
from functools import partial

import numpy as np
import pytest

import qge
from qge import ParseError, ValidationError, export_graph, import_graph
from qge.fileio import (
    load_graph,
    load_lengths,
    load_observable,
    save_lengths,
    save_observable,
    write_csv_atomic,
    write_text_atomic,
)

from conftest import cage46, k5, petersen


def commented(text: str) -> str:
    """The same content with "#" lines, blank lines and indentation around it."""
    lines = ["# leading note", ""]
    for ln in text.splitlines():
        lines += [f"  {ln}  ", "   # indented note", ""]
    return "\n".join(lines) + "\n"


def inline_comment(text: str) -> str:
    """The same content with a "#" note after the first data line."""
    first, rest = text.split("\n", 1)
    return f"{first} # note\n{rest}"


class TestGraphFile:
    @pytest.mark.parametrize(
        "make",
        [k5, petersen, cage46, lambda: qge.generate_random_regular(1000, 4, seed=11)],
        ids=["k5", "petersen", "cage46", "n1000"],
    )
    def test_round_trip(self, make):
        g = make()
        text = export_graph(g)
        g2 = import_graph(text)
        assert (g2.n, g2.d) == (g.n, g.d)
        assert g2.edges.dtype == np.int64 and g2.edges.shape == (g.B, 2)
        assert np.array_equal(g2.edges, g.edges)
        assert export_graph(g2) == text

    def test_comment_and_blank_lines_skipped(self):
        g = import_graph(commented(export_graph(petersen())))
        assert np.array_equal(g.edges, petersen().edges)

    @pytest.mark.parametrize(
        "text",
        [
            inline_comment(export_graph(k5())),
            "5 4\n0 1 # note\n",
            "5 4 0\n" + "0 1 0\n" * 10,  # three columns throughout
            "5 4\n0 1 2\n",  # a row with three columns
            "5 4\n0 1.0\n",
            "5 4\n0 1_0\n",  # int() takes it; plain decimals only
            "5 4\n0 0x1\n",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            import_graph(text)


@pytest.mark.parametrize(
    "text", ["", "\n\n", "# only a note\n  \n"], ids=["empty", "blank", "notes"]
)
@pytest.mark.parametrize(
    "load",
    [load_graph, partial(load_lengths, b=2), partial(load_observable, two_b=2)],
    ids=["graph", "lengths", "observable"],
)
def test_empty_file_is_parse_error_without_warning(tmp_path, load, text):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="empty"):
            load(path)



class TestLengthsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lengths.txt"
        lengths = qge.draw_lengths(10, seed=3)
        save_lengths(path, lengths)
        assert np.array_equal(load_lengths(path, 10), lengths)

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "lengths.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValidationError):
            load_lengths(path, 3)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "lengths.txt"
        path.write_text("1.0\nxyz\n")
        with pytest.raises(ParseError):
            load_lengths(path, 2)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "lengths.txt"
        lengths = qge.draw_lengths(10, seed=3)
        save_lengths(path, lengths)
        path.write_text(commented(path.read_text()))
        assert np.array_equal(load_lengths(path, 10), lengths)

    @pytest.mark.parametrize("text", [inline_comment("1.5\n2.5\n"), "1.5 2.5\n2.5 1.5\n"])
    def test_parse_errors(self, tmp_path, text):
        path = tmp_path / "lengths.txt"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_lengths(path, 2)


class TestObservableFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "obs.txt"
        rng = np.random.default_rng(1)
        f = qge.Observable(rng.normal(size=20) + 1j * rng.normal(size=20))
        save_observable(path, f)
        loaded = load_observable(path, 20)
        assert np.array_equal(loaded.f, f.f)

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1.0 0.0\n")
        with pytest.raises(ValidationError):
            load_observable(path, 2)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ParseError):
            load_observable(path, 2)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "obs.txt"
        f = qge.Observable(np.arange(20) - 1j * np.arange(20) ** 2)
        save_observable(path, f)
        path.write_text(commented(path.read_text()))
        assert np.array_equal(load_observable(path, 20).f, f.f)

    @pytest.mark.parametrize("text", [inline_comment("1.0 0.0\n2.0 0.0\n"), "1.0 0.0 0.0\n" * 2])
    def test_parse_errors(self, tmp_path, text):
        path = tmp_path / "obs.txt"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_observable(path, 2)


class TestCsvWriter:
    def test_manifest_comment_and_values(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv_atomic(path, ["a", "b"], [[1, 0.5], [2, float("nan")]], "abc123")
        lines = path.read_text().splitlines()
        assert lines[0] == "# manifest abc123"
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"
        assert lines[3] == "2,nan"

    def test_numpy_scalars_render_plain(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv_atomic(path, ["x"], [[np.float64(0.25)], [np.int64(7)]], "abc123")
        assert path.read_text().splitlines()[2:] == ["0.25", "7"]


@pytest.mark.parametrize("fail", ["encode", "rename"])
def test_failed_atomic_write_leaves_target_and_no_temp_file(tmp_path, monkeypatch, fail):
    target = tmp_path / "out.json"
    target.write_text("old\n")
    text = "new\n"
    if fail == "encode":
        text = "\ud800"  # a lone surrogate, which no codec writes
    else:
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(qge.fileio.os, "replace", refuse)
    with pytest.raises((UnicodeEncodeError, OSError)):
        write_text_atomic(target, text)
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert target.read_text() == "old\n"
