import numpy as np
import pytest

import qge
from qge import ParseError, ValidationError
from qge.fileio import (
    load_lengths,
    load_observable,
    save_lengths,
    save_observable,
    write_csv_atomic,
)


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


class TestObservableFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "obs.txt"
        rng = np.random.default_rng(1)
        f = qge.Observable.from_vector(rng.normal(size=20) + 1j * rng.normal(size=20))
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
        write_csv_atomic(path, ["x"], [[np.float64(0.25)], [np.int64(7)]])
        assert path.read_text().splitlines()[1:] == ["0.25", "7"]
