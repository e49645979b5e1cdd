import numpy as np
import pytest

from mbnrsfm.errors import ParseError
from mbnrsfm.fileio import (
    read_labels,
    read_matrix,
    write_labels,
    write_matrix,
    write_metrics_csv,
    write_pointcloud_frames,
    write_trace_csv,
)
from mbnrsfm.admm import SolverTrace


class TestMatrixFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(7, 4)) * np.logspace(-8, 8, 4)
        path = tmp_path / "m.mtx"
        write_matrix(path, m)
        np.testing.assert_array_equal(read_matrix(path), m)

    def test_header_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        write_matrix(path, np.zeros((2, 3)))
        assert path.read_text().splitlines()[0] == "MBNR1 matrix 2 3"

    def test_wrong_value_count_reports_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("MBNR1 matrix 2 2\n1.0 2.0\n1.0 2.0 3.0\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 3

    def test_degenerate_dimensions_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("MBNR1 matrix 0 0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("MBNR2 matrix 2 2\n1 2\n3 4\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 1

    def test_non_numeric_entry(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("MBNR1 matrix 1 2\n1.0 abc\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert "abc" in str(err.value)

    def test_non_finite_entry(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("MBNR1 matrix 1 2\n1.0 inf\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("MBNR1 matrix 3 2\n1.0 2.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("MBNR1 matrix 1 1\n1.0\nextra\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 3

    def test_non_utf8_bytes_report_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_bytes(b"MBNR1 matrix 2 2\n1.0 2.0\n\xff\xfe 1\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 3
        assert "UTF-8" in str(err.value)

    def test_writer_rejects_nonfinite(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "m.mtx", np.array([[np.nan]]))


class TestLabelFormat:
    def test_round_trip(self, tmp_path):
        labels = np.array([0, 2, 2, 1, 0])
        path = tmp_path / "l.txt"
        write_labels(path, labels)
        np.testing.assert_array_equal(read_labels(path), labels)

    def test_negative_id_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("MBNR1 labels 2\n0\n-1\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert err.value.line == 3

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("MBNR1 labels 3\n0\n1\n")
        with pytest.raises(ParseError):
            read_labels(path)

    def test_non_integer_token(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("MBNR1 labels 1\n1.5\n")
        with pytest.raises(ParseError):
            read_labels(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("MBNR1 matrix 1\n0\n")
        with pytest.raises(ParseError):
            read_labels(path)

    def test_non_utf8_bytes_report_line(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_bytes(b"MBNR1 labels 2\n0\n1\xe9\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert err.value.line == 3
        assert "UTF-8" in str(err.value)


class TestAuxiliaryWriters:
    def test_trace_csv_rows(self, tmp_path):
        trace = SolverTrace()
        trace.append(1, 10.0, (1.0, 0.5, 0.25, 0.125), 0.01)
        trace.append(2, 9.0, (0.9, 0.4, 0.2, 0.1), 0.011)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,objective,r1,r2,r3,r4,beta"
        assert len(lines) == 3
        assert lines[1].startswith("1,10.0,1.0,0.5,0.25,0.125,")

    def test_metrics_csv_rendering(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, {"converged": True, "iterations": 12, "e3d": 0.25})
        text = path.read_text()
        assert "converged,true" in text
        assert "iterations,12" in text
        assert "e3d,0.25" in text

    def test_pointcloud_frames(self, tmp_path):
        shapes = np.arange(12.0).reshape(6, 2)
        labels = np.array([0, 1])
        paths = write_pointcloud_frames(tmp_path / "pc", shapes, labels)
        assert len(paths) == 2
        first = paths[0].read_text().splitlines()
        assert first[0] == "0.0 2.0 4.0 0"
        assert first[1] == "1.0 3.0 5.0 1"
