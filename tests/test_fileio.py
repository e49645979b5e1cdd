import numpy as np
import pytest

import mbnrsfm.fileio
from mbnrsfm.errors import ParseError
from mbnrsfm.fileio import (
    MatrixText,
    format_matrix,
    read_labels,
    read_matrix,
    write_labels,
    write_matrix,
    write_metrics_csv,
    write_pointcloud_frames,
    write_trace_csv,
)
from mbnrsfm.admm import SolverTrace
from mbnrsfm.scene import to_frame_rows


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

    @pytest.mark.parametrize("row, message", [
        ("1.0 inf abc", "non-finite entry: 'inf'"),
        ("nan abc 1.0", "non-finite entry: 'nan'"),
        ("1.0 abc -inf", "not a number: 'abc'"),
    ])
    def test_first_bad_token_of_a_row_is_reported(self, tmp_path, row, message):
        path = tmp_path / "m.mtx"
        path.write_text(f"MBNR1 matrix 2 3\n1 2 3\n{row}\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 3
        assert str(err.value).endswith(message)

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


def edge_values(rows, cols, seed=5):
    """Random normals with signed zeros, subnormals and extreme magnitudes."""
    m = np.random.default_rng(seed).normal(size=(rows, cols))
    m.flat[:7] = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e22, 123456789.0]
    return m


def old_formula(values) -> str:
    return " ".join(repr(float(v)) for v in values)


class TestWriterBytes:
    """The writers format each float exactly as repr(float(v)) does."""

    def test_matrix_matches_old_formula(self, tmp_path):
        m = edge_values(9, 5)
        path = tmp_path / "m.mtx"
        write_matrix(path, m)
        expected = "".join(f"{old_formula(row)}\n" for row in m)
        assert path.read_bytes() == f"MBNR1 matrix 9 5\n{expected}".encode()

    def test_pointcloud_matches_old_formula(self, tmp_path):
        shapes = edge_values(6, 4)
        labels = np.array([0, 1, 1, 12])
        paths = write_pointcloud_frames(tmp_path / "pc", shapes, labels)
        for f, path in enumerate(paths):
            block = shapes[3 * f : 3 * f + 3]
            expected = "".join(
                f"{old_formula(block[:, p])} {int(labels[p])}\n" for p in range(4)
            )
            assert path.read_bytes() == expected.encode()

    def test_shape_artifacts_from_one_text_match_old_formula(self, tmp_path):
        # S.mtx, Ssharp.mtx and the point clouds built from one MatrixText
        # are the bytes each writer gave when it formatted the stack itself.
        shapes = np.random.default_rng(8).normal(size=(6, 4))
        shapes.flat[:6] = [-0.0, 5e-324, 1e-05, 1e16, 1.0, 0.1]
        labels = np.array([3, 0, 1, 0])
        text = write_matrix(tmp_path / "S.mtx", shapes)
        assert isinstance(text, MatrixText)
        write_matrix(tmp_path / "Ssharp.mtx", text.frame_rows())
        paths = write_pointcloud_frames(tmp_path / "pc", text, labels)
        for name, matrix in (("S.mtx", shapes), ("Ssharp.mtx", to_frame_rows(shapes))):
            rows = "".join(f"{old_formula(row)}\n" for row in matrix)
            header = f"MBNR1 matrix {matrix.shape[0]} {matrix.shape[1]}\n"
            assert (tmp_path / name).read_bytes() == (header + rows).encode()
        assert len(paths) == 2
        for f, path in enumerate(paths):
            block = shapes[3 * f : 3 * f + 3]
            expected = "".join(
                f"{old_formula(block[:, p])} {int(labels[p])}\n" for p in range(4)
            )
            assert path.read_bytes() == expected.encode()

    @staticmethod
    def symmetric_edge_values(n):
        half = edge_values(n, n)
        return half + half.T

    SYMMETRIC_SIZES = [1, 2, 9, 37]

    @pytest.mark.parametrize("n", SYMMETRIC_SIZES)
    def test_symmetric_matrix_matches_old_formula(self, tmp_path, n):
        # A = |C| + |C^T| is symmetric bit for bit, so the writer mirrors
        # the upper triangle's tokens; the bytes do not change.
        m = np.abs(edge_values(n, n))
        m = m + m.T
        path = tmp_path / "A.mtx"
        write_matrix(path, m)
        expected = "".join(f"{old_formula(row)}\n" for row in m)
        assert path.read_bytes() == f"MBNR1 matrix {n} {n}\n{expected}".encode()

    @pytest.mark.parametrize("n", SYMMETRIC_SIZES)
    def test_symmetric_matrix_formats_each_upper_value_once(self, monkeypatch, n):
        m = self.symmetric_edge_values(n)
        calls = []

        def counting(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(mbnrsfm.fileio, "repr", counting, raising=False)
        text = format_matrix(m)
        assert len(calls) == n * (n + 1) // 2
        assert text.rows == [old_formula(row) for row in m]

    def test_signed_zero_pair_is_not_symmetric(self, monkeypatch):
        # -0.0 == 0.0, but their reprs differ: the matrix is formatted whole.
        m = self.symmetric_edge_values(4)
        m[0, 1], m[1, 0] = 0.0, -0.0
        calls = []

        def counting(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(mbnrsfm.fileio, "repr", counting, raising=False)
        text = format_matrix(m)
        assert len(calls) == 16
        assert text.rows == [old_formula(row) for row in m]
        assert text.rows[1].startswith("-0.0 ")

    def test_read_back_gives_the_same_bits(self, tmp_path):
        m = edge_values(9, 5)
        path = tmp_path / "m.mtx"
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.view(np.uint64).tolist() == m.view(np.uint64).tolist()
        assert np.signbit(back.flat[1]) and not np.signbit(back.flat[0])


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

    @pytest.mark.parametrize("text, line, reason", [
        ("MBNR1 labels 2\n\n0\n-1\n", 4, "negative label id: -1"),
        ("MBNR1 labels 2\n0\n\n\nx\n", 5, "not an integer: 'x'"),
        ("MBNR1 labels 1\n\n0\n\n1\n", 5, "expected 1 labels, got 2"),
        ("MBNR1 labels 3\n0\n\n1\n", 5, "expected 3 labels, got 2"),
    ], ids=["negative", "non-integer", "surplus-label", "file-ends-early"])
    def test_blank_lines_keep_line_numbers(self, tmp_path, text, line, reason):
        path = tmp_path / "l.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert (err.value.line, err.value.reason) == (line, reason)

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

    @pytest.mark.parametrize("as_text", [False, True], ids=["array", "text"])
    def test_pointcloud_rejects_a_row_count_not_divisible_by_3(self, tmp_path, as_text):
        # A 4 x 5 stack used to write one frame and drop row 4.
        shapes = np.arange(20.0).reshape(4, 5)
        with pytest.raises(ValueError, match="divisible by 3"):
            write_pointcloud_frames(tmp_path / "pc", format_matrix(shapes) if as_text else shapes,
                                    np.zeros(5, dtype=int))
        assert not (tmp_path / "pc").exists()

    def test_pointcloud_frames(self, tmp_path):
        shapes = np.arange(12.0).reshape(6, 2)
        labels = np.array([0, 1])
        paths = write_pointcloud_frames(tmp_path / "pc", shapes, labels)
        assert len(paths) == 2
        first = paths[0].read_text().splitlines()
        assert first[0] == "0.0 2.0 4.0 0"
        assert first[1] == "1.0 3.0 5.0 1"
