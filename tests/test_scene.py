import tracemalloc

import numpy as np
import pytest

from conftest import block_diagonal, dense_merged, neighbor_diff
from mbnrsfm.scene import (
    CameraMotion,
    EdgeOperator,
    build_neighbor_matrix,
    project,
    to_frame_rows,
    to_point_columns,
    validate_labels,
    validate_measurements,
)
from mbnrsfm.synth import _random_rotation


def random_camera(rng, frames):
    blocks = np.stack([_random_rotation(rng)[:2] for _ in range(frames)])
    return CameraMotion(blocks)


class TestReshuffle:
    def test_single_frame_layout(self):
        s = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(to_frame_rows(s), [[1, 2, 3, 4, 5, 6]])

    def test_two_frame_single_point_layout(self):
        # Hand-enumerated index map for F=2, P=1.
        s = np.arange(6.0).reshape(6, 1)
        rows = to_frame_rows(s)
        np.testing.assert_array_equal(rows, [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(to_point_columns(rows), s)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        s = rng.normal(size=(12, 5))
        np.testing.assert_array_equal(to_point_columns(to_frame_rows(s)), s)
        rows = rng.normal(size=(4, 15))
        np.testing.assert_array_equal(to_frame_rows(to_point_columns(rows)), rows)

    def test_zero_maps_to_zero(self):
        assert not to_frame_rows(np.zeros((6, 3))).any()

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=(9, 4))
        assert np.linalg.norm(to_frame_rows(s)) == np.linalg.norm(s)

    def test_bad_row_count(self):
        with pytest.raises(ValueError):
            to_frame_rows(np.zeros((7, 3)))
        with pytest.raises(ValueError):
            to_point_columns(np.zeros((2, 7)))


class TestProject:
    def test_axis_aligned_picks_xy(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(9, 4))
        w = project(CameraMotion.identity(3), s)
        for f in range(3):
            np.testing.assert_array_equal(w[2 * f : 2 * f + 2], s[3 * f : 3 * f + 2])

    def test_zero_shape(self):
        camera = random_camera(np.random.default_rng(2), 4)
        assert not project(camera, np.zeros((12, 3))).any()

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        camera = random_camera(rng, 5)
        s = rng.normal(size=(15, 6))
        w = project(camera, s)
        for f in range(5):
            for p in range(6):
                u = sum(camera.blocks[f][0, a] * s[3 * f + a, p] for a in range(3))
                v = sum(camera.blocks[f][1, a] * s[3 * f + a, p] for a in range(3))
                assert abs(w[2 * f, p] - u) <= 1e-12
                assert abs(w[2 * f + 1, p] - v) <= 1e-12

    def test_frame_mismatch(self):
        with pytest.raises(ValueError):
            project(CameraMotion.identity(3), np.zeros((6, 2)))


class TestCameraMotion:
    def test_rejects_nonorthonormal(self):
        blocks = np.zeros((2, 2, 3))
        blocks[:, 0, 0] = 1.0
        blocks[:, 1, 1] = 2.0
        with pytest.raises(ValueError):
            CameraMotion(blocks)

    def test_block_diagonal_layout(self):
        camera = random_camera(np.random.default_rng(4), 3)
        r = block_diagonal(camera)
        assert r.shape == (6, 9)
        for f in range(3):
            np.testing.assert_array_equal(
                r[2 * f : 2 * f + 2, 3 * f : 3 * f + 3], camera.blocks[f]
            )
        mask = np.ones_like(r, dtype=bool)
        for f in range(3):
            mask[2 * f : 2 * f + 2, 3 * f : 3 * f + 3] = False
        assert not r[mask].any()

    def test_stacked_round_trip(self):
        camera = random_camera(np.random.default_rng(5), 4)
        again = CameraMotion.from_stacked(camera.stacked())
        np.testing.assert_array_equal(again.blocks, camera.blocks)


class TestBuildNeighborMatrix:
    def test_one_by_one_grid_has_no_edges(self):
        nb = build_neighbor_matrix(1, 1)
        assert (nb.points, nb.columns) == (1, 1)
        np.testing.assert_array_equal(nb.multiplicity, [1.0])
        np.testing.assert_array_equal(nb.times(np.array([[2.5]])), [[2.5]])

    @staticmethod
    def formed(nb):
        """[I | D_e] formed by applying the operator to the identity."""
        return nb.times(np.eye(nb.points))

    def test_three_by_three_center_connects_cross(self):
        # Row-major 3x3 grid; the center's up/left/right/down neighbors are
        # 1, 3, 5, 7, and each of its four edges is one column.
        merged = self.formed(build_neighbor_matrix(3, 3))
        center = 4
        edges = merged[:, 9:]
        touching = edges[:, edges[center] != 0]
        assert touching.shape[1] == 4
        others = sorted(int(np.flatnonzero((col != 0) & (np.arange(9) != center))[0])
                        for col in touching.T)
        assert others == [1, 3, 5, 7]
        assert all(np.count_nonzero(col) == 2 and col.sum() == 0 for col in touching.T)

    def test_one_by_two_grid_hand_enumeration(self):
        np.testing.assert_array_equal(self.formed(build_neighbor_matrix(1, 2)),
                                      [[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])

    @pytest.mark.parametrize("height,width", [(1, 1), (1, 5), (5, 1), (3, 4), (12, 20)])
    def test_edges_are_the_per_point_loop_columns_once_each(self, height, width):
        # Every nonzero column of the full per-point 4-neighbor operator is
        # +-1 times one edge column, and each edge column is hit twice, as
        # its multiplicity says.
        nb = build_neighbor_matrix(height, width)
        assert (nb.height, nb.width) == (height, width)
        edges = self.formed(nb)[:, nb.points:]
        full = neighbor_diff(height, width)
        full = full[:, full.any(axis=0)]
        hits = np.abs(edges.T @ full).round() == 2
        assert hits.sum(axis=0).tolist() == [1] * full.shape[1]
        np.testing.assert_array_equal(hits.sum(axis=1), nb.multiplicity[nb.points:])

    def test_columns_sum_to_zero(self):
        merged = self.formed(build_neighbor_matrix(4, 5))
        np.testing.assert_array_equal(merged[:, 20:].sum(axis=0), np.zeros(31))

    def test_weighted_l1_equals_the_full_operator_l1(self):
        # The l1 term of the edge form, each edge weighed twice, is that of
        # the dense P x 5P [I | D].
        rng = np.random.default_rng(9)
        nb = build_neighbor_matrix(2, 3)
        c = rng.normal(size=(6, 6))
        lhs = np.abs(nb.times(c)) @ nb.multiplicity
        rhs = np.abs(c @ dense_merged(nb)).sum(axis=1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14, atol=0)

    def test_zero_sized_grid_rejected(self):
        with pytest.raises(ValueError):
            build_neighbor_matrix(0, 3)

    @pytest.mark.parametrize("height,width", [(0, 3), (3, -1), (2.0, 6), (True, 12)])
    def test_bad_grid_dimensions_rejected(self, height, width):
        with pytest.raises(ValueError, match="positive integers"):
            EdgeOperator(height, width)

    def test_direct_construction_with_numpy_integers(self):
        nb = EdgeOperator(np.int64(3), 4)
        assert nb == build_neighbor_matrix(3, 4)
        assert (nb.points, nb.columns) == (12, 12 + 17)

    def test_holds_only_the_grid_dimensions(self):
        # Nothing is formed: at 25 x 40 a dense P x 4P diff took 30.6 MiB.
        tracemalloc.start()
        try:
            build_neighbor_matrix(25, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestValidators:
    def test_odd_measurement_rows_rejected(self):
        with pytest.raises(ValueError):
            validate_measurements(np.zeros((5, 3)))

    def test_labels_must_be_integers(self):
        with pytest.raises(ValueError):
            validate_labels(np.array([0.5, 1.0]))

    @pytest.mark.parametrize("labels", [
        np.array([True, False]), np.array(["1", "2"]), np.array([1, "a"], dtype=object),
        np.array([1 + 0j, 2 + 0j]),
    ], ids=["bool", "str", "object", "complex"])
    def test_boolean_and_non_numeric_labels_rejected(self, labels):
        # A bool would pass as 0/1 and a string would raise TypeError from
        # np.floor; both are ValueErrors, which the CLI maps to exit 4.
        with pytest.raises(ValueError, match="labels must be integers"):
            validate_labels(labels)

    def test_labels_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            validate_labels(np.array([0, -1]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e300, 2.0**63],
                             ids=["inf", "-inf", "nan", "1e300", "2**63"])
    def test_float_labels_outside_int64_are_not_integers(self, bad):
        # Rejected before the int64 cast, which would warn and wrap.
        with pytest.raises(ValueError, match="labels must be integers"):
            validate_labels(np.array([1.0, bad]))

    def test_whole_float_labels_up_to_the_int64_range_are_cast(self):
        labels = validate_labels(np.array([0.0, 3.0, 2.0**62]))
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, [0, 3, 2**62])
