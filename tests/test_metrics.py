from itertools import permutations

import numpy as np
import pytest

from mbnrsfm.metrics import (
    reconstruction_error,
    reconstruction_error_whole,
    reprojection_error,
    segmentation_error,
)
from mbnrsfm.scene import CameraMotion, project
from mbnrsfm.synth import _smooth_random_camera


class TestReconstructionError:
    def test_exact_match_is_zero(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(9, 4))
        assert reconstruction_error(s, s) == 0.0

    def test_scalar_scaling(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(12, 5))
        assert reconstruction_error(1.1 * s, s) == pytest.approx(0.1, rel=1e-12)

    def test_scaling_property(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(9, 6))
        for alpha in (0.5, 1.0, 1.7, 3.0):
            assert reconstruction_error(alpha * s, s) == pytest.approx(abs(alpha - 1), rel=1e-12, abs=1e-15)

    def test_depth_flip_absorbed(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=(9, 4))
        flipped = s.copy()
        flipped[2::3] *= -1.0
        assert reconstruction_error(flipped, s) == 0.0

    def test_flip_is_global_not_per_frame(self):
        # Flipping only one frame's depth must NOT be absorbed.
        rng = np.random.default_rng(5)
        s = rng.normal(size=(9, 4))
        half = s.copy()
        half[2] *= -1.0
        assert reconstruction_error(half, s) > 0.0

    def test_zero_norm_frame_rejected(self):
        s = np.zeros((6, 3))
        with pytest.raises(ValueError):
            reconstruction_error(s, s)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reconstruction_error(np.zeros((6, 3)), np.ones((9, 3)))

    def test_whole_matrix_variant(self):
        rng = np.random.default_rng(6)
        s = rng.normal(size=(9, 4))
        assert reconstruction_error_whole(1.2 * s, s) == pytest.approx(0.2, rel=1e-12)


class TestSegmentationError:
    def test_identical(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert segmentation_error(labels, labels) == 0.0

    def test_permuted_ids(self):
        est = np.array([2, 2, 0, 0, 1, 1])
        gt = np.array([0, 0, 1, 1, 2, 2])
        assert segmentation_error(est, gt) == 0.0
        # k = 12: more clusters than any brute-force oracle can enumerate.
        gt = np.repeat(np.arange(12), 3)
        perm = np.random.default_rng(12).permutation(12)
        assert segmentation_error(perm[gt], gt) == 0.0

    def test_single_mistake_fraction(self):
        gt = np.array([0] * 5 + [1] * 5)
        est = gt.copy()
        est[0] = 1
        assert segmentation_error(est, gt) == pytest.approx(0.1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            segmentation_error(np.array([0, 1]), np.array([0, 1, 1]))

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 3, size=40)
        assert segmentation_error(a, b) == segmentation_error(b, a)

    def test_matches_brute_force_over_permutations(self):
        # Two independent oracles. Where k is small enough to enumerate, count
        # mismatches directly for every relabeling, with no confusion matrix
        # involved. Everywhere, solve the assignment on the raw-id confusion
        # matrix with scipy.optimize, which the package itself never imports.
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(8)

        def draw(k_est, k_gt, n):
            return rng.integers(0, k_est, size=n), rng.integers(0, k_gt, size=n)

        cases = [draw(k, k, 30) for k in (2, 3, 4, 6)]
        # k from 5 to 12, past where permutations can be enumerated.
        cases += [draw(k, k, n) for k in range(5, 13) for n in (k, 40, 150)]
        # Ties: few points over several ids repeat confusion entries.
        cases += [draw(4, 4, 8) for _ in range(20)]
        cases.append((np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])))
        cases.append((np.repeat([0, 1, 2], 4), np.tile([0, 1, 2], 4)))
        # More estimated clusters than ground-truth ones, and fewer.
        cases += [draw(5, 2, 50), draw(9, 3, 60), draw(2, 5, 50), draw(3, 9, 60)]
        # A single cluster on either side, or on both.
        one = np.zeros(7, dtype=int)
        cases += [(one, one), (one, rng.integers(0, 3, size=7)), (rng.integers(0, 3, size=7), one)]
        # All ties: every id is mixed evenly with every other, so every
        # bijection is optimal.
        cases.append((np.repeat(np.arange(6), 6), np.tile(np.arange(6), 6)))
        # k = 40: random ids, and a permuted labeling with a tenth relabeled.
        cases.append(draw(40, 40, 400))
        gt = np.repeat(np.arange(40), 10)
        est = rng.permutation(40)[gt]
        est[rng.choice(400, size=40, replace=False)] = rng.integers(0, 40, size=40)
        cases.append((est, gt))
        for est, gt in cases:
            n = est.size
            k = int(max(est.max(), gt.max())) + 1
            confusion = np.zeros((k, k), dtype=np.int64)
            np.add.at(confusion, (est, gt), 1)
            rows, cols = linear_sum_assignment(confusion, maximize=True)
            expected = float(n - confusion[rows, cols].sum()) / n
            assert segmentation_error(est, gt) == expected, (est, gt)
            if k <= 6:
                brute = min(
                    int(np.sum(np.asarray(perm)[est] != gt))
                    for perm in permutations(range(k))
                )
                assert expected == brute / n, (est, gt)

    def test_noncontiguous_ids_accepted(self):
        est = np.array([5, 5, 9, 9])
        gt = np.array([1, 1, 3, 3])
        assert segmentation_error(est, gt) == 0.0

    def test_uniform_random_sanity(self):
        # Mean error of random k-labelings stays near or below 1 - 1/k.
        rng = np.random.default_rng(9)
        for k in (2, 4):
            values = []
            for _ in range(100):
                est = rng.integers(0, k, size=60)
                gt = rng.integers(0, k, size=60)
                values.append(segmentation_error(est, gt))
            assert np.mean(values) <= 1 - 1 / k + 0.1


class TestReprojectionError:
    def test_exact_backprojection_is_zero(self):
        rng = np.random.default_rng(10)
        camera = _smooth_random_camera(rng, 4)
        shapes = rng.normal(size=(12, 5))
        w = project(camera, shapes)
        assert reprojection_error(w, camera, shapes) <= 1e-12

    def test_zero_measurements_rejected(self):
        with pytest.raises(ValueError):
            reprojection_error(np.zeros((4, 3)), CameraMotion.identity(2), np.zeros((6, 3)))

    @pytest.mark.parametrize("w_shape", [(4, 4), (6, 3), (4,)], ids=["points", "frames", "1d"])
    def test_shape_mismatch_names_both_shapes(self, w_shape):
        # Not numpy's broadcast message: the measurement and projection shapes.
        with pytest.raises(ValueError) as err:
            reprojection_error(np.ones(w_shape), CameraMotion.identity(2), np.ones((6, 3)))
        assert str(err.value) == (f"measurement shape {w_shape} does not match "
                                  f"projection (4, 3)")

    def test_additive_perturbation(self):
        rng = np.random.default_rng(11)
        camera = _smooth_random_camera(rng, 4)
        shapes = rng.normal(size=(12, 5))
        w = project(camera, shapes)
        delta = rng.normal(size=w.shape)
        expected = np.linalg.norm(delta) / np.linalg.norm(w + delta)
        assert reprojection_error(w + delta, camera, shapes) == pytest.approx(expected, rel=1e-12)
