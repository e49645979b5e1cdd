import numpy as np
import pytest

from mbnrsfm.scene import project, to_frame_rows
from mbnrsfm.synth import (
    BodySpec,
    SynthConfig,
    assemble_body,
    default_three_body,
    default_two_body,
    estimate_rigid_rotations,
    generate_body,
    generate_scene,
    max_abs_measurement,
    _smooth_random_camera,
)


def numerical_rank(matrix, rel_tol=1e-8):
    sigma = np.linalg.svd(matrix, compute_uv=False)
    return int((sigma > rel_tol * sigma[0]).sum())


def affine_least_squares_residual(y, columns):
    """Residual of the best affine combination of ``columns`` matching y."""
    base = columns[:, -1]
    directions = columns[:, :-1] - base[:, None]
    z, *_ = np.linalg.lstsq(directions, y - base, rcond=None)
    return np.linalg.norm(y - base - directions @ z)


class TestGenerateBody:
    def test_centered_trajectories_have_bounded_rank(self):
        for rank in (1, 2, 3):
            spec = BodySpec(points=20, basis_rank=rank, scale=0.5)
            body = generate_body(spec, frames=25, seed=11)
            centered = body - body.mean(axis=1, keepdims=True)
            assert numerical_rank(centered) <= 3 * rank

    def test_rigid_constant_coefficients_rank_three(self):
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(1, 3, 10))
        body = assemble_body(basis, np.ones((1, 8)), (0.5, -1.0, 2.0), 1.0)
        assert numerical_rank(to_frame_rows(body)) <= 3

    def test_deterministic(self):
        spec = BodySpec(points=12, basis_rank=2)
        a = generate_body(spec, frames=10, seed=5)
        b = generate_body(spec, frames=10, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_degenerate_basis_rejected(self):
        with pytest.raises(ValueError):
            generate_body(BodySpec(points=2, basis_rank=2), frames=5, seed=0)

    @pytest.mark.parametrize("spec", [
        {"scale": float("nan")},
        {"scale": -1.0},
        {"centroid": (0.0, float("nan"), 0.0)},
        {"centroid": (float("inf"), 0.0, 0.0)},
    ], ids=["nan_scale", "negative_scale", "nan_centroid", "inf_centroid"])
    def test_bad_body_spec_rejected(self, spec):
        with pytest.raises(ValueError):
            BodySpec(points=4, basis_rank=1, **spec)

    def test_centroid_and_scale_applied(self):
        spec = BodySpec(points=30, basis_rank=1, centroid=(10.0, 0.0, 0.0), scale=0.01)
        body = generate_body(spec, frames=4, seed=2)
        assert abs(body[0::3].mean() - 10.0) < 1.0
        assert body[1::3].std() < 1.0


class TestGenerateScene:
    def test_noise_free_projection_is_exact(self):
        scene = generate_scene(default_two_body())
        np.testing.assert_array_equal(scene.w, project(scene.camera, scene.shapes))

    def test_labels_follow_column_order(self):
        scene = generate_scene(default_three_body())
        np.testing.assert_array_equal(
            scene.labels, np.repeat([0, 1, 2], 20)
        )

    def test_per_frame_centering(self):
        scene = generate_scene(default_two_body())
        frames = scene.camera.frames
        per = scene.shapes.reshape(frames, 3, -1)
        assert np.abs(per.mean(axis=2)).max() <= 1e-14

    def test_deterministic(self):
        config = default_two_body(seed=9, noise_sigma=0.01)
        one = generate_scene(config)
        two = generate_scene(config)
        np.testing.assert_array_equal(one.w, two.w)
        np.testing.assert_array_equal(one.shapes, two.shapes)
        np.testing.assert_array_equal(one.camera.blocks, two.camera.blocks)

    def test_noise_level_statistics(self):
        # Empirical noise std within 5 percent of sigma on >= 1e4 samples.
        base = SynthConfig(
            frames=50,
            bodies=(BodySpec(60, 2, centroid=(-0.2, 0, 0), scale=0.1),
                    BodySpec(60, 2, centroid=(0.2, 0, 0), scale=0.1)),
            seed=4,
        )
        sigma = 0.01 * max_abs_measurement(base)
        noisy = generate_scene(SynthConfig(
            frames=base.frames, bodies=base.bodies, noise_sigma=sigma, seed=4))
        clean = generate_scene(base)
        noise = noisy.w - clean.w
        assert noise.size >= 10_000
        assert abs(noise.std() - sigma) <= 0.05 * sigma

    def test_identity_camera_mode(self):
        config = SynthConfig(frames=4, bodies=(BodySpec(6, 1),), camera_mode="identity", seed=0)
        scene = generate_scene(config)
        np.testing.assert_array_equal(scene.camera.blocks[0], [[1, 0, 0], [0, 1, 0]])

    def test_self_expressiveness_within_vs_across(self):
        # Every trajectory is an exact affine combination of its own body's
        # other columns; the other body alone misses by orders of magnitude.
        scene = generate_scene(default_two_body())
        s = scene.shapes
        for body, columns in ((0, np.arange(30)), (1, np.arange(30, 60))):
            others = np.setdiff1d(columns, [columns[0]])
            y = s[:, columns[0]]
            within = affine_least_squares_residual(y, s[:, others])
            across = affine_least_squares_residual(
                y, s[:, np.setdiff1d(np.arange(60), columns)]
            )
            assert within <= 1e-6 * np.linalg.norm(y)
            assert across >= 10 * within

    @pytest.mark.parametrize("sigma", [float("nan"), -0.1])
    def test_bad_noise_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthConfig(frames=3, bodies=(BodySpec(4, 1),), noise_sigma=sigma)

    def test_invalid_camera_mode_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(frames=3, bodies=(BodySpec(4, 1),), camera_mode="orbit")


class TestEstimateRigidRotations:
    def rigid_scene(self, frames=24, points=25, seed=8):
        rng = np.random.default_rng(seed)
        basis = rng.normal(size=(1, 3, points))
        shapes = assemble_body(basis, np.ones((1, frames)), (0.0, 0.0, 0.0), 1.0)
        per = shapes.reshape(frames, 3, points)
        shapes = (per - per.mean(axis=2, keepdims=True)).reshape(3 * frames, points)
        camera = _smooth_random_camera(np.random.default_rng(seed + 1), frames)
        return project(camera, shapes), camera, shapes

    def test_blocks_are_row_orthonormal(self):
        w, _, _ = self.rigid_scene()
        estimated = estimate_rigid_rotations(w)
        grams = np.einsum("fij,fkj->fik", estimated.blocks, estimated.blocks)
        assert np.abs(grams - np.eye(2)).max() <= 1e-6

    def test_rigid_reprojection_through_estimated_rotations(self):
        # A single rigid shape fit through the estimated rotations must
        # explain the tracks almost exactly.
        w, _, _ = self.rigid_scene()
        estimated = estimate_rigid_rotations(w)
        stacked = estimated.blocks.reshape(-1, 3)
        shape, *_ = np.linalg.lstsq(stacked, w, rcond=None)
        assert np.linalg.norm(w - stacked @ shape) / np.linalg.norm(w) <= 1e-3

    def test_zero_measurements_rejected(self):
        with pytest.raises(ValueError):
            estimate_rigid_rotations(np.zeros((8, 5)))

    def test_rank_two_scene_rejected(self):
        # A rigid scene watched by a fixed axis-aligned camera never exposes
        # depth: the measurement matrix has rank 2 and the factorization
        # must refuse rather than hallucinate a third direction.
        rng = np.random.default_rng(10)
        planar = rng.normal(size=(2, 7))
        w = np.tile(planar, (5, 1))
        with pytest.raises(ValueError):
            estimate_rigid_rotations(w)
