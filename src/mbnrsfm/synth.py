"""Synthetic multi-body scenes with exactly low-rank trajectory subspaces.

Each body mixes a static random cloud with gentle time-varying components:
random 3D basis shapes weighted by smooth cosine coefficient curves whose
constant term dominates (the time-varying orders carry DEFORM_REL of its
amplitude). Every trajectory column then lies in one affine subspace of
dimension at most 3 * basis_rank, exactly, while each point's deformation
magnitude is equalized so no trajectory degenerates to a static, ambiguous
one. Bodies get distinct centroids and scales so the subspaces are affine,
not merely linear.

The smooth_random camera is a seeded walk that is deliberately rich in
orientation diversity: a steady geodesic drift about an axis orthogonal to
the initial viewing direction, composed with bounded two-axis oscillations.
Recovering depth from scratch, with nothing but the low-rank and
self-expressiveness priors, needs the camera's orientation spectrum to
dominate the deformation spectrum; slow constant-velocity walks leave the
unobserved directions inside the smooth temporal span and depth becomes
unrecoverable, which this recipe avoids.

Scene coordinates are kept in small normalized units (body scales around
0.1) so the solver's absolute convergence tolerance corresponds to a
sub-percent relative residual.

Everything is deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .scene import CameraMotion, project, validate_measurements

# Relative amplitude of the time-varying coefficient orders; the constant
# (static) order keeps unit amplitude.
DEFORM_REL = 0.15

# smooth_random camera recipe: per-frame geodesic drift plus two-axis
# cosine oscillations (amplitude degrees, frequency cycles per sequence).
_CAMERA_DRIFT_DEG = 8.0
_CAMERA_OSCILLATIONS = ((40.0, 10.0), (25.0, 13.0), (15.0, 7.0))

# Canonical scene seeds; the two-body one is picked for segmentation
# robustness under measurement noise.
DEFAULT_TWO_BODY_SEED = 3
DEFAULT_THREE_BODY_SEED = 105


@dataclass(frozen=True)
class BodySpec:
    """One deforming body: track count, basis rank, placement, and size."""

    points: int
    basis_rank: int
    centroid: tuple = (0.0, 0.0, 0.0)
    scale: float = 1.0

    def __post_init__(self):
        if self.points < 1:
            raise ValueError(f"body needs at least one point, got {self.points}")
        if self.basis_rank < 1:
            raise ValueError(f"basis rank must be at least 1, got {self.basis_rank}")
        if len(self.centroid) != 3:
            raise ValueError(f"centroid must have 3 components, got {self.centroid}")
        if not np.all(np.isfinite(self.centroid)):
            raise ValueError(f"centroid must be finite, got {self.centroid}")
        if not self.scale > 0:  # NaN fails too
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class SynthConfig:
    """A full scene recipe: bodies, frame count, camera mode, noise, seed.

    ``noise_sigma`` is the absolute standard deviation of the i.i.d.
    Gaussian noise added to every measurement entry, in image-coordinate
    units. Relative noise levels (fractions of max |W|) are an experiment
    protocol layered on top; see ``max_abs_measurement``.
    """

    frames: int
    bodies: tuple
    noise_sigma: float = 0.0
    camera_mode: str = "smooth_random"
    seed: int = 0

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError(f"need at least one frame, got {self.frames}")
        bodies = tuple(self.bodies)
        if not bodies:
            raise ValueError("need at least one body")
        if sum(b.points for b in bodies) < 2:
            raise ValueError("scene needs at least 2 points in total")
        if not self.noise_sigma >= 0:  # NaN fails too
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        if self.camera_mode not in ("identity", "smooth_random"):
            raise ValueError(f"unknown camera mode {self.camera_mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        object.__setattr__(self, "bodies", bodies)

    @property
    def points(self) -> int:
        return sum(b.points for b in self.bodies)


def default_two_body(seed: int = DEFAULT_TWO_BODY_SEED, frames: int = 30, points_per_body: int = 30,
                     basis_rank: int = 2, noise_sigma: float = 0.0) -> SynthConfig:
    """The stock two-body scene used across the test and experiment suites."""
    bodies = (
        BodySpec(points_per_body, basis_rank, centroid=(-0.24, -0.048, 0.036), scale=0.12),
        BodySpec(points_per_body, basis_rank, centroid=(0.24, 0.06, -0.036), scale=0.15),
    )
    return SynthConfig(frames=frames, bodies=bodies, noise_sigma=noise_sigma, seed=seed)


def default_three_body(seed: int = DEFAULT_THREE_BODY_SEED, frames: int = 30, points_per_body: int = 20,
                       basis_rank: int = 2, noise_sigma: float = 0.0) -> SynthConfig:
    """A three-body variant with the same flavor of placement."""
    bodies = (
        BodySpec(points_per_body, basis_rank, centroid=(-0.24, -0.048, 0.036), scale=0.12),
        BodySpec(points_per_body, basis_rank, centroid=(0.24, 0.06, -0.036), scale=0.15),
        BodySpec(points_per_body, basis_rank, centroid=(0.0, 0.264, 0.096), scale=0.108),
    )
    return SynthConfig(frames=frames, bodies=bodies, noise_sigma=noise_sigma, seed=seed)


def assemble_body(basis, coefficients, centroid, scale: float) -> np.ndarray:
    """Mix basis shapes with per-frame coefficients into a 3F x points stack.

    ``basis`` is (K, 3, points), ``coefficients`` is (K, F); frame f of the
    result is scale * sum_i coefficients[i, f] * basis[i] + centroid.
    """
    basis = np.asarray(basis, dtype=float)
    coefficients = np.asarray(coefficients, dtype=float)
    if basis.ndim != 3 or basis.shape[1] != 3:
        raise ValueError(f"basis must have shape (K, 3, points), got {basis.shape}")
    if coefficients.ndim != 2 or coefficients.shape[0] != basis.shape[0]:
        raise ValueError(
            f"coefficients must have shape (K, F) with K={basis.shape[0]}, "
            f"got {coefficients.shape}"
        )
    frames = coefficients.shape[1]
    mixed = np.einsum("kf,kap->fap", coefficients, basis) * scale
    mixed += np.asarray(centroid, dtype=float).reshape(1, 3, 1)
    return mixed.reshape(3 * frames, basis.shape[2])


def generate_body(spec: BodySpec, frames: int, seed) -> np.ndarray:
    """Draw one body's 3F x points trajectory stack.

    The basis shapes are random Gaussian clouds rescaled so every point
    carries the same deformation magnitude; the coefficient curves are
    cosine series of order at most ``basis_rank`` whose constant term
    dominates (time-varying orders are scaled by DEFORM_REL). Every
    trajectory column lies in a single affine subspace of dimension at most
    3 * spec.basis_rank. ``seed`` is anything numpy's default_rng accepts.
    """
    if spec.basis_rank >= spec.points:
        raise ValueError(
            f"basis rank {spec.basis_rank} needs fewer basis shapes than "
            f"points ({spec.points})"
        )
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(spec.basis_rank, 3, spec.points))
    norms = np.sqrt((basis**2).sum(axis=(0, 1)))
    basis *= np.sqrt(3.0 * spec.basis_rank) / norms
    t = (np.arange(frames) + 0.5) / frames
    orders = np.arange(spec.basis_rank + 1)
    table = np.cos(np.pi * orders[:, None] * t[None, :])
    amplitudes = rng.normal(size=(spec.basis_rank, spec.basis_rank + 1))
    amplitudes[:, 1:] *= DEFORM_REL
    return assemble_body(basis, amplitudes @ table, spec.centroid, spec.scale)


def _random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q


def _axis_angle(axis, angle: float) -> np.ndarray:
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _smooth_random_camera(rng, frames: int) -> CameraMotion:
    """Seeded orientation-rich walk: drift plus bounded oscillations.

    The drift axis is kept orthogonal to the initial viewing direction so
    the walk always changes the viewing direction instead of spinning in
    the image plane.
    """
    base = _random_rotation(rng)
    view = base[2]
    raw = rng.normal(size=3)
    axis1 = raw - (raw @ view) * view
    axis1 /= np.linalg.norm(axis1)
    raw2 = rng.normal(size=3)
    axis2 = raw2 - (raw2 @ view) * view
    axis2 -= (axis2 @ axis1) * axis1
    axis2 /= np.linalg.norm(axis2)
    osc_axes = (axis2, axis1, axis2)
    blocks = np.empty((frames, 2, 3))
    for f in range(frames):
        rot = _axis_angle(axis1, np.deg2rad(_CAMERA_DRIFT_DEG) * f)
        for (amp, freq), axis in zip(_CAMERA_OSCILLATIONS, osc_axes):
            rot = rot @ _axis_angle(axis, np.deg2rad(amp) * np.cos(2.0 * np.pi * freq * f / frames))
        blocks[f] = (rot @ base)[:2]
    return CameraMotion(blocks)


@dataclass(frozen=True)
class SceneData:
    """One generated scene: measurements, camera, ground truth, labels."""

    w: np.ndarray
    camera: CameraMotion
    shapes: np.ndarray
    labels: np.ndarray


def generate_scene(config: SynthConfig) -> SceneData:
    """Generate a full scene per the config.

    Bodies are stacked column-wise, zero-centered per frame jointly with
    the projections (so W = R S holds with no translation term), and labels
    record the body of every column. Gaussian noise of std ``noise_sigma``
    is added to every measurement entry afterwards; the noise-free relation
    is exact at sigma = 0.
    """
    children = np.random.SeedSequence(config.seed).spawn(len(config.bodies) + 2)
    parts = [
        generate_body(spec, config.frames, child)
        for spec, child in zip(config.bodies, children)
    ]
    shapes = np.hstack(parts)
    labels = np.concatenate([
        np.full(spec.points, idx, dtype=np.int64)
        for idx, spec in enumerate(config.bodies)
    ])

    # Per-frame centering removes the translation component for good.
    per_frame = shapes.reshape(config.frames, 3, config.points)
    shapes = (per_frame - per_frame.mean(axis=2, keepdims=True)).reshape(shapes.shape)

    if config.camera_mode == "identity":
        camera = CameraMotion.identity(config.frames)
    else:
        camera = _smooth_random_camera(
            np.random.default_rng(children[len(config.bodies)]), config.frames
        )

    w = project(camera, shapes)
    if config.noise_sigma > 0:
        noise_rng = np.random.default_rng(children[len(config.bodies) + 1])
        w = w + noise_rng.normal(0.0, config.noise_sigma, size=w.shape)
    return SceneData(w=w, camera=camera, shapes=shapes, labels=labels)


def max_abs_measurement(config: SynthConfig) -> float:
    """Largest |entry| of the noise-free measurements of this scene.

    Relative noise protocols express sigma as a fraction of this value.
    """
    clean = generate_scene(replace(config, noise_sigma=0.0))
    return float(np.abs(clean.w).max())


def estimate_rigid_rotations(w) -> CameraMotion:
    """Rotations from a rank-3 rigid factorization with metric upgrade.

    Factorizes the centered measurements, solves the least-squares metric
    constraints for the corrective transform, and snaps every frame's 2 x 3
    block to the nearest row-orthonormal matrix. Intended for near-rigid or
    gently deforming scenes when no rotations are supplied; the result is
    determined up to one global rotation.
    """
    w = validate_measurements(w)
    frames = w.shape[0] // 2
    u, sigma, _ = np.linalg.svd(w, full_matrices=False)
    if len(sigma) < 3 or sigma[2] <= 1e-10 * sigma[0]:
        raise ValueError("measurement matrix has rank below 3; motion is degenerate")
    motion = u[:, :3] * np.sqrt(sigma[:3])

    # Metric constraints on Q = G G^T: unit-norm, mutually orthogonal rows
    # per frame.
    rows_a = motion[0::2]
    rows_b = motion[1::2]
    design = np.vstack([
        _sym_design(rows_a, rows_a),
        _sym_design(rows_b, rows_b),
        _sym_design(rows_a, rows_b),
    ])
    target = np.concatenate([np.ones(frames), np.ones(frames), np.zeros(frames)])
    q_vec, *_ = np.linalg.lstsq(design, target, rcond=None)
    q = np.array([
        [q_vec[0], q_vec[1], q_vec[2]],
        [q_vec[1], q_vec[3], q_vec[4]],
        [q_vec[2], q_vec[4], q_vec[5]],
    ])
    eigvals, eigvecs = np.linalg.eigh(q)
    if np.any(eigvals <= 0):
        raise ValueError(
            "metric upgrade failed (corrective transform is not positive "
            "definite); the scene deforms too much for a rigid initialization"
        )
    corrective = eigvecs * np.sqrt(eigvals)

    blocks = (motion @ corrective).reshape(frames, 2, 3)
    for f in range(frames):
        bu, _, bvt = np.linalg.svd(blocks[f], full_matrices=False)
        blocks[f] = bu @ bvt
    return CameraMotion(blocks)


def _sym_design(x, y) -> np.ndarray:
    """Rows of the 6-parameter symmetric-matrix design for x^T Q y."""
    return np.column_stack([
        x[:, 0] * y[:, 0],
        x[:, 0] * y[:, 1] + x[:, 1] * y[:, 0],
        x[:, 0] * y[:, 2] + x[:, 2] * y[:, 0],
        x[:, 1] * y[:, 1],
        x[:, 1] * y[:, 2] + x[:, 2] * y[:, 1],
        x[:, 2] * y[:, 2],
    ])
