"""Joint 3D reconstruction and segmentation of multiple deforming objects
from 2D point tracks: an ADMM solver over affine trajectory subspaces, with
spectral clustering of the learned self-expression coefficients."""

from .admm import SolverConfig, SolverTrace, solve
from .clustering import build_affinity, spectral_cluster
from .errors import ManifestError, NumericalError, ParseError
from .metrics import (
    reconstruction_error,
    reconstruction_error_whole,
    reprojection_error,
    segmentation_error,
)
from .scene import (
    CameraMotion,
    build_neighbor_matrix,
    project,
    to_frame_rows,
    to_point_columns,
)
from .synth import (
    BodySpec,
    SceneData,
    SynthConfig,
    default_three_body,
    default_two_body,
    estimate_rigid_rotations,
    generate_body,
    generate_scene,
    max_abs_measurement,
)

__version__ = "0.1.0"

__all__ = [
    "BodySpec",
    "CameraMotion",
    "ManifestError",
    "NumericalError",
    "ParseError",
    "SceneData",
    "SolverConfig",
    "SolverTrace",
    "SynthConfig",
    "build_affinity",
    "build_neighbor_matrix",
    "default_three_body",
    "default_two_body",
    "estimate_rigid_rotations",
    "generate_body",
    "generate_scene",
    "max_abs_measurement",
    "project",
    "reconstruction_error",
    "reconstruction_error_whole",
    "reprojection_error",
    "segmentation_error",
    "solve",
    "spectral_cluster",
    "to_frame_rows",
    "to_point_columns",
]
