"""Scene data types and structural operators.

Conventions used throughout the package:

* measurement matrix: 2F x P, rows (2f, 2f+1) hold the (u, v) image
  coordinates of frame f for all P tracked points (zero-based);
* shape stack: 3F x P, rows (3f, 3f+1, 3f+2) hold the (x, y, z) world
  coordinates of frame f;
* frame-row layout: F x 3P, row f is the concatenation
  [x_1..x_P | y_1..y_P | z_1..z_P] of frame f.

Tracks are assumed zero-centered per frame (no translation); the CLI
applies that centering when importing measurement files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

ROTATION_ORTHO_TOL = 1e-8
# Float labels must stay below this in magnitude to cast to int64.
_INT64_BOUND = 2.0**63

# Fixed 4-neighborhood scan order: up, left, right, down.
_NEIGHBOR_STEPS = ((-1, 0), (0, -1), (0, 1), (1, 0))


def validate_measurements(w) -> np.ndarray:
    """Check a 2F x P measurement matrix and return it as float64."""
    mat = as_matrix(w, "measurement matrix")
    if mat.shape[0] % 2 != 0:
        raise ValueError(
            f"measurement matrix needs an even row count (2 per frame), got {mat.shape[0]}"
        )
    return mat


def validate_shapes(s, name: str = "shape stack") -> np.ndarray:
    """Check a 3F x P shape stack and return it as float64."""
    mat = as_matrix(s, name)
    if mat.shape[0] % 3 != 0:
        raise ValueError(f"{name} needs a row count divisible by 3, got {mat.shape[0]}")
    return mat


def validate_labels(labels, num_points: int | None = None) -> np.ndarray:
    """Check a vector of nonnegative integer cluster ids."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"labels must be a non-empty 1-D vector, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        # Whole values inside int64's range only: NaN fails the first test,
        # inf and values too large to cast the second.
        if not np.all((arr == np.floor(arr)) & (np.abs(arr) < _INT64_BOUND)):
            raise ValueError("labels must be integers")
        arr = arr.astype(np.int64)
    if np.any(arr < 0):
        raise ValueError("labels must be nonnegative")
    if num_points is not None and arr.size != num_points:
        raise ValueError(f"expected {num_points} labels, got {arr.size}")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class CameraMotion:
    """Per-frame orthographic cameras: the top two rows of each rotation.

    ``blocks`` has shape (F, 2, 3); every block must have orthonormal rows
    within ROTATION_ORTHO_TOL.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[1:] != (2, 3) or blocks.shape[0] == 0:
            raise ValueError(f"camera blocks must have shape (F, 2, 3), got {blocks.shape}")
        if not np.all(np.isfinite(blocks)):
            raise ValueError("camera blocks contain non-finite entries")
        grams = np.einsum("fij,fkj->fik", blocks, blocks)
        defect = np.abs(grams - np.eye(2)).max()
        if defect > ROTATION_ORTHO_TOL:
            raise ValueError(
                f"camera blocks are not row-orthonormal (defect {defect:.3e} "
                f"> {ROTATION_ORTHO_TOL:.0e})"
            )
        object.__setattr__(self, "blocks", blocks)

    @property
    def frames(self) -> int:
        return self.blocks.shape[0]

    @classmethod
    def identity(cls, frames: int) -> "CameraMotion":
        """Axis-aligned cameras: every block is [[1,0,0],[0,1,0]]."""
        block = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        return cls(np.broadcast_to(block, (frames, 2, 3)).copy())

    @classmethod
    def from_stacked(cls, stacked) -> "CameraMotion":
        """Build from a 2F x 3 matrix of vertically stacked 2 x 3 blocks."""
        mat = as_matrix(stacked, "stacked camera blocks")
        if mat.shape[1] != 3 or mat.shape[0] % 2 != 0:
            raise ValueError(f"stacked camera blocks must be 2F x 3, got {mat.shape}")
        return cls(mat.reshape(-1, 2, 3))

    def stacked(self) -> np.ndarray:
        """The 2F x 3 vertical stack of blocks (the on-disk layout)."""
        return self.blocks.reshape(-1, 3).copy()

    def block_diagonal(self) -> np.ndarray:
        """Assemble the 2F x 3F block-diagonal motion matrix."""
        f = self.frames
        out = np.zeros((2 * f, 3 * f))
        for i in range(f):
            out[2 * i : 2 * i + 2, 3 * i : 3 * i + 3] = self.blocks[i]
        return out


def to_frame_rows(shapes) -> np.ndarray:
    """Reshuffle a 3F x P shape stack into the F x 3P frame-row layout."""
    mat = validate_shapes(shapes)
    frames = mat.shape[0] // 3
    return mat.reshape(frames, 3 * mat.shape[1]).copy()


def to_point_columns(frame_rows) -> np.ndarray:
    """Inverse reshuffle: F x 3P frame rows back to the 3F x P stack."""
    mat = as_matrix(frame_rows, "frame-row matrix")
    if mat.shape[1] % 3 != 0:
        raise ValueError(
            f"frame-row matrix needs a column count divisible by 3, got {mat.shape[1]}"
        )
    points = mat.shape[1] // 3
    return mat.reshape(3 * mat.shape[0], points).copy()


def project(camera: CameraMotion, shapes) -> np.ndarray:
    """Orthographic projection of a shape stack: per frame, W_f = R_f S_f."""
    mat = validate_shapes(shapes)
    frames = mat.shape[0] // 3
    if frames != camera.frames:
        raise ValueError(
            f"camera has {camera.frames} frames but shapes have {frames}"
        )
    return _project_checked(camera, mat)


def _project_checked(camera: CameraMotion, mat: np.ndarray) -> np.ndarray:
    """``project`` of a float64 3F x P stack already checked against ``camera``."""
    frames = camera.frames
    per_frame = mat.reshape(frames, 3, mat.shape[1])
    w = np.einsum("fij,fjp->fip", camera.blocks, per_frame)
    return w.reshape(2 * frames, mat.shape[1])


@dataclass(frozen=True)
class ShapeState:
    """A published solver shape: the 3F x P stack.

    ``frame_rows`` derives the F x 3P frame-row layout on demand.
    """

    shapes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shapes", validate_shapes(self.shapes))

    @property
    def frame_rows(self) -> np.ndarray:
        return to_frame_rows(self.shapes)

    @property
    def frames(self) -> int:
        return self.shapes.shape[0] // 3

    @property
    def points(self) -> int:
        return self.shapes.shape[1]


@dataclass(frozen=True)
class NeighborMatrix:
    """Grid 4-neighbor difference operator.

    ``diff`` is P x 4P: for point p and direction d (up, left, right, down)
    column 4p + d carries +1 at row p and -1 at the neighbor row, or is all
    zero when the neighbor falls off the grid border.
    """

    diff: np.ndarray
    grid_height: int
    grid_width: int

    def __post_init__(self):
        # The solver rebuilds the operator from the grid dimensions, so a
        # diff that does not fit them would silently change the problem.
        dims = (self.grid_height, self.grid_width)
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1
                   for d in dims):
            raise ValueError(f"grid dimensions must be positive integers, got {dims}")
        points = self.grid_height * self.grid_width
        if np.shape(self.diff) != (points, 4 * points):
            raise ValueError(
                f"a {self.grid_height} x {self.grid_width} grid needs a "
                f"{points} x {4 * points} diff, got {np.shape(self.diff)}"
            )

    @property
    def points(self) -> int:
        return self.diff.shape[0]


def build_neighbor_matrix(grid_height: int, grid_width: int) -> NeighborMatrix:
    """Construct the 4-neighbor difference matrix for a row-major grid.

    Per direction, the points whose neighbor lies on the grid form one
    rectangle of the grid; their columns are filled by one index assignment
    each for the +1 and the -1 entries.
    """
    if grid_height < 1 or grid_width < 1:
        raise ValueError(
            f"grid must be at least 1 x 1, got {grid_height} x {grid_width}"
        )
    points = grid_height * grid_width
    index = np.arange(points).reshape(grid_height, grid_width)
    diff = np.zeros((points, 4 * points))
    for d, (dr, dc) in enumerate(_NEIGHBOR_STEPS):
        p = index[max(-dr, 0) : grid_height - max(dr, 0),
                  max(-dc, 0) : grid_width - max(dc, 0)].ravel()
        diff[p, 4 * p + d] = 1.0
        diff[p + dr * grid_width + dc, 4 * p + d] = -1.0
    return NeighborMatrix(diff, grid_height, grid_width)


def extend_with_identity(
    neighbors: NeighborMatrix | None, num_points: int | None = None
) -> np.ndarray:
    """Merge the identity with the neighbor differences: [I | D], P x 5P.

    With ``neighbors`` absent (sparse tracks, no spatial term) the extension
    degenerates to the P x P identity; ``num_points`` must then be given.
    """
    if neighbors is None:
        if num_points is None:
            raise ValueError("num_points is required when no neighbor matrix is given")
        return np.eye(num_points)
    return np.hstack([np.eye(neighbors.points), neighbors.diff])
