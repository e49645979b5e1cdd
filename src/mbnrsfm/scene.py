"""Scene data types and structural operators.

Conventions used throughout the package:

* measurement matrix: 2F x P, rows (2f, 2f+1) hold the (u, v) image
  coordinates of frame f for all P tracked points (zero-based);
* shape stack: 3F x P, rows (3f, 3f+1, 3f+2) hold the (x, y, z) world
  coordinates of frame f;
* frame-row layout: F x 3P, row f is the concatenation
  [x_1..x_P | y_1..y_P | z_1..z_P] of frame f.

Tracks are assumed zero-centered per frame (no translation). ``admm.solve``
centres nothing: ``pipeline._acquire_scene`` row-centres every W, synth or
file, and the solve and pipeline commands write the means to centering.mtx.

Grid-organized tracks add a spatial term through ``EdgeOperator``, the
merged operator [I | D_e] over the unique 4-neighbor edges of a row-major
grid, which ``build_neighbor_matrix`` returns. It holds the grid's two
dimensions and nothing else; its docstring says why one column per edge,
weighed twice, is exact against the full 4-neighbor operator. It applies
that weight itself: in its products, in ``weighted_sum`` and in ``gram``,
the coefficient step's right operand, held as the Kronecker sum of two
path-Laplacian terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import KroneckerSumOperand, as_matrix

ROTATION_ORTHO_TOL = 1e-8
# Float labels must stay below this in magnitude to cast to int64.
_INT64_BOUND = 2.0**63


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
    """Check a vector of nonnegative integer cluster ids; booleans and text are not ids."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"labels must be a non-empty 1-D vector, got shape {arr.shape}")
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
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
class EdgeOperator:
    """The grid-mode merged operator [I | D_e]: one column per unique edge.

    It holds only the row-major ``height`` x ``width`` grid; every product
    is taken by slicing the grid. Column P + k of [I | D_e] is e_p - e_q
    for the k-th 4-neighbor edge (p, q), q the right or lower neighbor of
    p; the horizontal edges come first, so there are ``columns`` =
    P + E columns, E = h(w-1) + (h-1)w.

    The full 4-neighbor difference operator D (P x 4P, the tests' oracle)
    has, for point p and direction d (up, left, right, down), a column
    4p + d with +1 at row p and -1 at the neighbor row, or an all-zero
    column where the neighbor falls off the grid. So it holds each edge
    twice, as +d and -d, plus the zero border columns. Shrinkage and
    negation are exactly odd, so over an ADMM run twin columns of the slack
    and its dual stay exact negatives and zero columns stay zero. The edge
    form is therefore the same iteration up to summation order, with each
    edge weighed by ``EDGE_MULTIPLICITY`` = 2 where twins add up: the
    coefficient right-hand side, the Gram I + 2 D_e D_e^T (equal to
    I + D D^T), and the objective's l1 term. ``multiplicity`` is that
    weight per column, 1 on the identity columns; ``gram`` and
    ``weighted_sum`` apply it.
    """

    height: int
    width: int

    EDGE_MULTIPLICITY = 2.0

    def __post_init__(self):
        # bool is an int subclass, but True is no grid dimension.
        dims = (self.height, self.width)
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1
                   for d in dims):
            raise ValueError(f"grid dimensions must be positive integers, got {dims}")

    @property
    def points(self) -> int:
        return self.height * self.width

    @property
    def columns(self) -> int:
        """P + E: one column per point, then one per unique edge."""
        h, w = self.height, self.width
        return h * w + h * (w - 1) + (h - 1) * w

    @property
    def multiplicity(self) -> np.ndarray:
        """The weight of each column: 1 per point, ``EDGE_MULTIPLICITY`` per edge."""
        points = self.points
        return np.concatenate([np.ones(points),
                               np.full(self.columns - points, self.EDGE_MULTIPLICITY)])

    def weighted_sum(self, x: np.ndarray) -> float:
        """The sum of an n x (P + E) ``x``, each column counted by its multiplicity."""
        return (x @ self.multiplicity).sum()

    def gram(self) -> KroneckerSumOperand:
        """The Gram I + 2 D_e D_e^T of [I | D_e], each column weighed by its multiplicity.

        It is the same matrix as I + D D^T of the full 4-neighbor operator
        D. D_e D_e^T is the grid Laplacian L, the Kronecker sum of the h-
        and w-node path Laplacians L_h and L_w, so the Gram is held as the
        Kronecker sum of its two terms I + 2 L_h and 2 L_w. Its eigenbasis
        is therefore V_h (x) V_w, the separable 2-D DCT-II basis (Strang,
        *The Discrete Cosine Transform*, SIAM Review 1999), with eigenvalues
        1 + 2 (l_i + l_j): only the h x h and w x w terms are
        eigendecomposed, and each rotation of an r x P array is two small
        products on its (r, h, w) view instead of a P x P GEMM. The terms
        hold small integers, so they are the exact Gram.
        """
        weight = self.EDGE_MULTIPLICITY
        first = np.eye(self.height) + weight * _path_laplacian(self.height)
        second = weight * _path_laplacian(self.width)
        return KroneckerSumOperand(first, second)

    def _blocks(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The point, horizontal-edge and vertical-edge columns of an n x (P + E)
        ``x``, as (n, h, w), (n, h, w-1) and (n, h-1, w) views."""
        h, w = self.height, self.width
        n, points = x.shape[0], h * w
        split = points + h * (w - 1)
        return (x[:, :points].reshape(n, h, w), x[:, points:split].reshape(n, h, w - 1),
                x[:, split:].reshape(n, h - 1, w))

    def times(self, x: np.ndarray) -> np.ndarray:
        """``x @ [I | D_e]`` as a C-ordered n x (P + E) array: x, then x_p - x_q per edge."""
        out = np.empty((x.shape[0], self.columns))
        out[:, : x.shape[1]] = x
        grid, horizontal, vertical = self._blocks(out)
        np.subtract(grid[:, :, :-1], grid[:, :, 1:], out=horizontal)
        np.subtract(grid[:, :-1, :], grid[:, 1:, :], out=vertical)
        return out

    def times_weighted_transpose(self, x: np.ndarray) -> np.ndarray:
        """``(x * multiplicity) @ [I | D_e]^T`` as a C-ordered n x P array."""
        _, horizontal, vertical = self._blocks(x)
        out = x[:, : self.points].copy()
        grid = out.reshape(x.shape[0], self.height, self.width)
        for edges, head, tail in ((horizontal, grid[:, :, :-1], grid[:, :, 1:]),
                                  (vertical, grid[:, :-1, :], grid[:, 1:, :])):
            weighted = self.EDGE_MULTIPLICITY * edges
            head += weighted
            tail -= weighted
            # Freed before the next direction's is formed.
            del weighted
        return out


def _path_laplacian(n: int) -> np.ndarray:
    """The n x n Laplacian of a path of n nodes, d^T d for its (n-1) x n difference matrix d."""
    differences = np.diff(np.eye(n), axis=0)
    return differences.T @ differences


def build_neighbor_matrix(grid_height: int, grid_width: int) -> EdgeOperator:
    """The merged 4-neighbor operator [I | D_e] of a row-major grid.

    Nothing is formed: the operator holds the two dimensions, which must be
    positive integers, and applies itself by slicing the grid.
    """
    return EdgeOperator(grid_height, grid_width)
