"""ADMM solver for joint multi-body non-rigid reconstruction and segmentation.

The problem couples an orthographic reprojection fit with three structural
priors on the recovered 3D trajectories: a nuclear-norm penalty on the
frame-row reshuffle of the shape stack (low-rank deformation), an l1 penalty
on the self-expression coefficients times the merged [I | D] neighbor
operator (sparse, spatially coherent coefficients), and the affine
self-expression constraints S = S C, 1^T C = 1^T, diag(C) = 0.

Each sweep minimizes the augmented Lagrangian in closed form over the shape
stack (a Sylvester equation), the low-rank copy (singular value
thresholding), the sparsity slack (elementwise shrinkage), and the
coefficients (a second Sylvester equation followed by exact diagonal
zeroing), then performs dual ascent with a geometrically growing penalty
capped at ``beta_max``. Convergence is declared when all four constraint
residuals fall below ``epsilon`` in the elementwise max norm.

The four constraint gaps are written out once, in ``constraint_gaps``, and
``solve`` evaluates them once per sweep, after the coefficient step; the
residuals (their max-abs values) go to the trace, and dual ascent moves each
multiplier by beta times its own gap, in that gap's array, which nothing
reads afterwards. The steps reshuffle between the F x 3P and 3F x P layouts
by reshape views and build their right-hand sides in place, in the order
of the written formulas; the copying, validating ``scene.to_frame_rows``
runs in set-up only. The trace's objective takes its
nuclear norm from the low-rank step: the singular values that SVT
thresholded are the spectrum of the new low-rank copy, so each sweep takes
one partial SVD, and none when ``lambda2`` is 0.

That partial SVD forms only the singular triplets the threshold keeps
(``linalg.svt_with_spectrum``): one LAPACK ``dsyevr`` call returns the
eigenpairs of the min(F, 3P)-square Gram of the F x 3P target above the
squared threshold, and the result is assembled from those alone. Past
``linalg.SVT_GRAM_MAX_RATIO``, where squaring the target would cost too
many digits, the thin SVD runs instead; no benchmark sweep gets there.

Both Sylvester equations have symmetric operands. Inside the loop a P x P
matrix is eigendecomposed only in grid mode with 3F+1 >= P (see below).
The shape step's 3F x 3F left operand R^T R / beta + I is block diagonal,
and the camera is only ever applied per frame. For every beta it has the
eigenvectors of R^T R, so ``solve`` factors the F 3 x 3 blocks R_f^T R_f
once, in set-up, and forms R^T W once; each sweep derives the operand from
those eigenpairs (``SymmetricOperand.scaled``) and forms only its matrix,
for the residual check. The blocks' eigenvalues sit near 1 and 1 + 1/beta,
so the P x P right operand
(I - C)(I - C^T) is solved through one Cholesky factor per cluster, shifted
by the cluster's center (``linalg.CholeskyOperand``). The coefficient step's
left operand is the Gram M^T M + eps I of M = [S; 1^T], (3F+1) x P: when
3F+1 < P it is held as M (``linalg.GramOperand``) and solved by the
Woodbury identity, otherwise it is formed. Its right operand D D^T is
constant over a run, so ``solve`` builds it once.

With a spatial term ``solve`` builds the merged operator straight from
the grid dimensions as an ``EdgeOperator``: [I | D_e], held as a
``scipy.sparse.csr_array``, with one column e_p - e_q per unique
4-neighbor edge, so the slack and its dual are P x (P + E), not P x 5P.
``NeighborMatrix.diff`` holds each edge twice, as +d and -d, plus a zero
column per border direction; shrinkage and negation are exactly odd, so
over a run twin columns stay exact negatives and zero columns stay zero.
The edge form is therefore the same iteration up to summation order, with
each edge weighed by multiplicity 2 where twins add up: the coefficient
right-hand side, the Gram I + 2 D_e D_e^T (equal to I + D D^T), and the
objective's l1 term. The sweep applies [I | D_e] and its weighted
transpose by slicing each row of the product's operand as the h x w grid
(``EdgeOperator.times``), so no step function multiplies by the csr
matrix and their outputs are C-ordered; the csr matrix builds the Gram and
is the tests' oracle for those products. The Gram is held sparse and
eigendecomposed once per solve, in set-up, as a ``linalg.SymmetricOperand``.

A formed left operand (3F+1 >= P) changes with S and is eigendecomposed
every sweep. Shifted Cholesky, as in the shape step, cannot replace that
``eigh``: it takes one factor per cluster of the other operand's
eigenvalues, and the Gram I + 2L (L the grid Laplacian) has eigenvalues
1 + 2 lambda spread over [1, 17) without clusters. The step functions
also take a plain dense or csr [I | D], each column counted once, which
the tests use as the oracle.

Without a spatial term the merged operator is the identity, and ``solve``
passes ``merged=None`` for it: the step functions then skip every product
with it, and its Gram is ``linalg.IdentityOperand``. The coefficient step
is the single SPD system (M^T M + (1 + eps) I) C = rhs, solved by the
Woodbury identity or, with the left operand formed, by one Cholesky factor
(``linalg.CholeskyOperand``).

The camera motion is held fixed throughout; rotations are an input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, sqrt

import numpy as np
import scipy.sparse

from .linalg import (
    CholeskyOperand,
    GramOperand,
    IdentityOperand,
    SymmetricOperand,
    diagonal_view,
    frobenius_norm,
    solve_sylvester,
    soft_threshold,
    svt,  # noqa: F401  unused here; bench/tracing.py wraps mbnrsfm.admm.svt by name
    svt_with_spectrum,
)
from .scene import (
    CameraMotion,
    NeighborMatrix,
    ShapeState,
    _project_checked,
    to_frame_rows,
    validate_measurements,
    validate_shapes,
)


@dataclass(frozen=True)
class EdgeOperator:
    """The grid-mode merged operator [I | D_e]: one column per unique edge.

    ``matrix`` is the P x (P + E) csr [I | D_e]. Column P + k of it is
    e_p - e_q for the k-th 4-neighbor edge (p, q) of the row-major
    ``height`` x ``width`` grid, q the right or lower neighbor of p; the
    horizontal edges come first, so E = h(w-1) + (h-1)w. ``multiplicity``
    is 1 on the identity columns and ``EDGE_MULTIPLICITY`` = 2 on the edge
    columns, which stand for the +d and -d twins of ``NeighborMatrix.diff``
    (the module docstring says why that is exact).

    The sweep applies it by slicing the grid (``times`` and
    ``times_weighted_transpose``); ``matrix`` builds the set-up Gram and is
    the tests' oracle for those products.
    """

    matrix: scipy.sparse.csr_array
    height: int
    width: int

    EDGE_MULTIPLICITY = 2.0

    @classmethod
    def from_grid(cls, height: int, width: int) -> "EdgeOperator":
        index = np.arange(height * width).reshape(height, width)
        first = np.concatenate([index[:, :-1].ravel(), index[:-1, :].ravel()])
        second = np.concatenate([index[:, 1:].ravel(), index[1:, :].ravel()])
        points, edges = index.size, first.size
        cols = np.arange(points, points + edges)
        matrix = scipy.sparse.csr_array(
            (
                np.concatenate([np.ones(points + edges), -np.ones(edges)]),
                (np.concatenate([index.ravel(), first, second]),
                 np.concatenate([np.arange(points), cols, cols])),
            ),
            shape=(points, points + edges),
        )
        return cls(matrix, height, width)

    @property
    def multiplicity(self) -> np.ndarray:
        """The weight of each column: 1 per point, ``EDGE_MULTIPLICITY`` per edge."""
        points, cols = self.matrix.shape
        return np.concatenate([np.ones(points), np.full(cols - points, self.EDGE_MULTIPLICITY)])

    def _blocks(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The point, horizontal-edge and vertical-edge columns of an n x (P + E)
        ``x``, as (n, h, w), (n, h, w-1) and (n, h-1, w) views."""
        h, w = self.height, self.width
        n, points = x.shape[0], h * w
        split = points + h * (w - 1)
        return (x[:, :points].reshape(n, h, w), x[:, points:split].reshape(n, h, w - 1),
                x[:, split:].reshape(n, h - 1, w))

    def times(self, x: np.ndarray) -> np.ndarray:
        """``x @ matrix`` as a C-ordered n x (P + E) array: x, then x_p - x_q per edge."""
        out = np.empty((x.shape[0], self.matrix.shape[1]))
        out[:, : x.shape[1]] = x
        grid, horizontal, vertical = self._blocks(out)
        np.subtract(grid[:, :, :-1], grid[:, :, 1:], out=horizontal)
        np.subtract(grid[:, :-1, :], grid[:, 1:, :], out=vertical)
        return out

    def times_weighted_transpose(self, x: np.ndarray) -> np.ndarray:
        """``(x * multiplicity) @ matrix.T`` as a C-ordered n x P array."""
        _, horizontal, vertical = self._blocks(x)
        out = x[:, : self.height * self.width].copy()
        grid = out.reshape(x.shape[0], self.height, self.width)
        for edges, head, tail in ((horizontal, grid[:, :, :-1], grid[:, :, 1:]),
                                  (vertical, grid[:, :-1, :], grid[:, 1:, :])):
            weighted = self.EDGE_MULTIPLICITY * edges
            head += weighted
            tail -= weighted
        return out


# The merged operator [I | D] as the step functions take it: dense or csr
# (every column counted once), the grid's EdgeOperator, or None for the
# identity of sparse mode.
Merged = np.ndarray | scipy.sparse.csr_array | EdgeOperator | None

# Diagonal shift that keeps the coefficient subproblem's left operand
# strictly positive definite.
COEFF_STABILIZER = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of one solver run.

    ``lambda1`` weighs the l1 sparsity term, ``lambda2`` the nuclear norm;
    ``lambda2=None`` resolves to 1/sqrt(3 * max(F, P)) at solve time. The
    penalty starts at ``beta0`` and grows by ``rho`` per iteration up to
    ``beta_max``. These defaults are tuning starting points, not values
    carried over from any reference; override freely.

    The ADMM is deterministic, so there is no seed here; the run manifest's
    ``seed`` drives scene generation and the k-means restarts of clustering.
    """

    lambda1: float = 1e-4
    lambda2: float | None = None
    beta0: float = 1e-2
    rho: float = 1.05
    beta_max: float = 1e6
    epsilon: float = 1e-4
    max_iters: int = 500

    def __post_init__(self):
        # Written as "not (valid)" so that NaN fails every check. beta0 is
        # finite because it is bounded by a finite beta_max.
        if not 0 <= self.lambda1 < inf:
            raise ValueError(f"lambda1 must be finite and nonnegative, got {self.lambda1}")
        if self.lambda2 is not None and not 0 <= self.lambda2 < inf:
            raise ValueError(f"lambda2 must be finite and nonnegative, got {self.lambda2}")
        if not self.beta0 > 0:
            raise ValueError(f"beta0 must be positive, got {self.beta0}")
        if not 1 < self.rho < inf:
            raise ValueError(f"rho must be finite and exceed 1, got {self.rho}")
        if not self.beta_max < inf:
            raise ValueError(f"beta_max must be finite, got {self.beta_max}")
        if not self.beta_max >= self.beta0:
            raise ValueError(
                f"beta_max ({self.beta_max}) must be at least beta0 ({self.beta0})"
            )
        if not 0 < self.epsilon < inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        # bool is an int subclass, but True is no iteration count.
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 0):
            raise ValueError(f"max_iters must be a nonnegative integer, got {self.max_iters!r}")

    def nuclear_weight(self, frames: int, points: int) -> float:
        """The nuclear-norm weight in effect for an F x P scene."""
        if self.lambda2 is not None:
            return self.lambda2
        return 1.0 / sqrt(3.0 * max(frames, points))


@dataclass(frozen=True)
class DualState:
    """Lagrange multipliers of the four equality constraints plus the penalty.

    ``y_reshuffle`` is F x 3P (low-rank copy vs reshuffled stack),
    ``y_selfexpr`` is 3F x P (S = S C), ``y_slack`` is P x M with M the
    merged-operator column count (P + E for a grid with E unique edges, P
    without a spatial term), and ``y_colsum`` is a length-P row for the
    affine column sums.
    """

    y_reshuffle: np.ndarray
    y_selfexpr: np.ndarray
    y_slack: np.ndarray
    y_colsum: np.ndarray
    beta: float

    @classmethod
    def zeros(cls, frames: int, points: int, slack_cols: int, beta0: float) -> "DualState":
        return cls(
            y_reshuffle=np.zeros((frames, 3 * points)),
            y_selfexpr=np.zeros((3 * frames, points)),
            y_slack=np.zeros((points, slack_cols)),
            y_colsum=np.zeros(points),
            beta=beta0,
        )

    @property
    def multipliers(self) -> tuple:
        """The four multipliers, in the order of ``constraint_gaps``."""
        return self.y_reshuffle, self.y_selfexpr, self.y_slack, self.y_colsum


@dataclass
class AdmmState:
    """All primal variables of one iteration plus the duals."""

    shapes: np.ndarray      # 3F x P stack S
    lowrank: np.ndarray     # F x 3P copy under the nuclear penalty
    slack: np.ndarray       # P x M l1 slack for coeffs @ merged operator, M = P + E on a grid
    coeffs: np.ndarray      # P x P self-expression matrix
    duals: DualState


@dataclass
class SolverTrace:
    """Per-iteration history: objective, the four residuals, and the penalty.

    Residual columns: r1 = reshuffle coupling, r2 = self-expression,
    r3 = slack split, r4 = affine column sums (all elementwise max norms).
    """

    iterations: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    r1: list = field(default_factory=list)
    r2: list = field(default_factory=list)
    r3: list = field(default_factory=list)
    r4: list = field(default_factory=list)
    beta: list = field(default_factory=list)
    converged: bool = False

    def append(self, iteration, objective, residuals, beta):
        self.iterations.append(iteration)
        self.objective.append(objective)
        r1, r2, r3, r4 = residuals
        self.r1.append(r1)
        self.r2.append(r2)
        self.r3.append(r3)
        self.r4.append(r4)
        self.beta.append(beta)

    def __len__(self):
        return len(self.iterations)

    def max_residuals(self) -> list:
        """Elementwise max over the four residual columns, per iteration."""
        return [max(vals) for vals in zip(self.r1, self.r2, self.r3, self.r4)]


def _camera_gram(camera: CameraMotion) -> SymmetricOperand:
    """The stack of F blocks R_f^T R_f, factored once by one batched ``eigh``."""
    blocks = camera.blocks
    return SymmetricOperand(np.einsum("fji,fjk->fik", blocks, blocks))


def _backproject(w: np.ndarray, camera: CameraMotion) -> np.ndarray:
    """R^T W, 3F x P, formed frame by frame."""
    blocks = camera.blocks
    frames, points = blocks.shape[0], w.shape[1]
    backprojected = np.einsum("fji,fjp->fip", blocks, w.reshape(frames, 2, points))
    return backprojected.reshape(3 * frames, points)


def update_shapes(
    state: AdmmState,
    w: np.ndarray,
    camera: CameraMotion,
    camera_gram: SymmetricOperand | None = None,
    backprojected: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form shape update.

    Solves the Sylvester equation stationarity condition of the shape
    subproblem,

        (R^T R / beta + I) S + S (I - C)(I - C^T)
            = R^T W / beta + ginv(lowrank) + ginv(y_reshuffle) / beta
              - (y_selfexpr / beta)(I - C^T),

    where R is the 2F x 3F block-diagonal camera and ginv is the
    frame-row-to-stack reshuffle. R is never assembled: the left operand is
    the stack of F blocks R_f^T R_f / beta + I, and R^T W is formed frame
    by frame. For every beta the left operand has the eigenvectors of
    R^T R, so it is derived from ``camera_gram``, the factored stack of
    blocks R_f^T R_f (``SymmetricOperand.scaled``), and only its matrix is
    formed. ``camera_gram`` and ``backprojected`` (R^T W) are constant over
    a run, so ``solve`` builds them once and passes them in; when omitted
    they are built here. The right operand is solved by Cholesky factors
    shifted by the clusters of the left eigenvalues (about 1 and 1 + 1/beta
    for orthonormal camera rows).
    """
    beta = state.duals.beta
    points = w.shape[1]
    if camera_gram is None:
        camera_gram = _camera_gram(camera)
    if backprojected is None:
        backprojected = _backproject(w, camera)
    left = camera_gram.scaled(1.0 / beta, 1.0)
    ic = np.eye(points) - state.coeffs
    right = CholeskyOperand(ic @ ic.T)
    # R^T W / beta + ginv(lowrank) + ginv(y_reshuffle) / beta
    # - (y_selfexpr / beta)(I - C^T), summed left to right in place.
    rhs = backprojected / beta
    rhs += state.lowrank.reshape(rhs.shape)
    scaled_dual = np.divide(state.duals.y_reshuffle.reshape(rhs.shape), beta)
    rhs += scaled_dual
    np.divide(state.duals.y_selfexpr, beta, out=scaled_dual)
    rhs -= scaled_dual @ ic.T
    return solve_sylvester(left, right, rhs)


def update_lowrank(
    state: AdmmState, config: SolverConfig
) -> tuple[np.ndarray, np.ndarray | None]:
    """Nuclear-norm proximal update of the frame-row copy.

    Returns svt(g(S) - y_reshuffle / beta, lambda2 / beta) together with its
    singular values, the thresholded spectrum of the SVT (None when
    lambda2 is 0, where no SVD is taken).
    """
    beta = state.duals.beta
    frames = state.lowrank.shape[0]
    points = state.coeffs.shape[0]
    lam2 = config.nuclear_weight(frames, points)
    target = state.duals.y_reshuffle / beta
    np.subtract(state.shapes.reshape(target.shape), target, out=target)
    return svt_with_spectrum(target, lam2 / beta)


def _times_merged(x: np.ndarray, merged: Merged) -> np.ndarray:
    """``x @ merged``, where ``merged=None`` stands for the identity."""
    if isinstance(merged, EdgeOperator):
        return merged.times(x)
    return x if merged is None else x @ merged


def _times_merged_transpose(x: np.ndarray, merged: Merged) -> np.ndarray:
    """``x @ diag(multiplicity) @ merged.T``; the multiplicity is 1 unless
    ``merged`` is an EdgeOperator."""
    if isinstance(merged, EdgeOperator):
        return merged.times_weighted_transpose(x)
    return x if merged is None else x @ merged.T


def _weighted_sum(x: np.ndarray, merged: Merged) -> float:
    """The sum of a slack-shaped ``x``, each column counted by its multiplicity."""
    if isinstance(merged, EdgeOperator):
        return (x @ merged.multiplicity).sum()
    return x.sum()


def _merged_gram(merged: Merged, points: int) -> SymmetricOperand | IdentityOperand:
    """The coefficient step's right operand D diag(multiplicity) D^T.

    For an EdgeOperator this is I + 2 D_e D_e^T, the same matrix as
    I + D D^T of the full ``NeighborMatrix.diff``.
    """
    if merged is None:
        return IdentityOperand(points)
    if isinstance(merged, EdgeOperator):
        weighted = merged.matrix.copy()
        weighted.data *= merged.multiplicity[weighted.indices]
        return SymmetricOperand(weighted @ merged.matrix.T)
    return SymmetricOperand(merged @ merged.T)


def update_slack(state: AdmmState, merged: Merged, config: SolverConfig) -> np.ndarray:
    """Elementwise shrinkage update of the l1 slack.

    Returns soft_threshold(C @ merged + y_slack / beta, lambda1 / beta).
    """
    beta = state.duals.beta
    # y_slack / beta + C merged, the same sum: IEEE addition commutes.
    target = state.duals.y_slack / beta
    target += _times_merged(state.coeffs, merged)
    return soft_threshold(target, config.lambda1 / beta)


def solve_coeff_subproblem(
    state: AdmmState,
    merged: Merged,
    merged_gram: SymmetricOperand | IdentityOperand | None = None,
) -> np.ndarray:
    """Closed-form coefficient update before diagonal zeroing.

    Solves

        (S^T S + 1 1^T) C + C (D D^T)
            = S^T (S + y_selfexpr / beta) + (E - y_slack / beta) D^T
              + 1 1^T - 1 y_colsum / beta

    with D the merged operator and E the slack; a tiny diagonal shift keeps
    the left operand strictly positive definite. The left operand is the
    Gram of M = [S; 1^T]: with fewer than P rows in M it is held as M and
    solved by the Woodbury identity, otherwise it is formed, and factored
    by Cholesky against the identity or eigendecomposed against any other
    D D^T. ``merged=None`` stands for D = I. For an EdgeOperator both D D^T
    and (E - y_slack / beta) D^T weigh each column by its multiplicity.
    ``merged_gram`` is that right operand (``_merged_gram``); it is
    constant over a run, so ``solve`` builds it once and passes it in.
    When omitted it is built here.
    """
    beta = state.duals.beta
    points = state.coeffs.shape[0]
    if merged_gram is None:
        merged_gram = _merged_gram(merged, points)
    m = np.empty((state.shapes.shape[0] + 1, points))
    m[:-1] = state.shapes
    m[-1] = 1.0
    if m.shape[0] < points:
        left = GramOperand(m, COEFF_STABILIZER)
    else:
        formed = m.T @ m
        diagonal = diagonal_view(formed)
        diagonal += COEFF_STABILIZER
        plus_identity = isinstance(merged_gram, IdentityOperand)
        left = (CholeskyOperand if plus_identity else SymmetricOperand)(formed)
    # S^T (S + y_selfexpr / beta) + (E - y_slack / beta) D^T + 1 1^T
    # - 1 y_colsum / beta, summed left to right in place; IEEE addition
    # commutes, so y_selfexpr / beta + S is S + y_selfexpr / beta.
    shifted = state.duals.y_selfexpr / beta
    shifted += state.shapes
    rhs = state.shapes.T @ shifted
    slack = state.duals.y_slack / beta
    np.subtract(state.slack, slack, out=slack)
    rhs += _times_merged_transpose(slack, merged)
    rhs += 1.0
    rhs -= state.duals.y_colsum / beta
    return solve_sylvester(left, merged_gram, rhs)


def update_coefficients(
    state: AdmmState,
    merged: Merged,
    merged_gram: SymmetricOperand | IdentityOperand | None = None,
) -> np.ndarray:
    """Coefficient update: subproblem solution with the diagonal zeroed exactly."""
    coeffs = solve_coeff_subproblem(state, merged, merged_gram)
    diagonal_view(coeffs)[:] = 0.0
    return coeffs


def constraint_gaps(state: AdmmState, merged: Merged) -> tuple:
    """The four constraint gaps, in ``DualState.multipliers`` order."""
    selfexpr = state.shapes @ state.coeffs
    np.subtract(state.shapes, selfexpr, out=selfexpr)
    colsum = state.coeffs.sum(axis=0)
    colsum -= 1.0
    return (
        state.lowrank - state.shapes.reshape(state.lowrank.shape),
        selfexpr,
        _times_merged(state.coeffs, merged) - state.slack,
        colsum,
    )


def constraint_residuals(gaps: tuple) -> tuple:
    """The four constraint violations in the elementwise max norm."""
    # The same value as np.abs(gap).max() without its temporary; abs() turns
    # an all-zero gap's possible -0.0 into 0.0.
    return tuple(abs(max(gap.max(), -gap.min())) for gap in gaps)


def update_duals(duals: DualState, gaps: tuple, config: SolverConfig) -> DualState:
    """Dual ascent y + beta * gap on all four constraints, then the capped penalty growth.

    Each new multiplier is computed in place in its gap array, which the
    returned state then holds: ``gaps`` is used up.
    """
    beta = duals.beta
    for y, gap in zip(duals.multipliers, gaps):
        # beta * gap + y: the same products and sums as y + beta * gap.
        gap *= beta
        gap += y
    return DualState(*gaps, beta=min(config.beta_max, config.rho * beta))


def objective_value(
    w: np.ndarray,
    camera: CameraMotion,
    state: AdmmState,
    config: SolverConfig,
    spectrum: np.ndarray | None = None,
    merged: Merged = None,
) -> float:
    """The unconstrained cost: reprojection fit plus both structural penalties.

    ``spectrum`` is the singular values of ``state.lowrank`` when the caller
    already has them, as ``solve`` does from the low-rank step; without it
    they are computed here by SVD. A zero nuclear weight needs neither.
    ``merged`` is the operator of the slack: the l1 term counts each slack
    column by its multiplicity, which is 1 unless it is an EdgeOperator.
    """
    frames = state.lowrank.shape[0]
    points = state.coeffs.shape[0]
    lam2 = config.nuclear_weight(frames, points)
    # The sweep verified ``state.shapes`` already: project without re-checking.
    misfit = _project_checked(camera, state.shapes)
    np.subtract(w, misfit, out=misfit)
    fit = 0.5 * frobenius_norm(misfit) ** 2
    sparsity = config.lambda1 * _weighted_sum(np.abs(state.slack), merged)
    if lam2 == 0:
        nuclear = 0.0
    elif spectrum is None:
        nuclear = lam2 * np.linalg.svd(state.lowrank, compute_uv=False).sum()
    else:
        nuclear = lam2 * spectrum.sum()
    return float(fit + sparsity + nuclear)


def augmented_lagrangian(
    w: np.ndarray, camera: CameraMotion, state: AdmmState, merged: Merged, config: SolverConfig
) -> float:
    """Full augmented Lagrangian value at the given state (diagnostic)."""
    beta = state.duals.beta
    value = objective_value(w, camera, state, config, merged=merged)
    gaps = constraint_gaps(state, merged)
    # Only the slack pair is weighed by the operator's multiplicity.
    for y, gap, weigh in zip(state.duals.multipliers, gaps, (None, None, merged, None)):
        value += _weighted_sum(y * gap, weigh) + 0.5 * beta * _weighted_sum(gap**2, weigh)
    return float(value)


def pseudo_inverse_shapes(w: np.ndarray, camera: CameraMotion) -> np.ndarray:
    """Per-frame minimum-norm backprojection S_f = R_f^T (R_f R_f^T)^-1 W_f."""
    frames = camera.frames
    points = w.shape[1]
    out = np.empty((3 * frames, points))
    for f in range(frames):
        block = camera.blocks[f]
        gram = block @ block.T
        out[3 * f : 3 * f + 3] = block.T @ np.linalg.solve(gram, w[2 * f : 2 * f + 2])
    return out


def solve(
    w,
    camera: CameraMotion,
    neighbors: NeighborMatrix | None,
    config: SolverConfig,
    init_shapes=None,
) -> tuple[ShapeState, np.ndarray, SolverTrace]:
    """Run the full ADMM and return (shape state, coefficients, trace).

    ``neighbors=None`` drops the spatial term; the merged operator then
    degenerates to the identity, held as ``merged=None``, and the slack
    simply mirrors the coefficients. Non-convergence within ``max_iters`` is
    not an error: the best-so-far state is returned with ``trace.converged``
    False, and downstream clustering remains meaningful.

    ``init_shapes`` overrides the default per-frame backprojection start,
    e.g. with an externally computed initialization.
    """
    w = validate_measurements(w)
    frames = camera.frames
    if w.shape[0] != 2 * frames:
        raise ValueError(
            f"measurement matrix has {w.shape[0]} rows but camera has {frames} frames"
        )
    points = w.shape[1]
    if neighbors is not None and neighbors.points != points:
        raise ValueError(
            f"neighbor matrix covers {neighbors.points} points, scene has {points}"
        )
    if neighbors is None:
        merged, slack_cols = None, points
    else:
        merged = EdgeOperator.from_grid(neighbors.grid_height, neighbors.grid_width)
        slack_cols = merged.matrix.shape[1]
    merged_gram = _merged_gram(merged, points)
    camera_gram = _camera_gram(camera)
    backprojected = _backproject(w, camera)

    if init_shapes is None:
        shapes = pseudo_inverse_shapes(w, camera)
    else:
        shapes = validate_shapes(init_shapes, "initial shapes")
        if shapes.shape != (3 * frames, points):
            raise ValueError(
                f"initial shapes must be {3 * frames} x {points}, got {shapes.shape}"
            )
        shapes = shapes.copy()

    state = AdmmState(
        shapes=shapes,
        lowrank=to_frame_rows(shapes),
        slack=np.zeros((points, slack_cols)),
        coeffs=np.zeros((points, points)),
        duals=DualState.zeros(frames, points, slack_cols, config.beta0),
    )
    trace = SolverTrace()

    for iteration in range(1, config.max_iters + 1):
        state.shapes = update_shapes(state, w, camera, camera_gram, backprojected)
        state.lowrank, spectrum = update_lowrank(state, config)
        state.slack = update_slack(state, merged, config)
        state.coeffs = update_coefficients(state, merged, merged_gram)
        gaps = constraint_gaps(state, merged)
        residuals = constraint_residuals(gaps)
        objective = objective_value(w, camera, state, config, spectrum, merged)
        trace.append(iteration, objective, residuals, state.duals.beta)
        state.duals = update_duals(state.duals, gaps, config)
        # Freed now so the gaps never coexist with the next sweep's temporaries.
        del gaps
        if max(residuals) <= config.epsilon:
            trace.converged = True
            break

    return ShapeState(state.shapes), state.coeffs, trace
