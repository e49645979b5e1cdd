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
multiplier by beta times its own gap. The trace's objective takes its
nuclear norm from the low-rank step: the singular values that SVT
thresholded are the spectrum of the new low-rank copy, so each sweep takes
one SVD, and none when ``lambda2`` is 0.

Both Sylvester equations have symmetric operands, and no P x P matrix is
eigendecomposed inside the loop. The shape step's 3F x 3F left operand is
block diagonal, so it is factored as F separate 3 x 3 blocks and the camera
is only ever applied per frame; the blocks' eigenvalues sit near 1 and
1 + 1/beta, so the P x P right operand (I - C)(I - C^T) is solved through
one Cholesky factor per cluster, shifted by the cluster's center
(``linalg.CholeskyOperand``). The coefficient step's left operand is the
Gram M^T M + eps I of M = [S; 1^T], (3F+1) x P (``linalg.GramOperand``):
when 3F+1 < P only the (3F+1)-square M M^T is factored and the solve uses
the Woodbury identity, otherwise the P x P operand is factored as before.
Its right operand D D^T is constant over a run and is factored once per
``solve``.

With a spatial term the merged operator [I | D] has at most two nonzeros
per column, so ``solve`` holds it as a ``scipy.sparse.csr_array`` and each
product with it costs O(P) per row of the left factor instead of O(P^2).
The step functions only use ``@`` and ``.T`` on it, so they accept a dense
or a sparse operator alike. Without a spatial term it stays the dense
identity.

The camera motion is held fixed throughout; rotations are an input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np
import scipy.sparse

from .linalg import (
    CholeskyOperand,
    GramOperand,
    SymmetricOperand,
    solve_sylvester,
    soft_threshold,
    svt,  # noqa: F401  unused here; bench/tracing.py wraps mbnrsfm.admm.svt by name
    svt_with_spectrum,
)
from .scene import (
    CameraMotion,
    NeighborMatrix,
    ShapeState,
    extend_with_identity,
    project,
    to_frame_rows,
    to_point_columns,
    validate_measurements,
    validate_shapes,
)

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
        if self.lambda1 < 0:
            raise ValueError(f"lambda1 must be nonnegative, got {self.lambda1}")
        if self.lambda2 is not None and self.lambda2 < 0:
            raise ValueError(f"lambda2 must be nonnegative, got {self.lambda2}")
        if self.beta0 <= 0:
            raise ValueError(f"beta0 must be positive, got {self.beta0}")
        if self.rho <= 1:
            raise ValueError(f"rho must exceed 1, got {self.rho}")
        if self.beta_max < self.beta0:
            raise ValueError(
                f"beta_max ({self.beta_max}) must be at least beta0 ({self.beta0})"
            )
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got {self.max_iters}")

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
    merged-operator column count (5P with a spatial term, P without), and
    ``y_colsum`` is a length-P row for the affine column sums.
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
    slack: np.ndarray       # P x M l1 slack for coeffs @ merged operator
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


def update_shapes(state: AdmmState, w: np.ndarray, camera: CameraMotion) -> np.ndarray:
    """Closed-form shape update.

    Solves the Sylvester equation stationarity condition of the shape
    subproblem,

        (R^T R / beta + I) S + S (I - C)(I - C^T)
            = R^T W / beta + ginv(lowrank) + ginv(y_reshuffle) / beta
              - (y_selfexpr / beta)(I - C^T),

    where R is the 2F x 3F block-diagonal camera and ginv is the
    frame-row-to-stack reshuffle. R is never assembled: the left operand is
    the stack of F blocks R_f^T R_f / beta + I, factored per block, and
    R^T W is formed frame by frame. The right operand is solved by Cholesky
    factors shifted by the clusters of the left eigenvalues (about 1 and
    1 + 1/beta for orthonormal camera rows).
    """
    beta = state.duals.beta
    blocks = camera.blocks
    frames, points = blocks.shape[0], w.shape[1]
    left = SymmetricOperand(np.einsum("fji,fjk->fik", blocks, blocks) / beta + np.eye(3))
    ic = np.eye(points) - state.coeffs
    right = CholeskyOperand(ic @ ic.T)
    backprojected = np.einsum("fji,fjp->fip", blocks, w.reshape(frames, 2, points))
    rhs = (
        backprojected.reshape(3 * frames, points) / beta
        + to_point_columns(state.lowrank)
        + to_point_columns(state.duals.y_reshuffle) / beta
        - (state.duals.y_selfexpr / beta) @ ic.T
    )
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
    target = to_frame_rows(state.shapes) - state.duals.y_reshuffle / beta
    return svt_with_spectrum(target, lam2 / beta)


def update_slack(state: AdmmState, merged: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Elementwise shrinkage update of the l1 slack.

    Returns soft_threshold(C @ merged + y_slack / beta, lambda1 / beta).
    """
    beta = state.duals.beta
    target = state.coeffs @ merged + state.duals.y_slack / beta
    return soft_threshold(target, config.lambda1 / beta)


def solve_coeff_subproblem(
    state: AdmmState,
    merged: np.ndarray,
    merged_gram: GramOperand | SymmetricOperand | None = None,
) -> np.ndarray:
    """Closed-form coefficient update before diagonal zeroing.

    Solves

        (S^T S + 1 1^T) C + C (D D^T)
            = S^T (S + y_selfexpr / beta) + (E - y_slack / beta) D^T
              + 1 1^T - 1 y_colsum / beta

    with D the merged operator and E the slack; a tiny diagonal shift keeps
    the left operand strictly positive definite. The left operand is held as
    the Gram of M = [S; 1^T], so with fewer than P rows in M it is solved by
    the Woodbury identity without forming it. ``merged_gram`` is D D^T as a
    GramOperand of D^T (or a SymmetricOperand); it is constant over a run,
    so ``solve`` factors it once and passes it in. When omitted it is
    factored here.
    """
    beta = state.duals.beta
    points = state.coeffs.shape[0]
    if merged_gram is None:
        merged_gram = GramOperand(merged.T)
    left = GramOperand(np.vstack([state.shapes, np.ones(points)]), COEFF_STABILIZER)
    rhs = (
        state.shapes.T @ (state.shapes + state.duals.y_selfexpr / beta)
        + (state.slack - state.duals.y_slack / beta) @ merged.T
        + 1.0
        - state.duals.y_colsum / beta
    )
    return solve_sylvester(left, merged_gram, rhs)


def update_coefficients(
    state: AdmmState,
    merged: np.ndarray,
    merged_gram: GramOperand | SymmetricOperand | None = None,
) -> np.ndarray:
    """Coefficient update: subproblem solution with the diagonal zeroed exactly."""
    coeffs = solve_coeff_subproblem(state, merged, merged_gram)
    np.fill_diagonal(coeffs, 0.0)
    return coeffs


def constraint_gaps(state: AdmmState, merged: np.ndarray) -> tuple:
    """The four constraint gaps, in ``DualState.multipliers`` order."""
    return (
        state.lowrank - to_frame_rows(state.shapes),
        state.shapes - state.shapes @ state.coeffs,
        state.coeffs @ merged - state.slack,
        state.coeffs.sum(axis=0) - 1.0,
    )


def constraint_residuals(gaps: tuple) -> tuple:
    """The four constraint violations in the elementwise max norm."""
    return tuple(np.abs(gap).max() for gap in gaps)


def update_duals(duals: DualState, gaps: tuple, config: SolverConfig) -> DualState:
    """Dual ascent y + beta * gap on all four constraints, then the capped penalty growth."""
    beta = duals.beta
    return DualState(
        *(y + beta * gap for y, gap in zip(duals.multipliers, gaps)),
        beta=min(config.beta_max, config.rho * beta),
    )


def objective_value(
    w: np.ndarray,
    camera: CameraMotion,
    state: AdmmState,
    config: SolverConfig,
    spectrum: np.ndarray | None = None,
) -> float:
    """The unconstrained cost: reprojection fit plus both structural penalties.

    ``spectrum`` is the singular values of ``state.lowrank`` when the caller
    already has them, as ``solve`` does from the low-rank step; without it
    they are computed here by SVD. A zero nuclear weight needs neither.
    """
    frames = state.lowrank.shape[0]
    points = state.coeffs.shape[0]
    lam2 = config.nuclear_weight(frames, points)
    fit = 0.5 * np.linalg.norm(w - project(camera, state.shapes)) ** 2
    sparsity = config.lambda1 * np.abs(state.slack).sum()
    if lam2 == 0:
        nuclear = 0.0
    elif spectrum is None:
        nuclear = lam2 * np.linalg.svd(state.lowrank, compute_uv=False).sum()
    else:
        nuclear = lam2 * spectrum.sum()
    return float(fit + sparsity + nuclear)


def augmented_lagrangian(
    w: np.ndarray, camera: CameraMotion, state: AdmmState, merged: np.ndarray, config: SolverConfig
) -> float:
    """Full augmented Lagrangian value at the given state (diagnostic)."""
    beta = state.duals.beta
    value = objective_value(w, camera, state, config)
    for y, gap in zip(state.duals.multipliers, constraint_gaps(state, merged)):
        value += np.sum(y * gap) + 0.5 * beta * np.sum(gap**2)
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
    degenerates to the identity and the slack simply mirrors the
    coefficients. Non-convergence within ``max_iters`` is not an error: the
    best-so-far state is returned with ``trace.converged`` False, and
    downstream clustering remains meaningful.

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
    merged = extend_with_identity(neighbors, num_points=points)
    if neighbors is not None:
        merged = scipy.sparse.csr_array(merged)
    merged_gram = GramOperand(merged.T)

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
        slack=np.zeros((points, merged.shape[1])),
        coeffs=np.zeros((points, points)),
        duals=DualState.zeros(frames, points, merged.shape[1], config.beta0),
    )
    trace = SolverTrace()

    for iteration in range(1, config.max_iters + 1):
        state.shapes = update_shapes(state, w, camera)
        state.lowrank, spectrum = update_lowrank(state, config)
        state.slack = update_slack(state, merged, config)
        state.coeffs = update_coefficients(state, merged, merged_gram)
        gaps = constraint_gaps(state, merged)
        residuals = constraint_residuals(gaps)
        objective = objective_value(w, camera, state, config, spectrum)
        trace.append(iteration, objective, residuals, state.duals.beta)
        state.duals = update_duals(state.duals, gaps, config)
        # Freed now so the gaps never coexist with the next sweep's temporaries.
        del gaps
        if max(residuals) <= config.epsilon:
            trace.converged = True
            break

    return ShapeState(state.shapes), state.coeffs, trace
