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
``solve`` evaluates them once per sweep, after the coefficient step and the
objective; the residuals (their max-abs values) go to the trace, and dual
ascent moves each multiplier by beta times its own gap, in that gap's array,
which nothing reads afterwards. The steps reshuffle between the F x 3P and
3F x P layouts by reshape views and build their right-hand sides in place,
in the order of the written formulas; the copying, validating
``scene.to_frame_rows`` runs in set-up only.

The slack E and its multiplier are P x M arrays, with M = P plus the edge
count on a grid: the largest arrays of the state. Each sweep writes into the
buffers it replaces, with the operations of the written formulas in their
order, so at most one temporary of that size is alive at a time. The slack
step forms and shrinks its target in the old slack's buffer
(``update_slack``); the coefficient step frees its E - y_slack / beta as
soon as it is contracted; the objective's |E| is freed before the gaps are
formed; the slack gap is formed in the buffer of its product C @ merged
(``constraint_gaps``); and dual ascent turns each gap into the new
multiplier.

The trace's objective takes its nuclear norm from the low-rank step: the
singular values that SVT thresholded are the spectrum of the new low-rank
copy, so each sweep takes one partial SVD, and none when ``lambda2`` is 0.

That partial SVD forms only the singular triplets the threshold keeps
(``linalg.svt``, which returns them with the new copy): one LAPACK
``dsyevr`` call returns the eigenpairs of the min(F, 3P)-square Gram of the
F x 3P target above the squared threshold, and the result is assembled
from those alone. Past ``linalg.SVT_GRAM_MAX_RATIO``, where squaring the
target would cost too many digits, the thin SVD runs instead; no benchmark
sweep gets there.

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

With a spatial term ``solve`` takes the merged operator as the
``scene.EdgeOperator`` that ``scene.build_neighbor_matrix`` returns:
[I | D_e], one column e_p - e_q per unique 4-neighbor edge, so the slack
and its dual are P x (P + E), not P x 5P. Each edge stands for the +d and
-d twins of the full 4-neighbor operator and is weighed by multiplicity 2
where twins add up (the ``EdgeOperator`` docstring says why that is
exact). The operator holds only the grid dimensions, and the sweep
applies [I | D_e] and its weighted transpose by slicing each row of the
product's operand as the h x w grid (``EdgeOperator.times``), so the
outputs are C-ordered and no matrix of the operator is ever formed.

The coefficient step's right operand, the Gram I + 2 D_e D_e^T, is built
once per run by ``EdgeOperator.gram``, whose docstring says why it is a
``linalg.KroneckerSumOperand`` of two small path-Laplacian terms: set-up
eigendecomposes only those h x h and w x w terms, and the rotations of a
coefficient right-hand side and the residual check apply them on its
(P, h, w) view.

A formed left operand (3F+1 >= P) changes with S and is eigendecomposed
every sweep. Shifted Cholesky, as in the shape step, cannot replace that
``eigh``: it takes one factor per cluster of the other operand's
eigenvalues, and the grid Gram has eigenvalues spread over [1, 17)
without clusters.

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

from .linalg import (
    CholeskyOperand,
    GramOperand,
    IdentityOperand,
    KroneckerSumOperand,
    SymmetricOperand,
    _quiet,
    diagonal_view,
    frobenius_norm,
    solve_sylvester,
    soft_threshold,
    svt,
)
from .scene import (
    CameraMotion,
    EdgeOperator,
    _project_checked,
    to_frame_rows,
    validate_measurements,
    validate_shapes,
)


# The merged operator [I | D] as the step functions take it: the grid's
# EdgeOperator, or None for the identity of sparse mode.
Merged = EdgeOperator | None
# The coefficient step's right operand D diag(multiplicity) D^T.
MergedGram = KroneckerSumOperand | IdentityOperand

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
    camera_gram: SymmetricOperand,
    backprojected: np.ndarray,
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
    a run, so ``solve`` builds them once, by ``_camera_gram`` and
    ``_backproject``. The right operand is solved by Cholesky factors
    shifted by the clusters of the left eigenvalues (about 1 and 1 + 1/beta
    for orthonormal camera rows).
    """
    beta = state.duals.beta
    points = state.coeffs.shape[0]
    left = camera_gram.scaled(1.0 / beta, 1.0)
    with _quiet():
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

    Returns ``svt(g(S) - y_reshuffle / beta, lambda2 / beta)``: the new copy
    and its singular values, the thresholded spectrum of the SVT (None when
    lambda2 is 0, where no SVD is taken).
    """
    beta = state.duals.beta
    frames = state.lowrank.shape[0]
    points = state.coeffs.shape[0]
    lam2 = config.nuclear_weight(frames, points)
    target = state.duals.y_reshuffle / beta
    np.subtract(state.shapes.reshape(target.shape), target, out=target)
    return svt(target, lam2 / beta)


def _times_merged(x: np.ndarray, merged: Merged) -> np.ndarray:
    """``x @ merged``, where ``merged=None`` stands for the identity."""
    return x if merged is None else merged.times(x)


def _times_merged_transpose(x: np.ndarray, merged: Merged) -> np.ndarray:
    """``x @ diag(multiplicity) @ merged.T``; the identity has multiplicity 1."""
    return x if merged is None else merged.times_weighted_transpose(x)


def _weighted_sum(x: np.ndarray, merged: Merged) -> float:
    """The sum of a slack-shaped ``x``, each column counted by its multiplicity."""
    return x.sum() if merged is None else merged.weighted_sum(x)


def _merged_gram(merged: Merged, points: int) -> MergedGram:
    """The coefficient step's right operand D diag(multiplicity) D^T.

    An EdgeOperator builds its own (``EdgeOperator.gram``), a Kronecker sum
    equal to I + D D^T of the full 4-neighbor operator D; the identity's is
    the identity.
    """
    return IdentityOperand(points) if merged is None else merged.gram()


def update_slack(state: AdmmState, merged: Merged, config: SolverConfig) -> np.ndarray:
    """Elementwise shrinkage update of the l1 slack, written over ``state.slack``.

    Returns soft_threshold(C @ merged + y_slack / beta, lambda1 / beta),
    formed and shrunk in the buffer of ``state.slack``, which it uses up: no
    step reads the old slack once the previous sweep's objective and gaps
    have.
    """
    beta = state.duals.beta
    # y_slack / beta + C merged, the same sum: IEEE addition commutes.
    target = np.divide(state.duals.y_slack, beta, out=state.slack)
    target += _times_merged(state.coeffs, merged)
    return soft_threshold(target, config.lambda1 / beta, out=target)


def solve_coeff_subproblem(
    state: AdmmState,
    merged: Merged,
    merged_gram: MergedGram,
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

    The step changes nothing in ``state``. Its E - y_slack / beta and
    S + y_selfexpr / beta temporaries are freed once contracted into the
    right-hand side, and the left operand is built after it.
    """
    beta = state.duals.beta
    points = state.coeffs.shape[0]
    # S far from unit scale overflows the products, silently (``_quiet``):
    # the operand or the solve then raises NumericalError.
    with _quiet():
        # S^T (S + y_selfexpr / beta) + (E - y_slack / beta) D^T + 1 1^T
        # - 1 y_colsum / beta, summed left to right in place; IEEE addition
        # commutes, so y_selfexpr / beta + S is S + y_selfexpr / beta.
        shifted = state.duals.y_selfexpr / beta
        shifted += state.shapes
        rhs = state.shapes.T @ shifted
        del shifted
        slack = state.duals.y_slack / beta
        np.subtract(state.slack, slack, out=slack)
        rhs += _times_merged_transpose(slack, merged)
        del slack
        rhs += 1.0
        rhs -= state.duals.y_colsum / beta
        m = np.empty((state.shapes.shape[0] + 1, points))
        m[:-1] = state.shapes
        m[-1] = 1.0
        if m.shape[0] < points:
            left = GramOperand(m, COEFF_STABILIZER)
        else:
            formed = m.T @ m
            diagonal = diagonal_view(formed)
            diagonal += COEFF_STABILIZER
            left = (CholeskyOperand if merged is None else SymmetricOperand)(formed)
    return solve_sylvester(left, merged_gram, rhs)


def update_coefficients(
    state: AdmmState,
    merged: Merged,
    merged_gram: MergedGram,
) -> np.ndarray:
    """Coefficient update: subproblem solution with the diagonal zeroed exactly."""
    coeffs = solve_coeff_subproblem(state, merged, merged_gram)
    diagonal_view(coeffs)[:] = 0.0
    return coeffs


def constraint_gaps(state: AdmmState, merged: Merged) -> tuple:
    """The four constraint gaps, in ``DualState.multipliers`` order.

    Each gap is a new array; ``state`` is unchanged. The slack gap is formed
    in the buffer of the product C @ merged, except in sparse mode, where
    that product is C itself.
    """
    selfexpr = state.shapes @ state.coeffs
    np.subtract(state.shapes, selfexpr, out=selfexpr)
    colsum = state.coeffs.sum(axis=0)
    colsum -= 1.0
    product = _times_merged(state.coeffs, merged)
    return (
        state.lowrank - state.shapes.reshape(state.lowrank.shape),
        selfexpr,
        np.subtract(product, state.slack, out=None if merged is None else product),
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
    spectrum: np.ndarray | None,
    merged: Merged,
) -> float:
    """The unconstrained cost: reprojection fit plus both structural penalties.

    ``spectrum`` is the singular values of ``state.lowrank``, which ``solve``
    takes from the low-rank step; it is None only with a zero nuclear
    weight, which needs none. ``merged`` is the operator of the slack: the
    l1 term counts each slack column by its multiplicity, which is 1 unless
    it is an EdgeOperator.
    """
    frames = state.lowrank.shape[0]
    points = state.coeffs.shape[0]
    lam2 = config.nuclear_weight(frames, points)
    # The sweep verified ``state.shapes`` already: project without re-checking.
    misfit = _project_checked(camera, state.shapes)
    np.subtract(w, misfit, out=misfit)
    fit = 0.5 * frobenius_norm(misfit) ** 2
    sparsity = config.lambda1 * _weighted_sum(np.abs(state.slack), merged)
    nuclear = 0.0 if lam2 == 0 else lam2 * spectrum.sum()
    return float(fit + sparsity + nuclear)


def pseudo_inverse_shapes(w: np.ndarray, camera: CameraMotion) -> np.ndarray:
    """Per-frame minimum-norm backprojection S_f = R_f^T (R_f R_f^T)^-1 W_f.

    One ``np.linalg.solve`` on the (F, 2, 2) stack of Grams R_f R_f^T and
    one stacked product with the R_f^T; each frame gets the bits it gets alone.
    """
    frames, points = camera.frames, w.shape[1]
    transposed = camera.blocks.swapaxes(1, 2)
    grams = np.matmul(camera.blocks, transposed)
    solved = np.linalg.solve(grams, w.reshape(frames, 2, points))
    return np.matmul(transposed, solved).reshape(3 * frames, points)


def solve(
    w,
    camera: CameraMotion,
    neighbors: EdgeOperator | None,
    config: SolverConfig,
    init_shapes=None,
) -> tuple[np.ndarray, np.ndarray, SolverTrace]:
    """Run the full ADMM and return (shapes, coefficients, trace).

    ``shapes`` is the 3F x P stack S and ``coefficients`` the P x P matrix
    C with its diagonal zeroed.

    ``neighbors`` is the grid's merged operator from
    ``scene.build_neighbor_matrix``; anything else but None raises TypeError.
    ``neighbors=None`` drops the spatial term: the merged operator is then
    the identity, held as ``merged=None``, and the slack mirrors C.

    Non-convergence within ``max_iters`` is not an error: the last
    iterate is returned with ``trace.converged`` False, and downstream
    clustering remains meaningful.

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
    if neighbors is not None and not isinstance(neighbors, EdgeOperator):
        raise TypeError("neighbors must be None or the EdgeOperator of "
                        f"scene.build_neighbor_matrix, got {type(neighbors).__name__}")
    if neighbors is not None and neighbors.points != points:
        raise ValueError(f"neighbor grid {neighbors.height} x {neighbors.width} covers "
                         f"{neighbors.points} points, scene has {points}")
    merged = neighbors
    slack_cols = points if merged is None else merged.columns
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
        state.shapes = update_shapes(state, camera_gram, backprojected)
        state.lowrank, spectrum = update_lowrank(state, config)
        state.slack = update_slack(state, merged, config)
        state.coeffs = update_coefficients(state, merged, merged_gram)
        # The objective is a pure function of the state: taken before the
        # gaps, its |E| temporary is freed before they are formed.
        objective = objective_value(w, camera, state, config, spectrum, merged)
        gaps = constraint_gaps(state, merged)
        residuals = constraint_residuals(gaps)
        trace.append(iteration, objective, residuals, state.duals.beta)
        state.duals = update_duals(state.duals, gaps, config)
        # Freed now so the gaps never coexist with the next sweep's temporaries.
        del gaps
        if max(residuals) <= config.epsilon:
            trace.converged = True
            break

    return state.shapes, state.coeffs, trace
