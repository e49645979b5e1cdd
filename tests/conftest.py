import os

# Single-threaded kernels keep runs bit-reproducible; must be set before
# numpy loads its BLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import mbnrsfm.linalg
from mbnrsfm import SolverConfig, default_two_body, generate_scene, solve
from mbnrsfm.admm import (
    AdmmState,
    DualState,
    _backproject,
    _camera_gram,
    _weighted_sum,
    constraint_gaps,
    objective_value,
    update_shapes,
)
from mbnrsfm.errors import NumericalError
from mbnrsfm.linalg import KroneckerSumOperand


@pytest.fixture(scope="session")
def default_scene():
    return generate_scene(default_two_body())


@pytest.fixture(scope="session")
def default_run(default_scene):
    """Solve the stock two-body scene once; reused by several suites."""
    shapes, coeffs, trace = solve(
        default_scene.w, default_scene.camera, None, SolverConfig()
    )
    return default_scene, shapes, coeffs, trace


@pytest.fixture
def refinements(monkeypatch):
    """The residual shape of every refinement sweep a structured Sylvester
    solve takes, recorded by wrapping the ``correction`` it hands to
    ``linalg._verified``."""
    calls = []
    original = mbnrsfm.linalg._verified

    def recording(a, b, q, x, correction):
        def counted(residual):
            calls.append(residual.shape)
            return correction(residual)
        return original(a, b, q, x, counted if correction else None)

    monkeypatch.setattr(mbnrsfm.linalg, "_verified", recording)
    return calls


def random_state(rng, frames, points, slack_cols=None, beta=0.7):
    """A fully random solver state for update-rule oracles."""
    if slack_cols is None:
        slack_cols = points
    shapes = rng.normal(size=(3 * frames, points))
    return AdmmState(
        shapes=shapes,
        lowrank=rng.normal(size=(frames, 3 * points)),
        slack=rng.normal(size=(points, slack_cols)),
        coeffs=rng.normal(size=(points, points)),
        duals=DualState(
            y_reshuffle=rng.normal(size=(frames, 3 * points)),
            y_selfexpr=rng.normal(size=(3 * frames, points)),
            y_slack=rng.normal(size=(points, slack_cols)),
            y_colsum=rng.normal(size=points),
            beta=beta,
        ),
    )


def identity_merged(points):
    return np.eye(points)


def dense_right_operand(matrix):
    """A dense symmetric matrix as a right Sylvester operand: the one-term
    Kronecker sum ``matrix (x) 1 + I (x) 0``, one ``eigh`` of ``matrix``."""
    return KroneckerSumOperand(matrix, np.zeros((1, 1)))


class DenseMerged:
    """A formed [I | D] as the step functions take a merged operator, with
    ``scene.EdgeOperator``'s members and every column counted once: the
    oracle for the edge form and for ``merged=None``.

    ``matrix`` is P x M, the output of ``dense_merged`` or ``identity_merged``.
    Its Gram is the formed P x P matrix [I | D][I | D]^T as a one-term
    Kronecker sum (``dense_right_operand``), factored by one P x P ``eigh``.
    """

    def __init__(self, matrix):
        self.matrix = matrix

    @property
    def points(self):
        return self.matrix.shape[0]

    @property
    def columns(self):
        return self.matrix.shape[1]

    def times(self, x):
        return x @ self.matrix

    def times_weighted_transpose(self, x):
        return x @ self.matrix.T

    def weighted_sum(self, x):
        return x.sum()

    def gram(self):
        return dense_right_operand(self.matrix @ self.matrix.T)


def block_diagonal(camera):
    """The 2F x 3F block-diagonal motion matrix of a ``CameraMotion``, assembled."""
    f = camera.frames
    out = np.zeros((2 * f, 3 * f))
    for i in range(f):
        out[2 * i : 2 * i + 2, 3 * i : 3 * i + 3] = camera.blocks[i]
    return out


def shape_step(state, w, camera):
    """``admm.update_shapes`` with the run constants ``solve`` builds once."""
    return update_shapes(state, _camera_gram(camera), _backproject(w, camera))


def objective(w, camera, state, config, merged):
    """``admm.objective_value`` with the nuclear norm from the SVD of the low-rank copy."""
    spectrum = np.linalg.svd(state.lowrank, compute_uv=False)
    return objective_value(w, camera, state, config, spectrum, merged)


def augmented_lagrangian(w, camera, state, merged, config):
    """Full augmented Lagrangian value at the given state (diagnostic)."""
    beta = state.duals.beta
    value = objective(w, camera, state, config, merged)
    gaps = constraint_gaps(state, merged)
    # Only the slack pair is weighed by the operator's multiplicity.
    for y, gap, weigh in zip(state.duals.multipliers, gaps, (None, None, merged, None)):
        value += _weighted_sum(y * gap, weigh) + 0.5 * beta * _weighted_sum(gap**2, weigh)
    return float(value)


def bartels_stewart(a, b, q):
    """Solve ``a @ x + x @ b = q`` for plain arrays by scipy's Bartels-Stewart.

    Real Schur forms of both operands plus back-substitution: the general,
    unrefined reference the structured paths of ``linalg.solve_sylvester``
    are tested against. Its result passes the same residual check, with no
    refinement, and a failure raises NumericalError as theirs does.
    """
    linalg = mbnrsfm.linalg
    a = linalg.as_matrix(a, "left operand")
    b = linalg.as_matrix(b, "right operand")
    q = linalg.as_matrix(q, "right-hand side")
    linalg._check_operand_shapes(a.shape, b.shape, q.shape)
    try:
        x = scipy.linalg.solve_sylvester(a, b, q)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"Sylvester solve failed (factorization failed: {exc})") from exc
    with linalg._quiet():
        return linalg._verified(a, b, q, x, correction=None)


# The full 4-neighborhood scan order: up, left, right, down.
NEIGHBOR_STEPS = ((-1, 0), (0, -1), (0, 1), (1, 0))


def neighbor_diff(height, width):
    """The full P x 4P 4-neighbor difference operator D, built point by point.

    For point p and direction d (up, left, right, down), column 4p + d
    carries +1 at row p and -1 at the neighbor row, or is all zero where
    the neighbor falls off the grid border. Each edge appears twice, as +d
    and -d; ``scene.EdgeOperator`` holds it once, weighed twice.
    """
    points = height * width
    diff = np.zeros((points, 4 * points))
    for row in range(height):
        for col in range(width):
            p = row * width + col
            for d, (dr, dc) in enumerate(NEIGHBOR_STEPS):
                nr, nc = row + dr, col + dc
                if 0 <= nr < height and 0 <= nc < width:
                    diff[p, 4 * p + d] = 1.0
                    diff[nr * width + nc, 4 * p + d] = -1.0
    return diff


def dense_merged(neighbors, num_points=None):
    """The dense [I | D], P x 5P, of an EdgeOperator's grid, which ``DenseMerged``
    hands the step functions as their oracle.

    With ``neighbors`` None (sparse tracks) it is the P x P identity.
    """
    if neighbors is None:
        return np.eye(num_points)
    return np.hstack([np.eye(neighbors.points), neighbor_diff(neighbors.height, neighbors.width)])


def edge_csr(neighbors):
    """The P x (P + E) csr [I | D_e] of an EdgeOperator: column P + k is
    e_p - e_q for the k-th edge (p, q), horizontal edges first."""
    height, width = neighbors.height, neighbors.width
    index = np.arange(height * width).reshape(height, width)
    first = np.concatenate([index[:, :-1].ravel(), index[:-1, :].ravel()])
    second = np.concatenate([index[:, 1:].ravel(), index[1:, :].ravel()])
    points, edges = index.size, first.size
    cols = np.arange(points, points + edges)
    return scipy.sparse.csr_array(
        (
            np.concatenate([np.ones(points + edges), -np.ones(edges)]),
            (np.concatenate([index.ravel(), first, second]),
             np.concatenate([np.arange(points), cols, cols])),
        ),
        shape=(points, points + edges),
    )


def edge_expansion(neighbors):
    """The 0/+-1 matrix X with [I | D] = [I | D_e] X, P + E rows by 5P columns.

    Column P + c of X selects the edge column that equals column c of the
    full ``neighbor_diff``, with the sign that makes them equal; a border
    column of the diff selects nothing.
    """
    points = neighbors.points
    edges = edge_csr(neighbors).toarray()[:, points:]
    expansion = np.zeros((neighbors.columns, 5 * points))
    expansion[:points, :points] = np.eye(points)
    for c, column in enumerate(neighbor_diff(neighbors.height, neighbors.width).T):
        if not column.any():
            continue
        match = [(k, sign) for k in range(edges.shape[1]) for sign in (1.0, -1.0)
                 if np.array_equal(sign * edges[:, k], column)]
        assert len(match) == 1
        k, sign = match[0]
        expansion[points + k, points + c] = sign
    return expansion


def kron_solve(a, b, q):
    """Solve ``a @ x + x @ b = q`` for plain arrays through the formed
    (n m) x (n m) Kronecker system."""
    n, m = q.shape
    system = np.kron(np.eye(m), a) + np.kron(b.T, np.eye(n))
    return np.linalg.solve(system, q.flatten(order="F")).reshape(n, m, order="F")


def kronecker_sum(first, second):
    """first (x) I + I (x) second, formed."""
    return (np.kron(first, np.eye(second.shape[0]))
            + np.kron(np.eye(first.shape[0]), second))


def path_laplacian(n):
    """The Laplacian of an n-node path, summed edge by edge."""
    laplacian = np.zeros((n, n))
    for k in range(n - 1):
        laplacian[k : k + 2, k : k + 2] += [[1.0, -1.0], [-1.0, 1.0]]
    return laplacian
