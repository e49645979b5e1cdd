import os

# Single-threaded kernels keep runs bit-reproducible; must be set before
# numpy loads its BLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest
import scipy.sparse

from mbnrsfm import SolverConfig, default_two_body, generate_scene, solve
from mbnrsfm.admm import AdmmState, DualState


@pytest.fixture(scope="session")
def default_scene():
    return generate_scene(default_two_body())


@pytest.fixture(scope="session")
def default_run(default_scene):
    """Solve the stock two-body scene once; reused by several suites."""
    shape_state, coeffs, trace = solve(
        default_scene.w, default_scene.camera, None, SolverConfig()
    )
    return default_scene, shape_state, coeffs, trace


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
    """The dense [I | D], P x 5P, of an EdgeOperator's grid: the step functions' oracle.

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
