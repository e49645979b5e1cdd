import os

# Single-threaded kernels keep runs bit-reproducible; must be set before
# numpy loads its BLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest

from mbnrsfm import SolverConfig, default_two_body, generate_scene, solve
from mbnrsfm.admm import AdmmState, DualState
from mbnrsfm.scene import extend_with_identity


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
    return extend_with_identity(None, num_points=points)


def path_laplacian(n):
    """The Laplacian of an n-node path, summed edge by edge."""
    laplacian = np.zeros((n, n))
    for k in range(n - 1):
        laplacian[k : k + 2, k : k + 2] += [[1.0, -1.0], [-1.0, 1.0]]
    return laplacian
