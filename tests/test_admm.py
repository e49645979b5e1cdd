import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from dataclasses import replace

from conftest import (
    DenseMerged,
    augmented_lagrangian,
    block_diagonal,
    dense_merged,
    dense_right_operand,
    edge_csr,
    edge_expansion,
    identity_merged,
    kron_solve,
    kronecker_sum,
    neighbor_diff,
    objective,
    path_laplacian,
    random_state,
    shape_step,
)

import mbnrsfm.admm
from mbnrsfm.admm import (
    COEFF_STABILIZER,
    AdmmState,
    DualState,
    DRIFT_TOL,
    SolverConfig,
    _converged,
    _merged_gram,
    _step,
    constraint_gaps,
    constraint_residuals,
    objective_value,
    pseudo_inverse_shapes,
    solve,
    solve_coeff_subproblem,
    update_coefficients,
    update_duals,
    update_lowrank,
    update_slack,
)
from mbnrsfm.clustering import build_affinity, spectral_cluster
import mbnrsfm.linalg
from mbnrsfm.linalg import (
    SVT_GRAM_MAX_RATIO,
    CholeskyOperand,
    GramOperand,
    IdentityOperand,
    KroneckerSumOperand,
    SymmetricOperand,
    frobenius_norm,
    soft_threshold,
    solve_sylvester,
    svt,
)
import mbnrsfm.scene
from mbnrsfm.metrics import reprojection_error, segmentation_error
from mbnrsfm.scene import (
    build_neighbor_matrix,
    to_frame_rows,
    to_point_columns,
)
from mbnrsfm.synth import (
    DEFAULT_TWO_BODY_SEED,
    assemble_body,
    default_two_body,
    generate_scene,
    _smooth_random_camera,
)


def small_problem(seed=42, frames=4, points=6):
    rng = np.random.default_rng(seed)
    camera = _smooth_random_camera(rng, frames)
    w = rng.normal(size=(2 * frames, points))
    state = random_state(rng, frames, points)
    return rng, camera, w, state


class TestUpdateShapes:
    def test_stationarity_residual(self):
        _, camera, w, state = small_problem()
        state.coeffs = np.zeros_like(state.coeffs)
        state.duals = replace(state.duals,
                              y_reshuffle=np.zeros_like(state.duals.y_reshuffle),
                              y_selfexpr=np.zeros_like(state.duals.y_selfexpr))
        out = shape_step(state, w, camera)
        beta = state.duals.beta
        r = block_diagonal(camera)
        lhs = (r.T @ r / beta + np.eye(r.shape[1])) @ out + out
        rhs = r.T @ w / beta + to_point_columns(state.lowrank)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))

    def test_finite_difference_gradient_vanishes(self):
        # Build the exact-data scenario and check the subproblem gradient at
        # the returned shapes by central differences (the objective is
        # quadratic, so central differences are exact up to roundoff).
        rng = np.random.default_rng(3)
        frames, points = 3, 5
        camera = _smooth_random_camera(rng, frames)
        s_gt = rng.normal(size=(3 * frames, points))
        w = block_diagonal(camera) @ s_gt
        state = random_state(rng, frames, points, beta=0.9)
        state.lowrank = to_frame_rows(s_gt)
        state.coeffs = np.zeros((points, points))
        state.duals = DualState.zeros(frames, points, points, 0.9)
        out = shape_step(state, w, camera)

        r = block_diagonal(camera)
        beta = state.duals.beta

        def subproblem(s):
            value = 0.5 * np.linalg.norm(w - r @ s) ** 2
            gap1 = state.lowrank - to_frame_rows(s)
            value += np.sum(state.duals.y_reshuffle * gap1) + 0.5 * beta * np.sum(gap1**2)
            gap2 = s - s @ state.coeffs
            value += np.sum(state.duals.y_selfexpr * gap2) + 0.5 * beta * np.sum(gap2**2)
            return value

        grad = np.zeros_like(out)
        for i in range(out.shape[0]):
            for j in range(out.shape[1]):
                h = 1e-6 * (1 + abs(out[i, j]))
                bump = np.zeros_like(out)
                bump[i, j] = h
                grad[i, j] = (subproblem(out + bump) - subproblem(out - bump)) / (2 * h)
        assert np.abs(grad).max() <= 1e-6

    def test_matches_kronecker_solve(self):
        _, camera, w, state = small_problem(seed=7)
        out = shape_step(state, w, camera)
        beta = state.duals.beta
        r = block_diagonal(camera)
        ic = np.eye(state.coeffs.shape[0]) - state.coeffs
        a = r.T @ r / beta + np.eye(r.shape[1])
        b = ic @ ic.T
        q = (r.T @ w / beta + to_point_columns(state.lowrank)
             + to_point_columns(state.duals.y_reshuffle) / beta
             - (state.duals.y_selfexpr / beta) @ ic.T)
        direct = kron_solve(a, b, q)
        assert np.abs(out - direct).max() <= 1e-7 * (1 + np.abs(direct).max())


class TestStepsMatchCopyingFormulas:
    """The steps reshuffle by views; each equals, bit for bit, its documented
    formula written with the copying, validating reshuffle helpers."""

    def test_update_shapes(self):
        _, camera, w, state = small_problem(seed=81, frames=5, points=7)
        beta = state.duals.beta
        ic = np.eye(7) - state.coeffs
        rhs = (mbnrsfm.admm._backproject(w, camera) / beta
               + to_point_columns(state.lowrank)
               + to_point_columns(state.duals.y_reshuffle) / beta
               - (state.duals.y_selfexpr / beta) @ ic.T)
        left = mbnrsfm.admm._camera_gram(camera).scaled(1.0 / beta, 1.0)
        expected = solve_sylvester(left, CholeskyOperand(ic @ ic.T), rhs)
        assert np.array_equal(shape_step(state, w, camera), expected)

    @pytest.mark.parametrize("seed,frames,points", [(84, 1, 3), (85, 30, 60), (86, 120, 20)])
    def test_pseudo_inverse_shapes(self, seed, frames, points):
        # The stacked solve and product give the per-frame loop's bits.
        _, camera, w, _ = small_problem(seed=seed, frames=frames, points=points)
        expected = np.empty((3 * frames, points))
        for f in range(frames):
            block = camera.blocks[f]
            expected[3 * f : 3 * f + 3] = block.T @ np.linalg.solve(block @ block.T,
                                                                    w[2 * f : 2 * f + 2])
        assert np.array_equal(pseudo_inverse_shapes(w, camera), expected)

    def test_update_lowrank(self):
        _, _, _, state = small_problem(seed=82, frames=5, points=7)
        cfg = SolverConfig()
        beta = state.duals.beta
        target = to_frame_rows(state.shapes) - state.duals.y_reshuffle / beta
        expected, expected_spectrum = svt(target, cfg.nuclear_weight(5, 7) / beta)
        out, spectrum = update_lowrank(state, cfg)
        assert np.array_equal(out, expected) and np.array_equal(spectrum, expected_spectrum)

    @pytest.mark.parametrize("merged_kind", ["identity", "grid"])
    def test_constraint_gaps_leave_the_state_unchanged(self, merged_kind):
        # The slack gap is formed in the buffer of C @ merged, which in
        # sparse mode is C itself: there the gap must be a fresh C - E.
        merged, state = self.merged_problem(89, merged_kind)
        arrays = (state.shapes, state.lowrank, state.slack, state.coeffs)
        before = [a.tobytes() for a in arrays]
        gaps = constraint_gaps(state, merged)
        assert [a.tobytes() for a in arrays] == before
        assert not any(np.shares_memory(g, a) for g in gaps for a in arrays)

    def test_constraint_gaps_and_residuals(self):
        _, _, _, state = small_problem(seed=83, frames=5, points=7)
        expected = (state.lowrank - to_frame_rows(state.shapes),
                    state.shapes - state.shapes @ state.coeffs,
                    state.coeffs - state.slack,
                    state.coeffs.sum(axis=0) - 1.0)
        gaps = constraint_gaps(state, None)
        assert all(np.array_equal(g, e) for g, e in zip(gaps, expected, strict=True))
        assert constraint_residuals(gaps) == tuple(np.abs(e).max() for e in expected)

    @staticmethod
    def merged_problem(seed, merged_kind, frames=5):
        """A random state with the slack shaped for ``merged_kind``."""
        rng = np.random.default_rng(seed)
        merged = {"identity": None, "grid": build_neighbor_matrix(3, 4)}[merged_kind]
        cols = 12 if merged is None else merged.columns
        return merged, random_state(rng, frames, 12, slack_cols=cols)

    @pytest.mark.parametrize("merged_kind", ["identity", "grid"])
    def test_update_slack(self, merged_kind):
        # The copying formula, bit for bit, in the buffer of state.slack,
        # which the step uses up; dead-zone negatives come out +0.0.
        merged, state = self.merged_problem(84, merged_kind)
        cfg, beta = SolverConfig(lambda1=0.3), state.duals.beta
        product = state.coeffs if merged is None else merged.times(state.coeffs)
        target = product + state.duals.y_slack / beta
        expected = soft_threshold(target, cfg.lambda1 / beta)
        dead_negatives = (target < 0) & (expected == 0)
        buffer = state.slack
        out = update_slack(state, merged, cfg)
        assert out is buffer and out.tobytes() == expected.tobytes()
        assert dead_negatives.any() and not np.signbit(out[dead_negatives]).any()

    @pytest.mark.parametrize("merged_kind,frames", [("identity", 5), ("identity", 2),
                                                    ("grid", 5), ("grid", 2)])
    def test_coefficient_step(self, monkeypatch, merged_kind, frames):
        # Formed (3F + 1 >= P) and Woodbury (3F + 1 < P) left operands; the
        # right-hand side is summed in place in the documented order.
        merged, state = self.merged_problem(85, merged_kind, frames)
        beta, points = state.duals.beta, 12
        m = np.vstack([state.shapes, np.ones(points)])
        transposed = state.slack - state.duals.y_slack / beta
        if merged is not None:
            transposed = merged.times_weighted_transpose(transposed)
        rhs = (state.shapes.T @ (state.shapes + state.duals.y_selfexpr / beta)
               + transposed + 1.0 - state.duals.y_colsum / beta)
        seen = []
        original = mbnrsfm.admm.solve_sylvester

        def recording(a, b, q):
            seen.append((a, q))
            return original(a, b, q)

        monkeypatch.setattr(mbnrsfm.admm, "solve_sylvester", recording)
        coeffs = update_coefficients(state, merged, _merged_gram(merged, points))
        ((left, q),) = seen
        assert np.array_equal(q, rhs)
        if isinstance(left, GramOperand):
            assert np.array_equal(left.factor, m)
        else:
            formed = m.T @ m
            formed.flat[:: points + 1] += COEFF_STABILIZER
            assert np.array_equal(left.matrix, formed)
        assert not np.diagonal(coeffs).any() and not np.signbit(np.diagonal(coeffs)).any()

    @pytest.mark.parametrize("merged_kind", ["identity", "grid"])
    def test_update_duals_fills_the_gaps_in_place(self, merged_kind):
        merged, state = self.merged_problem(86, merged_kind)
        cfg, beta = SolverConfig(), state.duals.beta
        gaps = constraint_gaps(state, merged)
        expected = [y + beta * gap for y, gap in zip(state.duals.multipliers, gaps)]
        out = update_duals(state.duals, gaps, cfg)
        for new, gap, e in zip(out.multipliers, gaps, expected, strict=True):
            assert new is gap and np.array_equal(new, e)
        assert out.beta == cfg.rho * beta

    @pytest.mark.parametrize("merged_kind", ["identity", "grid"])
    def test_objective_value(self, merged_kind):
        merged, state = self.merged_problem(87, merged_kind)
        rng = np.random.default_rng(88)
        camera = _smooth_random_camera(rng, 5)
        w = rng.normal(size=(10, 12))
        cfg = SolverConfig(lambda1=0.3)
        spectrum = np.linalg.svd(state.lowrank, compute_uv=False)
        slack = np.abs(state.slack)
        l1 = slack.sum() if merged is None else (slack @ merged.multiplicity).sum()
        expected = float(0.5 * np.linalg.norm(w - mbnrsfm.scene.project(camera, state.shapes))
                         ** 2 + cfg.lambda1 * l1
                         + cfg.nuclear_weight(5, 12) * spectrum.sum())
        assert objective_value(w, camera, state, cfg, spectrum, merged) == expected

    def test_residual_of_a_zero_gap_is_positive_zero(self):
        (residual,) = constraint_residuals((np.full((2, 3), -0.0),))
        assert residual == 0.0 and not np.signbit(residual)
        assert np.isnan(constraint_residuals((np.array([1.0, np.nan]),))[0])


class TestUpdateLowrank:
    def test_exact_when_unpenalized(self):
        _, _, _, state = small_problem(seed=9)
        state.duals = replace(state.duals,
                              y_reshuffle=np.zeros_like(state.duals.y_reshuffle))
        cfg = SolverConfig(lambda2=0.0)
        lowrank, _ = update_lowrank(state, cfg)
        np.testing.assert_array_equal(lowrank, to_frame_rows(state.shapes))

    def test_full_shrinkage_of_small_rank_one(self):
        rng = np.random.default_rng(13)
        frames, points = 3, 4
        u = rng.normal(size=(frames, 1))
        v = rng.normal(size=(1, 3 * points))
        rank_one = u @ v
        sigma = np.linalg.svd(rank_one, compute_uv=False)[0]
        state = random_state(rng, frames, points, beta=1.0)
        state.shapes = to_point_columns(rank_one)
        state.duals = DualState.zeros(frames, points, points, 1.0)
        cfg = SolverConfig(lambda2=sigma * 1.01)
        lowrank, _ = update_lowrank(state, cfg)
        assert np.abs(lowrank).max() <= 1e-12

    def test_perturbation_oracle(self):
        rng, _, _, state = small_problem(seed=21)
        cfg = SolverConfig(lambda2=0.5)
        out, _ = update_lowrank(state, cfg)
        beta = state.duals.beta

        def subproblem(x):
            gap = x - to_frame_rows(state.shapes)
            return (cfg.lambda2 * np.linalg.svd(x, compute_uv=False).sum()
                    + np.sum(state.duals.y_reshuffle * gap)
                    + 0.5 * beta * np.sum(gap**2))

        base = subproblem(out)
        for _ in range(1000):
            delta = rng.normal(size=out.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert subproblem(out + delta) > base


class TestUpdateSlack:
    def test_reduces_to_shrinkage_of_product(self):
        _, _, _, state = small_problem(seed=31)
        merged = identity_merged(state.coeffs.shape[0])
        state.duals = replace(state.duals, y_slack=np.zeros_like(state.duals.y_slack))
        cfg = SolverConfig(lambda1=0.3)
        out = update_slack(state, DenseMerged(merged), cfg)
        target = state.coeffs @ merged
        tau = cfg.lambda1 / state.duals.beta
        np.testing.assert_array_equal(out, np.sign(target) * np.maximum(np.abs(target) - tau, 0))

    def test_zero_weight_passthrough(self):
        _, _, _, state = small_problem(seed=32)
        merged = identity_merged(state.coeffs.shape[0])
        cfg = SolverConfig(lambda1=0.0)
        expected = state.coeffs @ merged + state.duals.y_slack / state.duals.beta
        np.testing.assert_array_equal(update_slack(state, DenseMerged(merged), cfg), expected)

    def test_each_entry_matches_ternary_search(self):
        # Exact-rational ternary search; float ternary search stalls at the
        # sqrt(eps) comparison noise floor of the quadratic.
        from fractions import Fraction

        _, _, _, state = small_problem(seed=33)
        merged = identity_merged(state.coeffs.shape[0])
        cfg = SolverConfig(lambda1=0.2)
        beta = state.duals.beta
        out = update_slack(state, DenseMerged(merged), cfg)
        target = state.coeffs @ merged + state.duals.y_slack / beta

        lam = Fraction(cfg.lambda1)
        half_beta = Fraction(beta) / 2
        for (i, j) in [(0, 0), (0, 3), (1, 2), (2, 5), (3, 1), (4, 4), (5, 0), (5, 5)]:
            m = Fraction(float(target[i, j]))
            def prox_objective(e):
                return lam * abs(e) + half_beta * (e - m) ** 2
            lo, hi = m - abs(m) - 1, m + abs(m) + 1
            for _ in range(100):
                third = (hi - lo) / 3
                left, right = lo + third, hi - third
                if prox_objective(left) > prox_objective(right):
                    lo = left
                else:
                    hi = right
            oracle = float((lo + hi) / 2)
            assert abs(out[i, j] - oracle) <= 1e-9


def dense_coeff_subproblem(state, matrix):
    """``solve_coeff_subproblem`` with a formed [I | D] and its formed Gram."""
    merged = DenseMerged(matrix)
    return solve_coeff_subproblem(state, merged, merged.gram())


class TestUpdateCoefficients:
    def test_diagonal_exactly_zero(self):
        _, _, _, state = small_problem(seed=51)
        merged = DenseMerged(identity_merged(state.coeffs.shape[0]))
        out = update_coefficients(state, merged, merged.gram())
        assert np.abs(np.diag(out)).max() == 0.0

    def test_symmetric_two_point_case(self):
        # Two identical unit columns, zero duals, sparse mode: the subproblem
        # is symmetric in the two points, so the solution must be symmetric;
        # verified against the 4x4 vectorized system.
        frames, points = 2, 2
        shapes = np.tile(np.array([[1.0], [0.0], [0.0]] * frames), (1, 2))
        shapes /= np.linalg.norm(shapes[:, 0])
        state = AdmmState(
            shapes=shapes,
            lowrank=to_frame_rows(shapes),
            slack=np.zeros((points, points)),
            coeffs=np.zeros((points, points)),
            duals=DualState.zeros(frames, points, points, 0.5),
        )
        merged = identity_merged(points)
        raw = dense_coeff_subproblem(state, merged)
        gram = shapes.T @ shapes
        ones = np.ones((points, points))
        a = gram + ones + 1e-10 * np.eye(points)
        direct = kron_solve(a, merged @ merged.T, gram + ones)
        assert np.abs(raw - direct).max() <= 1e-8
        assert abs(raw[0, 1] - raw[1, 0]) <= 1e-10

    def test_matches_kronecker_solve(self):
        _, _, _, state = small_problem(seed=52, frames=3, points=8)
        merged = identity_merged(8)
        raw = dense_coeff_subproblem(state, merged)
        beta = state.duals.beta
        gram = state.shapes.T @ state.shapes
        ones = np.ones((8, 8))
        a = gram + ones + 1e-10 * np.eye(8)
        b = merged @ merged.T
        q = (gram + state.shapes.T @ (state.duals.y_selfexpr / beta)
             + state.slack @ merged.T
             - (state.duals.y_slack / beta) @ merged.T
             + ones - np.outer(np.ones(8), state.duals.y_colsum) / beta)
        direct = kron_solve(a, b, q)
        assert np.abs(raw - direct).max() <= 1e-7 * (1 + np.abs(direct).max())

    def grid_problem(self):
        merged = dense_merged(build_neighbor_matrix(2, 3))
        rng = np.random.default_rng(53)
        state = random_state(rng, 3, 6, slack_cols=merged.shape[1])
        return state, merged

    def test_grid_operator_matches_kronecker_solve(self):
        # With the spatial term D D^T is no longer the identity.
        state, merged = self.grid_problem()
        raw = dense_coeff_subproblem(state, merged)
        beta = state.duals.beta
        gram = state.shapes.T @ state.shapes
        ones = np.ones((6, 6))
        a = gram + ones + 1e-10 * np.eye(6)
        b = merged @ merged.T
        assert np.abs(b - np.eye(6)).max() > 0
        q = (gram + state.shapes.T @ (state.duals.y_selfexpr / beta)
             + state.slack @ merged.T
             - (state.duals.y_slack / beta) @ merged.T
             + ones - np.outer(np.ones(6), state.duals.y_colsum) / beta)
        direct = kron_solve(a, b, q)
        assert np.abs(raw - direct).max() <= 1e-7 * (1 + np.abs(direct).max())


class TestUpdateDuals:
    def make_feasible_state(self, frames=3, points=4):
        # Every constraint gap is exactly zero in floats: zero shapes, and
        # coefficient columns holding two entries of 0.5 off the diagonal.
        coeffs = np.zeros((points, points))
        for j in range(points):
            coeffs[(j + 1) % points, j] = 0.5
            coeffs[(j + 2) % points, j] = 0.5
        merged = DenseMerged(identity_merged(points))
        duals = DualState(
            y_reshuffle=np.full((frames, 3 * points), 0.25),
            y_selfexpr=np.full((3 * frames, points), -0.5),
            y_slack=np.full((points, points), 0.125),
            y_colsum=np.full(points, 2.0),
            beta=2.0,
        )
        state = AdmmState(
            shapes=np.zeros((3 * frames, points)),
            lowrank=np.zeros((frames, 3 * points)),
            slack=coeffs @ merged.matrix,
            coeffs=coeffs,
            duals=duals,
        )
        return state, merged

    def test_feasible_point_leaves_duals_unchanged(self):
        state, merged = self.make_feasible_state()
        cfg = SolverConfig(rho=1.5, beta_max=10.0)
        out = update_duals(state.duals, constraint_gaps(state, merged), cfg)
        np.testing.assert_array_equal(out.y_reshuffle, state.duals.y_reshuffle)
        np.testing.assert_array_equal(out.y_selfexpr, state.duals.y_selfexpr)
        np.testing.assert_array_equal(out.y_slack, state.duals.y_slack)
        np.testing.assert_array_equal(out.y_colsum, state.duals.y_colsum)
        assert out.beta == 3.0

    def test_beta_capped(self):
        state, merged = self.make_feasible_state()
        state.duals = replace(state.duals, beta=10.0)
        cfg = SolverConfig(rho=1.5, beta_max=10.0)
        assert update_duals(state.duals, constraint_gaps(state, merged), cfg).beta == 10.0

    def test_single_violation_scales_by_beta(self):
        state, merged = self.make_feasible_state()
        state.lowrank[1, 2] += 0.25  # one reshuffle-constraint violation
        cfg = SolverConfig(rho=1.2, beta_max=100.0)
        out = update_duals(state.duals, constraint_gaps(state, merged), cfg)
        delta = out.y_reshuffle - state.duals.y_reshuffle
        assert abs(delta[1, 2] - state.duals.beta * 0.25) <= 1e-12
        assert np.count_nonzero(delta) == 1


def assert_close_rel(actual, expected, rtol):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


class TestEdgeOperator:
    """Grid mode's [I | D_e] with multiplicity 2 against the P x 5P [I | D]."""

    GRIDS = [(1, 1), (1, 6), (6, 1), (2, 3), (3, 4)]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
    def test_one_column_per_unique_edge(self, grid):
        height, width = grid
        edge = build_neighbor_matrix(height, width)
        points, edges = height * width, height * (width - 1) + (height - 1) * width
        assert (edge.points, edge.columns) == (points, points + edges)
        assert edge_csr(edge).shape == (points, points + edges)
        np.testing.assert_array_equal(
            edge.multiplicity, np.r_[np.ones(points), np.full(edges, 2.0)])
        # Every nonzero diff column is +-1 times exactly one edge column,
        # and every edge column stands for exactly two of them.
        expansion = edge_expansion(edge)
        np.testing.assert_array_equal(edge_csr(edge) @ expansion, dense_merged(edge))
        np.testing.assert_array_equal(np.abs(expansion).sum(axis=1), edge.multiplicity)

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
    def test_grid_slicing_products_match_the_csr_matrix(self, grid):
        # The sweep's products slice the grid; the csr [I | D_e] is the
        # oracle. Subtracting one neighbor from another is what the csr
        # product sums, so the forward product agrees bit for bit.
        edge = build_neighbor_matrix(*grid)
        matrix = edge_csr(edge)
        rng = np.random.default_rng(edge.points)
        x, y = rng.normal(size=(7, edge.points)), rng.normal(size=(7, edge.columns))
        for arg in (x, np.asfortranarray(x)):
            product = edge.times(arg)
            assert product.flags.c_contiguous
            np.testing.assert_array_equal(product, x @ matrix)
        product = edge.times_weighted_transpose(y)
        assert product.flags.c_contiguous
        assert_close_rel(product, (y * edge.multiplicity) @ matrix.T, 1e-15)

    @pytest.mark.parametrize("grid", [(1, 1), (1, 7), (7, 1), (2, 2), (12, 20)],
                             ids=lambda g: f"{g[0]}x{g[1]}")
    def test_gram_terms_equal_full_operator_gram_exactly(self, grid):
        # The Gram is held by its two terms only; formed as their Kronecker
        # sum it is I + D D^T of the full 4-neighbor operator, bit for bit.
        neighbors = build_neighbor_matrix(*grid)
        full = dense_merged(neighbors)
        gram = neighbors.gram()
        assert isinstance(gram, KroneckerSumOperand)
        np.testing.assert_array_equal(kronecker_sum(gram.first, gram.second), full @ full.T)

    @pytest.mark.parametrize("grid", [(1, 1), (1, 7), (7, 1), (2, 2), (12, 20)],
                             ids=lambda g: f"{g[0]}x{g[1]}")
    def test_gram_eigenpairs_are_the_separable_grid_basis(self, grid):
        # I + 2 L is the Kronecker sum of I + 2 L_h and 2 L_w: its basis
        # kron(V_h, V_w) and eigenvalues 1 + 2 (l_i + l_j), with
        # l_k = 2 - 2 cos(pi k / n) on an n-node path, rebuild the exact Gram.
        height, width = grid
        gram = build_neighbor_matrix(height, width).gram()
        exact = kronecker_sum(gram.first, gram.second)
        basis = np.kron(*gram.bases)
        rebuilt = (basis * gram.eigenvalues) @ basis.T
        assert np.abs(rebuilt - exact).max() <= 1e-13 * np.abs(exact).max()
        path = [2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n) for n in grid]
        expected = 1.0 + 2.0 * (path[0][:, None] + path[1][None, :]).ravel()
        np.testing.assert_allclose(np.sort(gram.eigenvalues), np.sort(expected),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_path_laplacian(self, n):
        np.testing.assert_array_equal(mbnrsfm.scene._path_laplacian(n), path_laplacian(n))

    @pytest.fixture
    def problem(self):
        # A random edge-form state and the P x 5P state it stands for: the
        # slack and its dual expanded through X, so twin columns are exact
        # negatives and border columns are zero.
        edge = build_neighbor_matrix(3, 4)
        expansion = edge_expansion(edge)
        _, camera, w, _ = small_problem(seed=72, frames=4, points=12)
        state = random_state(np.random.default_rng(72), 4, 12, slack_cols=edge.columns)
        full = replace(state, slack=state.slack @ expansion,
                       duals=replace(state.duals, y_slack=state.duals.y_slack @ expansion))
        return camera, w, state, edge, full, DenseMerged(dense_merged(edge)), expansion

    def test_slack_and_gaps_are_the_expanded_edge_form(self, problem):
        _, _, state, edge, full, dense, expansion = problem
        cfg = SolverConfig(lambda1=0.3)
        assert_close_rel(update_slack(state, edge, cfg) @ expansion,
                         update_slack(full, dense, cfg), 1e-12)
        edge_gaps, full_gaps = constraint_gaps(state, edge), constraint_gaps(full, dense)
        assert_close_rel(edge_gaps[2] @ expansion, full_gaps[2], 1e-12)
        assert constraint_residuals(edge_gaps) == pytest.approx(
            constraint_residuals(full_gaps), rel=1e-12)

    def test_coefficient_step_weighs_edges_twice(self, problem):
        _, _, state, edge, full, dense, _ = problem
        assert_close_rel(update_coefficients(state, edge, edge.gram()),
                         update_coefficients(full, dense, dense.gram()), 1e-12)

    def test_objective_and_lagrangian_weigh_edges_twice(self, problem):
        camera, w, state, edge, full, dense, _ = problem
        cfg = SolverConfig(lambda1=0.3)
        assert objective(w, camera, state, cfg, edge) == pytest.approx(
            objective(w, camera, full, cfg, dense), rel=1e-12)
        assert augmented_lagrangian(w, camera, state, edge, cfg) == pytest.approx(
            augmented_lagrangian(w, camera, full, dense, cfg), rel=1e-12)
        # Without the multiplicity the l1 term would count each edge once.
        assert objective(w, camera, state, cfg, None) < objective(
            w, camera, state, cfg, edge)


def eigenbasis_shape_step(state, w, camera):
    """The shape step with both operands eigendecomposed: the oracle."""
    beta = state.duals.beta
    blocks = camera.blocks
    frames, points = blocks.shape[0], w.shape[1]
    ic = np.eye(points) - state.coeffs
    backprojected = np.einsum("fji,fjp->fip", blocks, w.reshape(frames, 2, points))
    rhs = (backprojected.reshape(3 * frames, points) / beta
           + to_point_columns(state.lowrank)
           + to_point_columns(state.duals.y_reshuffle) / beta
           - (state.duals.y_selfexpr / beta) @ ic.T)
    left = SymmetricOperand(np.einsum("fji,fjk->fik", blocks, blocks) / beta + np.eye(3))
    return solve_sylvester(left, dense_right_operand(ic @ ic.T), rhs)


def eigenbasis_coefficient_step(state, merged):
    """The coefficient step with the P x P left operand eigendecomposed."""
    beta = state.duals.beta
    shapes = state.shapes
    points = shapes.shape[1]
    left = SymmetricOperand(shapes.T @ shapes + 1.0 + 1e-10 * np.eye(points))
    rhs = (shapes.T @ (shapes + state.duals.y_selfexpr / beta)
           + (state.slack - state.duals.y_slack / beta) @ merged.T
           + 1.0 - state.duals.y_colsum / beta)
    coeffs = solve_sylvester(left, dense_right_operand(merged @ merged.T), rhs)
    np.fill_diagonal(coeffs, 0.0)
    return coeffs


def stops(residuals, previous, state, cfg):
    """``solve``'s stop rule after an oracle sweep.

    ``previous`` is the (S, C) pair that the sweep replaced; it is used up.
    """
    changes = (_step(state.shapes, previous[0])[1], _step(state.coeffs, previous[1])[1])
    return _converged(residuals, changes, cfg)[1]


def eigenbasis_sweep(w, camera, merged, cfg):
    """A whole ADMM run over the eigenbasis oracles; returns (state, iterations)."""
    points, frames = w.shape[1], camera.frames
    shapes = pseudo_inverse_shapes(w, camera)
    state = AdmmState(
        shapes=shapes,
        lowrank=to_frame_rows(shapes),
        slack=np.zeros((points, merged.shape[1])),
        coeffs=np.zeros((points, points)),
        duals=DualState.zeros(frames, points, merged.shape[1], cfg.beta0),
    )
    operator = DenseMerged(merged)
    for iteration in range(1, cfg.max_iters + 1):
        previous = state.shapes, state.coeffs
        state.shapes = eigenbasis_shape_step(state, w, camera)
        state.lowrank, _ = update_lowrank(state, cfg)
        state.slack = update_slack(state, operator, cfg)
        state.coeffs = eigenbasis_coefficient_step(state, merged)
        residuals = constraint_residuals(constraint_gaps(state, operator))
        state.duals = update_duals(state.duals, constraint_gaps(state, operator), cfg)
        if stops(residuals, previous, state, cfg):
            return state, iteration
    return state, cfg.max_iters


@pytest.fixture
def eigh_inputs(monkeypatch):
    """The shape of every symmetric eigendecomposition input, in call order.

    Recorded from numpy.linalg.eigh (linalg._eigh's included), from
    scipy.linalg.eigh, and from scipy's LAPACK dsyevr, which the SVT calls
    on the n x n Gram of its target's short side.
    """
    shapes = []
    for owner, name in [(np.linalg, "eigh"), (scipy.linalg, "eigh"),
                        (scipy.linalg.lapack, "dsyevr")]:
        def recording(mat, *args, _original=getattr(owner, name), **kwargs):
            shapes.append(np.shape(mat))
            return _original(mat, *args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
    return shapes


class TestWideScenes:
    """P > 3F + 1: the coefficient step takes the Woodbury branch."""

    SCENES = {
        "sparse": (4, 10, None),   # 20 points, 3F + 1 = 13
        "grid": (3, 6, (3, 4)),    # 12 points on a 3 x 4 grid, 3F + 1 = 10
    }

    def scene(self, name):
        frames, per_body, grid = self.SCENES[name]
        scene = generate_scene(default_two_body(frames=frames, points_per_body=per_body))
        assert 3 * frames + 1 < scene.w.shape[1]
        return scene, build_neighbor_matrix(*grid) if grid else None

    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_solve_matches_eigenbasis_oracle(self, name):
        scene, neighbors = self.scene(name)
        cfg = SolverConfig()
        shapes, coeffs, trace = solve(scene.w, scene.camera, neighbors, cfg)
        assert trace.converged

        merged = dense_merged(neighbors, num_points=scene.w.shape[1])
        oracle, iterations = eigenbasis_sweep(scene.w, scene.camera, merged, cfg)
        assert len(trace) == iterations
        assert_close_rel(shapes, oracle.shapes, 1e-9)
        assert_close_rel(coeffs, oracle.coeffs, 1e-9)
        np.testing.assert_array_equal(
            spectral_cluster(build_affinity(coeffs), 2, seed=0),
            spectral_cluster(build_affinity(oracle.coeffs), 2, seed=0),
        )

    def test_no_points_by_points_eigh_inside_the_loop(self, eigh_inputs):
        # Per iteration only the F x F Gram of the SVT target and the
        # (3F+1)-square Gram of [S; 1^T] are eigendecomposed; the h x h and
        # w x w terms of the constant D D^T and the F 3 x 3 camera blocks
        # are factored once per solve, in set-up, and nothing P x P ever.
        scene, neighbors = self.scene("grid")
        _, _, trace = solve(scene.w, scene.camera, neighbors, SolverConfig(max_iters=9))
        assert len(trace) == 9
        assert eigh_inputs == [(3, 3), (4, 4), (3, 3, 3)] + [(3, 3), (10, 10)] * 9


class TestSolverConfig:
    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            SolverConfig(rho=1.0)

    def test_rejects_beta_cap_below_start(self):
        with pytest.raises(ValueError):
            SolverConfig(beta0=1.0, beta_max=0.1)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)

    @pytest.mark.parametrize("field", [
        "lambda1", "lambda2", "beta0", "rho", "beta_max", "epsilon",
    ])
    def test_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", [
        "lambda1", "lambda2", "beta0", "rho", "beta_max", "epsilon",
    ])
    def test_rejects_infinity(self, field):
        # epsilon=inf would leave the stop to the drift test alone; infinite
        # weights or penalties drive the objective to NaN.
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: float("inf")})

    def test_rejects_fractional_max_iters(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=2.5)

    def test_rejects_boolean_max_iters(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=True)

    def test_accepts_numpy_integer_max_iters(self):
        scene = generate_scene(default_two_body(frames=4, points_per_body=5))
        _, _, trace = solve(scene.w, scene.camera, None, SolverConfig(max_iters=np.int64(2)))
        assert len(trace) == 2

    def test_nuclear_weight_default_formula(self):
        cfg = SolverConfig()
        assert cfg.nuclear_weight(30, 60) == pytest.approx(1.0 / np.sqrt(180.0))
        assert SolverConfig(lambda2=0.7).nuclear_weight(30, 60) == 0.7


class TestSolve:
    def test_rigid_body_converges_and_reprojects(self):
        rng = np.random.default_rng(71)
        frames, points = 20, 20
        basis = rng.normal(size=(1, 3, points))
        shapes = assemble_body(basis, np.ones((1, frames)), (0.0, 0.0, 0.0), 1.0)
        per = shapes.reshape(frames, 3, points)
        shapes = (per - per.mean(axis=2, keepdims=True)).reshape(3 * frames, points)
        camera = _smooth_random_camera(np.random.default_rng(5), frames)
        w = block_diagonal(camera) @ shapes
        # Weak nuclear weight: the data residual of the penalized fixed
        # point scales with lambda2, and rigid data needs little rank help.
        cfg = SolverConfig(lambda2=0.01)
        shapes, _, trace = solve(w, camera, None, cfg)
        assert trace.converged
        assert trace.r2[-1] <= cfg.epsilon
        assert reprojection_error(w, camera, shapes) <= 1e-3

    def test_two_body_scene_segments_exactly(self, default_run):
        scene, _, coeffs, trace = default_run
        assert trace.converged
        labels = spectral_cluster(build_affinity(coeffs), 2, seed=0)
        assert segmentation_error(labels, scene.labels) == 0.0

    def test_returns_the_shape_stack_and_zero_diagonal_coefficients(self, default_run):
        scene, shapes, coeffs, _ = default_run
        frames, points = scene.camera.frames, scene.w.shape[1]
        assert type(shapes) is np.ndarray and shapes.shape == (3 * frames, points)
        assert type(coeffs) is np.ndarray and coeffs.shape == (points, points)
        assert np.abs(np.diag(coeffs)).max() == 0.0

    def test_column_sums_near_one_at_convergence(self, default_run):
        # The stop rule bounds the last sweep's residuals, and the returned C
        # is that sweep's: its column-sum defect is the traced r4, bit for bit.
        _, _, coeffs, trace = default_run
        assert trace.converged
        defect = np.abs(coeffs.sum(axis=0) - 1.0).max()
        assert defect == trace.r4[-1]
        assert defect <= SolverConfig().epsilon

    @staticmethod
    def sparse_sweep(scene, merged, cfg):
        """An explicit sweep over the update functions; returns (state, iterations)."""
        points = scene.w.shape[1]
        frames = scene.camera.frames
        shapes = pseudo_inverse_shapes(scene.w, scene.camera)
        state = AdmmState(
            shapes=shapes,
            lowrank=to_frame_rows(shapes),
            slack=np.zeros((points, points)),
            coeffs=np.zeros((points, points)),
            duals=DualState.zeros(frames, points, points, cfg.beta0),
        )
        merged_gram = _merged_gram(merged, points)
        for iteration in range(1, cfg.max_iters + 1):
            previous = state.shapes, state.coeffs
            state.shapes = shape_step(state, scene.w, scene.camera)
            state.lowrank, _ = update_lowrank(state, cfg)
            state.slack = update_slack(state, merged, cfg)
            state.coeffs = update_coefficients(state, merged, merged_gram)
            residuals = constraint_residuals(constraint_gaps(state, merged))
            state.duals = update_duals(state.duals, constraint_gaps(state, merged), cfg)
            if stops(residuals, previous, state, cfg):
                return state, iteration
        return state, cfg.max_iters

    def test_sparse_mode_equals_manual_identity_path(self):
        # Running without a neighbor matrix must be bit-identical to an
        # explicit sweep over the update functions with merged=None, the
        # identity merged operator.
        config = default_two_body(frames=10, points_per_body=8, basis_rank=1)
        scene = generate_scene(config)
        cfg = SolverConfig(max_iters=40)
        shapes, coeffs, trace = solve(scene.w, scene.camera, None, cfg)

        state, iterations = self.sparse_sweep(scene, None, cfg)
        assert iterations == len(trace)
        np.testing.assert_array_equal(shapes, state.shapes)
        np.testing.assert_array_equal(coeffs, state.coeffs)

    @pytest.mark.parametrize("frames,per_body", [(10, 8), (4, 10)],
                             ids=["cholesky", "woodbury"])
    def test_sparse_mode_matches_dense_identity_oracle(self, frames, per_body):
        # The same sweep with the dense identity as the merged operator: its
        # Gram is eigendecomposed and every product with it is taken. That
        # is the old path, kept as the oracle; it agrees up to rounding.
        scene = generate_scene(default_two_body(frames=frames, points_per_body=per_body))
        cfg = SolverConfig()
        shapes, coeffs, trace = solve(scene.w, scene.camera, None, cfg)
        assert trace.converged

        oracle, iterations = self.sparse_sweep(
            scene, DenseMerged(identity_merged(scene.w.shape[1])), cfg)
        assert iterations == len(trace)
        assert_close_rel(shapes, oracle.shapes, 1e-9)
        assert_close_rel(coeffs, oracle.coeffs, 1e-9)

    def test_zero_iterations_returns_initialization(self):
        scene = generate_scene(default_two_body(frames=6, points_per_body=5))
        cfg = SolverConfig(max_iters=0)
        shapes, coeffs, trace = solve(scene.w, scene.camera, None, cfg)
        assert len(trace) == 0 and not trace.converged
        np.testing.assert_array_equal(
            shapes, pseudo_inverse_shapes(scene.w, scene.camera)
        )
        assert not coeffs.any()

    def test_nonconvergence_is_flagged_not_raised(self):
        scene = generate_scene(default_two_body(frames=6, points_per_body=5))
        cfg = SolverConfig(max_iters=3)
        _, _, trace = solve(scene.w, scene.camera, None, cfg)
        assert len(trace) == 3 and not trace.converged

    def test_trace_crosses_epsilon_only_at_the_end(self, default_run):
        # The run stops on the first sweep whose residual is within epsilon
        # and whose drift is within DRIFT_TOL: every earlier row misses one.
        _, _, _, trace = default_run
        curve = trace.max_residuals()
        eps = SolverConfig().epsilon
        assert curve[-1] <= eps and trace.drift[-1] <= DRIFT_TOL
        assert all(value > eps or drift > DRIFT_TOL
                   for value, drift in zip(curve[:-1], trace.drift[:-1]))

    def test_drift_holds_the_stop_after_the_residual_passes(self, default_run):
        # Not vacuous on the stock scene: the residual is within epsilon
        # sweeps before the drift is, so the drift test ends the run.
        _, _, _, trace = default_run
        eps = SolverConfig().epsilon
        held = [d for r, d in zip(trace.max_residuals(), trace.drift) if r <= eps]
        assert len(held) > 1 and all(d > DRIFT_TOL for d in held[:-1])

    def test_trace_dual_residuals_and_drift_are_the_sweep_steps(self):
        # Sweep k's row holds beta_k ||S_k - S_{k-1}||_F, the same for C, and
        # rho / (rho - 1) times the larger relative step: recomputed here
        # from the iterates of runs cut after k - 1 and k sweeps.
        scene = generate_scene(default_two_body(frames=6, points_per_body=5))
        cfg = SolverConfig()
        k = 6
        (s0, c0, _), (s1, c1, trace) = (
            solve(scene.w, scene.camera, None, replace(cfg, max_iters=n)) for n in (k - 1, k))
        shape_step, coeff_step = frobenius_norm(s1 - s0), frobenius_norm(c1 - c0)
        assert trace.dual_s[-1] == trace.beta[-1] * shape_step
        assert trace.dual_c[-1] == trace.beta[-1] * coeff_step
        relative = max(shape_step / frobenius_norm(s1), coeff_step / frobenius_norm(c1))
        assert trace.drift[-1] == cfg.rho / (cfg.rho - 1.0) * relative
        assert len(trace.dual_s) == len(trace.dual_c) == len(trace.drift) == k

    def test_a_zero_iterate_is_not_settled(self):
        # A zero ||X|| reads as an infinite relative step, with no NaN and
        # no warning (the suite turns a RuntimeWarning into an error).
        old = np.zeros((4, 4))
        assert _step(np.zeros((4, 4)), old) == (0.0, np.inf)
        drift, stop = _converged((0.0,) * 4, (0.0, np.inf), SolverConfig())
        assert drift == np.inf and not stop

    def test_step_writes_the_difference_over_the_old_iterate(self):
        new, old = np.array([[3.0, 8.0]]), np.array([[0.0, 4.0]])
        assert _step(new, old) == (5.0, 5.0 / np.sqrt(73.0))
        np.testing.assert_array_equal(old, [[3.0, 4.0]])

    def test_each_update_weakly_decreases_the_lagrangian(self):
        # Every primal update is the exact minimizer of the augmented
        # Lagrangian over its own block (for the coefficients: before the
        # diagonal projection), so the value can never go up.
        config = default_two_body(frames=8, points_per_body=6)
        scene = generate_scene(config)
        cfg = SolverConfig()
        points = scene.w.shape[1]
        frames = scene.camera.frames
        merged = DenseMerged(identity_merged(points))
        merged_gram = merged.gram()
        shapes = pseudo_inverse_shapes(scene.w, scene.camera)
        state = AdmmState(
            shapes=shapes,
            lowrank=to_frame_rows(shapes),
            slack=np.zeros((points, points)),
            coeffs=np.zeros((points, points)),
            duals=DualState.zeros(frames, points, points, cfg.beta0),
        )

        def lagrangian():
            return augmented_lagrangian(scene.w, scene.camera, state, merged, cfg)

        for _ in range(25):
            before = lagrangian()
            state.shapes = shape_step(state, scene.w, scene.camera)
            after_shapes = lagrangian()
            assert after_shapes <= before + 1e-9

            state.lowrank, _ = update_lowrank(state, cfg)
            after_lowrank = lagrangian()
            assert after_lowrank <= after_shapes + 1e-9

            state.slack = update_slack(state, merged, cfg)
            after_slack = lagrangian()
            assert after_slack <= after_lowrank + 1e-9

            raw = solve_coeff_subproblem(state, merged, merged_gram)
            saved = state.coeffs
            state.coeffs = raw
            assert lagrangian() <= after_slack + 1e-9
            state.coeffs = saved

            state.coeffs = update_coefficients(state, merged, merged_gram)
            state.duals = update_duals(state.duals, constraint_gaps(state, merged), cfg)

    def test_dimension_mismatch_rejected(self):
        scene = generate_scene(default_two_body(frames=6, points_per_body=5))
        with pytest.raises(ValueError):
            solve(scene.w[:-2], scene.camera, None, SolverConfig())

    @pytest.mark.parametrize("neighbors", [np.eye(10), (2, 5)], ids=["dense", "tuple"])
    def test_neighbors_other_than_an_edge_operator_rejected(self, neighbors):
        scene = generate_scene(default_two_body(frames=6, points_per_body=5))
        with pytest.raises(TypeError, match="build_neighbor_matrix"):
            solve(scene.w, scene.camera, neighbors, SolverConfig())

    def test_grid_of_another_size_rejected(self):
        scene = generate_scene(default_two_body(frames=6, points_per_body=5))
        with pytest.raises(ValueError, match=r"neighbor grid 4 x 6 covers 24 points, scene has 10"):
            solve(scene.w, scene.camera, build_neighbor_matrix(4, 6), SolverConfig())

    def test_bad_init_shape_rejected(self):
        scene = generate_scene(default_two_body(frames=6, points_per_body=5))
        with pytest.raises(ValueError):
            solve(scene.w, scene.camera, None, SolverConfig(),
                  init_shapes=np.zeros((9, 10)))

    def test_two_sylvester_calls_per_iteration(self, monkeypatch):
        # The benchmark's tracing wraps mbnrsfm.admm.solve_sylvester and reads
        # the sizes of the two positional operands.
        calls = []
        original = mbnrsfm.admm.solve_sylvester

        def counting(*args, **kwargs):
            calls.append((args[0].shape[0], args[1].shape[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(mbnrsfm.admm, "solve_sylvester", counting)
        scene = generate_scene(default_two_body(frames=6, points_per_body=5))
        _, _, trace = solve(scene.w, scene.camera, None, SolverConfig(max_iters=7))
        assert len(trace) == 7
        assert calls == [(18, 10), (10, 10)] * 7

    def grid_scene(self, frames=8, per_body=6, grid=(3, 4)):
        # 2 * per_body points on a grid; the grid order is arbitrary here,
        # the point is to exercise the spatial-term path.
        scene = generate_scene(default_two_body(frames=frames, points_per_body=per_body))
        return scene, build_neighbor_matrix(*grid)

    @staticmethod
    def dense_grid_sweeps(scene, neighbors, cfg):
        """Sweeps over the update functions with the dense P x 5P [I | D].

        Yields (iteration, state) after each dual step, and stops after the
        sweep that meets ``solve``'s stop rule.
        """
        points = scene.w.shape[1]
        frames = scene.camera.frames
        merged = DenseMerged(dense_merged(neighbors))
        merged_gram = merged.gram()
        shapes = pseudo_inverse_shapes(scene.w, scene.camera)
        state = AdmmState(
            shapes=shapes,
            lowrank=to_frame_rows(shapes),
            slack=np.zeros((points, 5 * points)),
            coeffs=np.zeros((points, points)),
            duals=DualState.zeros(frames, points, 5 * points, cfg.beta0),
        )
        for iteration in range(1, cfg.max_iters + 1):
            previous = state.shapes, state.coeffs
            state.shapes = shape_step(state, scene.w, scene.camera)
            state.lowrank, _ = update_lowrank(state, cfg)
            state.slack = update_slack(state, merged, cfg)
            state.coeffs = update_coefficients(state, merged, merged_gram)
            residuals = constraint_residuals(constraint_gaps(state, merged))
            state.duals = update_duals(state.duals, constraint_gaps(state, merged), cfg)
            stop = stops(residuals, previous, state, cfg)
            yield iteration, state
            if stop:
                return

    @pytest.mark.parametrize("frames,per_body,grid", [
        (8, 6, (3, 4)),   # P = 12 <= 3F + 1 = 25: formed left operand
        (6, 3, (1, 6)),   # line grids: one edge direction is empty
        (6, 3, (6, 1)),
        (3, 6, (3, 4)),   # P = 12 > 3F + 1 = 10: Woodbury left operand
    ], ids=["3x4_formed", "1x6", "6x1", "3x4_woodbury"])
    def test_grid_mode_equals_manual_dense_operator_path(self, frames, per_body, grid):
        # solve holds [I | D_e] on unique edges with multiplicity 2; a sweep
        # over the update functions with the dense P x 5P operator must agree
        # up to summation order.
        scene, neighbors = self.grid_scene(frames, per_body, grid)
        cfg = SolverConfig(lambda1=1e-2)
        shapes, coeffs, trace = solve(scene.w, scene.camera, neighbors, cfg)
        assert trace.converged

        objectives = []
        for _, state in self.dense_grid_sweeps(scene, neighbors, cfg):
            objectives.append(objective(scene.w, scene.camera, state, cfg, None))
        assert len(trace) == len(objectives)
        assert_close_rel(shapes, state.shapes, 1e-9)
        assert_close_rel(coeffs, state.coeffs, 1e-9)
        # The l1 term counts each edge twice, as the dense slack does.
        np.testing.assert_allclose(trace.objective, objectives, rtol=1e-9)

    @pytest.mark.parametrize("frames,per_body,grid", [
        (8, 6, (3, 4)),    # P = 12 <= 3F + 1 = 25: formed left operand
        (3, 6, (3, 4)),    # P = 12 > 3F + 1 = 10: Woodbury left operand
        (10, 24, (6, 8)),  # P = 48 > 3F + 1 = 31: Woodbury left operand
        (6, 3, (1, 6)),
    ], ids=["3x4_formed", "3x4_woodbury", "6x8_woodbury", "1x6"])
    def test_grid_solve_matches_the_dense_eigenbasis_route(self, monkeypatch, frames,
                                                           per_body, grid):
        # The oracle is the route the Kronecker-sum operand replaced: the
        # same grid Gram formed densely and eigendecomposed by one P x P
        # eigh, as a one-term Kronecker sum. Only the rotations' rounding
        # differs.
        scene, neighbors = self.grid_scene(frames, per_body, grid)
        cfg = SolverConfig(lambda1=1e-2)
        runs = [solve(scene.w, scene.camera, neighbors, cfg)]
        original = mbnrsfm.admm._merged_gram

        def dense_eigenbasis(merged, points):
            gram = original(merged, points)
            assert isinstance(gram, KroneckerSumOperand)
            return dense_right_operand(kronecker_sum(gram.first, gram.second))

        monkeypatch.setattr(mbnrsfm.admm, "_merged_gram", dense_eigenbasis)
        runs.append(solve(scene.w, scene.camera, neighbors, cfg))
        (shapes, coeffs, trace), (oracle_shapes, oracle_coeffs, oracle_trace) = runs
        assert trace.converged and len(trace) == len(oracle_trace)
        assert_close_rel(shapes, oracle_shapes, 1e-12)
        assert_close_rel(coeffs, oracle_coeffs, 1e-12)
        np.testing.assert_allclose(trace.objective, oracle_trace.objective, rtol=1e-13)
        np.testing.assert_array_equal(
            spectral_cluster(build_affinity(coeffs), 2, seed=0),
            spectral_cluster(build_affinity(oracle_coeffs), 2, seed=0),
        )

    @pytest.mark.parametrize("frames,per_body,grid", [
        (10, 6, (3, 4)),   # P = 12 <= 3F + 1 = 31: formed left operand
        (4, 10, (4, 5)),   # P = 20 > 3F + 1 = 13: Woodbury left operand
    ], ids=["3x4_formed", "4x5_woodbury"])
    def test_grid_solve_builds_no_csr_matrix(self, monkeypatch, frames, per_body, grid):
        # Grid mode forms no sparse matrix, in set-up or in the residual
        # check: with csr_array made to raise, solve returns the same bits.
        scene, neighbors = self.grid_scene(frames, per_body, grid)
        cfg = SolverConfig(lambda1=1e-2)
        expected_shapes, expected_coeffs, expected_trace = solve(
            scene.w, scene.camera, neighbors, cfg)

        def no_csr(*args, **kwargs):
            raise AssertionError("grid mode built a csr_array")

        monkeypatch.setattr(scipy.sparse, "csr_array", no_csr)
        shapes, coeffs, trace = solve(scene.w, scene.camera, neighbors, cfg)
        assert np.array_equal(shapes, expected_shapes)
        assert np.array_equal(coeffs, expected_coeffs)
        assert vars(trace) == vars(expected_trace) and len(trace) > 1

    def test_dense_grid_slack_keeps_twin_columns_exact_negatives(self):
        # What makes the edge form exact: on the dense [I | D] path the slack
        # and its dual hold each interior edge twice, as exact negatives, and
        # the border columns stay exactly zero, in every sweep.
        scene, neighbors = self.grid_scene()
        points = neighbors.points
        columns = neighbor_diff(neighbors.height, neighbors.width).T
        border = [points + c for c, col in enumerate(columns) if not col.any()]
        twins = [(points + c, points + t) for c, col in enumerate(columns)
                 for t, other in enumerate(columns)
                 if c < t and col.any() and np.array_equal(col, -other)]
        assert len(twins) == 17 and len(border) == 4 * points - 34
        sweeps = shrunk_to_nonzero = 0
        cfg = SolverConfig(lambda1=1e-2)
        for sweeps, state in self.dense_grid_sweeps(scene, neighbors, cfg):
            for values in (state.slack, state.duals.y_slack):
                for a, b in twins:
                    assert np.array_equal(values[:, a], -values[:, b])
                assert not values[:, border].any()
            shrunk_to_nonzero += bool(state.slack[:, points:].any())
        # The check is not vacuous: the edge slack leaves zero in most sweeps.
        assert sweeps > 10 and shrunk_to_nonzero > sweeps // 2

    def test_grid_sweep_holds_one_slack_sized_temporary_at_a_time(self):
        # The slack and its dual, P x (P + E), are the largest arrays of a
        # grid sweep. Each step writes into the buffers it replaces, so the
        # traced peak of a solve, state and set-up included, stays under six
        # of them on a 12 x 20 grid; with every update in a fresh array the
        # same solve peaks at 6.56.
        scene = generate_scene(default_two_body(frames=30, points_per_body=120))
        neighbors = build_neighbor_matrix(12, 20)
        slack_bytes = neighbors.points * neighbors.columns * 8
        tracemalloc.start()
        try:
            _, _, trace = solve(scene.w, scene.camera, neighbors, SolverConfig(max_iters=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 4
        assert peak <= 6.0 * slack_bytes

    def test_grid_mode_traced_calls_per_iteration(self, monkeypatch):
        # The benchmark's tracing contract in grid mode: two Sylvester solves
        # with .shape operands and one shrinkage call per iteration, all
        # looked up on mbnrsfm.admm.
        sylvester, shrink = [], []
        original_sylvester = mbnrsfm.admm.solve_sylvester
        original_shrink = mbnrsfm.admm.soft_threshold

        def counting_sylvester(*args, **kwargs):
            sylvester.append((args[0].shape[0], args[1].shape[0]))
            return original_sylvester(*args, **kwargs)

        def counting_shrink(*args, **kwargs):
            shrink.append(np.shape(args[0]))
            return original_shrink(*args, **kwargs)

        monkeypatch.setattr(mbnrsfm.admm, "solve_sylvester", counting_sylvester)
        monkeypatch.setattr(mbnrsfm.admm, "soft_threshold", counting_shrink)
        scene, neighbors = self.grid_scene()
        _, _, trace = solve(scene.w, scene.camera, neighbors, SolverConfig(max_iters=7))
        assert len(trace) == 7
        assert sylvester == [(24, 12), (12, 12)] * 7
        # The slack is P x (P + E): the 3 x 4 grid has 3*3 + 2*4 = 17 unique edges.
        assert shrink == [(12, 29)] * 7

    @pytest.mark.parametrize("frames,per_body,grid,coeff_left,coeff_right", [
        # P = 10 <= 3F + 1 = 19: M^T M formed, one Cholesky factor of it + I
        (6, 5, None, CholeskyOperand, IdentityOperand),
        (4, 10, None, GramOperand, IdentityOperand),    # P = 20 > 13: Woodbury
        (3, 6, (3, 4), GramOperand, KroneckerSumOperand),  # P = 12 > 10: Woodbury
        (10, 6, (3, 4), SymmetricOperand, KroneckerSumOperand),  # P = 12 <= 31: formed
    ], ids=["sparse_narrow", "sparse_wide", "grid", "grid_formed"])
    def test_sylvester_operand_types(self, monkeypatch, frames, per_body, grid, coeff_left,
                                     coeff_right):
        # Which operand each of the two solves per sweep gets, for all five
        # pairs that solve reaches; all looked up on mbnrsfm.admm.
        calls = []
        original = mbnrsfm.admm.solve_sylvester

        def recording(a, b, q):
            calls.append((type(a), type(b)))
            return original(a, b, q)

        monkeypatch.setattr(mbnrsfm.admm, "solve_sylvester", recording)
        scene = generate_scene(default_two_body(frames=frames, points_per_body=per_body))
        neighbors = build_neighbor_matrix(*grid) if grid else None
        _, _, trace = solve(scene.w, scene.camera, neighbors, SolverConfig(max_iters=3))
        assert len(trace) == 3
        assert calls == [(SymmetricOperand, CholeskyOperand), (coeff_left, coeff_right)] * 3

    def test_sylvester_builds_only_the_pairs_solve_reaches(self):
        # The five pairs of test_sylvester_operand_types, and no pair that
        # only a test would reach.
        assert set(mbnrsfm.linalg._BUILDERS) == {
            (SymmetricOperand, CholeskyOperand),
            (CholeskyOperand, IdentityOperand),
            (GramOperand, IdentityOperand),
            (GramOperand, KroneckerSumOperand),
            (SymmetricOperand, KroneckerSumOperand),
        }

    @pytest.mark.parametrize("frames,per_body", [(6, 5), (4, 10)],
                             ids=["formed_left", "woodbury"])
    def test_sparse_mode_eigendecomposes_no_points_square_matrix(
            self, eigh_inputs, frames, per_body):
        # Every eigh input of a sparse solve: the F camera blocks once, in
        # set-up, and per sweep the F x F Gram of the SVT target and, with
        # 3F + 1 < P, the (3F+1)-square Gram of [S; 1^T]. Neither the
        # identity merged Gram nor a formed P x P left operand is
        # eigendecomposed.
        scene = generate_scene(default_two_body(frames=frames, points_per_body=per_body))
        points = scene.w.shape[1]
        _, _, trace = solve(scene.w, scene.camera, None, SolverConfig(max_iters=5))
        assert len(trace) == 5
        per_sweep = [(frames, frames)]
        if 3 * frames + 1 < points:
            per_sweep.append((3 * frames + 1, 3 * frames + 1))
        assert eigh_inputs == [(frames, 3, 3)] + per_sweep * 5
        assert (points, points) not in eigh_inputs

    def test_grid_mode_with_a_formed_left_operand_eigendecomposes_it_every_sweep(
            self, eigh_inputs):
        # With 3F + 1 >= P the coefficient step forms M^T M + eps I and
        # eigendecomposes it against the grid Gram each sweep, after the
        # SVT's F x F Gram; the module docstring says why no shifted
        # Cholesky factor replaces it. The grid Gram's 3 x 3 and 4 x 4
        # terms are factored once, in set-up.
        scene = generate_scene(default_two_body(frames=6, points_per_body=6))
        _, _, trace = solve(scene.w, scene.camera, build_neighbor_matrix(3, 4),
                            SolverConfig(max_iters=5))
        assert len(trace) == 5
        assert eigh_inputs == [(3, 3), (4, 4), (6, 3, 3)] + [(6, 6), (12, 12)] * 5

    def test_sparse_mode_builds_no_identity_matrix(self, monkeypatch):
        # The merged operator of sparse mode is held as None: no step builds
        # a P x P identity for it. The shape step's I - C is the one P x P
        # identity a sweep forms, so calls inside update_shapes are not
        # counted.
        eyes, in_shape_step = [], [False]
        original_eye, original_shapes = np.eye, mbnrsfm.admm.update_shapes

        def recording_eye(n, *args, **kwargs):
            if not in_shape_step[0]:
                eyes.append(n)
            return original_eye(n, *args, **kwargs)

        def shape_step(*args):
            in_shape_step[0] = True
            try:
                return original_shapes(*args)
            finally:
                in_shape_step[0] = False

        monkeypatch.setattr(np, "eye", recording_eye)
        monkeypatch.setattr(mbnrsfm.admm, "update_shapes", shape_step)
        scene = generate_scene(default_two_body(frames=6, points_per_body=5))
        _, _, trace = solve(scene.w, scene.camera, None, SolverConfig(max_iters=4))
        assert len(trace) == 4
        assert scene.w.shape[1] not in eyes

    @pytest.mark.parametrize("grid", [False, True], ids=["sparse", "grid"])
    def test_constraints_evaluated_once_per_iteration(self, monkeypatch, grid):
        # solve evaluates the four gaps once per sweep and hands the same
        # tuple to the residuals and to the dual step. All three are looked
        # up on mbnrsfm.admm, where the benchmark's tracing patches them.
        seen = {"constraint_gaps": [], "constraint_residuals": [], "update_duals": []}
        for name, calls in seen.items():
            def counting(*args, _original=getattr(mbnrsfm.admm, name), _calls=calls):
                result = _original(*args)
                _calls.append(result if _original is constraint_gaps else args[:2])
                return result

            monkeypatch.setattr(mbnrsfm.admm, name, counting)
        scene, neighbors = self.grid_scene()
        _, _, trace = solve(scene.w, scene.camera, neighbors if grid else None,
                            SolverConfig(lambda1=1e-2))
        assert trace.converged
        gaps = seen["constraint_gaps"]
        assert len(gaps) == len(seen["constraint_residuals"]) == len(seen["update_duals"])
        assert len(gaps) == len(trace) > 1
        for g, (residual_gaps,), (_, dual_gaps) in zip(
                gaps, seen["constraint_residuals"], seen["update_duals"]):
            assert residual_gaps is g and dual_gaps is g

    @pytest.mark.parametrize("grid,frames", [(False, 8), (True, 8), (False, 3)],
                             ids=["sparse", "grid", "sparse_woodbury"])
    def test_sweep_calls_no_wrapper_or_copying_reshuffle(self, monkeypatch, grid, frames):
        # Inside the loop the Cholesky factors go straight to LAPACK and the
        # reshuffles are views, so scipy's cho_factor/cho_solve wrappers and
        # the copying, validating reshuffle helpers run in set-up only: their
        # counts are the same after 2 sweeps as after 6. dpotrf (the shape
        # step) shows that the counting sees the sweep.
        counts = {}
        targets = [(scipy.linalg, "cho_factor"), (scipy.linalg, "cho_solve"),
                   (scipy.linalg.lapack, "dpotrf")]
        targets += [(module, name) for module in (mbnrsfm.scene, mbnrsfm.admm)
                    for name in ("to_frame_rows", "to_point_columns") if hasattr(module, name)]
        for owner, name in targets:
            def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        scene, neighbors = self.grid_scene(frames=frames)
        runs = []
        for sweeps in (2, 6):
            counts.clear()
            _, _, trace = solve(scene.w, scene.camera, neighbors if grid else None,
                                SolverConfig(epsilon=1e-300, max_iters=sweeps))
            assert len(trace) == sweeps
            runs.append(dict(counts))
        short, long = runs
        for name in ("cho_factor", "cho_solve", "to_frame_rows", "to_point_columns"):
            assert short.get(name, 0) == long.get(name, 0), name
        assert long["dpotrf"] > short["dpotrf"]

    def test_objective_fit_matches_block_diagonal_oracle(self):
        _, camera, w, state = small_problem(seed=61)
        cfg = SolverConfig(lambda1=0.0, lambda2=0.0)
        fit = 0.5 * np.linalg.norm(w - block_diagonal(camera) @ state.shapes) ** 2
        assert objective(w, camera, state, cfg, None) == pytest.approx(fit, rel=1e-12)

    @pytest.mark.parametrize("lambda2", [None, 0.0], ids=["default", "zero"])
    @pytest.mark.parametrize("grid", [False, True], ids=["sparse", "grid"])
    def test_one_svd_per_sweep(self, monkeypatch, grid, lambda2):
        # The objective's nuclear norm is the spectrum the low-rank step
        # thresholded, so that step's partial SVD is the only one in a
        # sweep: one dsyevr of the F x F Gram of the F x 3P target, and no
        # full SVD or QR. With no nuclear weight nothing is decomposed.
        calls = []
        for owner, name in [(np.linalg, "svd"), (scipy.linalg.lapack, "dsyevr"),
                            (scipy.linalg.lapack, "dgeqrf"), (scipy.linalg.lapack, "dormqr")]:
            def recording(mat, *args, _original=getattr(owner, name), _name=name, **kwargs):
                calls.append((_name, np.shape(mat)))
                return _original(mat, *args, **kwargs)

            monkeypatch.setattr(owner, name, recording)
        scene, neighbors = self.grid_scene()
        _, _, trace = solve(scene.w, scene.camera, neighbors if grid else None,
                            SolverConfig(lambda1=1e-2, lambda2=lambda2))
        assert trace.converged and len(trace) > 1
        assert calls == ([] if lambda2 == 0 else [("dsyevr", (8, 8))] * len(trace))

    @pytest.mark.parametrize("grid", [False, True], ids=["sparse", "grid"])
    def test_low_rank_step_calls_svt_by_its_name_on_admm(self, monkeypatch, grid):
        # The low-rank step looks the SVT up on mbnrsfm.admm, where the
        # benchmark's tracing wraps it: one call per sweep, on the F x 3P target.
        calls = []

        def counting(m, tau, _original=mbnrsfm.admm.svt):
            calls.append(m.shape)
            return _original(m, tau)

        monkeypatch.setattr(mbnrsfm.admm, "svt", counting)
        scene, neighbors = self.grid_scene()
        frames, points = scene.camera.frames, scene.w.shape[1]
        _, _, trace = solve(scene.w, scene.camera, neighbors if grid else None,
                            SolverConfig(lambda1=1e-2))
        assert trace.converged and len(trace) > 1
        assert calls == [(frames, 3 * points)] * len(trace)

    @pytest.mark.parametrize("seed,frames,per_body", [(1, 30, 30),
                                                      (DEFAULT_TWO_BODY_SEED, 120, 60)],
                             ids=["two_body_seed1", "120_frames"])
    def test_low_rank_step_stays_on_the_gram_route(self, monkeypatch, seed, frames, per_body):
        # Two default-config scenes of the benchmark: the 30-frame two-body
        # scene whose last sweeps come closest to the guard (n sigma_1 / tau
        # reaches about 5.8e4, growing with beta), and the 120-frame one.
        # No sweep falls back to the thin SVD or takes a QR.
        scene = generate_scene(default_two_body(seed=seed, frames=frames,
                                                points_per_body=per_body))
        ratios = []
        original = mbnrsfm.admm.svt

        def recording(m, tau):
            ratios.append(min(m.shape) * np.linalg.svd(m, compute_uv=False)[0] / tau)
            with monkeypatch.context() as patch:
                for owner, name in [(np.linalg, "svd"), (scipy.linalg.lapack, "dgeqrf"),
                                    (scipy.linalg.lapack, "dormqr")]:
                    patch.setattr(owner, name, None)
                return original(m, tau)

        monkeypatch.setattr(mbnrsfm.admm, "svt", recording)
        _, _, trace = solve(scene.w, scene.camera, None, SolverConfig())
        assert trace.converged and len(ratios) == len(trace)
        assert max(ratios) < SVT_GRAM_MAX_RATIO

    @pytest.mark.parametrize("lambda2", [None, 0.0], ids=["default", "zero"])
    def test_recorded_objective_matches_svd_reference(self, monkeypatch, lambda2):
        # Each sweep's recorded objective against objective_value recomputed
        # on that sweep's state without the low-rank step's spectrum, i.e.
        # with the SVD of the low-rank copy.
        reference = []
        original = mbnrsfm.admm.objective_value

        def recording(w, camera, state, config, spectrum, merged):
            reference.append(objective(w, camera, state, config, merged))
            return original(w, camera, state, config, spectrum, merged)

        monkeypatch.setattr(mbnrsfm.admm, "objective_value", recording)
        scene = generate_scene(default_two_body(frames=6, points_per_body=5))
        _, _, trace = solve(scene.w, scene.camera, None,
                            SolverConfig(lambda2=lambda2, max_iters=12))
        assert len(reference) == len(trace) == 12
        np.testing.assert_allclose(trace.objective, reference, rtol=1e-12, atol=0)

    def test_objective_recorded_each_iteration(self, default_run):
        scene, _, _, trace = default_run
        assert len(trace.objective) == len(trace)
        assert all(np.isfinite(v) for v in trace.objective)


def row_centred(w):
    """W with each row's mean removed, as the pipeline hands it to ``solve``."""
    return w - w.mean(axis=1, keepdims=True)


class TestRefinementInSolve:
    """When the Sylvester steps of a solve refine. On unit-scale scenes the
    first solve always meets the bound, so refinement costs nothing and
    leaves every artifact as it was; on pixel-unit W (W x 1e3 or 1e4) the
    coefficient step's conditioning grows with |W|^2, and refinement is what
    lets the solve run at all."""

    @pytest.mark.parametrize("frames,per_body,grid", [(30, 30, None), (30, 120, (12, 20))],
                             ids=["default_two_body", "grid_12x20"])
    def test_unit_scale_solve_takes_no_refinement(self, refinements, frames, per_body, grid):
        scene = generate_scene(default_two_body(frames=frames, points_per_body=per_body))
        neighbors = build_neighbor_matrix(*grid) if grid else None
        _, _, trace = solve(row_centred(scene.w), scene.camera, neighbors, SolverConfig())
        assert trace.converged
        assert refinements == []

    @pytest.mark.parametrize("frames,per_body,grid", [(30, 120, (12, 20)), (120, 60, None)],
                             ids=["grid_12x20", "long_sequence"])
    def test_pixel_unit_scene_runs_its_first_sweeps(self, frames, per_body, grid):
        scene = generate_scene(default_two_body(frames=frames, points_per_body=per_body))
        neighbors = build_neighbor_matrix(*grid) if grid else None
        _, _, trace = solve(1e3 * row_centred(scene.w), scene.camera, neighbors,
                            SolverConfig(max_iters=3))
        assert len(trace) == 3

    @pytest.mark.parametrize("frames,per_body,grid", [
        (4, 10, (4, 5)), (4, 10, None), (10, 8, None),
    ], ids=["grid_woodbury", "sparse_woodbury", "sparse_cholesky"])
    def test_pixel_unit_scene_converges_by_refinement(self, refinements, frames, per_body,
                                                      grid):
        # The sizes of the three scenes CI runs through the console script at
        # W x 1e4.
        scene = generate_scene(default_two_body(frames=frames, points_per_body=per_body))
        neighbors = build_neighbor_matrix(*grid) if grid else None
        _, _, trace = solve(1e4 * row_centred(scene.w), scene.camera, neighbors,
                            SolverConfig())
        assert trace.converged
        assert refinements
