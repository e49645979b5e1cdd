import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, strategies as st

from conftest import (
    DenseMerged,
    bartels_stewart,
    dense_merged,
    identity_merged,
    kronecker_sum,
    path_laplacian,
    random_state,
)

import mbnrsfm.admm
import mbnrsfm.linalg
from mbnrsfm.admm import COEFF_STABILIZER, solve_coeff_subproblem
from mbnrsfm.errors import NumericalError
from mbnrsfm.linalg import (
    SVT_GRAM_MAX_RATIO,
    SYLVESTER_RTOL,
    CholeskyOperand,
    GramOperand,
    IdentityOperand,
    KroneckerSumOperand,
    SymmetricOperand,
    _eigenvalue_clusters,
    as_matrix,
    diagonal_view,
    frobenius_norm,
    soft_threshold,
    solve_sylvester,
    svt,
)
from mbnrsfm.scene import CameraMotion, build_neighbor_matrix
from mbnrsfm.synth import _smooth_random_camera

finite_reals = st.floats(min_value=-1e100, max_value=1e100,
                         allow_nan=False, allow_infinity=False)


class TestSoftThreshold:
    def test_below_threshold(self):
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_sign_preserved(self):
        assert soft_threshold(-2.0, 0.5) == -1.5

    def test_identity_at_zero(self):
        assert soft_threshold(3.0, 0.0) == 3.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    def test_elementwise_on_arrays(self):
        x = np.array([[1.0, -0.2], [0.0, -3.0]])
        expected = np.array([[0.5, 0.0], [0.0, -2.5]])
        np.testing.assert_array_equal(soft_threshold(x, 0.5), expected)

    @given(x=finite_reals, tau=st.floats(min_value=0, max_value=1e100,
                                         allow_nan=False, allow_infinity=False))
    def test_shrinks_and_keeps_sign(self, x, tau):
        out = float(soft_threshold(x, tau))
        assert abs(out) <= abs(x)
        assert out * x >= 0.0

    @given(x=finite_reals, tau=st.floats(min_value=0, max_value=1e100,
                                         allow_nan=False, allow_infinity=False))
    def test_matches_formula(self, x, tau):
        assert float(soft_threshold(x, tau)) == np.sign(x) * max(abs(x) - tau, 0.0)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 3.0])
    def test_two_pass_form_matches_sign_formula(self, tau):
        # array_equal counts -0.0 equal to +0.0, the one place the two differ.
        rng = np.random.default_rng(11)
        x = rng.normal(scale=2.0, size=360)
        x[:9] = [tau, -tau, 0.0, -0.0, np.inf, -np.inf, np.nan,
                 np.nextafter(tau, 0.0), -np.nextafter(tau, np.inf)]
        x = rng.permutation(x).reshape(12, 30)
        expected = np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)
        assert np.array_equal(soft_threshold(x, tau), expected, equal_nan=True)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 3.0])
    def test_in_place_form_equals_the_copying_form(self, tau):
        # out=x shrinks x in its own buffer to the copying call's bits,
        # dead-zone negatives at +0.0 included.
        rng = np.random.default_rng(12)
        x = rng.normal(scale=2.0, size=(12, 30))
        x[0, :4] = [-0.0, -tau, np.nextafter(-tau, 0.0), -np.nextafter(tau, np.inf)]
        expected = soft_threshold(x, tau)
        assert soft_threshold(x, tau, out=x) is x
        assert x.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("x,tau", [(0.5, 1.0), (-2.0, 0.5), (3.0, 0.0), (-0.25, 0.5),
                                       (-0.0, 0.0), (7, 2.5)])
    def test_scalar_calls_keep_the_two_pass_form(self, x, tau):
        # Acceptance 1 checks scalar calls against its oracle: they return
        # the numpy scalar x - clip(x, -tau, tau), bit for bit.
        out = soft_threshold(x, tau)
        reference = x - np.clip(x, -tau, tau)
        assert type(out) is type(reference) and out.tobytes() == reference.tobytes()

    def test_negative_dead_zone_gives_positive_zero(self):
        out = soft_threshold(np.array([-0.25, 0.25]), 0.5)
        assert np.array_equal(out, [0.0, 0.0])
        assert not np.signbit(out).any()


class TestSvt:
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_rejects_nonfinite(self, tau):
        with pytest.raises(ValueError):
            svt(np.array([[1.0, np.nan], [0.0, 1.0]]), tau)

    def test_svd_failure_is_numerical_error(self, monkeypatch):
        # n * sigma_1 / tau = 6 * SVT_GRAM_MAX_RATIO sends this input to the
        # thin SVD.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError):
            svt(np.diag([2 * SVT_GRAM_MAX_RATIO, 2.0, 0.5]), 1.0)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 4))
        assert np.abs(svt(m, 0.0)[0] - m).max() <= 1e-10

    def test_diagonal_shrinks_independently(self):
        out, _ = svt(np.diag([3.0, 1.0]), 2.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_perturbation_oracle(self):
        # The prox objective at the returned matrix must strictly beat 1000
        # nearby points; strong convexity makes the margin at least
        # 0.5 * ||delta||^2.
        rng = np.random.default_rng(17)
        low = rng.normal(size=(5, 2)) @ rng.normal(size=(2, 5))
        tau = 0.3

        def objective(x):
            return tau * np.linalg.svd(x, compute_uv=False).sum() \
                + 0.5 * np.linalg.norm(x - low) ** 2

        out, _ = svt(low, tau)
        base = objective(out)
        for _ in range(1000):
            delta = rng.normal(size=out.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert objective(out + delta) > base

    def test_firmly_nonexpansive(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = rng.normal(size=(6, 4))
            b = rng.normal(size=(6, 4))
            tau = rng.uniform(0, 2)
            assert np.linalg.norm(svt(a, tau)[0] - svt(b, tau)[0]) \
                <= np.linalg.norm(a - b) + 1e-12

    def test_spectrum_is_that_of_the_output(self):
        # The thresholded singular values are the spectrum of the returned
        # matrix, so its nuclear norm needs no second SVD.
        rng = np.random.default_rng(29)
        m = rng.normal(size=(6, 15))
        out, spectrum = svt(m, 2.5)
        np.testing.assert_allclose(np.linalg.svd(out, compute_uv=False), spectrum,
                                   rtol=0, atol=1e-13)
        assert 0 < np.count_nonzero(spectrum) < spectrum.size

    SHAPES = [(4, 9), (9, 4), (5, 5), (1, 7), (7, 1)]

    @staticmethod
    def thin_svd_formula(m, tau):
        """The oracle: u diag(soft_threshold(sigma, tau)) vh from the thin SVD of m."""
        u, sigma, vh = np.linalg.svd(m, full_matrices=False)
        shrunk = soft_threshold(sigma, tau)
        return (u * shrunk) @ vh, shrunk

    def assert_matches_formula(self, m, tau):
        out, spectrum = svt(m, tau)
        expected, shrunk = self.thin_svd_formula(m, tau)
        scale = np.linalg.svd(m, compute_uv=False)[0]
        assert out.shape == m.shape and out.flags.c_contiguous
        assert np.abs(out - expected).max() <= 1e-13 * scale
        assert spectrum.shape == shrunk.shape
        np.testing.assert_allclose(spectrum, shrunk, rtol=0, atol=1e-13 * scale)
        return out, spectrum

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("kept", ["none", "some", "all"])
    def test_matches_thin_svd_formula(self, shape, kept):
        # k = 0 with the threshold above the largest singular value, k = n
        # with a threshold of 1e-12, and a threshold at half the largest.
        rng = np.random.default_rng(31)
        m = rng.normal(size=shape)
        sigma = np.linalg.svd(m, compute_uv=False)
        tau = {"none": 1.5 * sigma[0], "some": 0.5 * sigma[0], "all": 1e-12}[kept]
        _, spectrum = self.assert_matches_formula(m, tau)
        k = np.count_nonzero(spectrum)
        if kept == "none":
            assert k == 0
        elif kept == "all":
            assert k == spectrum.size
        else:
            assert k >= 1

    @pytest.mark.parametrize("shape", [(6, 20), (20, 6), (6, 6)],
                             ids=["wide", "tall", "square"])
    def test_matches_formula_across_a_wide_spectrum(self, shape):
        # Singular values 1e-12, 1e-9, ..., 1e3; the threshold keeps the
        # top three.
        rng = np.random.default_rng(37)
        rows, cols = shape
        n = min(shape)
        u, _ = np.linalg.qr(rng.normal(size=(rows, n)))
        v, _ = np.linalg.qr(rng.normal(size=(cols, n)))
        m = (u * np.logspace(3, -12, n)) @ v.T
        _, spectrum = self.assert_matches_formula(m, 3e-5)
        assert np.count_nonzero(spectrum) == 3

    def test_zero_matrix_thresholds_to_zero(self):
        out, spectrum = svt(np.zeros((3, 8)), 0.5)
        np.testing.assert_array_equal(out, np.zeros((3, 8)))
        np.testing.assert_array_equal(spectrum, np.zeros(3))
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("info", [-1, 1], ids=["illegal-argument", "no-convergence"])
    @pytest.mark.parametrize("shape", [(4, 9), (9, 4)], ids=["wide", "tall"])
    def test_eigensolver_failure_is_numerical_error(self, monkeypatch, shape, info):
        # dsyevr reports an illegal argument by a negative info and an
        # internal failure by a positive one.
        original = scipy.linalg.lapack.dsyevr

        def failing(*args, **kwargs):
            return (*original(*args, **kwargs)[:-1], info)

        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", failing)
        with pytest.raises(NumericalError, match="dsyevr"):
            svt(np.random.default_rng(3).normal(size=shape), 0.1)

    @pytest.mark.parametrize("shape", [(12, 36), (36, 12)], ids=["wide", "tall"])
    def test_thin_svd_fallback_decomposes_the_tall_orientation(self, monkeypatch, shape):
        # With the guard at zero every input that keeps a triplet falls back
        # to the thin SVD. A wide input is handed to numpy as its tall
        # transpose, which skips the slower wide path; the result still
        # meets the formula and is C-ordered.
        monkeypatch.setattr(mbnrsfm.linalg, "SVT_GRAM_MAX_RATIO", 0.0)
        m = np.random.default_rng(43).normal(size=shape)
        tau = 0.5 * np.linalg.svd(m, compute_uv=False)[0]
        decomposed = []
        with monkeypatch.context() as patch:
            def recording(a, *args, _original=np.linalg.svd, **kwargs):
                decomposed.append(np.shape(a))
                return _original(a, *args, **kwargs)

            patch.setattr(np.linalg, "svd", recording)
            svt(m, tau)
        assert decomposed == [(36, 12)]
        _, spectrum = self.assert_matches_formula(m, tau)
        assert 0 < np.count_nonzero(spectrum) < spectrum.size

    def routines(self, monkeypatch, m, tau):
        """The decompositions one svt call takes, in order."""
        called = []
        with monkeypatch.context() as patch:
            for owner, name in [(np.linalg, "svd"), (scipy.linalg.lapack, "dsyevr")]:
                def recording(*args, _original=getattr(owner, name), _name=name, **kwargs):
                    called.append(_name)
                    return _original(*args, **kwargs)

                patch.setattr(owner, name, recording)
            svt(m, tau)
        return called

    @staticmethod
    def clustered_at_threshold(ratio):
        """A 120 x 360 matrix with n * sigma_1 / tau = ratio at tau = 1.

        Below sigma_1, five singular values sit just above the threshold,
        in a cluster 1e-3 wide, and the other 114 are spread below it.
        """
        rng = np.random.default_rng(41)
        n, cols = 120, 360
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(cols, n)))
        sigma = np.concatenate([[ratio / n], 1.0 + np.linspace(1e-3, 1e-6, 5),
                                np.linspace(1.0 - 1e-6, 1e-3, n - 6)])
        return (u * sigma) @ v.T

    @pytest.mark.parametrize("margin", [-1e-3, 1e-3], ids=["inside", "outside"])
    def test_guard_routes_an_adversarial_spectrum(self, monkeypatch, margin):
        # The Gram route's error peaks when kept singular values sit just
        # above the threshold, so the cluster at tau is its worst case. Just
        # inside the guard it still meets the formula's 1e-13 * sigma_1;
        # just outside, the thin SVD runs after the one eigensolve that
        # found sigma_1.
        m = self.clustered_at_threshold(SVT_GRAM_MAX_RATIO * (1.0 + margin))
        inside = margin < 0
        expected = ["dsyevr"] if inside else ["dsyevr", "svd"]
        assert self.routines(monkeypatch, m, 1.0) == expected
        _, spectrum = self.assert_matches_formula(m, 1.0)
        assert np.count_nonzero(spectrum) == 6

    @pytest.mark.parametrize("tau", [1e-160, 1e160], ids=["underflow", "overflow"])
    def test_gram_out_of_range_takes_the_thin_svd(self, monkeypatch, tau):
        # tau^2 underflows, or the Gram overflows: squaring would lose the
        # answer, so no eigensolve runs. sigma_1 / tau = 4 either way.
        m = np.diag([4.0 * tau, 2.0 * tau, 0.5 * tau])
        assert self.routines(monkeypatch, m, tau) == ["svd"]
        out, spectrum = svt(m, tau)
        np.testing.assert_allclose(out, np.diag([3.0 * tau, tau, 0.0]), rtol=1e-15)
        np.testing.assert_allclose(spectrum, [3.0 * tau, tau, 0.0], rtol=1e-15)

    def test_zero_threshold_takes_no_svd(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("decomposition taken at a zero threshold")

        monkeypatch.setattr(np.linalg, "svd", fail)
        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", fail)
        m = np.arange(6.0).reshape(2, 3)
        out, spectrum = svt(m, 0.0)
        np.testing.assert_array_equal(out, m)
        assert spectrum is None


class TestSolveSylvester:
    """The plain-array oracle the structured paths are checked against,
    ``conftest.bartels_stewart``: its result passes the same residual check
    and its failures are diagnosed the same way."""

    def test_identity_against_zero(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(3, 5))
        x = bartels_stewart(np.eye(3), np.zeros((5, 5)), q)
        np.testing.assert_allclose(x, q, atol=1e-10)

    def test_diagonal_closed_form(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = bartels_stewart(a, b, q)
        expected = q / (np.array([[1.0], [2.0]]) + np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_kronecker_oracle(self):
        rng = np.random.default_rng(41)
        g1 = rng.normal(size=(5, 5))
        g2 = rng.normal(size=(5, 5))
        a = g1 @ g1.T + 0.5 * np.eye(5)
        b = g2 @ g2.T + 0.5 * np.eye(5)
        q = rng.normal(size=(5, 5))
        x = bartels_stewart(a, b, q)
        system = np.kron(np.eye(5), a) + np.kron(b.T, np.eye(5))
        direct = np.linalg.solve(system, q.flatten(order="F")).reshape(5, 5, order="F")
        assert np.abs(x - direct).max() <= 1e-8 * (1 + np.abs(direct).max())

    def test_residual_bound_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            m = int(rng.integers(1, 21))
            ga = rng.normal(size=(n, n))
            gb = rng.normal(size=(m, m))
            a = ga @ ga.T + 0.1 * np.eye(n)
            b = gb @ gb.T + 0.1 * np.eye(m)
            q = rng.normal(size=(n, m))
            x = bartels_stewart(a, b, q)
            residual = np.linalg.norm(a @ x + x @ b - q)
            assert residual <= 1e-8 * (1 + np.linalg.norm(q))

    def test_singular_pencil_raises_numerical_error(self):
        a = np.diag([1.0, -3.0])
        b = np.diag([3.0, -1.0])
        q = np.ones((2, 2))
        with pytest.raises(NumericalError, match="residual .* exceeds bound"):
            bartels_stewart(a, b, q)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bartels_stewart(np.eye(3), np.eye(2), np.zeros((2, 3)))

    def test_nonsquare_operand(self):
        with pytest.raises(ValueError):
            bartels_stewart(np.zeros((3, 2)), np.eye(2), np.zeros((3, 2)))


def random_spd(rng, n, shift=0.1):
    g = rng.normal(size=(n, n))
    return g @ g.T + shift * np.eye(n)


def kron_solve(a, b, q):
    n, m = q.shape
    system = np.kron(np.eye(m), a) + np.kron(b.T, np.eye(n))
    return np.linalg.solve(system, q.flatten(order="F")).reshape(n, m, order="F")


class TestSymmetricOperandSylvester:
    def test_dense_operands_match_bartels_stewart_and_kronecker(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 16))
            m = int(rng.integers(1, 16))
            a, b = random_spd(rng, n), random_spd(rng, m)
            q = rng.normal(size=(n, m))
            x = solve_sylvester(SymmetricOperand(a), SymmetricOperand(b), q)
            dense = bartels_stewart(a, b, q)
            direct = kron_solve(a, b, q)
            scale = 1 + np.abs(direct).max()
            assert np.abs(x - dense).max() <= 1e-9 * scale
            assert np.abs(x - direct).max() <= 1e-9 * scale

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_block_stack_matches_bartels_stewart_and_kronecker(self, side):
        rng = np.random.default_rng(8 if side == "left" else 9)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            m = int(rng.integers(1, 12))
            blocks = np.stack([random_spd(rng, 3) for _ in range(k)])
            block_matrix = scipy.linalg.block_diag(*blocks)
            other = random_spd(rng, m)
            if side == "left":
                a, b, q = block_matrix, other, rng.normal(size=(3 * k, m))
                x = solve_sylvester(SymmetricOperand(blocks), SymmetricOperand(b), q)
            else:
                a, b, q = other, block_matrix, rng.normal(size=(m, 3 * k))
                x = solve_sylvester(SymmetricOperand(a), SymmetricOperand(blocks), q)
            dense = bartels_stewart(a, b, q)
            direct = kron_solve(a, b, q)
            scale = 1 + np.abs(direct).max()
            assert np.abs(x - dense).max() <= 1e-9 * scale
            assert np.abs(x - direct).max() <= 1e-9 * scale

    def test_nearly_orthonormal_cameras_meet_the_residual_bound(self):
        # Camera rows orthonormal only to ~1e-9 are accepted by CameraMotion;
        # the per-block eigendecomposition must still meet the bound at the
        # smallest penalty the solver starts from.
        rng = np.random.default_rng(12)
        frames, points, beta = 40, 25, 1e-2
        exact = _smooth_random_camera(rng, frames).blocks
        camera = CameraMotion(exact + 1e-9 * rng.normal(size=exact.shape))
        defect = np.abs(np.einsum("fij,fkj->fik", camera.blocks, camera.blocks)
                        - np.eye(2)).max()
        assert 1e-10 < defect <= 1e-8
        blocks = np.einsum("fji,fjk->fik", camera.blocks, camera.blocks) / beta + np.eye(3)
        ic = np.eye(points) - 0.1 * rng.normal(size=(points, points))
        right = ic @ ic.T
        q = 100.0 * rng.normal(size=(3 * frames, points))
        x = solve_sylvester(SymmetricOperand(blocks), SymmetricOperand(right), q)
        left = scipy.linalg.block_diag(*blocks)
        residual = np.linalg.norm(left @ x + x @ right - q)
        assert residual <= SYLVESTER_RTOL * (1 + np.linalg.norm(q))

    def test_singular_pencil_raises_numerical_error(self):
        # -3 + 3 = 0: the division by that sum leaves a non-finite solution.
        a = SymmetricOperand(np.diag([1.0, -3.0]))
        b = SymmetricOperand(np.diag([3.0, -1.0]))
        with pytest.raises(NumericalError, match="non-finite solution"):
            solve_sylvester(a, b, np.ones((2, 2)))

    def test_singular_pencil_in_a_block_stack(self):
        blocks = np.stack([np.eye(3), np.diag([1.0, 2.0, -2.0])])
        a = SymmetricOperand(blocks)
        b = SymmetricOperand(np.diag([2.0, 5.0]))
        with pytest.raises(NumericalError, match="non-finite solution"):
            solve_sylvester(a, b, np.ones((6, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_raises_numerical_error(self, bad):
        rng = np.random.default_rng(5)
        a = SymmetricOperand(random_spd(rng, 4))
        b = SymmetricOperand(np.stack([random_spd(rng, 3), random_spd(rng, 3)]))
        q = rng.normal(size=(4, 6))
        q[2, 3] = bad
        with pytest.raises(NumericalError, match="non-finite solution"):
            solve_sylvester(a, b, q)

    def test_shape_is_the_full_matrix(self):
        assert SymmetricOperand(np.stack([np.eye(3)] * 4)).shape == (12, 12)
        assert SymmetricOperand(np.eye(5)).shape == (5, 5)

    def test_mixed_operands_rejected(self):
        # Plain arrays are the tests' oracle (conftest.bartels_stewart), not
        # a path of solve_sylvester.
        for a, b in [(SymmetricOperand(np.eye(2)), np.eye(2)), (np.eye(2), np.eye(2))]:
            with pytest.raises(TypeError):
                solve_sylvester(a, b, np.ones((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_sylvester(SymmetricOperand(np.eye(3)), SymmetricOperand(np.eye(2)),
                            np.zeros((2, 3)))

    @pytest.mark.parametrize("matrix", [np.zeros((2, 3)), np.zeros((2, 3, 3, 3)),
                                        np.zeros((0, 0))])
    def test_rejects_malformed_operands(self, matrix):
        with pytest.raises(ValueError):
            SymmetricOperand(matrix)

    def test_nonfinite_operand_is_numerical_error(self):
        # Operands are built from solver state: a non-finite entry is an overflow.
        with pytest.raises(NumericalError, match="non-finite entries"):
            SymmetricOperand(np.array([[np.nan]]))

    @pytest.mark.parametrize("storage", ["stack", "dense"])
    def test_scaled_operand_equals_a_fresh_factorization(self, storage):
        # The shape step's camera operand R^T R / beta + I, derived from the
        # factored R^T R, against SymmetricOperand of that matrix: the same
        # matrix, eigenvalues and eigen-reconstruction, and the same solve.
        rng = np.random.default_rng(41)
        blocks = _smooth_random_camera(rng, 5).blocks
        gram = np.einsum("fji,fjk->fik", blocks, blocks)
        if storage == "dense":
            gram = scipy.linalg.block_diag(*gram)
        beta = 0.37
        derived = SymmetricOperand(gram).scaled(1.0 / beta, 1.0)
        fresh = SymmetricOperand(gram / beta + np.eye(3 if storage == "stack" else 15))
        assert derived.shape == fresh.shape == (15, 15)
        np.testing.assert_allclose(derived.matrix, fresh.matrix, rtol=1e-15, atol=0)
        np.testing.assert_allclose(derived.eigenvalues, fresh.eigenvalues, rtol=1e-14, atol=0)
        x = rng.normal(size=(15, 4))
        vectors = derived.eigenvectors
        left = mbnrsfm.linalg._left
        rotated = left(vectors.swapaxes(-1, -2), x) * derived.eigenvalues[:, None]
        np.testing.assert_allclose(left(vectors, rotated), left(fresh, x), rtol=0, atol=1e-12)
        right = SymmetricOperand(random_spd(rng, 4))
        np.testing.assert_allclose(solve_sylvester(derived, right, x),
                                   solve_sylvester(fresh, right, x), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale,shift", [(0.0, 1.0), (-1.0, 1.0), (np.inf, 1.0),
                                             (1.0, np.nan)])
    def test_scaled_rejects_bad_factors(self, scale, shift):
        with pytest.raises(ValueError):
            SymmetricOperand(np.eye(3)).scaled(scale, shift)

    @pytest.mark.parametrize("matrix", [
        scipy.sparse.csr_array(np.eye(3)),
        scipy.sparse.csr_array(np.ones((2, 3))),
        scipy.sparse.csr_array((0, 0)),
        scipy.sparse.csr_array(np.array([[1.0, np.nan], [np.nan, 1.0]])),
        scipy.sparse.coo_array(np.ones(3)),
    ], ids=["square", "not_square", "empty", "nan", "one_dimensional"])
    def test_rejects_sparse_matrices(self, matrix):
        # A SymmetricOperand factors dense arrays only.
        with pytest.raises(ValueError, match="dense"):
            SymmetricOperand(matrix)


def coefficient_factor(rng, rows, points):
    """M = [S; 1^T] as the coefficient step builds it, S with ``rows`` rows."""
    return np.vstack([rng.normal(size=(rows, points)), np.ones(points)])


def coefficient_operand(m, shift):
    """The left operand m^T m + shift I, held as admm holds it against a symmetric D D^T."""
    if m.shape[0] < m.shape[1]:
        return GramOperand(m, shift)
    return SymmetricOperand(m.T @ m + shift * np.eye(m.shape[1]))


def merged_gram_operands(merged, grid):
    """The right operand D D^T of a 3 x 4 grid's [I | D], or of the identity
    without a grid: formed from the factor D^T, formed directly, and as the
    Kronecker sum of I + 2 L_3 and 2 L_4 (I_3 and 0 without a grid)."""
    factor = merged.T
    weight = 2.0 if grid else 0.0
    return {
        "gram": SymmetricOperand(factor.T @ factor),
        "kronecker": KroneckerSumOperand(np.eye(3) + weight * path_laplacian(3),
                                         weight * path_laplacian(4)),
        "symmetric": SymmetricOperand(merged @ merged.T),
    }


class TestGramOperandSylvester:
    """The coefficient step's left operand M^T M + eps I, in both branches."""

    @pytest.mark.parametrize("rows,lowrank", [(6, True), (12, False), (15, False)])
    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("kind", ["gram", "kronecker", "symmetric"])
    def test_matches_bartels_stewart_and_kronecker(self, rows, lowrank, grid, kind):
        # 12 points: 3F + 1 = 7 < 12 takes the Woodbury branch, 13 and 16
        # rows the P x P eigenbasis. The right operand is the identity of
        # sparse mode or I + D D^T of a 3 x 4 grid.
        rng = np.random.default_rng(rows + 2 * grid)
        points = 12
        neighbors = build_neighbor_matrix(3, 4) if grid else None
        merged = dense_merged(neighbors, num_points=points)
        m = coefficient_factor(rng, rows, points)
        a = coefficient_operand(m, 1e-10)
        assert isinstance(a, GramOperand) == lowrank
        assert a.shape == (points, points)
        b = merged_gram_operands(merged, grid)[kind]
        q = rng.normal(size=(points, points))
        x = solve_sylvester(a, b, q)
        dense_a = m.T @ m + 1e-10 * np.eye(points)
        dense_b = merged @ merged.T
        if grid:
            assert np.abs(dense_b - np.eye(points)).max() > 0
        direct = kron_solve(dense_a, dense_b, q)
        scale = 1 + np.abs(direct).max()
        assert np.abs(x - bartels_stewart(dense_a, dense_b, q)).max() <= 1e-9 * scale
        assert np.abs(x - direct).max() <= 1e-9 * scale

    def test_full_branch_is_the_symmetric_operand_path(self, monkeypatch):
        # With at least as many rows in M = [S; 1^T] as points, the
        # coefficient step forms the P x P operand M^T M + eps I and holds it
        # as a SymmetricOperand.
        rng = np.random.default_rng(31)
        state = random_state(rng, 10, 20)
        seen = []
        original = mbnrsfm.admm.solve_sylvester

        def recording(a, b, q):
            seen.append((a, b, q))
            return original(a, b, q)

        monkeypatch.setattr(mbnrsfm.admm, "solve_sylvester", recording)
        merged = DenseMerged(identity_merged(20))
        x = solve_coeff_subproblem(state, merged, merged.gram())
        ((a, b, q),) = seen
        assert type(a) is SymmetricOperand
        m = np.vstack([state.shapes, np.ones(20)])
        formed = m.T @ m + COEFF_STABILIZER * np.eye(20)
        np.testing.assert_array_equal(a.matrix, formed)
        np.testing.assert_array_equal(x, solve_sylvester(SymmetricOperand(formed), b, q))

    def test_lowrank_branch_factors_only_the_small_gram(self, monkeypatch):
        shapes = []
        original = np.linalg.eigh

        def recording(mat, *args, **kwargs):
            shapes.append(np.shape(mat))
            return original(mat, *args, **kwargs)

        monkeypatch.setattr(mbnrsfm.linalg.np.linalg, "eigh", recording)
        rng = np.random.default_rng(32)
        a = GramOperand(coefficient_factor(rng, 9, 40), 1e-10)
        solve_sylvester(a, SymmetricOperand(np.eye(40)), rng.normal(size=(40, 40)))
        assert shapes == [(10, 10), (40, 40)]

    def test_block_stack_right_operand(self):
        rng = np.random.default_rng(33)
        m = coefficient_factor(rng, 3, 9)
        blocks = np.stack([random_spd(rng, 3) for _ in range(3)])
        q = rng.normal(size=(9, 9))
        x = solve_sylvester(GramOperand(m, 0.5), SymmetricOperand(blocks), q)
        direct = kron_solve(m.T @ m + 0.5 * np.eye(9), scipy.linalg.block_diag(*blocks), q)
        assert np.abs(x - direct).max() <= 1e-9 * (1 + np.abs(direct).max())

    def test_singular_pencil_raises_numerical_error(self):
        # m^T m has eigenvalues 4 and 0 (twice); the shift moves them to 3 and
        # -1, and the right operand's 1 cancels the -1.
        a = GramOperand(np.array([[2.0, 0.0, 0.0]]), -1.0)
        b = SymmetricOperand(np.diag([1.0, 5.0, 6.0]))
        with pytest.raises(NumericalError, match="non-finite solution"):
            solve_sylvester(a, b, np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rhs_raises_numerical_error(self, bad):
        rng = np.random.default_rng(34)
        q = rng.normal(size=(8, 8))
        q[1, 2] = bad
        with pytest.raises(NumericalError, match="non-finite solution"):
            solve_sylvester(GramOperand(coefficient_factor(rng, 3, 8), 1e-10),
                            SymmetricOperand(np.eye(8)), q)

    @pytest.mark.parametrize("factor", [np.zeros(4), np.zeros((0, 3))])
    def test_rejects_malformed_factor(self, factor):
        with pytest.raises(ValueError):
            GramOperand(factor)

    @pytest.mark.parametrize("factor", [[[np.nan, 1.0]], [[1e200, 1.0]]],
                             ids=["nan", "gram_overflows"])
    def test_nonfinite_gram_is_numerical_error(self, factor):
        # The Gram of a finite factor can overflow; the coefficient step
        # forms it under the solve's errstate, as here.
        with mbnrsfm.linalg._quiet(), pytest.raises(NumericalError, match="non-finite entries"):
            GramOperand(np.array(factor))

    @pytest.mark.parametrize("factor", [
        np.ones((4, 4)),
        np.ones((5, 4)),
        scipy.sparse.csr_array(np.ones((2, 4))),
        scipy.sparse.csr_array(np.ones((5, 4))),
    ], ids=["square", "tall", "sparse_wide", "sparse_tall"])
    def test_rejects_full_rank_and_sparse_factors(self, factor):
        # Only a dense low-rank factor saves anything; a k >= n Gram is
        # formed and held as a SymmetricOperand, a sparse one as well.
        with pytest.raises(ValueError):
            GramOperand(factor, 1e-10)


class TestKroneckerSumOperand:
    """The grid Gram's right operand: two small eigenbases, no n x n one."""

    ORDERS = [(1, 1), (1, 5), (5, 1), (2, 2), (12, 20)]

    @staticmethod
    def operand(rng, h, w):
        first, second = random_spd(rng, h), random_spd(rng, w)
        return KroneckerSumOperand(first, second), kronecker_sum(first, second)

    @pytest.mark.parametrize("orders", ORDERS, ids=lambda o: f"{o[0]}x{o[1]}")
    def test_rotations_equal_the_dense_kronecker_product(self, orders):
        rng = np.random.default_rng(sum(orders))
        op, matrix = self.operand(rng, *orders)
        assert op.shape == matrix.shape
        basis = np.kron(*op.bases)
        x = rng.normal(size=(7, basis.shape[0]))
        for arg in (x, np.asfortranarray(x)):
            for rotate, dense in ((mbnrsfm.linalg._into_eigenbasis, basis),
                                  (mbnrsfm.linalg._out_of_eigenbasis, basis.T)):
                rotated = rotate(arg, op)
                assert rotated.flags.c_contiguous
                np.testing.assert_allclose(rotated, x @ dense, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("orders", ORDERS, ids=lambda o: f"{o[0]}x{o[1]}")
    def test_residual_product_equals_the_dense_kronecker_sum(self, orders):
        # The residual check applies first (x) I + I (x) second through the
        # terms on the (r, h, w) view; the formed Kronecker sum is the oracle.
        # The terms are not symmetric here, so a transposed term would show.
        rng = np.random.default_rng(sum(orders) + 1)
        first, second = (rng.normal(size=(n, n)) for n in orders)
        op = KroneckerSumOperand(first, second)
        x = rng.normal(size=(7, orders[0] * orders[1]))
        expected = x @ kronecker_sum(first, second)
        for arg in (x, np.asfortranarray(x)):
            product = mbnrsfm.linalg._right(arg, op)
            assert product.flags.c_contiguous
            np.testing.assert_allclose(product, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("rows", [3, 15], ids=["woodbury", "eigenbases"])
    def test_both_paths_match_bartels_stewart_and_kronecker(self, rows):
        # 3 x 4 terms, 12 points: a GramOperand of 4 rows, or a formed
        # 16-row Gram held as a SymmetricOperand.
        rng = np.random.default_rng(rows)
        b, matrix = self.operand(rng, 3, 4)
        m = coefficient_factor(rng, rows, 12)
        a = coefficient_operand(m, 1e-10)
        assert isinstance(a, GramOperand) == (rows == 3)
        q = rng.normal(size=(12, 12))
        x = solve_sylvester(a, b, q)
        dense_a = m.T @ m + 1e-10 * np.eye(12)
        direct = kron_solve(dense_a, matrix, q)
        scale = 1 + np.abs(direct).max()
        assert np.abs(x - bartels_stewart(dense_a, matrix, q)).max() <= 1e-9 * scale
        assert np.abs(x - direct).max() <= 1e-9 * scale

    @pytest.mark.parametrize("rows", [3, 15], ids=["woodbury", "eigenbases"])
    def test_residual_is_checked_against_the_terms(self, rows):
        # A term that is not symmetric: eigh reads its lower triangle only,
        # so the solve in the terms' eigenbasis misses the bound against the
        # terms as given, by more than refinement can remove.
        rng = np.random.default_rng(36)
        first, second = random_spd(rng, 3), random_spd(rng, 4)
        first[0, 2] += 1.0
        a = coefficient_operand(coefficient_factor(rng, rows, 12), 1e-10)
        with pytest.raises(NumericalError, match="exceeds bound"):
            solve_sylvester(a, KroneckerSumOperand(first, second),
                            rng.normal(size=(12, 12)))

    @pytest.mark.parametrize("rows", [3, 15], ids=["woodbury", "eigenbases"])
    def test_mild_asymmetry_is_refined_against_the_terms(self, refinements, rows):
        # A small asymmetry leaves the first solve off the bound; refinement
        # against the terms as given meets it against the formed,
        # non-symmetric Kronecker sum.
        rng = np.random.default_rng(36)
        first, second = random_spd(rng, 3), random_spd(rng, 4)
        first[0, 2] += 1e-3
        m = coefficient_factor(rng, rows, 12)
        q = rng.normal(size=(12, 12))
        x = solve_sylvester(coefficient_operand(m, 1e-10), KroneckerSumOperand(first, second), q)
        assert refinements
        residual = (m.T @ m + 1e-10 * np.eye(12)) @ x + x @ kronecker_sum(first, second) - q
        assert np.linalg.norm(residual) <= SYLVESTER_RTOL * (1 + np.linalg.norm(q))

    def test_singular_pencil_raises_numerical_error(self):
        # Eigenvalues 1 + 1 and 2 + 1 on the right; -3 on the left cancels 3.
        b = KroneckerSumOperand(np.diag([1.0, 2.0]), np.eye(1))
        with pytest.raises(NumericalError, match="non-finite solution"):
            solve_sylvester(SymmetricOperand(np.diag([1.0, -3.0])), b, np.ones((2, 2)))

    @pytest.mark.parametrize("first,second", [
        (np.ones((2, 3)), np.eye(3)),
        (np.eye(2), np.zeros((0, 0))),
        (np.ones(4), np.eye(2)),
        (np.eye(2), np.ones((2, 2, 2))),
    ], ids=["term_not_square", "empty_term", "one_dimensional_term", "three_dimensional_term"])
    def test_rejects_malformed_operands(self, first, second):
        with pytest.raises(ValueError):
            KroneckerSumOperand(first, second)

    @pytest.mark.parametrize("first,second", [
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(2)),
        (np.eye(2), np.full((2, 2), np.inf)),
    ], ids=["nan_term", "inf_term"])
    def test_nonfinite_term_is_numerical_error(self, first, second):
        with pytest.raises(NumericalError, match="non-finite entries"):
            KroneckerSumOperand(first, second)


class TestIdentityOperandSylvester:
    """Sparse mode's coefficient step: (a + I) x = q, with the identity on the right."""

    @staticmethod
    def left_operands(rng, rows, points):
        """The Gram of M = [S; 1^T] plus eps I, held low-rank and formed."""
        m = coefficient_factor(rng, rows, points)
        formed = m.T @ m + COEFF_STABILIZER * np.eye(points)
        return m, formed

    @pytest.mark.parametrize("kind,rows", [("gram", 4), ("cholesky", 4), ("cholesky", 14)])
    def test_matches_kronecker(self, kind, rows):
        # Four rows in S: M is 5 x 12, so the Gram is low-rank; the formed
        # operand is also tried with M taller than wide.
        rng = np.random.default_rng(41 + rows)
        points = 12
        m, formed = self.left_operands(rng, rows, points)
        a = GramOperand(m, COEFF_STABILIZER) if kind == "gram" else CholeskyOperand(formed)
        q = rng.normal(size=(points, points))
        x = solve_sylvester(a, IdentityOperand(points), q)
        direct = kron_solve(formed, np.eye(points), q)
        assert np.abs(x - direct).max() <= 1e-9 * (1 + np.abs(direct).max())

    def test_gram_pair_is_bit_identical_to_the_eigenbasis_of_the_identity(self):
        # The eigendecomposition of the dense identity is exactly (1, I), so
        # dropping the rotation and raising the shift by one changes no bit.
        rng = np.random.default_rng(43)
        a = GramOperand(coefficient_factor(rng, 6, 30), COEFF_STABILIZER)
        q = rng.normal(size=(30, 30))
        np.testing.assert_array_equal(solve_sylvester(a, IdentityOperand(30), q),
                                      solve_sylvester(a, SymmetricOperand(np.eye(30)), q))

    def test_cholesky_pair_matches_the_eigenbasis_path(self):
        rng = np.random.default_rng(44)
        _, formed = self.left_operands(rng, 20, 15)
        q = rng.normal(size=(15, 15))
        x = solve_sylvester(CholeskyOperand(formed), IdentityOperand(15), q)
        oracle = solve_sylvester(SymmetricOperand(formed), SymmetricOperand(np.eye(15)), q)
        assert np.abs(x - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("kind", ["gram", "cholesky"])
    def test_solve_and_residual_check_leave_their_inputs_unchanged(self, kind):
        # The identity's product and rotation return their operand itself,
        # so neither the Woodbury solve nor the residual check may write into
        # it: q and x keep their bits through a solve, through a check that
        # accepts x and through one that refines a perturbed x.
        rng = np.random.default_rng(46)
        m, formed = self.left_operands(rng, 3, 10)
        a = GramOperand(m, COEFF_STABILIZER) if kind == "gram" else CholeskyOperand(formed)
        b = IdentityOperand(10)
        q = rng.normal(size=(10, 10))
        q_bits = q.tobytes()
        x = solve_sylvester(a, b, q)
        perturbed = x + 1e-3
        x_bits, perturbed_bits = x.tobytes(), perturbed.tobytes()
        solve = mbnrsfm.linalg._BUILDERS[type(a), type(b)](a, b)
        with mbnrsfm.linalg._quiet():
            assert mbnrsfm.linalg._verified(a, b, q, x, correction=solve) is x
            refined = mbnrsfm.linalg._verified(a, b, q, perturbed, correction=solve)
        assert q.tobytes() == q_bits and x.tobytes() == x_bits
        assert perturbed.tobytes() == perturbed_bits
        assert np.abs(refined - x).max() <= 1e-9 * np.abs(x).max()

    @pytest.mark.parametrize("kind,detail", [
        ("gram", "non-finite solution"),
        ("cholesky", "left operand shifted by 1.0 is not positive definite"),
    ], ids=["gram", "cholesky"])
    def test_singular_pencil_raises_numerical_error(self, kind, detail):
        # Left eigenvalues 3 and -1 (twice): the identity's 1 cancels the -1.
        if kind == "gram":
            a = GramOperand(np.array([[2.0, 0.0, 0.0]]), -1.0)
        else:
            a = CholeskyOperand(np.diag([3.0, -1.0, -1.0]))
        with pytest.raises(NumericalError, match=detail):
            solve_sylvester(a, IdentityOperand(3), np.ones((3, 3)))

    @pytest.mark.parametrize("kind", ["gram", "cholesky"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rhs_raises_numerical_error(self, kind, bad):
        rng = np.random.default_rng(45)
        m, formed = self.left_operands(rng, 3, 8)
        a = GramOperand(m, COEFF_STABILIZER) if kind == "gram" else CholeskyOperand(formed)
        q = rng.normal(size=(8, 8))
        q[1, 2] = bad
        with pytest.raises(NumericalError, match="non-finite solution"):
            solve_sylvester(a, IdentityOperand(8), q)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_sylvester(CholeskyOperand(np.eye(3)), IdentityOperand(4), np.ones((3, 3)))

    def test_shape(self):
        assert IdentityOperand(np.int64(5)).shape == (5, 5)

    @pytest.mark.parametrize("n", [0, -2, 2.0, None])
    def test_rejects_bad_size(self, n):
        with pytest.raises(ValueError):
            IdentityOperand(n)


class TestRefinementOfScaledOperands:
    """Pixel-unit data: the coefficient step's left operand M^T M + eps I with
    S of rank 4 scaled by 1e3 to 1e5. The Woodbury update and the explicit
    inverse lose digits in proportion to its condition number, so the first
    solve misses the bound; refinement against the exact operators meets it."""

    @staticmethod
    def problem(pair, scale):
        rng = np.random.default_rng(61)
        rows, points = (25, 20) if pair == "cholesky-identity" else (7, 20)
        s = scale * (rng.normal(size=(rows, 4)) @ rng.normal(size=(4, points)))
        m = np.vstack([s, np.ones(points)])
        q = s.T @ (s + rng.normal(size=s.shape))
        formed = m.T @ m + COEFF_STABILIZER * np.eye(points)
        if pair == "gram-kronecker":
            first, second = np.eye(4) + 2.0 * path_laplacian(4), 2.0 * path_laplacian(5)
            return (GramOperand(m, COEFF_STABILIZER), KroneckerSumOperand(first, second), q,
                    formed, kronecker_sum(first, second))
        left = (GramOperand(m, COEFF_STABILIZER) if pair == "gram-identity"
                else CholeskyOperand(formed))
        return left, IdentityOperand(points), q, formed, np.eye(points)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e4, 1e5])
    @pytest.mark.parametrize("pair", ["gram-kronecker", "gram-identity", "cholesky-identity"])
    def test_badly_scaled_left_operand_meets_the_bound(self, refinements, pair, scale):
        # At unit scale the first solve meets the bound and nothing refines.
        a, b, q, dense_a, dense_b = self.problem(pair, scale)
        x = solve_sylvester(a, b, q)
        assert bool(refinements) == (scale > 1.0)
        residual = np.linalg.norm(dense_a @ x + x @ dense_b - q)
        assert residual <= SYLVESTER_RTOL * (1 + np.linalg.norm(q))


def near_orthonormal_camera(rng, frames, defect):
    """Smooth cameras whose rows are orthonormal only to about ``defect``."""
    exact = _smooth_random_camera(rng, frames).blocks
    noise = rng.normal(size=exact.shape)
    camera = CameraMotion(exact + 0.5 * defect * noise / np.abs(noise).max())
    measured = np.abs(np.einsum("fij,fkj->fik", camera.blocks, camera.blocks)
                      - np.eye(2)).max()
    assert 0.1 * defect < measured <= defect
    return camera


class TestShiftedCholeskySylvester:
    """The shape step: camera blocks on the left, (I - C)(I - C)^T on the right."""

    @staticmethod
    def shape_problem(seed, beta, frames=12, points=15):
        rng = np.random.default_rng(seed)
        camera = near_orthonormal_camera(rng, frames, 1e-8)
        blocks = np.einsum("fji,fjk->fik", camera.blocks, camera.blocks) / beta + np.eye(3)
        ic = np.eye(points) - 0.1 * rng.normal(size=(points, points))
        q = 100.0 * rng.normal(size=(3 * frames, points))
        return blocks, ic @ ic.T, q

    @staticmethod
    def count_cholesky_solves(monkeypatch):
        """Record, by routine, the shape of each dpotrs and dsymm right-hand
        side and of each factor dpotri inverts."""
        calls = {"dpotrs": [], "dpotri": [], "dsymm": []}
        for module, name, argument in [(scipy.linalg.lapack, "dpotrs", 1),
                                       (scipy.linalg.lapack, "dpotri", 0),
                                       (scipy.linalg.blas, "dsymm", 2)]:
            def counting(*args, _name=name, _argument=argument,
                         _original=getattr(module, name), **kwargs):
                calls[_name].append(np.shape(args[_argument]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("route,points", [("solve", 40), ("inverse", 10)])
    @pytest.mark.parametrize("beta,clusters,sweeps", [(1e-2, 2, 0), (1e6, 1, 1)])
    def test_near_orthonormal_cameras_match_kronecker(self, monkeypatch, beta, clusters,
                                                      sweeps, route, points):
        # At beta = 1e-2 the left eigenvalues form two clusters, near 1 and
        # near 101, and the centers alone meet the bound. At beta = 1e6 both
        # lie within 1e-6 of 1 and share one factor; the first solve misses
        # the bound and one refinement sweep must run. The 12, 24 and 36 rows
        # of the clusters are all fewer than 40 points (dpotrs applies each
        # factor) and all at least 10 (dsymm applies each dpotri inverse).
        blocks, right, q = self.shape_problem(12, beta, points=points)
        calls = self.count_cholesky_solves(monkeypatch)
        x = solve_sylvester(SymmetricOperand(blocks), CholeskyOperand(right), q)
        counts = [len(calls[name]) for name in ("dpotrs", "dpotri", "dsymm")]
        applications = clusters * (1 + sweeps)
        assert counts == ([applications, 0, 0] if route == "solve"
                          else [0, clusters, applications])
        left = scipy.linalg.block_diag(*blocks)
        residual = np.linalg.norm(left @ x + x @ right - q)
        assert residual <= SYLVESTER_RTOL * (1 + np.linalg.norm(q))
        direct = kron_solve(left, right, q)
        scale = 1 + np.abs(direct).max()
        assert np.abs(x - direct).max() <= 1e-9 * scale
        assert np.abs(x - bartels_stewart(left, right, q)).max() <= 1e-9 * scale

    def test_route_is_selected_by_cluster_rows_against_order(self, monkeypatch):
        # Clusters of 4, 5 and 6 rows against a right operand of order 5:
        # only the 4-row cluster is solved by dpotrs; the other two, and the
        # plus-identity solve with its 5 columns, go through dpotri and dsymm.
        rng = np.random.default_rng(16)
        basis = np.linalg.qr(rng.normal(size=(15, 15)))[0]
        left = basis @ np.diag(np.repeat([1.0, 10.0, 100.0], [4, 5, 6])) @ basis.T
        right = random_spd(rng, 5)
        q = rng.normal(size=(15, 5))
        calls = self.count_cholesky_solves(monkeypatch)
        x = solve_sylvester(SymmetricOperand(left), CholeskyOperand(right), q)
        assert calls["dpotrs"] == [(5, 4)]
        assert len(calls["dpotri"]) == 2
        assert sorted(calls["dsymm"]) == [(5, 5), (5, 6)]
        direct = kron_solve(left, right, q)
        assert np.abs(x - direct).max() <= 1e-9 * (1 + np.abs(direct).max())

        calls = self.count_cholesky_solves(monkeypatch)
        x = solve_sylvester(CholeskyOperand(right), IdentityOperand(5), q[:5])
        assert [len(calls[name]) for name in ("dpotrs", "dpotri", "dsymm")] == [0, 1, 1]
        direct = kron_solve(right, np.eye(5), q[:5])
        assert np.abs(x - direct).max() <= 1e-9 * (1 + np.abs(direct).max())

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inverse_route_takes_either_memory_order(self, order):
        rng = np.random.default_rng(17)
        a = random_spd(rng, 6)
        q = np.asarray(rng.normal(size=(6, 6)), order=order)
        x = solve_sylvester(CholeskyOperand(a), IdentityOperand(6), q)
        direct = kron_solve(a, np.eye(6), q)
        assert np.abs(x - direct).max() <= 1e-12 * (1 + np.abs(direct).max())

    def test_dense_left_operand_with_spread_spectrum(self):
        # A generic left operand: every eigenvalue its own cluster.
        rng = np.random.default_rng(13)
        a, b = random_spd(rng, 7), random_spd(rng, 9)
        q = rng.normal(size=(7, 9))
        x = solve_sylvester(SymmetricOperand(a), CholeskyOperand(b), q)
        direct = kron_solve(a, b, q)
        assert np.abs(x - direct).max() <= 1e-9 * (1 + np.abs(direct).max())

    def test_refinement_that_cannot_converge_raises(self):
        # Left eigenvalues 1 and 1.0009 share one cluster centered at
        # 1.00045; a right eigenvalue of -0.9999 leaves the shifted factor
        # only 5.5e-4 from singular, so each sweep removes just 18 % of the
        # error. The pencil itself is regular (smallest sum 1e-4).
        a = SymmetricOperand(np.diag([1.0, 1.0009]))
        b = CholeskyOperand(np.diag([-0.9999, 5.0]))
        with pytest.raises(NumericalError, match="exceeds bound"):
            solve_sylvester(a, b, np.ones((2, 2)))

    def test_singular_pencil_raises_numerical_error(self):
        a = SymmetricOperand(np.stack([np.eye(3), np.diag([1.0, 2.0, -2.0])]))
        b = CholeskyOperand(np.diag([2.0, 5.0]))
        with pytest.raises(NumericalError,
                           match="right operand shifted by -2.0 is not positive definite"):
            solve_sylvester(a, b, np.ones((6, 2)))

    # Each route's operands: the shape problem's 3- and 6-row clusters are
    # both fewer than 10 points and both at least 3, and a plus-identity
    # solve always has as many columns as its order.
    ROUTE_POINTS = {"shifted-solve": 10, "shifted-inverse": 3, "plus_identity": 5}
    # The routine that applies each route's factor.
    APPLY = {"shifted-solve": "dpotrs", "shifted-inverse": "dsymm", "plus_identity": "dsymm"}

    def route_problem(self, route):
        points = self.ROUTE_POINTS[route]
        blocks, right, q = self.shape_problem(15, 1e-2, frames=3, points=points)
        if route == "plus_identity":
            return CholeskyOperand(right), IdentityOperand(points), q[:points]
        return SymmetricOperand(blocks), CholeskyOperand(right), q

    @pytest.mark.parametrize("routine,route", [
        ("dpotrf", "shifted-solve"), ("dpotrs", "shifted-solve"),
        ("dpotrf", "shifted-inverse"), ("dpotri", "shifted-inverse"),
        ("dpotrf", "plus_identity"), ("dpotri", "plus_identity"),
    ])
    def test_illegal_lapack_argument_is_numerical_error(self, monkeypatch, routine, route):
        # The Cholesky paths call LAPACK directly; a negative info (an
        # illegal argument) is raised as NumericalError naming the routine.
        original = getattr(scipy.linalg.lapack, routine)

        def failing(*args, **kwargs):
            return original(*args, **kwargs)[0], -2

        monkeypatch.setattr(scipy.linalg.lapack, routine, failing)
        with pytest.raises(NumericalError, match=f"LAPACK {routine} failed with info=-2"):
            solve_sylvester(*self.route_problem(route))

    @pytest.mark.parametrize("singular", [False, True],
                             ids=["regular-shifted_inverse", "singular-plus_identity"])
    def test_positive_dpotri_info_is_diagnosed_like_dpotrf(self, monkeypatch, singular):
        # A positive dpotri info (a zero pivot in the factor) is raised like
        # dpotrf's, as NumericalError naming the shifted operand, whether
        # the pencil is regular or singular (a + I = diag(4, 2^-52)).
        original = scipy.linalg.lapack.dpotri
        monkeypatch.setattr(scipy.linalg.lapack, "dpotri",
                            lambda *args, **kwargs: (original(*args, **kwargs)[0], 1))
        if singular:
            problem = (CholeskyOperand(np.diag([3.0, -1.0 + 2.0**-52])),
                       IdentityOperand(2), np.ones((2, 2)))
            detail = "left operand shifted by 1.0 is not positive definite"
        else:
            problem = self.route_problem("shifted-inverse")
            detail = "right operand shifted by .* is not positive definite"
        with pytest.raises(NumericalError, match=detail):
            solve_sylvester(*problem)

    @pytest.mark.parametrize("kind", ["shifted", "plus_identity"])
    def test_indefinite_regular_pencil_is_numerical_error(self, kind):
        # The shifted operand diag(-2, 3) is indefinite, so dpotrf stops with
        # a positive info, raised as NumericalError naming that operand.
        if kind == "shifted":
            a, b = SymmetricOperand(np.eye(2)), CholeskyOperand(np.diag([-3.0, 2.0]))
        else:
            a, b = CholeskyOperand(np.diag([-3.0, 2.0])), IdentityOperand(2)
        with pytest.raises(NumericalError, match="not positive definite"):
            solve_sylvester(a, b, np.ones((2, 2)))

    @staticmethod
    def poison_cholesky_solves(monkeypatch, routine, bad):
        """Make every solution that ``routine`` (dpotrs or dsymm) returns carry
        ``bad`` in its first entry."""
        module = scipy.linalg.blas if routine == "dsymm" else scipy.linalg.lapack
        original = getattr(module, routine)

        def poisoned(*args, **kwargs):
            out = original(*args, **kwargs)
            x = out if routine == "dsymm" else out[0]
            x[0, 0] = bad
            return out

        monkeypatch.setattr(module, routine, poisoned)

    @pytest.mark.parametrize("route", ["shifted-solve", "shifted-inverse", "plus_identity"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_solution_is_numerical_error(self, monkeypatch, route, bad):
        # The residual is checked before the solution is scanned: one
        # non-finite entry makes the residual miss its bound, and the failure
        # is then named a non-finite solution of a regular pencil.
        self.poison_cholesky_solves(monkeypatch, self.APPLY[route], bad)
        with pytest.raises(NumericalError, match="non-finite solution"):
            solve_sylvester(*self.route_problem(route))

    @pytest.mark.parametrize("route,scale,poison", [
        ("shifted-solve", 1.0, False), ("shifted-solve", 1e300, False),
        ("shifted-solve", 1.0, True), ("shifted-inverse", 1.0, False),
        ("shifted-inverse", 1e300, False), ("shifted-inverse", 1.0, True),
        ("plus_identity", 1e300, False), ("plus_identity", 1.0, True),
    ], ids=["shifted-solve-refinement", "shifted-solve-overflow", "shifted-solve-nan",
            "shifted-inverse-refinement", "shifted-inverse-overflow", "shifted-inverse-nan",
            "plus_identity-overflow", "plus_identity-nan"])
    def test_singular_pencil_found_by_the_residual_check(self, monkeypatch, route, scale,
                                                         poison):
        # Each shifted operand factors, so the singular pencil shows only in
        # the residual check, which raises NumericalError with its detail.
        # - shifted: left eigenvalues -2 and -1.999 share one factor of
        #   b - 1.9995 I; -2 + 2 = 0, so refinement cannot meet the bound.
        #   Its two rows are fewer than the order 3 of diag(2, 5, 7) and as
        #   many as the order 2 of diag(2, 5). With q = 1e300, ||q|| and the
        #   residual's norm overflow while the solution (about 2e303) stays
        #   finite; the bound, taken in units of max|q|, must still reject it.
        # - plus_identity: a + I = diag(4, 2^-52). With q = 1e300 the solution
        #   overflows to inf, which the scan for non-finite entries catches.
        # - nan: a poisoned solve gives a non-finite solution outright.
        if poison:
            self.poison_cholesky_solves(monkeypatch, self.APPLY[route], np.nan)
        if route == "plus_identity":
            a = CholeskyOperand(np.diag([3.0, -1.0 + 2.0**-52]))
            b = IdentityOperand(2)
        else:
            a = SymmetricOperand(np.diag([-2.0, -1.999]))
            b = CholeskyOperand(np.diag([2.0, 5.0, 7.0] if route == "shifted-solve"
                                        else [2.0, 5.0]))
        if poison or route == "plus_identity":
            detail = "non-finite solution"
        elif scale == 1.0:
            detail = r"exceeds bound \d\.\d{3}e-08\)"
        else:
            detail = r"exceeds bound .* in units of max\|q\| = 1\.000e\+300"
        with pytest.raises(NumericalError, match=detail):
            solve_sylvester(a, b, np.full((2, b.shape[0]), scale))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_raises_numerical_error(self, bad):
        blocks, right, q = self.shape_problem(14, 1e-2, frames=3, points=5)
        q[4, 2] = bad
        with pytest.raises(NumericalError, match="non-finite solution"):
            solve_sylvester(SymmetricOperand(blocks), CholeskyOperand(right), q)

    def test_shape_is_the_matrix(self):
        assert CholeskyOperand(np.eye(4)).shape == (4, 4)

    @pytest.mark.parametrize("matrix", [np.zeros((2, 3)), np.zeros((2, 2, 2)),
                                        np.zeros((0, 0))])
    def test_rejects_malformed_operands(self, matrix):
        with pytest.raises(ValueError):
            CholeskyOperand(matrix)

    def test_nonfinite_operand_is_numerical_error(self):
        with pytest.raises(NumericalError, match="non-finite entries"):
            CholeskyOperand(np.array([[np.inf]]))

    @pytest.mark.parametrize("pair", [
        "cholesky-symmetric", "cholesky-cholesky", "gram-cholesky",
        "symmetric-lowrank_gram", "cholesky-plain", "plain-cholesky", "plain-gram",
        "identity-identity", "identity-gram", "identity-cholesky", "identity-symmetric",
        "symmetric-identity", "identity-plain", "plain-identity",
    ])
    def test_unsupported_pairs_rejected(self, pair):
        operands = {
            "identity": IdentityOperand(4),
            "symmetric": SymmetricOperand(np.eye(4)),
            "cholesky": CholeskyOperand(np.eye(4)),
            "gram": GramOperand(np.ones((3, 4))),
            "lowrank_gram": GramOperand(np.ones((2, 4)), 1.0),
            "plain": np.eye(4),
        }
        left, right = pair.split("-")
        with pytest.raises(TypeError):
            solve_sylvester(operands[left], operands[right], np.ones((4, 4)))


class TestAsMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros(4))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.inf, 1.0]]))


class TestSweepHelpers:
    """The small kernels the solver's sweep uses in place of numpy's wrappers."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_diagonal_view_writes_the_diagonal(self, order):
        a = np.asarray(np.arange(16.0).reshape(4, 4), order=order)
        expected = a.copy()
        np.fill_diagonal(expected, [-1.0, -2.0, -3.0, -4.0])
        diagonal_view(a)[:] = [-1.0, -2.0, -3.0, -4.0]
        np.testing.assert_array_equal(a, expected)

    def test_diagonal_view_rejects_a_strided_array(self):
        with pytest.raises(ValueError):
            diagonal_view(np.zeros((6, 6))[::2, ::2])

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_frobenius_norm_is_numpys_bit_for_bit(self, layout):
        rng = np.random.default_rng(51)
        v = rng.normal(size=(37, 23)) * np.logspace(-150, 150, 23)
        if layout == "F":
            v = np.asfortranarray(v)
        elif layout == "strided":
            v = v[::2, 1::3]
        assert frobenius_norm(v) == np.linalg.norm(v)

    def test_clusters_of_a_scaled_operand_equal_a_fresh_sort(self):
        # The derived operand shares the base's order. Scaling down by 2^-60
        # rounds the base's distinct eigenvalues to ties, which a fresh
        # stable sort orders differently; the clusters are the same.
        rng = np.random.default_rng(52)
        blocks = _smooth_random_camera(rng, 7).blocks
        base = SymmetricOperand(np.einsum("fji,fjk->fik", blocks, blocks))
        for scale, shift in [(1.0 / 0.37, 1.0), (2.0**-60, 1.0), (1e6, 1.0)]:
            derived = base.scaled(scale, shift)
            assert derived.ascending is base.ascending
            fresh = np.argsort(derived.eigenvalues, kind="stable")
            if scale == 2.0**-60:
                assert np.all(derived.eigenvalues == 1.0)
                assert not np.array_equal(fresh, derived.ascending)
            shared = _eigenvalue_clusters(derived.eigenvalues, derived.ascending)
            expected = _eigenvalue_clusters(derived.eigenvalues, fresh)
            assert len(shared) == len(expected)
            for (rows, center), (rows_e, center_e) in zip(shared, expected):
                assert np.array_equal(rows, rows_e) and center == center_e
