"""Dense linear-algebra kernels used by every solver step.

Decompositions are delegated to LAPACK through numpy and scipy: the SVD
inside ``svt`` via ``numpy.linalg.svd`` and symmetric eigendecompositions via
``numpy.linalg.eigh``. The solver's two Sylvester equations have symmetric
operands, so ``solve_sylvester`` solves them in the operands' eigenbases
(``SymmetricOperand``, a single matrix or a stack of diagonal blocks).
Plain-array operands go through scipy's general Bartels-Stewart
implementation, which stays the reference for the structured path.
This module owns the contracts the rest of the package relies on: validated
inputs, explicit failures instead of silent garbage, and a verified residual
on every Sylvester solve.

All functions are pure; a SymmetricOperand is computed once and never
changed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NumericalError, SingularPencilError

# Relative residual accepted from a Sylvester solve.
SYLVESTER_RTOL = 1e-8
# Eigenvalue-pair sums below this magnitude mean the pencil is singular.
SINGULAR_PENCIL_TOL = 1e-12


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Return ``values`` as a finite 2-D float64 array.

    Raises ValueError if the input is not two-dimensional, is empty, or
    contains NaN/Inf entries.
    """
    mat = np.asarray(values, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {mat.shape}")
    if mat.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite entries")
    return mat


def soft_threshold(x, tau: float):
    """Shrink ``x`` toward zero: sign(x) * max(|x| - tau, 0).

    Computed in two array passes as ``x - clip(x, -tau, tau)``, which gives
    the same bits as the formula above except that a negative value inside
    the dead zone maps to +0.0 instead of -0.0. Works elementwise on arrays
    and on plain scalars. ``tau`` must be nonnegative.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    return x - np.clip(x, -tau, tau)


def svt(m, tau: float) -> np.ndarray:
    """Singular value thresholding, the proximal operator of the nuclear norm.

    Returns the unique minimizer of ``tau * ||X||_* + 0.5 * ||X - m||_F^2``,
    computed from the thin SVD ``m = u @ diag(sigma) @ vh`` as
    ``u @ diag(soft_threshold(sigma, tau)) @ vh``. A zero threshold is the
    identity and skips the decomposition. Non-finite input raises
    ValueError; an SVD that does not converge raises NumericalError.
    """
    mat = as_matrix(m, "svt input")
    if tau == 0:
        return mat.copy()
    try:
        u, sigma, vh = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on a {mat.shape} matrix") from exc
    return (u * soft_threshold(sigma, tau)) @ vh


class SymmetricOperand:
    """A symmetric Sylvester operand held with its eigendecomposition.

    ``matrix`` is either one n x n array or a (k, m, m) stack holding the
    diagonal blocks of a block-diagonal n x n matrix, n = k * m. One
    ``np.linalg.eigh`` call factors it; on a stack the call is batched, so
    each block costs O(m^3). ``eigh`` reads only the lower triangle of each
    block. The original matrix is kept, because the Sylvester residual is
    checked against it and not against the eigen-reconstruction.

    ``shape`` is that of the full n x n matrix, whatever the storage.
    """

    __slots__ = ("matrix", "eigenvalues", "eigenvectors")

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2] or mat.size == 0:
            raise ValueError(
                f"symmetric operand must be n x n or a (k, m, m) block stack, "
                f"got shape {mat.shape}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValueError("symmetric operand contains non-finite entries")
        try:
            values, vectors = np.linalg.eigh(mat)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"symmetric eigendecomposition did not converge on shape {mat.shape}"
            ) from exc
        self.matrix = mat
        self.eigenvalues = values.reshape(-1)
        self.eigenvectors = vectors

    @property
    def shape(self) -> tuple[int, int]:
        n = self.eigenvalues.size
        return n, n


def _left(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``op @ x`` for a dense matrix or a (k, m, m) stack of diagonal blocks."""
    if op.ndim == 2:
        return op @ x
    k, m, _ = op.shape
    return np.matmul(op, x.reshape(k, m, -1)).reshape(k * m, -1)


def _right(x: np.ndarray, op: np.ndarray) -> np.ndarray:
    """``x @ op`` for a dense matrix or a (k, m, m) stack of diagonal blocks."""
    if op.ndim == 2:
        return x @ op
    k, m, _ = op.shape
    per_block = np.matmul(x.reshape(-1, k, m).swapaxes(0, 1), op)
    return per_block.swapaxes(0, 1).reshape(x.shape[0], k * m)


def _check_operand_shapes(a_shape, b_shape, q_shape) -> None:
    if a_shape[0] != a_shape[1]:
        raise ValueError(f"left operand must be square, got {a_shape}")
    if b_shape[0] != b_shape[1]:
        raise ValueError(f"right operand must be square, got {b_shape}")
    if q_shape != (a_shape[0], b_shape[0]):
        raise ValueError(
            f"right-hand side shape {q_shape} does not match operands "
            f"({a_shape[0]} x {b_shape[0]})"
        )


def solve_sylvester(a, b, q) -> np.ndarray:
    """Solve ``a @ x + x @ b = q`` for ``x``.

    ``a`` is n x n, ``b`` is m x m, ``q`` is n x m. Callers must make sure no
    eigenvalue of ``a`` sums to zero with an eigenvalue of ``b``; the solver
    paths in this package guarantee that by construction (a positive-definite
    left operand against a positive-semidefinite right one).

    Two paths:

    * both operands SymmetricOperand: with ``a = U diag(l) U^T`` and
      ``b = V diag(m) V^T``, ``x = U [(U^T q V) / (l_i + m_j)] V^T``, using
      the stored factorizations. Block-stack operands are applied per block.
    * both operands plain arrays: scipy's Bartels-Stewart (real Schur forms
      of both operands plus back-substitution). This is the general routine
      and the reference the structured path is tested against.

    Mixing the two kinds raises TypeError.

    The returned solution always satisfies
    ``||a x + x b - q||_F <= SYLVESTER_RTOL * (1 + ||q||_F)``, checked
    against the original operand matrices. A violation, or a non-finite
    solution, raises SingularPencilError (naming the offending eigenvalue
    pair) when the pencil is singular, NumericalError otherwise.
    """
    structured = isinstance(a, SymmetricOperand), isinstance(b, SymmetricOperand)
    if all(structured):
        return _solve_in_eigenbases(a, b, q)
    if any(structured):
        raise TypeError("solve_sylvester needs both operands symmetric-factored or both plain")

    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    q = as_matrix(q, "right-hand side")
    _check_operand_shapes(a.shape, b.shape, q.shape)

    def eigenvalues():
        return np.linalg.eigvals(a), np.linalg.eigvals(b)

    try:
        x = scipy.linalg.solve_sylvester(a, b, q)
    except (np.linalg.LinAlgError, ValueError) as exc:
        _raise_sylvester_failure(eigenvalues, f"factorization failed: {exc}")
    return _verified(a, b, q, x, eigenvalues)


def _solve_in_eigenbases(a: SymmetricOperand, b: SymmetricOperand, q) -> np.ndarray:
    """The SymmetricOperand path of solve_sylvester."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"right-hand side must be 2-D, got shape {q.shape}")
    _check_operand_shapes(a.shape, b.shape, q.shape)
    u, v = a.eigenvectors, b.eigenvectors
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner = _right(_left(u.swapaxes(-1, -2), q), v)
        inner /= a.eigenvalues[:, None] + b.eigenvalues[None, :]
        x = _right(_left(u, inner), v.swapaxes(-1, -2))
    return _verified(a.matrix, b.matrix, q, x, lambda: (a.eigenvalues, b.eigenvalues))


def _verified(a, b, q, x, eigenvalues) -> np.ndarray:
    """Return ``x`` if it meets the residual bound, else diagnose and raise.

    ``a`` and ``b`` are dense matrices or block stacks; ``eigenvalues`` is a
    zero-argument callable giving both operands' eigenvalues, only called on
    failure.
    """
    finite = bool(np.all(np.isfinite(x)))
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(_left(a, x) + _right(x, b) - q) if finite else np.inf
        bound = SYLVESTER_RTOL * (1.0 + np.linalg.norm(q))
    if not (np.isfinite(residual) and residual <= bound):
        detail = (f"residual {residual:.3e} exceeds bound {bound:.3e}" if finite
                  else "non-finite solution")
        _raise_sylvester_failure(eigenvalues, detail)
    return x


def _raise_sylvester_failure(eigenvalues, detail: str):
    """Diagnose a failed Sylvester solve and raise the appropriate error."""
    try:
        eig_a, eig_b = eigenvalues()
    except np.linalg.LinAlgError:
        raise NumericalError(f"Sylvester solve failed ({detail})") from None
    sums = eig_a[:, None] + eig_b[None, :]
    i, j = np.unravel_index(np.argmin(np.abs(sums)), sums.shape)
    if abs(sums[i, j]) <= SINGULAR_PENCIL_TOL:
        raise SingularPencilError(
            f"singular Sylvester pencil: eigenvalue {eig_a[i]} of the left "
            f"operand and {eig_b[j]} of the right operand sum to {sums[i, j]}"
        )
    raise NumericalError(f"Sylvester solve failed ({detail})")
