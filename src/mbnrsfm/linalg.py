"""Dense linear-algebra kernels used by every solver step.

Decompositions are delegated to LAPACK through numpy and scipy: the SVD
inside ``svt_with_spectrum`` (which ``svt`` wraps) via ``numpy.linalg.svd``,
symmetric eigendecompositions via ``numpy.linalg.eigh`` and Cholesky
factors via ``scipy.linalg.cho_factor``.
The solver's two Sylvester equations have symmetric operands, and
``solve_sylvester`` picks its method from the operand types:

* two ``SymmetricOperand`` (a matrix or a stack of diagonal blocks held with
  its eigendecomposition): rotate into both eigenbases and divide;
* a ``GramOperand`` on the left (``m^T m + shift I`` held as its k x n
  factor ``m``): when k < n only the k x k Gram ``m m^T`` is factored, and
  each column of the right operand's eigenbasis is solved by the Woodbury
  identity, so the n x n operand is never formed;
* a ``CholeskyOperand`` on the right of a ``SymmetricOperand`` (an
  unfactored positive-semidefinite matrix): rows whose left eigenvalues
  cluster share one Cholesky factor of the right operand shifted by the
  cluster's center, and refinement sweeps against the exact operators
  remove the spread inside a cluster when the residual bound asks for it;
* two plain arrays: scipy's general Bartels-Stewart implementation, which
  stays the reference for the structured paths.

This module owns the contracts the rest of the package relies on: validated
inputs, explicit failures instead of silent garbage, and a verified residual
on every Sylvester solve.

All functions are pure; an operand is computed once and never changed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import NumericalError, SingularPencilError

# Relative residual accepted from a Sylvester solve.
SYLVESTER_RTOL = 1e-8
# Eigenvalue-pair sums below this magnitude mean the pencil is singular.
SINGULAR_PENCIL_TOL = 1e-12
# Left eigenvalues within this relative distance of a cluster's smallest
# share one shifted Cholesky factor. Solving a row with its cluster's center
# instead of its own eigenvalue then leaves an error of at most half this
# fraction, and each refinement sweep shrinks it by that factor again.
SHIFT_CLUSTER_RTOL = 1e-3
# Refinement sweeps a shifted-Cholesky solve may take to meet the bound.
MAX_REFINEMENT_SWEEPS = 3


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
    return svt_with_spectrum(m, tau)[0]


def svt_with_spectrum(m, tau: float) -> tuple[np.ndarray, np.ndarray | None]:
    """``svt`` plus the thresholded singular values it scaled ``u`` by.

    Those values are the spectrum of the returned matrix, so its nuclear
    norm is their sum and needs no second SVD. With a zero threshold no
    SVD is taken and the spectrum is None.
    """
    mat = as_matrix(m, "svt input")
    if tau == 0:
        return mat.copy(), None
    try:
        u, sigma, vh = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on a {mat.shape} matrix") from exc
    shrunk = soft_threshold(sigma, tau)
    return (u * shrunk) @ vh, shrunk


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` with a LAPACK failure raised as NumericalError."""
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigendecomposition did not converge on shape {mat.shape}"
        ) from exc


def _dense(mat) -> np.ndarray:
    return mat.toarray() if scipy.sparse.issparse(mat) else mat


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
        values, vectors = _eigh(mat)
        self.matrix = mat
        self.eigenvalues = values.reshape(-1)
        self.eigenvectors = vectors

    @property
    def shape(self) -> tuple[int, int]:
        n = self.eigenvalues.size
        return n, n


class GramOperand:
    """The symmetric operand ``m^T m + shift * I`` held as its k x n factor ``m``.

    ``m`` is a dense array or a scipy sparse array. The smaller of the two
    Grams is factored by ``np.linalg.eigh``:

    * k < n (low rank): the k x k ``m m^T = W diag(s) W^T``. ``matrix`` is
      None, ``eigenvalues`` holds s and ``eigenvectors`` holds ``m^T W``
      (n x k). ``solve_sylvester`` inverts each shifted copy by the Woodbury
      identity ``(m^T m + c I)^-1 = (I - m^T W diag(1 / (s + c)) W^T m) / c``.
    * k >= n: ``matrix`` is the n x n operand itself, factored and solved
      exactly like a SymmetricOperand holding that matrix.

    Products with the operand (the residual check) go through ``m`` when
    ``matrix`` is None or ``m`` is sparse, and through ``matrix`` otherwise.
    ``shape`` is n x n.
    """

    __slots__ = ("factor", "shift", "matrix", "eigenvalues", "eigenvectors")

    def __init__(self, factor, shift: float = 0.0):
        m = factor if scipy.sparse.issparse(factor) else np.asarray(factor, dtype=float)
        if m.ndim != 2 or 0 in m.shape:
            raise ValueError(f"Gram factor must be a non-empty k x n matrix, got shape {m.shape}")
        entries = m.data if scipy.sparse.issparse(m) else m
        if not (np.all(np.isfinite(entries)) and np.isfinite(shift)):
            raise ValueError("Gram operand contains non-finite entries")
        k, n = m.shape
        self.factor, self.shift = m, float(shift)
        if k < n:
            values, vectors = _eigh(_dense(m @ m.T))
            self.matrix = None
            self.eigenvalues = values
            self.eigenvectors = np.asarray(m.T @ vectors)
        else:
            mat = _dense(m.T @ m)
            if shift:
                mat = mat + shift * np.eye(n)
            self.matrix = mat
            self.eigenvalues, self.eigenvectors = _eigh(mat)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.factor.shape[1]
        return n, n


class CholeskyOperand:
    """A symmetric positive-semidefinite n x n operand, left unfactored.

    It stands on the right of a SymmetricOperand; ``solve_sylvester`` then
    factors ``matrix + c I`` by Cholesky once per cluster ``c`` of the left
    eigenvalues. Nothing is decomposed at construction.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ValueError(f"Cholesky operand must be n x n, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("Cholesky operand contains non-finite entries")
        self.matrix = mat

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


_OPERANDS = (SymmetricOperand, GramOperand, CholeskyOperand)


def _through_factor(op) -> bool:
    return isinstance(op, GramOperand) and (
        op.matrix is None or scipy.sparse.issparse(op.factor)
    )


def _left(op, x: np.ndarray) -> np.ndarray:
    """``op @ x`` for an operand, a dense matrix or a (k, m, m) block stack."""
    if _through_factor(op):
        return op.factor.T @ (op.factor @ x) + op.shift * x
    if isinstance(op, _OPERANDS):
        op = op.matrix
    if op.ndim == 2:
        return op @ x
    k, m, _ = op.shape
    return np.matmul(op, x.reshape(k, m, -1)).reshape(k * m, -1)


def _right(x: np.ndarray, op) -> np.ndarray:
    """``x @ op`` for an operand, a dense matrix or a (k, m, m) block stack."""
    if _through_factor(op):
        return (x @ op.factor.T) @ op.factor + op.shift * x
    if isinstance(op, _OPERANDS):
        op = op.matrix
    if op.ndim == 2:
        return x @ op
    k, m, _ = op.shape
    per_block = np.matmul(x.reshape(-1, k, m).swapaxes(0, 1), op)
    return per_block.swapaxes(0, 1).reshape(x.shape[0], k * m)


def _spectrum(op) -> np.ndarray:
    """All n eigenvalues of an operand (used to diagnose a failed solve)."""
    if isinstance(op, CholeskyOperand):
        return np.linalg.eigvalsh(op.matrix)
    if isinstance(op, GramOperand) and op.matrix is None:
        n = op.shape[0]
        flat = np.full(n - op.eigenvalues.size, op.shift)
        return np.concatenate([op.eigenvalues + op.shift, flat])
    return op.eigenvalues


def _has_eigenbasis(op) -> bool:
    return isinstance(op, SymmetricOperand) or (
        isinstance(op, GramOperand) and op.matrix is not None
    )


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

    The operand pair picks the method:

    * ``a`` and ``b`` each a SymmetricOperand or a GramOperand with k >= n:
      with ``a = U diag(l) U^T`` and ``b = V diag(m) V^T``,
      ``x = U [(U^T q V) / (l_i + m_j)] V^T``, using the stored
      factorizations. Block-stack operands are applied per block.
    * ``a`` a low-rank GramOperand, ``b`` as above: column j of ``q V`` is
      solved against ``m^T m + (shift + m_j) I`` by the Woodbury identity.
    * ``a`` a SymmetricOperand, ``b`` a CholeskyOperand: row i of ``U^T q``
      is solved against ``b + l_i I`` through the Cholesky factor of ``b``
      shifted by the center of the cluster holding l_i (eigenvalues within
      SHIFT_CLUSTER_RTOL of the cluster's smallest). While the residual
      misses the bound, up to MAX_REFINEMENT_SWEEPS sweeps solve the same
      way for the residual taken against the exact operators and subtract
      the result.
    * both operands plain arrays: scipy's Bartels-Stewart (real Schur forms
      of both operands plus back-substitution). This is the general routine
      and the reference the structured paths are tested against.

    Any other pair, plain arrays mixed with operands included, raises
    TypeError.

    The returned solution always satisfies
    ``||a x + x b - q||_F <= SYLVESTER_RTOL * (1 + ||q||_F)``, checked
    against the original operators. A violation, or a non-finite solution,
    raises SingularPencilError (naming the offending eigenvalue pair) when
    the pencil is singular, NumericalError otherwise.
    """
    if not isinstance(a, _OPERANDS) and not isinstance(b, _OPERANDS):
        return _solve_bartels_stewart(a, b, q)
    if _has_eigenbasis(b):
        if _has_eigenbasis(a):
            return _solve_in_eigenbases(a, b, q)
        if isinstance(a, GramOperand):
            return _solve_woodbury(a, b, q)
    if isinstance(a, SymmetricOperand) and isinstance(b, CholeskyOperand):
        return _solve_shifted_cholesky(a, b, q)
    raise TypeError(
        f"solve_sylvester has no method for a {type(a).__name__} left operand "
        f"and a {type(b).__name__} right operand"
    )


def _solve_bartels_stewart(a, b, q) -> np.ndarray:
    """The plain-array path of solve_sylvester."""
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


def _structured_rhs(a, b, q) -> np.ndarray:
    """The right-hand side of an operand path as a 2-D float array.

    Its finiteness is left to the residual check: a non-finite ``q`` gives
    a non-finite solution, which ``_verified`` rejects.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"right-hand side must be 2-D, got shape {q.shape}")
    _check_operand_shapes(a.shape, b.shape, q.shape)
    return q


def _spectra(a, b):
    return lambda: (_spectrum(a), _spectrum(b))


def _solve_in_eigenbases(a, b, q) -> np.ndarray:
    """Both operands held with their full eigendecompositions."""
    q = _structured_rhs(a, b, q)
    u, v = a.eigenvectors, b.eigenvectors
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner = _right(_left(u.swapaxes(-1, -2), q), v)
        inner /= a.eigenvalues[:, None] + b.eigenvalues[None, :]
        x = _right(_left(u, inner), v.swapaxes(-1, -2))
    return _verified(a, b, q, x, _spectra(a, b))


def _solve_woodbury(a: GramOperand, b, q) -> np.ndarray:
    """A low-rank GramOperand left of an operand with a full eigenbasis."""
    q = _structured_rhs(a, b, q)
    v, basis = b.eigenvectors, a.eigenvectors
    shifts = a.shift + b.eigenvalues
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rotated = _right(q, v)
        inner = basis.T @ rotated
        inner /= a.eigenvalues[:, None] + shifts[None, :]
        x = _right((rotated - basis @ inner) / shifts, v.swapaxes(-1, -2))
    return _verified(a, b, q, x, _spectra(a, b))


def _eigenvalue_clusters(values: np.ndarray) -> list:
    """Group ``values`` into (indices, center) clusters.

    Scanning in ascending order, a cluster takes every value within
    SHIFT_CLUSTER_RTOL of its smallest; its center is the midpoint of its
    range.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    clusters, start = [], 0
    while start < ordered.size:
        low = ordered[start]
        stop = int(np.searchsorted(ordered, low + SHIFT_CLUSTER_RTOL * abs(low), side="right"))
        clusters.append((np.sort(order[start:stop]), 0.5 * (low + ordered[stop - 1])))
        start = stop
    return clusters


def _solve_shifted_cholesky(a: SymmetricOperand, b: CholeskyOperand, q) -> np.ndarray:
    """A SymmetricOperand left of an unfactored positive-semidefinite operand."""
    q = _structured_rhs(a, b, q)
    u = a.eigenvectors
    eigenvalues = _spectra(a, b)
    factors = []
    for rows, center in _eigenvalue_clusters(a.eigenvalues):
        shifted = b.matrix.copy()
        shifted.flat[:: shifted.shape[0] + 1] += center
        try:
            factor = scipy.linalg.cho_factor(shifted, lower=True, overwrite_a=True,
                                             check_finite=False)
        except np.linalg.LinAlgError:
            _raise_sylvester_failure(
                eigenvalues, f"right operand shifted by {center} is not positive definite"
            )
        factors.append((rows, factor))

    def solve_rows(r: np.ndarray) -> np.ndarray:
        rotated = _left(u.swapaxes(-1, -2), r)
        out = np.empty_like(rotated)
        for rows, factor in factors:
            out[rows] = scipy.linalg.cho_solve(factor, rotated[rows].T, overwrite_b=True,
                                               check_finite=False).T
        return _left(u, out)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = solve_rows(q)
    return _verified(a, b, q, x, eigenvalues, correction=solve_rows)


def _verified(a, b, q, x, eigenvalues, correction=None) -> np.ndarray:
    """Return ``x`` if it meets the residual bound, else diagnose and raise.

    ``a`` and ``b`` are operands, dense matrices or block stacks;
    ``eigenvalues`` is a zero-argument callable giving both operands'
    eigenvalues, only called on failure. ``correction``, when given, maps a
    residual to the solution error it implies; while the bound is missed it
    is subtracted from ``x``, at most MAX_REFINEMENT_SWEEPS times.
    """
    sweeps = 0 if correction is None else MAX_REFINEMENT_SWEEPS
    with np.errstate(over="ignore", invalid="ignore"):
        bound = SYLVESTER_RTOL * (1.0 + np.linalg.norm(q))
        for sweep in range(sweeps + 1):
            if not np.all(np.isfinite(x)):
                _raise_sylvester_failure(eigenvalues, "non-finite solution")
            residual = _left(a, x) + _right(x, b) - q
            norm = np.linalg.norm(residual)
            if norm <= bound:
                return x
            if sweep < sweeps:
                x = x - correction(residual)
    _raise_sylvester_failure(eigenvalues, f"residual {norm:.3e} exceeds bound {bound:.3e}")


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
