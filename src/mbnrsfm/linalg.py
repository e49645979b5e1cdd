"""Dense linear-algebra kernels used by every solver step.

Decompositions are delegated to LAPACK through numpy and scipy.
``svt_with_spectrum`` (which ``svt`` wraps) takes only the singular
triplets that survive its threshold: one partial eigendecomposition
(``dsyevr``) of the n x n Gram of the input's short side, restricted to
eigenvalues above the squared threshold. Where squaring would cost too many
digits (n * sigma_1 / tau above ``SVT_GRAM_MAX_RATIO``) it takes the thin
``numpy.linalg.svd`` instead. Symmetric eigendecompositions of operands go
through ``numpy.linalg.eigh``, that of a Kronecker sum through one per
term; a ``SymmetricOperand`` can derive a scaled and shifted copy of itself
from its stored eigenpairs without another one. Cholesky factors come from
LAPACK ``dpotrf``, called directly with no scipy wrapper, and are applied
by one of two routes chosen from the input size alone: a factor that
serves at least as many right-hand sides as its order becomes its inverse
through ``dpotri`` and is applied by one BLAS ``dsymm``, at GEMM rate; a
factor that serves fewer is applied by the two triangular solves of
``dpotrs``.
The solver's two Sylvester equations have symmetric operands, and
``solve_sylvester`` picks its method from the operand types:

* a ``SymmetricOperand`` (a dense matrix or a stack of diagonal blocks,
  held with its eigendecomposition) left of a ``SymmetricOperand`` or a
  ``KroneckerSumOperand``: rotate into both eigenbases and divide. A
  ``KroneckerSumOperand`` (``first (x) I + I (x) second``, the grid Gram)
  is defined by its two small terms and holds their eigenbases, not an
  n x n one: it is rotated, and applied in the residual check, by two
  small products on the (r, h, w) view of an r x n array, and no n x n
  matrix of it exists;
* a ``GramOperand`` left of either right operand above (``m^T m + shift I``
  held as its dense k x n factor ``m``, k < n): only the k x k Gram
  ``m m^T`` is factored, and each column of the right operand's eigenbasis
  is solved by the Woodbury identity, so the n x n operand is never formed;
* a ``CholeskyOperand`` on the right of a ``SymmetricOperand`` (an
  unfactored positive-semidefinite matrix): rows whose left eigenvalues
  cluster share one Cholesky factor of the right operand shifted by the
  cluster's center, and refinement sweeps against the exact operators
  remove the spread inside a cluster when the residual bound asks for it.
  A cluster with at least as many rows as the right operand's order takes
  the inverse route, a smaller one ``dpotrs``. The clusters are found in
  the left operand's stored ascending order (``SymmetricOperand.ascending``),
  which a ``scaled`` copy shares, so no solve sorts its eigenvalues;
* an ``IdentityOperand`` (the n x n identity, stored as n alone) on the
  right of a ``GramOperand`` or a ``CholeskyOperand``: the equation is
  ``(a + I) x = q``, solved by the Woodbury identity with the shift raised
  by one, or by one Cholesky factor of ``a + I``, which always takes the
  inverse route (``q`` has n columns);
* two plain arrays: scipy's general Bartels-Stewart implementation, which
  stays the reference for the structured paths.

This module owns the contracts the rest of the package relies on: validated
inputs, explicit failures instead of silent garbage, and a verified residual
on every Sylvester solve.

Each Sylvester solve runs, its residual check included, under one
``np.errstate`` (``_quiet``) that silences division by zero, overflow and
invalid operations: any of them leaves a non-finite entry, which the check
rejects. The check forms the residual first. A non-finite entry anywhere in
the solution makes the residual's norm non-finite, which meets no bound, so
the solution is scanned for non-finite entries only when the bound is
missed; a non-finite solution is then reported as such. Where the norm of
the right-hand side overflows, the check takes both norms in units of its
largest magnitude, so the bound stays finite. Norms are
``frobenius_norm``, the same sum of squares in memory order that
``np.linalg.norm`` takes.

All functions are pure; an operand is computed once and never changed.
"""

from __future__ import annotations

from math import inf, isfinite, sqrt

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
# The SVT takes its singular triplets from the Gram of the input's short
# side (n rows) only while n * sigma_1 / tau stays at or below this. That
# route's error grows like n * eps * sigma_1 / tau relative to sigma_1, so
# the bound keeps it under about 2.2e-11 * sigma_1; above it the thin SVD
# runs instead.
SVT_GRAM_MAX_RATIO = 1e5
# Squared thresholds below this could lose digits to underflow in the Gram.
_GRAM_SAFE_MIN = np.finfo(float).tiny / np.finfo(float).eps


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
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} contains non-finite entries")
    return mat


def diagonal_view(a: np.ndarray) -> np.ndarray:
    """The diagonal of a square C- or Fortran-contiguous array as a writeable view.

    Writing to the view writes the diagonal of ``a`` in place, whatever its
    memory order (stride n + 1 through the flat buffer in either order).
    """
    if not a.flags.forc:
        raise ValueError("diagonal_view needs a C- or Fortran-contiguous array")
    return a.reshape(-1, order="A")[:: a.shape[0] + 1]


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
    which for the thin SVD ``m = u @ diag(sigma) @ vh`` is
    ``u @ diag(soft_threshold(sigma, tau)) @ vh``. ``svt_with_spectrum``
    says how it is computed, and bounds the error of its usual route by
    about ``n * eps * sigma_1 / tau`` relative to sigma_1 (n the shorter
    side), at most ``SVT_GRAM_MAX_RATIO * eps``. A zero threshold is the
    identity and skips the decomposition. Non-finite input raises
    ValueError; a decomposition that does not converge, or any other LAPACK
    failure, raises NumericalError.
    """
    return svt_with_spectrum(m, tau)[0]


def svt_with_spectrum(m, tau: float) -> tuple[np.ndarray, np.ndarray | None]:
    """``svt`` plus the thresholded singular values it scaled ``u`` by.

    Those values are the spectrum of the returned matrix, so its nuclear
    norm is their sum and needs no second SVD. The spectrum has the n
    entries of the thin SVD (n = min of the two sides), in descending
    order, zero past the k kept ones. With a zero threshold nothing is
    decomposed and the spectrum is None.

    Only the k kept triplets are formed. ``s`` is the orientation of ``m``
    with n rows, and one LAPACK ``dsyevr`` call returns the eigenpairs of
    its Gram ``s s^T`` above ``tau^2``: ``u_k diag(sigma_k^2) u_k^T``. The
    result is ``u_k diag(1 - tau / sigma_k) (u_k^T s)``, transposed back
    when ``m`` is tall and returned C-ordered; with k = 0 it is the zero
    matrix.

    Squaring ``m`` makes the error of that route grow like
    ``n * eps * sigma_1 / tau`` relative to sigma_1, where sigma_1^2 is the
    largest eigenvalue the same call returns. So it is used only while
    ``n * sigma_1 / tau <= SVT_GRAM_MAX_RATIO``, which bounds that error
    by about 2.2e-11 * sigma_1, and while ``tau^2`` and the Gram are finite
    and far from underflow. Otherwise the result is the thin-SVD formula
    above, from ``np.linalg.svd`` of ``m``.
    """
    mat = as_matrix(m, "svt input")
    if tau == 0:
        return mat.copy(), None
    tall = mat.shape[0] > mat.shape[1]
    short = mat.T if tall else mat
    n = short.shape[0]
    with np.errstate(over="ignore"):
        gram = short @ short.T
        trace = gram.trace()
    tau_sq = float(tau) * float(tau)
    if not (_GRAM_SAFE_MIN < tau_sq and isfinite(trace)):
        return _svt_thin_svd(mat, tau)
    values, vectors, k, _, info = scipy.linalg.lapack.dsyevr(
        gram, range="V", vl=tau_sq, vu=np.inf, overwrite_a=1)
    _check_lapack("dsyevr", info, gram.shape)
    # dsyevr returns the kept eigenvalues in ascending order; the spectrum
    # and the returned vectors lead with the largest.
    sigma = np.sqrt(values[:k][::-1])
    if k and n * sigma[0] > SVT_GRAM_MAX_RATIO * tau:
        return _svt_thin_svd(mat, tau)
    shrunk = np.zeros(n)
    shrunk[:k] = soft_threshold(sigma, tau)
    u = vectors[:, :k][:, ::-1]
    scaled = u * (shrunk[:k] / sigma)
    if tall:
        return (short.T @ u) @ scaled.T, shrunk
    return scaled @ (u.T @ short), shrunk


def _svt_thin_svd(mat: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """``svt_with_spectrum`` by the thin SVD of ``mat``, for a large sigma_1 / tau.
    A wide ``mat`` is decomposed as its tall transpose; the result is C-ordered."""
    wide = mat.shape[0] < mat.shape[1]
    try:
        u, sigma, vh = np.linalg.svd(mat.T if wide else mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on a {mat.shape} matrix") from exc
    shrunk = soft_threshold(sigma, tau)
    k = int(np.count_nonzero(shrunk))
    if wide:
        return vh[:k].T @ (u[:, :k] * shrunk[:k]).T, shrunk
    return (u[:, :k] * shrunk[:k]) @ vh[:k], shrunk


def _check_lapack(routine: str, info: int, shape) -> None:
    """Raise NumericalError for a nonzero LAPACK ``info``."""
    if info != 0:
        raise NumericalError(f"LAPACK {routine} failed with info={info} on a {shape} matrix")


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` with a LAPACK failure raised as NumericalError."""
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigendecomposition did not converge on shape {mat.shape}"
        ) from exc


class SymmetricOperand:
    """A symmetric Sylvester operand held with its eigendecomposition.

    ``matrix`` is one dense n x n array, or a (k, m, m) stack holding the
    diagonal blocks of a block-diagonal n x n matrix, n = k * m. One
    ``np.linalg.eigh`` call factors it: on a stack the call is batched, so
    each block costs O(m^3). ``eigh`` reads only the lower triangle of each
    block. The original matrix is kept, because the Sylvester residual is
    checked against it and not against the eigen-reconstruction.

    ``ascending`` is the stable argsort of ``eigenvalues`` (a stack's blocks
    are each ascending, their concatenation is not), which the shifted
    Cholesky path clusters by. ``shape`` is that of the full n x n matrix,
    whatever the storage.
    """

    __slots__ = ("matrix", "eigenvalues", "eigenvectors", "ascending")

    def __init__(self, matrix):
        if scipy.sparse.issparse(matrix):
            raise ValueError("symmetric operand must be a dense array, got a sparse matrix")
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2] or 0 in mat.shape:
            raise ValueError(
                f"symmetric operand must be n x n or a (k, m, m) block stack, "
                f"got shape {mat.shape}"
            )
        if not np.isfinite(mat).all():
            raise ValueError("symmetric operand contains non-finite entries")
        values, vectors = _eigh(mat)
        self.matrix = mat
        self.eigenvalues = values.reshape(-1)
        self.eigenvectors = vectors
        self.ascending = np.argsort(self.eigenvalues, kind="stable")

    @property
    def shape(self) -> tuple[int, int]:
        n = self.eigenvalues.size
        return n, n

    def scaled(self, scale: float, shift: float) -> "SymmetricOperand":
        """The operand ``scale * A + shift * I``, derived without a new ``eigh``.

        It has A's eigenvectors and the eigenvalues ``scale * l + shift``;
        only its matrix is formed, for the residual check. ``scale`` must be
        positive and both values finite. Rounding is monotone, so the derived
        eigenvalues keep A's order, ties aside, and ``ascending`` still sorts
        them: it is shared, not recomputed.
        """
        if not (0 < scale < inf and isfinite(shift)):
            raise ValueError(
                f"scale must be finite and positive and shift finite, got {scale}, {shift}"
            )
        derived = object.__new__(SymmetricOperand)
        derived.matrix = scale * self.matrix + shift * np.eye(self.matrix.shape[-1])
        derived.eigenvalues = scale * self.eigenvalues + shift
        derived.eigenvectors = self.eigenvectors
        derived.ascending = self.ascending
        return derived


class KroneckerSumOperand:
    """The symmetric operand ``first (x) I + I (x) second``, defined by its two terms.

    ``first`` (h x h) and ``second`` (w x w) are dense symmetric matrices,
    each factored by one ``np.linalg.eigh``; the operand is n x n, n = h * w,
    with index i * w + j for row i of ``first`` and row j of ``second``. Its
    eigenvectors are ``kron(V_first, V_second)``, with the eigenvalues
    ``l_i + m_j`` in the same order, so ``solve_sylvester`` rotates an r x n
    right-hand side by two small products on its (r, h, w) view
    (``_kronecker_right``) and no n x n eigenbasis is ever formed. ``bases``
    holds ``(V_first, V_second)``.

    The n x n operator is never formed either. The Sylvester residual is
    checked against the terms as given, ``first^T X_k + X_k second`` on each
    (h, w) slice X_k (``_kronecker_sum_right``), not against the
    eigen-reconstruction, so a term that is not symmetric (``eigh`` reads
    only its lower triangle) fails that check instead of passing unseen.
    """

    __slots__ = ("first", "second", "eigenvalues", "bases")

    def __init__(self, first, second):
        terms = [np.asarray(term, dtype=float) for term in (first, second)]
        for term in terms:
            if term.ndim != 2 or term.shape[0] != term.shape[1] or term.size == 0:
                raise ValueError(f"Kronecker-sum terms must be n x n, got shape {term.shape}")
            if not np.isfinite(term).all():
                raise ValueError("Kronecker-sum term contains non-finite entries")
        (first_values, first_vectors), (second_values, second_vectors) = map(_eigh, terms)
        self.first, self.second = terms
        self.eigenvalues = (first_values[:, None] + second_values[None, :]).reshape(-1)
        self.bases = (first_vectors, second_vectors)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.eigenvalues.size
        return n, n


class GramOperand:
    """The symmetric operand ``m^T m + shift * I`` held as its k x n factor ``m``.

    ``m`` is a dense array with 0 < k < n; with k >= n there is nothing to
    save, so form the operand and hold it as a SymmetricOperand instead. Only
    the k x k Gram ``m m^T = W diag(s) W^T`` is factored: ``eigenvalues``
    holds s and ``eigenvectors`` holds ``m^T W`` (n x k). ``solve_sylvester``
    inverts each shifted copy by the Woodbury identity
    ``(m^T m + c I)^-1 = (I - m^T W diag(1 / (s + c)) W^T m) / c``, and
    products with the operand go through ``m``. ``shape`` is n x n.
    """

    __slots__ = ("factor", "shift", "eigenvalues", "eigenvectors")

    def __init__(self, factor, shift: float = 0.0):
        if scipy.sparse.issparse(factor):
            raise ValueError("Gram factor must be a dense array, got a sparse matrix")
        m = np.asarray(factor, dtype=float)
        if m.ndim != 2 or not 0 < m.shape[0] < m.shape[1]:
            raise ValueError(
                f"Gram factor must be a k x n matrix with 0 < k < n, got shape {m.shape}"
            )
        if not (np.isfinite(m).all() and isfinite(shift)):
            raise ValueError("Gram operand contains non-finite entries")
        self.factor, self.shift = m, float(shift)
        values, vectors = _eigh(m @ m.T)
        self.eigenvalues = values
        self.eigenvectors = m.T @ vectors

    @property
    def shape(self) -> tuple[int, int]:
        n = self.factor.shape[1]
        return n, n


class CholeskyOperand:
    """A symmetric positive-semidefinite n x n operand, left unfactored.

    It stands on the right of a SymmetricOperand, where ``solve_sylvester``
    factors ``matrix + c I`` by Cholesky once per cluster ``c`` of the left
    eigenvalues, or on the left of an IdentityOperand, where it factors
    ``matrix + I`` once. A factor that serves at least as many rows as its
    order n is applied through its inverse (``dpotri``, then ``dsymm``), one
    that serves fewer by ``dpotrs``. Nothing is decomposed at construction.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ValueError(f"Cholesky operand must be n x n, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("Cholesky operand contains non-finite entries")
        self.matrix = mat

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


class IdentityOperand:
    """The n x n identity as a Sylvester operand; only n is stored.

    It stands on the right of a GramOperand or a CholeskyOperand, where
    ``solve_sylvester`` solves ``(a + I) x = q`` without any rotation.
    Products with it return their operand.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        if not (isinstance(n, (int, np.integer)) and n > 0):
            raise ValueError(f"identity operand size must be a positive integer, got {n!r}")
        self.n = int(n)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.n


_OPERANDS = (SymmetricOperand, KroneckerSumOperand, GramOperand, CholeskyOperand,
             IdentityOperand)
# Operands held with their matrix, which products apply directly.
_MATRIX_OPERANDS = (SymmetricOperand, CholeskyOperand)


def _left(op, x: np.ndarray) -> np.ndarray:
    """``op @ x`` for an operand, a dense matrix or a (k, m, m) block stack."""
    if isinstance(op, IdentityOperand):
        return x
    if isinstance(op, GramOperand):
        return op.factor.T @ (op.factor @ x) + op.shift * x
    if isinstance(op, _MATRIX_OPERANDS):
        op = op.matrix
    if op.ndim == 2:
        return op @ x
    k, m, _ = op.shape
    return np.matmul(op, x.reshape(k, m, -1)).reshape(k * m, -1)


def _right(x: np.ndarray, op) -> np.ndarray:
    """``x @ op`` for an operand, a dense matrix or a (k, m, m) block stack."""
    if isinstance(op, IdentityOperand):
        return x
    if isinstance(op, GramOperand):
        return (x @ op.factor.T) @ op.factor + op.shift * x
    if isinstance(op, KroneckerSumOperand):
        return _kronecker_sum_right(x, op.first, op.second)
    if isinstance(op, _MATRIX_OPERANDS):
        op = op.matrix
    if op.ndim == 2:
        return x @ op
    k, m, _ = op.shape
    per_block = np.matmul(x.reshape(-1, k, m).swapaxes(0, 1), op)
    return per_block.swapaxes(0, 1).reshape(x.shape[0], k * m)


def _kronecker_right(x: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``x @ kron(first, second)`` for an r x (h w) ``x``, ``first`` h x h and ``second`` w x w.

    Row k of ``x`` viewed as an h x w matrix X_k maps to ``first^T X_k second``:
    one batched ``matmul`` applies ``first^T`` to the r slices of the
    (r, h, w) view, then one GEMM multiplies the (r h) x w result by
    ``second``. Neither step needs a transposed copy, and the result is
    C-ordered.
    """
    rows = x.shape[0]
    h, w = first.shape[0], second.shape[0]
    inner = np.matmul(first.T, x.reshape(rows, h, w))
    return (inner.reshape(rows * h, w) @ second).reshape(rows, h * w)


def _kronecker_sum_right(x: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``x @ (first (x) I + I (x) second)`` for an r x (h w) ``x``.

    Row k of ``x`` viewed as an h x w matrix X_k maps to
    ``first^T X_k + X_k second``: one batched ``matmul`` on the (r, h, w)
    view and one GEMM on its (r h) x w reshape, as in ``_kronecker_right``.
    """
    rows = x.shape[0]
    h, w = first.shape[0], second.shape[0]
    grid = x.reshape(rows, h, w)
    out = np.matmul(first.T, grid)
    out += (grid.reshape(rows * h, w) @ second).reshape(rows, h, w)
    return out.reshape(rows, h * w)


def _into_eigenbasis(x: np.ndarray, op) -> np.ndarray:
    """``x @ V`` for V the eigenvectors of a SymmetricOperand or KroneckerSumOperand."""
    if isinstance(op, KroneckerSumOperand):
        return _kronecker_right(x, *op.bases)
    return _right(x, op.eigenvectors)


def _out_of_eigenbasis(x: np.ndarray, op) -> np.ndarray:
    """``x @ V^T``, undoing ``_into_eigenbasis``."""
    if isinstance(op, KroneckerSumOperand):
        return _kronecker_right(x, *(basis.T for basis in op.bases))
    return _right(x, op.eigenvectors.swapaxes(-1, -2))


def _spectrum(op) -> np.ndarray:
    """All n eigenvalues of an operand (used to diagnose a failed solve)."""
    if isinstance(op, CholeskyOperand):
        return np.linalg.eigvalsh(op.matrix)
    if isinstance(op, IdentityOperand):
        return np.ones(op.n)
    if isinstance(op, GramOperand):
        n = op.shape[0]
        flat = np.full(n - op.eigenvalues.size, op.shift)
        return np.concatenate([op.eigenvalues + op.shift, flat])
    return op.eigenvalues


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


# Right operands held with an eigenbasis that the solve rotates into and out of.
_EIGENBASIS_OPERANDS = (SymmetricOperand, KroneckerSumOperand)


def solve_sylvester(a, b, q) -> np.ndarray:
    """Solve ``a @ x + x @ b = q`` for ``x``.

    ``a`` is n x n, ``b`` is m x m, ``q`` is n x m. Callers must make sure no
    eigenvalue of ``a`` sums to zero with an eigenvalue of ``b``; the solver
    paths in this package guarantee that by construction (a positive-definite
    left operand against a positive-semidefinite right one).

    The operand pair picks the method:

    * ``a`` a SymmetricOperand, ``b`` a SymmetricOperand or a
      KroneckerSumOperand: with ``a = U diag(l) U^T`` and
      ``b = V diag(m) V^T``, ``x = U [(U^T q V) / (l_i + m_j)] V^T``, using
      the stored factorizations. Block-stack operands are applied per
      block; for a KroneckerSumOperand V is ``kron(V_first, V_second)``,
      applied by two small products and never formed.
    * ``a`` a GramOperand, ``b`` a SymmetricOperand or a
      KroneckerSumOperand: column j of ``q V`` is solved against
      ``m^T m + (shift + m_j) I`` by the Woodbury identity.
      With ``b`` an IdentityOperand, V = I and every m_j = 1, so ``q`` is
      solved against ``m^T m + (shift + 1) I`` with no rotation.
    * ``a`` a SymmetricOperand, ``b`` a CholeskyOperand: row i of ``U^T q``
      is solved against ``b + l_i I`` through the Cholesky factor of ``b``
      shifted by the center of the cluster holding l_i (eigenvalues within
      SHIFT_CLUSTER_RTOL of the cluster's smallest). A cluster of at least
      m rows applies the inverse that ``dpotri`` forms from its factor, by
      one ``dsymm``; a cluster of fewer rows applies the factor by
      ``dpotrs``. While the residual misses the bound, up to
      MAX_REFINEMENT_SWEEPS sweeps solve the same way for the residual
      taken against the exact operators and subtract the result.
    * ``a`` a CholeskyOperand, ``b`` an IdentityOperand: ``x`` solves
      ``(a + I) x = q`` through one Cholesky factor of ``a + I``; ``q``
      has as many columns as its order, so its inverse is applied.
    * both operands plain arrays: scipy's Bartels-Stewart (real Schur forms
      of both operands plus back-substitution). This is the general routine
      and the reference the structured paths are tested against.

    Any other pair, plain arrays mixed with operands included, raises
    TypeError.

    The returned solution always satisfies
    ``||a x + x b - q||_F <= SYLVESTER_RTOL * (1 + ||q||_F)``, checked
    against the original operators (a KroneckerSumOperand's two terms);
    where ``||q||_F`` overflows, both sides
    are taken in units of max|q|, so the bound stays finite. A violation,
    or a non-finite solution, raises SingularPencilError (naming the
    offending eigenvalue pair) when the pencil is singular, NumericalError
    otherwise.
    """
    if not isinstance(a, _OPERANDS) and not isinstance(b, _OPERANDS):
        return _solve_bartels_stewart(a, b, q)
    if isinstance(a, SymmetricOperand) and isinstance(b, _EIGENBASIS_OPERANDS):
        return _solve_in_eigenbases(a, b, q)
    if isinstance(a, GramOperand) and isinstance(b, (*_EIGENBASIS_OPERANDS, IdentityOperand)):
        return _solve_woodbury(a, b, q)
    if isinstance(a, SymmetricOperand) and isinstance(b, CholeskyOperand):
        return _solve_shifted_cholesky(a, b, q)
    if isinstance(a, CholeskyOperand) and isinstance(b, IdentityOperand):
        return _solve_plus_identity(a, b, q)
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
    with _quiet():
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


def _quiet():
    """The one ``np.errstate`` a structured solve runs under, its check included.

    Division by a (near) zero eigenvalue sum, overflow and invalid operations
    show up as non-finite entries in the solution or its residual, which
    ``_verified`` rejects; they raise no warning on the way.
    """
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _solve_in_eigenbases(a: SymmetricOperand, b, q) -> np.ndarray:
    """A SymmetricOperand left of a SymmetricOperand or a KroneckerSumOperand."""
    q = _structured_rhs(a, b, q)
    u = a.eigenvectors
    with _quiet():
        inner = _into_eigenbasis(_left(u.swapaxes(-1, -2), q), b)
        inner /= a.eigenvalues[:, None] + b.eigenvalues[None, :]
        x = _out_of_eigenbasis(_left(u, inner), b)
        return _verified(a, b, q, x, _spectra(a, b))


def _solve_woodbury(a: GramOperand, b, q) -> np.ndarray:
    """A GramOperand left of a SymmetricOperand, a KroneckerSumOperand or the identity."""
    q = _structured_rhs(a, b, q)
    identity = isinstance(b, IdentityOperand)
    basis = a.eigenvectors
    shifts = a.shift + (1.0 if identity else b.eigenvalues)
    with _quiet():
        rotated = q if identity else _into_eigenbasis(q, b)
        inner = basis.T @ rotated
        inner /= a.eigenvalues[:, None] + shifts
        x = (rotated - basis @ inner) / shifts
        if not identity:
            x = _out_of_eigenbasis(x, b)
        return _verified(a, b, q, x, _spectra(a, b))


def _eigenvalue_clusters(values: np.ndarray, ascending: np.ndarray) -> list:
    """Group ``values`` into (indices, center) clusters; ``values[ascending]``
    is sorted.

    Scanning in ascending order, a cluster takes every value within
    SHIFT_CLUSTER_RTOL of its smallest; its center is the midpoint of its
    range. Equal values always share a cluster, so any order that sorts
    ``values`` gives the same clusters.
    """
    ordered = values[ascending]
    clusters, start = [], 0
    while start < ordered.size:
        low = ordered[start]
        stop = int(np.searchsorted(ordered, low + SHIFT_CLUSTER_RTOL * abs(low), side="right"))
        clusters.append((np.sort(ascending[start:stop]), 0.5 * (low + ordered[stop - 1])))
        start = stop
    return clusters


def _solve_shifted_cholesky(a: SymmetricOperand, b: CholeskyOperand, q) -> np.ndarray:
    """A SymmetricOperand left of an unfactored positive-semidefinite operand."""
    q = _structured_rhs(a, b, q)
    u = a.eigenvectors
    eigenvalues = _spectra(a, b)
    solvers = [(rows, _shifted_cholesky(b, center, rows.size, "right", eigenvalues))
               for rows, center in _eigenvalue_clusters(a.eigenvalues, a.ascending)]

    def solve_rows(r: np.ndarray) -> np.ndarray:
        rotated = _left(u.swapaxes(-1, -2), r)
        out = np.empty_like(rotated)
        for rows, solve in solvers:
            out[rows] = solve(rotated[rows].T, overwrite_b=1).T
        return _left(u, out)

    with _quiet():
        return _verified(a, b, q, solve_rows(q), eigenvalues, correction=solve_rows)


def _solve_plus_identity(a: CholeskyOperand, b: IdentityOperand, q) -> np.ndarray:
    """An unfactored positive-semidefinite operand left of the identity."""
    q = _structured_rhs(a, b, q)
    eigenvalues = _spectra(a, b)
    solve = _shifted_cholesky(a, 1.0, q.shape[1], "left", eigenvalues)
    with _quiet():
        return _verified(a, b, q, solve(q), eigenvalues)


def _shifted_cholesky(op: CholeskyOperand, shift: float, columns: int, side: str,
                      eigenvalues):
    """A function solving ``(op + shift I) x = b`` for n x ``columns`` right-hand sides.

    ``dpotrf`` makes the lower Cholesky factor in place in a Fortran-ordered
    copy (its upper triangle is not cleaned). With ``columns >= n`` the
    factor serves at least as many right-hand sides as its order, and
    ``dpotri`` turns it into the lower triangle of the inverse, which one
    ``dsymm`` applies at GEMM rate; with fewer, ``dpotrs`` applies the
    factor by two triangular solves. The function takes ``overwrite_b``,
    which lets ``dpotrs`` solve in place in a Fortran-ordered ``b``. A
    positive info of ``dpotrf`` or ``dpotri`` is diagnosed and raised.
    """
    shifted = np.array(op.matrix, order="F")
    diagonal = diagonal_view(shifted)
    diagonal += shift
    detail = f"{side} operand shifted by {shift} is not positive definite"
    factor, info = scipy.linalg.lapack.dpotrf(shifted, lower=1, clean=0, overwrite_a=1)
    _check_factor("dpotrf", info, shifted.shape, detail, eigenvalues)
    if columns < factor.shape[0]:
        def solve(b: np.ndarray, overwrite_b: int = 0) -> np.ndarray:
            x, info = scipy.linalg.lapack.dpotrs(factor, b, lower=1, overwrite_b=overwrite_b)
            _check_lapack("dpotrs", info, factor.shape)
            return x
        return solve
    inverse, info = scipy.linalg.lapack.dpotri(factor, lower=1, overwrite_c=1)
    _check_factor("dpotri", info, factor.shape, detail, eigenvalues)

    def apply_inverse(b: np.ndarray, overwrite_b: int = 0) -> np.ndarray:
        # dsymm reads the lower triangle only. Any other b is applied as
        # (b^T inverse)^T, so a C-ordered b is not copied either.
        if b.flags.f_contiguous:
            return scipy.linalg.blas.dsymm(1.0, inverse, b, lower=1)
        return scipy.linalg.blas.dsymm(1.0, inverse, b.T, side=1, lower=1).T
    return apply_inverse


def _check_factor(routine: str, info: int, shape, detail: str, eigenvalues) -> None:
    """Diagnose a positive ``info`` of ``dpotrf`` or ``dpotri``; raise any other nonzero one."""
    if info > 0:
        _raise_sylvester_failure(eigenvalues, detail)
    _check_lapack(routine, info, shape)


def frobenius_norm(v: np.ndarray) -> float:
    """The Frobenius norm as ``np.linalg.norm`` computes it for a real array:
    the square root of the dot product of v's elements in memory order."""
    flat = v.ravel(order="K")
    return sqrt(flat.dot(flat))


def _verified(a, b, q, x, eigenvalues, correction=None) -> np.ndarray:
    """Return ``x`` if it meets the residual bound, else diagnose and raise.

    ``a`` and ``b`` are operands, dense matrices or block stacks;
    ``eigenvalues`` is a zero-argument callable giving both operands'
    eigenvalues, only called on failure. ``correction``, when given, maps a
    residual to the solution error it implies; while the bound is missed it
    is subtracted from ``x``, at most MAX_REFINEMENT_SWEEPS times. The
    caller runs it under ``_quiet``.

    The residual comes first: every entry of ``x`` reaches the residual, so
    a non-finite ``x`` gives a non-finite norm, which meets no bound. ``x``
    is scanned for non-finite entries only when the bound is missed, and
    such an ``x`` fails as a "non-finite solution".

    Where ``||q||_F`` overflows, both norms are taken in units of max|q|,
    so the bound stays finite and an overflowing ``q`` cannot make it
    accept any finite ``x``. A non-finite ``q`` has no finite unit: its
    bound is NaN and meets no residual.
    """
    sweeps = 0 if correction is None else MAX_REFINEMENT_SWEEPS
    q_norm = frobenius_norm(q)
    unit = 1.0 if q_norm < inf else float(np.abs(q).max())
    if unit != 1.0:
        q_norm = frobenius_norm(q / unit)
    bound = SYLVESTER_RTOL * (1.0 / unit + q_norm)
    for sweep in range(sweeps + 1):
        residual = _left(a, x) + _right(x, b)
        residual -= q
        norm = frobenius_norm(residual if unit == 1.0 else residual / unit)
        if norm <= bound:
            return x
        if not np.isfinite(x).all():
            _raise_sylvester_failure(eigenvalues, "non-finite solution")
        if sweep < sweeps:
            x = x - correction(residual)
    units = "" if unit == 1.0 else f" in units of max|q| = {unit:.3e}"
    _raise_sylvester_failure(eigenvalues, f"residual {norm:.3e} exceeds bound {bound:.3e}{units}")


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
