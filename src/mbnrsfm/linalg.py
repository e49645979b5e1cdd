"""Dense linear-algebra kernels used by every solver step.

Decompositions are delegated to LAPACK through numpy and scipy.
``svt`` returns the thresholded matrix with its spectrum and forms only
the singular triplets that survive the threshold: one partial
eigendecomposition (``dsyevr``) of the n x n Gram of the input's short
side, restricted to eigenvalues above the squared threshold. Where
squaring would cost too many digits (n * sigma_1 / tau above
``SVT_GRAM_MAX_RATIO``) it takes the thin ``numpy.linalg.svd`` instead.
Symmetric eigendecompositions of operands go through ``numpy.linalg.eigh``,
that of a Kronecker sum through one per term; a ``SymmetricOperand`` can
derive a scaled and shifted copy of itself from its stored eigenpairs
without another one. Cholesky factors come from
LAPACK ``dpotrf``, called directly with no scipy wrapper, and are applied
by one of two routes chosen from the input size alone: a factor that
serves at least as many right-hand sides as its order becomes its inverse
through ``dpotri`` and is applied by one BLAS ``dsymm``, at GEMM rate; a
factor that serves fewer is applied by the two triangular solves of
``dpotrs``.
The solver's two Sylvester equations have symmetric operands, held in the
operand classes below. ``solve_sylvester`` looks up the method for each
supported pair of operand types in ``_BUILDERS``; its docstring lists the
pairs and gives the one account of how every solve is checked and refined.

This module owns the contracts the rest of the package relies on: validated
inputs, explicit failures instead of silent garbage, and a verified residual
on every Sylvester solve. Operands are built only from solver state, so a
non-finite entry in one is an overflow upstream, not bad input: it raises
NumericalError, as every failed Sylvester solve does. Norms are
``frobenius_norm``, the same sum of squares in memory order that
``np.linalg.norm`` takes.

All functions are pure, except that ``soft_threshold`` writes into an
``out`` it is given; an operand is computed once and never changed. The
Woodbury solve and the residual check add in place only into
arrays they made themselves, never into a product with or a rotation by an
operand, which for an ``IdentityOperand`` is the input itself.
"""

from __future__ import annotations

import sys
from math import inf, isfinite, sqrt

import numpy as np
import scipy.linalg

from .errors import NumericalError

# Relative residual accepted from a Sylvester solve.
SYLVESTER_RTOL = 1e-8
# Left eigenvalues within this relative distance of a cluster's smallest
# share one shifted Cholesky factor. Solving a row with its cluster's center
# instead of its own eigenvalue then leaves an error of at most half this
# fraction, and each refinement sweep shrinks it by that factor again.
SHIFT_CLUSTER_RTOL = 1e-3
# Refinement sweeps a structured Sylvester solve may take to meet the bound.
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


def soft_threshold(x, tau: float, out=None):
    """Shrink ``x`` toward zero: sign(x) * max(|x| - tau, 0).

    Computed in two array passes as ``x - clip(x, -tau, tau)``, which gives
    the same bits as the formula above except that a negative value inside
    the dead zone maps to +0.0 instead of -0.0. Works elementwise on arrays
    and on plain scalars. ``tau`` must be nonnegative. ``out`` is the array
    the difference is written to, as in a ufunc; ``out=x`` shrinks ``x`` in
    place, with the clipped copy as the one temporary.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    return np.subtract(x, np.clip(x, -tau, tau), out=out)


def svt(m, tau: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Singular value thresholding, the proximal operator of the nuclear norm.

    Returns the unique minimizer of ``tau * ||X||_* + 0.5 * ||X - m||_F^2``,
    which for the thin SVD ``m = u @ diag(sigma) @ vh`` is
    ``u @ diag(soft_threshold(sigma, tau)) @ vh``, together with those
    thresholded singular values. They are the spectrum of the returned
    matrix, so its nuclear norm is their sum and needs no second SVD. The
    spectrum has the n entries of the thin SVD (n = min of the two sides),
    in descending order, zero past the k kept ones. A zero threshold is the
    identity: nothing is decomposed and the spectrum is None.

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

    Non-finite input raises ValueError; a decomposition that does not
    converge, or any other LAPACK failure, raises NumericalError.
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
    """``svt`` by the thin SVD of ``mat``, for a large sigma_1 / tau.
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


def _reject_sparse(value, message: str) -> None:
    """Raise ``ValueError(message)`` if ``value`` is a scipy sparse array or matrix.

    The module is looked up, not imported: a sparse input exists only if its
    caller imported the module, and the package itself never does.
    """
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(value):
        raise ValueError(message)


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
        _reject_sparse(matrix, "symmetric operand must be a dense array, got a sparse matrix")
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2] or 0 in mat.shape:
            raise ValueError(
                f"symmetric operand must be n x n or a (k, m, m) block stack, "
                f"got shape {mat.shape}"
            )
        if not np.isfinite(mat).all():
            raise NumericalError("symmetric operand contains non-finite entries")
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
    checked, and refined, against the terms as given,
    ``first^T X_k + X_k second`` on each (h, w) slice X_k
    (``_kronecker_sum_right``), not against the eigen-reconstruction. A term
    that is not symmetric (``eigh`` reads only its lower triangle) is solved
    as its symmetric lower part: a mild asymmetry is refined away, and one
    that refinement cannot absorb fails the check instead of passing unseen.
    """

    __slots__ = ("first", "second", "eigenvalues", "bases")

    def __init__(self, first, second):
        terms = [np.asarray(term, dtype=float) for term in (first, second)]
        for term in terms:
            if term.ndim != 2 or term.shape[0] != term.shape[1] or term.size == 0:
                raise ValueError(f"Kronecker-sum terms must be n x n, got shape {term.shape}")
            if not np.isfinite(term).all():
                raise NumericalError("Kronecker-sum term contains non-finite entries")
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
        _reject_sparse(factor, "Gram factor must be a dense array, got a sparse matrix")
        m = np.asarray(factor, dtype=float)
        if m.ndim != 2 or not 0 < m.shape[0] < m.shape[1]:
            raise ValueError(
                f"Gram factor must be a k x n matrix with 0 < k < n, got shape {m.shape}"
            )
        gram = m @ m.T
        if not (np.isfinite(gram).all() and isfinite(shift)):
            raise NumericalError("Gram operand contains non-finite entries")
        self.factor, self.shift = m, float(shift)
        values, vectors = _eigh(gram)
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
    ``matrix + I`` once; refinement reuses the factors. A factor that serves
    at least as many rows as its order n is applied through its inverse
    (``dpotri``, then ``dsymm``), one that serves fewer by ``dpotrs``.
    Nothing is decomposed at construction.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ValueError(f"Cholesky operand must be n x n, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise NumericalError("Cholesky operand contains non-finite entries")
        self.matrix = mat

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


class IdentityOperand:
    """The n x n identity as a Sylvester operand, held as n unit eigenvalues.

    It stands on the right of a GramOperand, as an eigenbasis operand whose
    rotations and products return their operand, or of a CholeskyOperand,
    where ``solve_sylvester`` solves ``(a + I) x = q``.
    """

    __slots__ = ("n", "eigenvalues")

    def __init__(self, n: int):
        if not (isinstance(n, (int, np.integer)) and n > 0):
            raise ValueError(f"identity operand size must be a positive integer, got {n!r}")
        self.n = int(n)
        self.eigenvalues = np.ones(self.n)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.n


# Operands held with their matrix, which products apply directly.
_MATRIX_OPERANDS = (SymmetricOperand, CholeskyOperand)


def _left(op, x: np.ndarray) -> np.ndarray:
    """``op @ x`` for a left operand of ``_BUILDERS``, a dense matrix or a (k, m, m) block stack."""
    if isinstance(op, GramOperand):
        out = op.factor.T @ (op.factor @ x)
        out += op.shift * x
        return out
    if isinstance(op, _MATRIX_OPERANDS):
        op = op.matrix
    if op.ndim == 2:
        return op @ x
    k, m, _ = op.shape
    return np.matmul(op, x.reshape(k, m, -1)).reshape(k * m, -1)


def _right(x: np.ndarray, op) -> np.ndarray:
    """``x @ op`` for a right operand of ``_BUILDERS``, a dense matrix or a (k, m, m) block stack."""
    if isinstance(op, IdentityOperand):
        return x
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
    """``x @ V`` for V the eigenvectors of a SymmetricOperand, a
    KroneckerSumOperand or an IdentityOperand (V = I: ``x`` itself)."""
    if isinstance(op, IdentityOperand):
        return x
    if isinstance(op, KroneckerSumOperand):
        return _kronecker_right(x, *op.bases)
    return _right(x, op.eigenvectors)


def _out_of_eigenbasis(x: np.ndarray, op) -> np.ndarray:
    """``x @ V^T``, undoing ``_into_eigenbasis``."""
    if isinstance(op, IdentityOperand):
        return x
    if isinstance(op, KroneckerSumOperand):
        return _kronecker_right(x, *(basis.T for basis in op.bases))
    return _right(x, op.eigenvectors.swapaxes(-1, -2))


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
    eigenvalue of ``a`` sums to zero with an eigenvalue of ``b``; ``admm.solve``
    guarantees that by construction (a positive-definite left operand against
    a positive-semidefinite right one), so every eigenvalue pair sums to at
    least 1.

    The operand pair picks the method (``_BUILDERS``). ``admm.solve``
    reaches five pairs: (Symmetric, Cholesky) in the shape step, and in the
    coefficient step (Gram, Identity) or (Cholesky, Identity) without a
    spatial term, (Gram, KroneckerSum) or (Symmetric, KroneckerSum) on a
    grid. (Symmetric, Symmetric) and (Gram, Symmetric) serve only the
    tests, which form the merged-operator Gram as one SymmetricOperand
    (``DenseMerged`` in ``tests/conftest.py``).

    * ``a`` a SymmetricOperand, ``b`` a SymmetricOperand or a
      KroneckerSumOperand: with ``a = U diag(l) U^T`` and
      ``b = V diag(m) V^T``, ``x = U [(U^T q V) / (l_i + m_j)] V^T``, using
      the stored factorizations. Block-stack operands are applied per
      block; for a KroneckerSumOperand V is ``kron(V_first, V_second)``,
      applied by two small products and never formed.
    * ``a`` a GramOperand, ``b`` a SymmetricOperand, a KroneckerSumOperand
      or an IdentityOperand (V = I, every m_j = 1): column j of ``q V`` is
      solved against ``m^T m + (shift + m_j) I`` by the Woodbury identity.
    * ``a`` a SymmetricOperand, ``b`` a CholeskyOperand: row i of ``U^T q``
      is solved against ``b + l_i I`` through the Cholesky factor of ``b``
      shifted by the center of the cluster holding l_i (eigenvalues within
      SHIFT_CLUSTER_RTOL of the cluster's smallest). A cluster of at least
      m rows applies the inverse that ``dpotri`` forms from its factor, by
      one ``dsymm``; a cluster of fewer rows applies the factor by
      ``dpotrs``.
    * ``a`` a CholeskyOperand, ``b`` an IdentityOperand: ``x`` solves
      ``(a + I) x = q`` through one Cholesky factor of ``a + I``; ``q``
      has as many columns as its order, so its inverse is applied.

    Any other pair, plain arrays included, raises TypeError. The general
    Bartels-Stewart routine for two plain arrays, the unrefined reference
    the structured paths are tested against, is the tests' oracle
    (``bartels_stewart`` in ``tests/conftest.py``).

    Every structured pair builds a function that solves the equation for
    any right-hand side, and solves ``q`` with it. The residual
    ``a x + x b - q`` is then formed against the exact operators (a
    KroneckerSumOperand's two terms as given), and while its norm misses
    the bound, up to MAX_REFINEMENT_SWEEPS sweeps solve the same way for the
    residual and subtract the result. A shifted factor, an explicit inverse
    or a Woodbury update loses digits in proportion to the conditioning of
    the operand, which grows with the square of the data's scale;
    refinement recovers them, and runs only when the first solve misses the
    bound. The returned solution always satisfies
    ``||a x + x b - q||_F <= SYLVESTER_RTOL * (1 + ||q||_F)``. Where
    ``||q||_F`` overflows, both sides are taken in units of max|q|, so the
    bound stays finite and cannot accept any finite ``x``; a non-finite
    ``q`` has no finite unit, and its bound, NaN, meets no residual.

    The solve, its refinement and its check run under one ``np.errstate``
    (``_quiet``): division by zero, overflow and invalid operations raise no
    warning, and leave a non-finite entry that the check rejects. Every
    entry of ``x`` reaches the residual, so a non-finite ``x`` misses the
    bound; ``x`` is scanned for non-finite entries only then. Every failure
    raises NumericalError with its detail: a shifted operand that is not
    positive definite, a residual that refinement cannot bring under the
    bound, or a non-finite solution.
    """
    builder = _BUILDERS.get((type(a), type(b)))
    if builder is None:
        raise TypeError(
            f"solve_sylvester has no method for a {type(a).__name__} left operand "
            f"and a {type(b).__name__} right operand"
        )
    q = _structured_rhs(a, b, q)
    with _quiet():
        solve = builder(a, b)
        return _verified(a, b, q, solve(q), correction=solve)


def _structured_rhs(a, b, q) -> np.ndarray:
    """The right-hand side of an operand path as a 2-D float array; its
    finiteness is left to the residual check."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"right-hand side must be 2-D, got shape {q.shape}")
    _check_operand_shapes(a.shape, b.shape, q.shape)
    return q


def _quiet():
    """The one ``np.errstate`` a structured solve runs under, its check included.

    Division by a (near) zero eigenvalue sum, overflow and invalid operations
    show up as non-finite entries in the solution or its residual, which
    ``_verified`` rejects; they raise no warning on the way. The ADMM steps
    form their operands and right-hand sides under it too, so an overflow
    there fails as a non-finite operand or right-hand side.
    """
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _in_eigenbases(a: SymmetricOperand, b):
    """A SymmetricOperand left of a SymmetricOperand or a KroneckerSumOperand."""
    u = a.eigenvectors
    sums = a.eigenvalues[:, None] + b.eigenvalues[None, :]

    def solve(r: np.ndarray) -> np.ndarray:
        inner = _into_eigenbasis(_left(u.swapaxes(-1, -2), r), b)
        inner /= sums
        return _out_of_eigenbasis(_left(u, inner), b)
    return solve


def _woodbury(a: GramOperand, b):
    """A GramOperand left of a SymmetricOperand, a KroneckerSumOperand or the identity."""
    basis = a.eigenvectors
    shifts = a.shift + b.eigenvalues
    sums = a.eigenvalues[:, None] + shifts

    def solve(r: np.ndarray) -> np.ndarray:
        rotated = _into_eigenbasis(r, b)
        inner = basis.T @ rotated
        inner /= sums
        # (rotated - basis inner) / shifts, formed in the product's buffer
        # (``rotated`` is ``r`` itself against the identity); ``rotated`` is
        # dropped before the rotation back.
        solved = basis @ inner
        np.subtract(rotated, solved, out=solved)
        del rotated
        solved /= shifts
        return _out_of_eigenbasis(solved, b)
    return solve


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


def _shifted_cholesky_rows(a: SymmetricOperand, b: CholeskyOperand):
    """A SymmetricOperand left of an unfactored positive-semidefinite operand."""
    u = a.eigenvectors
    solvers = [(rows, _shifted_cholesky(b, center, rows.size, "right"))
               for rows, center in _eigenvalue_clusters(a.eigenvalues, a.ascending)]

    def solve(r: np.ndarray) -> np.ndarray:
        rotated = _left(u.swapaxes(-1, -2), r)
        out = np.empty_like(rotated)
        for rows, solve_cluster in solvers:
            out[rows] = solve_cluster(rotated[rows].T, overwrite_b=1).T
        return _left(u, out)
    return solve


def _plus_identity(a: CholeskyOperand, b: IdentityOperand):
    """An unfactored positive-semidefinite operand left of the identity."""
    return _shifted_cholesky(a, 1.0, b.n, "left")


def _shifted_cholesky(op: CholeskyOperand, shift: float, columns: int, side: str):
    """A function solving ``(op + shift I) x = b`` for n x ``columns`` right-hand sides.

    ``dpotrf`` makes the lower Cholesky factor in place in a Fortran-ordered
    copy (its upper triangle is not cleaned). With ``columns >= n`` the
    factor serves at least as many right-hand sides as its order, and
    ``dpotri`` turns it into the lower triangle of the inverse, which one
    ``dsymm`` applies at GEMM rate; with fewer, ``dpotrs`` applies the
    factor by two triangular solves. The function takes ``overwrite_b``,
    which lets ``dpotrs`` solve in place in a Fortran-ordered ``b``. A
    nonzero info of ``dpotrf`` or ``dpotri`` raises NumericalError.
    """
    shifted = np.array(op.matrix, order="F")
    diagonal = diagonal_view(shifted)
    diagonal += shift
    detail = f"{side} operand shifted by {shift} is not positive definite"
    factor, info = scipy.linalg.lapack.dpotrf(shifted, lower=1, clean=0, overwrite_a=1)
    _check_factor("dpotrf", info, shifted.shape, detail)
    if columns < factor.shape[0]:
        def solve(b: np.ndarray, overwrite_b: int = 0) -> np.ndarray:
            x, info = scipy.linalg.lapack.dpotrs(factor, b, lower=1, overwrite_b=overwrite_b)
            _check_lapack("dpotrs", info, factor.shape)
            return x
        return solve
    inverse, info = scipy.linalg.lapack.dpotri(factor, lower=1, overwrite_c=1)
    _check_factor("dpotri", info, factor.shape, detail)

    def apply_inverse(b: np.ndarray, overwrite_b: int = 0) -> np.ndarray:
        # dsymm reads the lower triangle only. Any other b is applied as
        # (b^T inverse)^T, so a C-ordered b is not copied either.
        if b.flags.f_contiguous:
            return scipy.linalg.blas.dsymm(1.0, inverse, b, lower=1)
        return scipy.linalg.blas.dsymm(1.0, inverse, b.T, side=1, lower=1).T
    return apply_inverse


def _check_factor(routine: str, info: int, shape, detail: str) -> None:
    """Raise NumericalError for a nonzero ``info`` of ``dpotrf`` or ``dpotri``,
    with ``detail`` for a positive one (a factor that is not positive definite)."""
    if info > 0:
        raise NumericalError(f"Sylvester solve failed ({detail})")
    _check_lapack(routine, info, shape)


# The builder of each structured (left, right) operand pair: given the operands,
# it returns a function that solves the pair for any right-hand side without
# changing it, which ``solve_sylvester`` applies to ``q`` and, in refinement,
# to residuals. ``admm.solve`` reaches five pairs; (Symmetric, Symmetric) and
# (Gram, Symmetric) serve only the tests' formed merged-operator Gram.
_BUILDERS = {
    (SymmetricOperand, SymmetricOperand): _in_eigenbases,
    (SymmetricOperand, KroneckerSumOperand): _in_eigenbases,
    (GramOperand, SymmetricOperand): _woodbury,
    (GramOperand, KroneckerSumOperand): _woodbury,
    (GramOperand, IdentityOperand): _woodbury,
    (SymmetricOperand, CholeskyOperand): _shifted_cholesky_rows,
    (CholeskyOperand, IdentityOperand): _plus_identity,
}


def frobenius_norm(v: np.ndarray) -> float:
    """The Frobenius norm as ``np.linalg.norm`` computes it for a real array:
    the square root of the dot product of v's elements in memory order."""
    flat = v.ravel(order="K")
    return sqrt(flat.dot(flat))


def _verified(a, b, q, x, correction) -> np.ndarray:
    """Return ``x`` if it meets the residual bound, refined as
    ``solve_sylvester`` describes; else raise NumericalError.

    ``a`` and ``b`` are operands, dense matrices or block stacks.
    ``correction`` maps a residual to the solution error it implies: every
    structured solve passes its own solve. The tests' Bartels-Stewart
    oracle (``tests/conftest.py``) passes None and is not refined. The
    caller runs this under ``_quiet``.
    """
    sweeps = 0 if correction is None else MAX_REFINEMENT_SWEEPS
    q_norm = frobenius_norm(q)
    unit = 1.0 if q_norm < inf else float(np.abs(q).max())
    if unit != 1.0:
        q_norm = frobenius_norm(q / unit)
    bound = SYLVESTER_RTOL * (1.0 / unit + q_norm)
    for sweep in range(sweeps + 1):
        # _left returns a new array; _right may return ``x`` itself.
        residual = _left(a, x)
        residual += _right(x, b)
        residual -= q
        norm = frobenius_norm(residual if unit == 1.0 else residual / unit)
        if norm <= bound:
            return x
        if not np.isfinite(x).all():
            raise NumericalError("Sylvester solve failed (non-finite solution)")
        if sweep < sweeps:
            x = x - correction(residual)
    units = "" if unit == 1.0 else f" in units of max|q| = {unit:.3e}"
    raise NumericalError(
        f"Sylvester solve failed (residual {norm:.3e} exceeds bound {bound:.3e}{units})")
