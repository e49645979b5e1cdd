"""Affinity construction and spectral clustering of self-expression weights.

The affinity is the symmetrized coefficient magnitude |C| + |C^T|; its block
structure carries the segmentation. Clustering follows the normalized
spectral recipe: symmetric normalized Laplacian, the k bottom eigenvectors,
row normalization, then k-means with seeded restarts. Isolated points (zero
affinity degree) keep an identity Laplacian row and a zero embedding row, so
degenerate inputs still cluster deterministically.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .linalg import as_matrix

KMEANS_RESTARTS = 20
_KMEANS_MAX_ITERS = 300


def build_affinity(coeffs) -> np.ndarray:
    """Symmetrized coefficient magnitudes: A_ij = |C_ij| + |C_ji|."""
    c = as_matrix(coeffs, "coefficient matrix")
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {c.shape}")
    return np.abs(c) + np.abs(c.T)


def spectral_cluster(affinity, clusters: int, seed: int) -> np.ndarray:
    """Segment P points into ``clusters`` groups from a symmetric affinity.

    Embeds the points with the ``clusters`` smallest eigenvectors of the
    symmetric normalized Laplacian (zero-degree rows are treated as
    self-contained: their Laplacian row is the identity row and their
    embedding row stays zero after normalization), then picks the best of
    KMEANS_RESTARTS seeded k-means runs by inertia.
    """
    a = as_matrix(affinity, "affinity matrix")
    p = a.shape[0]
    if a.shape[1] != p:
        raise ValueError(f"affinity matrix must be square, got {a.shape}")
    asym = np.abs(a - a.T).max()
    if asym > 1e-10 * (1.0 + np.abs(a).max()):
        raise ValueError(f"affinity matrix is not symmetric (defect {asym:.3e})")
    if np.any(a < 0):
        raise ValueError("affinity matrix has negative entries")
    if clusters < 1:
        raise ValueError(f"cluster count must be at least 1, got {clusters}")
    if clusters > p:
        raise ValueError(f"cannot split {p} points into {clusters} clusters")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")

    degrees = a.sum(axis=1)
    inv_sqrt = np.zeros(p)
    positive = degrees > 0
    inv_sqrt[positive] = degrees[positive] ** -0.5
    laplacian = np.eye(p) - inv_sqrt[:, None] * a * inv_sqrt[None, :]

    try:
        _, eigvecs = np.linalg.eigh(laplacian)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Laplacian eigendecomposition did not converge") from exc
    embedding = eigvecs[:, :clusters].copy()
    norms = np.linalg.norm(embedding, axis=1)
    nonzero = norms > 0
    embedding[nonzero] /= norms[nonzero, None]

    best_labels = None
    best_inertia = np.inf
    for restart in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, restart])
        labels, inertia = _kmeans(embedding, clusters, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def _kmeans(points: np.ndarray, k: int, rng) -> tuple[np.ndarray, float]:
    """One Lloyd run with k-means++ seeding; deterministic given the rng."""
    n = points.shape[0]
    centers = _plus_plus_init(points, k, rng)
    labels = np.full(n, -1)
    for _ in range(_KMEANS_MAX_ITERS):
        dist2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist2.argmin(axis=1)
        _refill_empty_clusters(new_labels, dist2, k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels.astype(np.int64), inertia


def _refill_empty_clusters(labels: np.ndarray, dist2: np.ndarray, k: int) -> None:
    """Give each empty cluster its own worst-assigned point, in place.

    Clusters are refilled in index order. Each takes the point farthest from
    its assigned center among those whose cluster keeps another member, so
    no point is moved twice and no refill empties a cluster; with k <= n
    such a point always exists.
    """
    counts = np.bincount(labels, minlength=k)
    if counts.all():
        return
    assigned = dist2[np.arange(labels.size), labels]
    for j in np.flatnonzero(counts == 0):
        worst = np.where(counts[labels] > 1, assigned, -np.inf).argmax()
        counts[labels[worst]] -= 1
        labels[worst] = j
        counts[j] = 1


def _plus_plus_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = rng.integers(n)
        centers[j] = points[idx]
        closest = np.minimum(closest, ((points - centers[j]) ** 2).sum(axis=1))
    return centers
