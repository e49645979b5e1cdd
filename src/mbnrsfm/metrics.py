"""Evaluation metrics: 3D reconstruction error, segmentation error,
reprojection error.

The 3D error resolves the orthographic depth ambiguity with one global
z-sign flip for the whole run (never per frame); the segmentation error
takes the best bijection between estimated and ground-truth cluster ids.
That bijection is an assignment on the k x k confusion matrix, solved here
by the Hungarian method (Kuhn 1955; Munkres 1957) as shortest augmenting
paths with integer potentials: O(k^3), exact on integer counts, and one
path for every k. It is numpy alone, so scoring loads no scipy module.
"""

from __future__ import annotations

import numpy as np

from .scene import CameraMotion, project, validate_labels, validate_shapes


def _shape_pair(s_est, s_gt) -> tuple[np.ndarray, np.ndarray]:
    est = validate_shapes(s_est, "estimated shapes")
    gt = validate_shapes(s_gt, "ground-truth shapes")
    if est.shape != gt.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {gt.shape}")
    return est, gt


def _best_global_flip(est, error) -> float:
    """The smaller ``error`` of ``est`` and of ``est`` with every z row negated."""
    best = np.inf
    for flip in (1.0, -1.0):
        flipped = est.copy()
        flipped[2::3] *= flip
        best = min(best, error(flipped))
    return best


def reconstruction_error(s_est, s_gt) -> float:
    """Mean per-frame relative Frobenius error, best global z-flip.

    Every ground-truth frame must have a positive norm.
    """
    est, gt = _shape_pair(s_est, s_gt)
    frames = est.shape[0] // 3
    gt_norms = np.linalg.norm(gt.reshape(frames, 3, -1), axis=(1, 2))
    if np.any(gt_norms == 0):
        raise ValueError("ground truth has a zero-norm frame")

    def per_frame_mean(flipped):
        diff = (flipped - gt).reshape(frames, 3, -1)
        return float((np.linalg.norm(diff, axis=(1, 2)) / gt_norms).mean())

    return _best_global_flip(est, per_frame_mean)


def reconstruction_error_whole(s_est, s_gt) -> float:
    """Stacked-matrix relative error, best global z-flip (cross-check value)."""
    est, gt = _shape_pair(s_est, s_gt)
    denom = np.linalg.norm(gt)
    if denom == 0:
        raise ValueError("ground truth is all zero")
    return _best_global_flip(est, lambda flipped: float(np.linalg.norm(flipped - gt) / denom))


def segmentation_error(labels_est, labels_gt) -> float:
    """Fraction of misassigned points under the best id bijection."""
    est = validate_labels(labels_est)
    gt = validate_labels(labels_gt)
    if est.size != gt.size:
        raise ValueError(f"label count mismatch: {est.size} vs {gt.size}")
    _, est_c = np.unique(est, return_inverse=True)
    _, gt_c = np.unique(gt, return_inverse=True)
    k = int(max(est_c.max(), gt_c.max())) + 1
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (est_c, gt_c), 1)
    # The most overlap is the least cost, and every cost is non-negative.
    rows = _min_cost_assignment(confusion.max() - confusion)
    best = int(confusion[rows, np.arange(k)].sum())
    return float(est.size - best) / est.size


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """The row assigned to each column of a square integer ``cost``, for the least total cost.

    Rows join one at a time; each takes the shortest augmenting path in
    reduced costs ``cost[i, j] - u[i] - v[j]``, which stay non-negative and
    exact in integers. Column ``k`` is a virtual one that holds the joining
    row while its path grows.
    """
    k = cost.shape[0]
    unreached = np.iinfo(np.int64).max
    u = np.zeros(k, dtype=np.int64)
    v = np.zeros(k + 1, dtype=np.int64)
    row_of = np.full(k + 1, -1)  # row matched to each column, -1 if none
    for row in range(k):
        row_of[k] = row
        col = k
        dist = np.full(k + 1, unreached)
        came_from = np.zeros(k + 1, dtype=int)
        done = np.zeros(k + 1, dtype=bool)
        while row_of[col] != -1:
            done[col] = True
            i = row_of[col]
            reduced = cost[i] - u[i] - v[:k]
            closer = ~done[:k] & (reduced < dist[:k])
            dist[:k][closer] = reduced[closer]
            came_from[:k][closer] = col
            col = int(np.argmin(np.where(done, unreached, dist)))
            delta = dist[col]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
        while col != k:
            prev = came_from[col]
            row_of[col] = row_of[prev]
            col = prev
    return row_of[:k]


def reprojection_error(w, camera: CameraMotion, shapes) -> float:
    """Relative reprojection residual ||W - R S||_F / ||W||_F; W and R S must have one shape."""
    w = np.asarray(w, dtype=float)
    denom = np.linalg.norm(w)
    if denom == 0:
        raise ValueError("measurement matrix is all zero")
    projected = project(camera, shapes)
    if w.shape != projected.shape:
        raise ValueError(
            f"measurement shape {w.shape} does not match projection {projected.shape}")
    return float(np.linalg.norm(w - projected) / denom)
