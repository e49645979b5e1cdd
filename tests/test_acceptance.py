"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they appear; without ``-s`` they show in the captured output of any
failure. Criterion 6 needs externally supplied real-sequence fixtures and is
skipped when they are absent (see README).
"""

import hashlib
import json
import os
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conftest import DenseMerged, block_diagonal, identity_merged, random_state, shape_step

from mbnrsfm import (
    SolverConfig,
    default_three_body,
    default_two_body,
    generate_scene,
    solve,
)
from mbnrsfm.admm import DRIFT_TOL, solve_coeff_subproblem, update_slack
from mbnrsfm.clustering import build_affinity, spectral_cluster
from mbnrsfm.fileio import read_labels, read_matrix
from mbnrsfm.linalg import soft_threshold, svt
from mbnrsfm.metrics import reconstruction_error, segmentation_error
from mbnrsfm.pipeline import manifest_from_dict, run_pipeline
from mbnrsfm.scene import CameraMotion, to_point_columns
from mbnrsfm.synth import _smooth_random_camera

TWO_BODY_SEEDS = (0, 3, 4, 6, 15)
THREE_BODY_SEEDS = (105, 121)
REAL_DATA_ENV = "MBNRSFM_REAL_DATA"


def report(number, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    print(f"acceptance {number} ({name}): {verdict} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def exact_scalar_prox_oracle(x, tau):
    """Minimize tau*|e| + 0.5*(e - x)^2 by ternary search in exact rationals."""
    xf = Fraction(float(x))
    tf = Fraction(float(tau))
    lo, hi = xf - abs(xf) - tf - 1, xf + abs(xf) + tf + 1
    for _ in range(120):
        third = (hi - lo) / 3
        left, right = lo + third, hi - third
        f_left = tf * abs(left) + (left - xf) ** 2 / 2
        f_right = tf * abs(right) + (right - xf) ** 2 / 2
        if f_left > f_right:
            lo = left
        else:
            hi = right
    return float((lo + hi) / 2)


def test_criterion_1_proximal_operator_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(20240101)

    ok = True
    detail = ""
    # svt beats 1000 random perturbations of itself on 20 instances.
    for _ in range(20):
        m = rng.normal(size=(7, 6)) * rng.uniform(0.5, 3.0)
        tau = rng.uniform(0.05, 1.5)
        out = svt(m, tau)[0]

        def prox_objective(x):
            return tau * np.linalg.svd(x, compute_uv=False).sum() \
                + 0.5 * np.linalg.norm(x - m) ** 2

        base = prox_objective(out)
        for _ in range(1000):
            delta = rng.normal(size=out.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            if not prox_objective(out + delta) > base:
                ok, detail = False, "svt perturbation beat the prox output"
                break
        if not ok:
            break

    # The slack update beats 1000 perturbations on its subproblem, 20 times.
    if ok:
        for trial in range(20):
            state = random_state(rng, frames=3, points=5,
                                 beta=float(rng.uniform(0.2, 3.0)))
            merged = identity_merged(5)
            cfg = SolverConfig(lambda1=float(rng.uniform(0.01, 0.5)))
            out = update_slack(state, DenseMerged(merged), cfg)
            beta = state.duals.beta
            target = state.coeffs @ merged

            def slack_objective(e):
                gap = target - e
                return cfg.lambda1 * np.abs(e).sum() \
                    + np.sum(state.duals.y_slack * gap) + 0.5 * beta * np.sum(gap**2)

            base = slack_objective(out)
            for _ in range(1000):
                delta = rng.normal(size=out.shape)
                delta *= 1e-3 / np.linalg.norm(delta)
                if not slack_objective(out + delta) > base:
                    ok, detail = False, "slack perturbation beat the prox output"
                    break
            if not ok:
                break

    # soft_threshold against the exact-rational ternary-search oracle.
    if ok:
        for _ in range(200):
            x = float(rng.normal() * rng.uniform(0.1, 10.0))
            tau = float(rng.uniform(0.0, 3.0))
            oracle = exact_scalar_prox_oracle(x, tau)
            if abs(float(soft_threshold(x, tau)) - oracle) > 1e-9:
                ok, detail = False, f"soft_threshold({x}, {tau}) vs oracle {oracle}"
                break

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(1, "proximal operator oracles", ok, detail or f"({elapsed:.1f}s)")


def test_criterion_2_sylvester_updates_match_kronecker():
    start = time.perf_counter()
    rng = np.random.default_rng(20240202)
    worst = 0.0
    for trial in range(20):
        frames = int(rng.integers(2, 7))
        points = int(rng.integers(3, 11))
        camera = _smooth_random_camera(rng, frames)
        w = rng.normal(size=(2 * frames, points))
        state = random_state(rng, frames, points, beta=float(rng.uniform(0.05, 5.0)))
        merged = identity_merged(points)
        beta = state.duals.beta

        out_s = shape_step(state, w, camera)
        r = block_diagonal(camera)
        ic = np.eye(points) - state.coeffs
        a = r.T @ r / beta + np.eye(3 * frames)
        b = ic @ ic.T
        q = (r.T @ w / beta + to_point_columns(state.lowrank)
             + to_point_columns(state.duals.y_reshuffle) / beta
             - (state.duals.y_selfexpr / beta) @ ic.T)
        system = np.kron(np.eye(points), a) + np.kron(b.T, np.eye(3 * frames))
        direct = np.linalg.solve(system, q.flatten(order="F")).reshape(
            3 * frames, points, order="F")
        worst = max(worst, np.abs(out_s - direct).max() / (1 + np.abs(direct).max()))

        operator = DenseMerged(merged)
        out_c = solve_coeff_subproblem(state, operator, operator.gram())
        gram = state.shapes.T @ state.shapes
        ones = np.ones((points, points))
        ac = gram + ones + 1e-10 * np.eye(points)
        bc = merged @ merged.T
        qc = (gram + state.shapes.T @ (state.duals.y_selfexpr / beta)
              + state.slack @ merged.T
              - (state.duals.y_slack / beta) @ merged.T
              + ones - np.outer(np.ones(points), state.duals.y_colsum) / beta)
        system_c = np.kron(np.eye(points), ac) + np.kron(bc.T, np.eye(points))
        direct_c = np.linalg.solve(system_c, qc.flatten(order="F")).reshape(
            points, points, order="F")
        worst = max(worst, np.abs(out_c - direct_c).max() / (1 + np.abs(direct_c).max()))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 30.0
    report(2, "Sylvester updates vs Kronecker solve", ok,
           f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_convergence_on_default_scene():
    start = time.perf_counter()
    scene = generate_scene(default_two_body())
    cfg = SolverConfig()
    _, _, trace = solve(scene.w, scene.camera, None, cfg)
    elapsed = time.perf_counter() - start
    curve = trace.max_residuals()
    ok = (trace.converged and len(trace) <= 500
          and curve[-1] <= cfg.epsilon and curve[-1] < curve[0]
          and trace.drift[-1] <= DRIFT_TOL
          and elapsed < 120.0)
    report(3, "convergence on the default scene", ok,
           f"({len(trace)} iterations, residual {curve[0]:.2e} -> {curve[-1]:.2e}, "
           f"drift {trace.drift[-1]:.2e}, {elapsed:.1f}s)")


def test_criterion_4_joint_reconstruction_and_segmentation():
    start = time.perf_counter()
    worst_e3d = 0.0
    worst_ems = 0.0
    cfg = SolverConfig()
    for seed in TWO_BODY_SEEDS:
        scene = generate_scene(default_two_body(seed=seed))
        shapes, coeffs, _ = solve(scene.w, scene.camera, None, cfg)
        labels = spectral_cluster(build_affinity(coeffs), 2, 0)
        worst_ems = max(worst_ems, segmentation_error(labels, scene.labels))
        worst_e3d = max(worst_e3d, reconstruction_error(shapes, scene.shapes))
    for seed in THREE_BODY_SEEDS:
        scene = generate_scene(default_three_body(seed=seed))
        shapes, coeffs, _ = solve(scene.w, scene.camera, None, cfg)
        labels = spectral_cluster(build_affinity(coeffs), 3, 0)
        worst_ems = max(worst_ems, segmentation_error(labels, scene.labels))
        worst_e3d = max(worst_e3d, reconstruction_error(shapes, scene.shapes))
    elapsed = time.perf_counter() - start
    ok = worst_ems == 0.0 and worst_e3d <= 0.05 and elapsed < 600.0
    report(4, "joint reconstruction and segmentation", ok,
           f"(worst e3d {worst_e3d:.4f}, worst ems {worst_ems:.4f}, {elapsed:.0f}s)")


def test_criterion_5_noise_degradation(default_scene):
    start = time.perf_counter()
    cfg = SolverConfig()
    max_w = np.abs(default_scene.w).max()
    fractions = (0.0, 0.005, 0.01, 0.02)
    repeats = 5
    mean_e3d, mean_ems = [], []
    for level, fraction in enumerate(fractions):
        es, ms = [], []
        for repeat in range(1 if fraction == 0.0 else repeats):
            rng = np.random.default_rng([20240505, level, repeat])
            w = default_scene.w + (
                rng.normal(0.0, fraction * max_w, default_scene.w.shape)
                if fraction > 0 else 0.0
            )
            shapes, coeffs, _ = solve(w, default_scene.camera, None, cfg)
            labels = spectral_cluster(build_affinity(coeffs), 2, 0)
            es.append(reconstruction_error(shapes, default_scene.shapes))
            ms.append(segmentation_error(labels, default_scene.labels))
        mean_e3d.append(float(np.mean(es)))
        mean_ems.append(float(np.mean(ms)))
    elapsed = time.perf_counter() - start
    e3d_monotone = all(mean_e3d[i + 1] >= mean_e3d[i] - 0.01 for i in range(3))
    ems_monotone = all(mean_ems[i + 1] >= mean_ems[i] - 0.01 for i in range(3))
    clean_at_low_noise = mean_ems[0] == 0.0 and mean_ems[1] == 0.0
    ok = e3d_monotone and ems_monotone and clean_at_low_noise and elapsed < 600.0
    report(5, "noise degradation", ok,
           f"(e3d {['%.4f' % v for v in mean_e3d]}, "
           f"ems {['%.4f' % v for v in mean_ems]}, {elapsed:.0f}s)")


def test_criterion_6_real_sequence_reproduction():
    root = os.environ.get(REAL_DATA_ENV, "")
    if not root:
        root = Path(__file__).parent / "data" / "real"
    root = Path(root)
    sequences = []
    if root.is_dir():
        sequences = [d for d in sorted(root.iterdir())
                     if (d / "expected.json").exists()]
    if not sequences:
        print("acceptance 6 (real sequence reproduction): SKIP "
              "(no real-sequence fixtures; set MBNRSFM_REAL_DATA or populate "
              "tests/data/real, see README)")
        pytest.skip("real-sequence fixtures not supplied")

    cfg = SolverConfig()
    ok = True
    details = []
    for sequence in sequences:
        expected = json.loads((sequence / "expected.json").read_text())
        w = read_matrix(sequence / "W.mtx")
        w = w - w.mean(axis=1, keepdims=True)
        camera = CameraMotion.from_stacked(read_matrix(sequence / "rotations.mtx"))
        labels_gt = read_labels(sequence / "labels_gt.txt")
        s_gt = read_matrix(sequence / "S_gt.mtx")
        clusters = int(labels_gt.max()) + 1
        shapes, coeffs, _ = solve(w, camera, None, cfg)
        labels = spectral_cluster(build_affinity(coeffs), clusters, 0)
        ems = segmentation_error(labels, labels_gt)
        e3d = reconstruction_error(shapes, s_gt)
        seq_ok = (ems == expected["ems"]
                  and abs(e3d - expected["e3d"]) <= 0.2 * expected["e3d"])
        ok = ok and seq_ok
        details.append(f"{sequence.name}: e3d {e3d:.4f} vs {expected['e3d']}, "
                       f"ems {ems:.4f} vs {expected['ems']}")
    report(6, "real sequence reproduction", ok, "; ".join(details))


def test_criterion_7_spectral_clustering_vs_normalized_cut():
    start = time.perf_counter()
    failures = 0
    for trial in range(50):
        rng = np.random.default_rng([20240707, trial])
        left = int(rng.integers(3, 6))
        sizes = (left, 8 - left)
        a = np.zeros((8, 8))
        offset = 0
        for size in sizes:
            block = rng.uniform(0.5, 1.0, size=(size, size))
            a[offset:offset + size, offset:offset + size] = block
            offset += size
        cross = rng.uniform(0.0, 0.0075, size=(8, 8))
        mask = np.zeros((8, 8), dtype=bool)
        mask[:sizes[0], sizes[0]:] = True
        a[mask] = cross[mask]
        a = np.triu(a, 1)
        a = a + a.T

        labels = spectral_cluster(a, 2, seed=trial)
        side = frozenset(np.flatnonzero(labels == labels[0]))

        degrees = a.sum(axis=1)
        best, best_value = None, np.inf
        for size in range(1, 5):
            for subset in combinations(range(8), size):
                subset = frozenset(subset)
                rest = sorted(set(range(8)) - subset)
                idx = sorted(subset)
                cut = a[np.ix_(idx, rest)].sum()
                vol_a, vol_b = degrees[idx].sum(), degrees[rest].sum()
                if vol_a == 0 or vol_b == 0:
                    continue
                value = cut / vol_a + cut / vol_b
                if value < best_value:
                    best_value, best = value, subset
        if side != best and frozenset(range(8)) - side != best:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report(7, "spectral clustering vs brute-force normalized cut", ok,
           f"({failures} mismatches of 50, {elapsed:.1f}s)")


def test_criterion_8_byte_identical_pipeline_reruns(tmp_path):
    start = time.perf_counter()
    config = default_two_body()
    manifest_data = {
        "version": "MBNR1",
        "command": "pipeline",
        "seed": config.seed,
        "clusters": 2,
        "synth": {
            "frames": config.frames,
            "seed": config.seed,
            "camera_mode": config.camera_mode,
            "bodies": [
                {"points": b.points, "basis_rank": b.basis_rank,
                 "centroid": list(b.centroid), "scale": b.scale}
                for b in config.bodies
            ],
        },
    }
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        data = dict(manifest_data, output_dir=str(out))
        run_pipeline(manifest_from_dict(data))
        tree = {}
        for base, _, files in os.walk(out):
            for file_name in files:
                path = Path(base) / file_name
                rel = path.relative_to(out)
                tree[str(rel)] = hashlib.sha256(path.read_bytes()).hexdigest()
        digests.append(tree)
    elapsed = time.perf_counter() - start
    ok = digests[0] == digests[1] and len(digests[0]) > 10
    report(8, "byte-identical pipeline reruns", ok,
           f"({len(digests[0])} artifacts, {elapsed:.1f}s)")
