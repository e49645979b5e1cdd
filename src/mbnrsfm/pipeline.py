"""Manifest-driven runs: synth, solve, cluster, eval, and the full pipeline.

A run manifest is a JSON file (or equivalent dict) with the version tag
"MBNR1", a command, an output directory, and the configuration blocks the
command needs. The same runner backs the CLI flags, so flag-driven and
manifest-driven runs produce identical artifacts.

Artifacts of a full pipeline run, all deterministic for a fixed manifest:
W.mtx, rotations.mtx, S_gt.mtx and labels_gt.txt (synth scenes),
centering.mtx (per-row means subtracted from W before solving), S.mtx,
Ssharp.mtx, C.mtx, trace.csv, A.mtx, labels.txt, metrics.csv, and
plot-ready per-frame pointcloud files.

Exit-code policy (applied by the CLI): 0 success, 2 parse error,
3 numerical failure, 4 bad manifest. Non-convergence is not a failure; the
converged flag lands in metrics.csv.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .admm import SolverConfig, solve
from .clustering import build_affinity, spectral_cluster
from .errors import ManifestError, NumericalError, ParseError
from .metrics import (
    reconstruction_error,
    reconstruction_error_whole,
    reprojection_error,
    segmentation_error,
)
from .scene import CameraMotion, build_neighbor_matrix
from .synth import BodySpec, SynthConfig, estimate_rigid_rotations, generate_scene

VERSION = "MBNR1"
COMMANDS = ("synth", "solve", "eval", "pipeline")
RIGID_INIT = "rigid-init"
# Keys of the inputs block that name files ("rotations" may be RIGID_INIT).
INPUT_FILES = ("w", "rotations", "s_gt", "labels_gt", "init_s", "labels_est", "s_est")

# The JSON type each manifest key takes, per block; a key not listed is
# unknown. ``int`` excludes booleans, ``float`` also takes an integer, and a
# ``None`` in the tuple lets the value be null.
_TOP_LEVEL_KINDS = {
    "version": str, "command": str, "output_dir": (str, None), "seed": int,
    "clusters": (int, None), "solver": (dict, None), "synth": (dict, None),
    "inputs": (dict, None),
}
_SOLVER_KINDS = {
    "lambda1": float, "lambda2": (float, None), "beta0": float, "rho": float,
    "beta_max": float, "epsilon": float, "max_iters": int,
}
_SYNTH_KINDS = {"frames": int, "bodies": list, "noise_sigma": float, "camera_mode": str, "seed": int}
_BODY_KINDS = {"points": int, "basis_rank": int, "centroid": list, "scale": float}
_INPUT_KINDS = {**dict.fromkeys(INPUT_FILES, str), "grid": (list, None)}
_KIND_NAMES = {
    int: "must be an integer", float: "must be a number", str: "must be a string",
    list: "must be a JSON list", dict: "block must be a JSON object",
}


@dataclass
class RunManifest:
    """One run: command, inputs, output directory, and config blocks."""

    command: str
    output_dir: str
    seed: int = 0
    clusters: int | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    synth: SynthConfig | None = None
    inputs: dict = field(default_factory=dict)
    version: str = VERSION

    def __post_init__(self):
        _check_seed(self.seed)
        if self.version != VERSION:
            raise ManifestError(f"unsupported manifest version {self.version!r}")
        if self.command not in COMMANDS:
            raise ManifestError(f"unknown command {self.command!r}, expected one of {COMMANDS}")
        if self.command in ("synth", "solve", "pipeline") and not self.output_dir:
            raise ManifestError(f"command {self.command!r} requires an output directory")
        if self.command in ("synth",) and self.synth is None:
            raise ManifestError("synth command requires a synth block")
        if self.command in ("solve", "pipeline") and self.synth is None:
            if "w" not in self.inputs or "rotations" not in self.inputs:
                raise ManifestError(
                    f"{self.command} requires either a synth block or "
                    "inputs.w plus inputs.rotations"
                )
        if self.command == "pipeline":
            if self.clusters is None or self.clusters < 1:
                raise ManifestError("pipeline requires a positive cluster count")
        if self.command == "eval":
            if "labels_est" not in self.inputs or "labels_gt" not in self.inputs:
                raise ManifestError("eval requires inputs.labels_est and inputs.labels_gt")


def _check_seed(seed) -> None:
    if not _is_kind(seed, int) or seed < 0:
        raise ManifestError(f"seed must be a nonnegative integer, got {seed!r}")


def _is_kind(value, kind) -> bool:
    if kind is None:
        return value is None
    if isinstance(value, bool):  # JSON true/false: neither an integer nor a number
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_block(block: dict, kinds: dict, where: str) -> None:
    """Reject unknown keys and values of the wrong JSON type in one manifest block."""
    unknown = set(block) - set(kinds)
    if unknown:
        raise ManifestError(f"unknown {where or 'manifest'} keys: {sorted(unknown)}")
    for key, value in block.items():
        allowed = kinds[key] if isinstance(kinds[key], tuple) else (kinds[key],)
        if not any(_is_kind(value, kind) for kind in allowed):
            path = f"{where}.{key}" if where else key
            raise ManifestError(f"{path} {_KIND_NAMES[allowed[0]]}, got {value!r}")


def _build_solver_config(block: dict) -> SolverConfig:
    _check_block(block, _SOLVER_KINDS, "solver")
    try:
        return SolverConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"bad solver block: {exc}") from exc


def _build_synth_config(block: dict, seed: int) -> SynthConfig:
    _check_block(block, _SYNTH_KINDS, "synth")
    block = {"seed": seed, **block}
    bodies_raw = block.pop("bodies", None)
    if not bodies_raw:
        raise ManifestError("synth block requires a non-empty bodies list")
    bodies = []
    for i, body in enumerate(bodies_raw):
        where = f"synth.bodies[{i}]"
        if not isinstance(body, dict):
            raise ManifestError(f"{where} {_KIND_NAMES[dict]}, got {body!r}")
        _check_block(body, _BODY_KINDS, where)
        for key in ("points", "basis_rank"):
            if key not in body:
                raise ManifestError(f"{where}.{key} is required")
        for j, component in enumerate(body.get("centroid", ())):
            if not _is_kind(component, float):
                raise ManifestError(f"{where}.centroid[{j}] must be a number, got {component!r}")
        try:
            bodies.append(BodySpec(
                points=body["points"],
                basis_rank=body["basis_rank"],
                centroid=tuple(body.get("centroid", (0.0, 0.0, 0.0))),
                scale=body.get("scale", 1.0),
            ))
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"bad body spec at index {i}: {exc}") from exc
    try:
        return SynthConfig(bodies=tuple(bodies), **block)
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"bad synth block: {exc}") from exc


def manifest_from_dict(data: dict, base_dir=".") -> RunManifest:
    """Build and validate a manifest from parsed JSON.

    Relative input paths are resolved against ``base_dir`` (the manifest's
    own directory when loaded from disk). A ``synth`` block without its own
    ``seed`` generates its scene from the top-level ``seed``.
    """
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object")
    seed = data.get("seed", 0)
    _check_seed(seed)  # own message; and before a synth block inherits it
    _check_block(data, _TOP_LEVEL_KINDS, "")
    raw_inputs = data.get("inputs") or {}
    _check_block(raw_inputs, _INPUT_KINDS, "inputs")
    base = Path(base_dir)
    inputs = {}
    for key, value in raw_inputs.items():
        if key == "grid":
            inputs[key] = value
        elif key == "rotations" and value == RIGID_INIT:
            inputs[key] = value
        else:
            inputs[key] = str(base / value)
    manifest = RunManifest(
        command=data.get("command", ""),
        output_dir=str(base / data["output_dir"]) if data.get("output_dir") else "",
        seed=seed,
        clusters=data.get("clusters"),
        solver=_build_solver_config(data.get("solver") or {}),
        synth=_build_synth_config(data["synth"], seed) if data.get("synth") else None,
        inputs=inputs,
        version=data.get("version", ""),
    )
    _check_input_files(manifest)
    return manifest


def load_manifest(path) -> RunManifest:
    """Load and validate a manifest JSON file."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    return manifest_from_dict(data, base_dir=path.parent)


def _check_input_files(manifest: RunManifest) -> None:
    for key, value in manifest.inputs.items():
        if key == "grid" or (key == "rotations" and value == RIGID_INIT):
            continue
        if not Path(value).exists():
            raise ManifestError(f"input file for {key!r} does not exist: {value}")


def _center_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    means = w.mean(axis=1, keepdims=True)
    return w - means, means


class _Stage:
    """Context manager that tags errors with the failing pipeline stage.

    A LAPACK failure (``LinAlgError``, itself a ``ValueError``) becomes a
    ``NumericalError``. Any other ``ValueError`` subclass is wrapped as a
    plain ``ValueError``, because its constructor may take other arguments.
    """

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is None:
            return False
        if isinstance(exc, ParseError):
            raise ParseError(exc.path, exc.line, f"[{self.name}] {exc.reason}") from exc
        message = f"[{self.name}] {exc}"
        if isinstance(exc, np.linalg.LinAlgError):
            raise NumericalError(message) from exc
        if isinstance(exc, (ManifestError, NumericalError)):
            raise type(exc)(message) from exc
        if isinstance(exc, ValueError):
            raise ValueError(message) from exc
        return False


def run_pipeline(manifest: RunManifest) -> dict:
    """Execute a manifest and return a summary of what was produced."""
    out = Path(manifest.output_dir) if manifest.output_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    if manifest.command == "eval":
        return _run_eval(manifest, out)

    with _Stage("scene"):
        scene = _acquire_scene(manifest, out)
    if manifest.command == "synth":
        return {"command": "synth", "artifacts": scene["written"]}

    with _Stage("solve"):
        w_centered, means = _center_rows(scene["w"])
        fileio.write_matrix(out / "centering.mtx", means)
        shape_state, coeffs, trace = solve(
            w_centered, scene["camera"], scene["neighbors"], manifest.solver,
            init_shapes=scene["init_shapes"],
        )
        fileio.write_matrix(out / "S.mtx", shape_state.shapes)
        fileio.write_matrix(out / "Ssharp.mtx", shape_state.frame_rows)
        fileio.write_matrix(out / "C.mtx", coeffs)
        fileio.write_trace_csv(out / "trace.csv", trace)

    summary = {
        "command": manifest.command,
        "converged": trace.converged,
        "iterations": len(trace),
    }
    metrics = {
        "converged": trace.converged,
        "iterations": len(trace),
        "reprojection": reprojection_error(w_centered, scene["camera"], shape_state.shapes),
    }

    if manifest.command == "solve":
        fileio.write_metrics_csv(out / "metrics.csv", metrics)
        return summary

    with _Stage("cluster"):
        affinity = build_affinity(coeffs)
        fileio.write_matrix(out / "A.mtx", affinity)
        labels = spectral_cluster(affinity, manifest.clusters, manifest.seed)
        fileio.write_labels(out / "labels.txt", labels)

    with _Stage("eval"):
        if scene["shapes_gt"] is not None:
            metrics["e3d"] = reconstruction_error(shape_state.shapes, scene["shapes_gt"])
            metrics["e3d_whole"] = reconstruction_error_whole(
                shape_state.shapes, scene["shapes_gt"]
            )
        if scene["labels_gt"] is not None:
            metrics["ems"] = segmentation_error(labels, scene["labels_gt"])
        fileio.write_metrics_csv(out / "metrics.csv", metrics)

    with _Stage("export"):
        fileio.write_pointcloud_frames(out / "pointcloud", shape_state.shapes, labels)

    summary["metrics"] = metrics
    return summary


def _acquire_scene(manifest: RunManifest, out: Path | None) -> dict:
    """Generate or load the scene; for synth scenes, write the ground truth."""
    inputs = manifest.inputs
    neighbors = None
    grid = inputs.get("grid")
    written = []

    if manifest.synth is not None:
        scene = generate_scene(manifest.synth)
        w, camera = scene.w, scene.camera
        shapes_gt, labels_gt = scene.shapes, scene.labels
    else:
        w = fileio.read_matrix(inputs["w"])
        rotations = inputs["rotations"]
        if rotations == RIGID_INIT:
            centered, _ = _center_rows(w)
            camera = estimate_rigid_rotations(centered)
        else:
            camera = CameraMotion.from_stacked(fileio.read_matrix(rotations))
        shapes_gt = fileio.read_matrix(inputs["s_gt"]) if "s_gt" in inputs else None
        labels_gt = fileio.read_labels(inputs["labels_gt"]) if "labels_gt" in inputs else None

    if grid is not None:
        if (not isinstance(grid, (list, tuple)) or len(grid) != 2
                or not all(_is_kind(g, int) and g > 0 for g in grid)):
            raise ManifestError(f"grid must be two positive integers, got {grid!r}")
        if grid[0] * grid[1] != w.shape[1]:
            raise ManifestError(
                f"grid {grid[0]} x {grid[1]} does not cover {w.shape[1]} points"
            )
        neighbors = build_neighbor_matrix(grid[0], grid[1])

    init_shapes = fileio.read_matrix(inputs["init_s"]) if "init_s" in inputs else None

    # Written last, so a run rejected by the checks above leaves no ground truth behind.
    if manifest.synth is not None and out is not None:
        fileio.write_matrix(out / "W.mtx", w)
        fileio.write_matrix(out / "rotations.mtx", camera.stacked())
        fileio.write_matrix(out / "S_gt.mtx", shapes_gt)
        fileio.write_labels(out / "labels_gt.txt", labels_gt)
        written = ["W.mtx", "rotations.mtx", "S_gt.mtx", "labels_gt.txt"]

    return {
        "w": w,
        "camera": camera,
        "neighbors": neighbors,
        "shapes_gt": shapes_gt,
        "labels_gt": labels_gt,
        "init_shapes": init_shapes,
        "written": written,
    }


def _run_eval(manifest: RunManifest, out: Path | None) -> dict:
    """Standalone metric evaluation, including external baseline label files."""
    inputs = manifest.inputs
    metrics = {}
    with _Stage("eval"):
        labels_est = fileio.read_labels(inputs["labels_est"])
        labels_gt = fileio.read_labels(inputs["labels_gt"])
        metrics["ems"] = segmentation_error(labels_est, labels_gt)
        if "s_est" in inputs and "s_gt" in inputs:
            s_est = fileio.read_matrix(inputs["s_est"])
            s_gt = fileio.read_matrix(inputs["s_gt"])
            metrics["e3d"] = reconstruction_error(s_est, s_gt)
            metrics["e3d_whole"] = reconstruction_error_whole(s_est, s_gt)
        if "w" in inputs and "rotations" in inputs and "s_est" in inputs:
            w = fileio.read_matrix(inputs["w"])
            camera = CameraMotion.from_stacked(fileio.read_matrix(inputs["rotations"]))
            metrics["reprojection"] = reprojection_error(
                w, camera, fileio.read_matrix(inputs["s_est"])
            )
        if out is not None:
            fileio.write_metrics_csv(out / "metrics.csv", metrics)
    return {"command": "eval", "metrics": metrics}
