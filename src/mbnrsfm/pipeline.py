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

Every command reads its inputs through ``_acquire_scene`` and scores
through ``_scores``, so ``eval`` scores external results exactly as
``pipeline`` scores its own. metrics.csv lists converged and iterations
(solve and pipeline), then reprojection (of the row-centred W), e3d and
e3d_whole (given ground-truth shapes) and ems (given both label sets),
each only when its inputs exist.

``manifest_from_dict`` checks everything a manifest says on its own: each
key's JSON type (numbers must be finite), the ``inputs.grid`` shape, that
every file input is a regular file, and that the scene has one source: a
synth block (not on eval) or the files ``w`` and ``rotations`` (which may
be "rigid-init"), never both. So a rejected manifest creates no output
directory. The checks that need the scene run after it is read or
generated and before any artifact is written: W has the 2F rows of the
rotations' F frames, ``s_gt``, ``init_s`` and ``s_est`` are 3F x P,
``labels_gt`` and ``labels_est`` hold P labels, the grid covers the
points, and a pipeline's cluster count is at most its point count.

Exit-code policy (applied by the CLI): 0 success, 2 parse error,
3 numerical failure, 4 bad manifest. Non-convergence is not a failure; the
converged flag lands in metrics.csv.
"""

from __future__ import annotations

import json
import math
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
# The file inputs read next to W: 3F x P shape stacks and P-label files.
_SHAPE_INPUTS = ("s_gt", "init_s", "s_est")
_LABEL_INPUTS = ("labels_gt", "labels_est")
# The inputs a synth block generates itself.
_SCENE_INPUTS = ("w", "rotations", "s_gt", "labels_gt")

# The JSON type each manifest key takes, per block; a key not listed is
# unknown. ``int`` excludes booleans, ``float`` takes any finite number, and
# a ``None`` in the tuple lets the value be null.
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
    int: "must be an integer", float: "must be a finite number", str: "must be a string",
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
        grid = self.inputs.get("grid")
        if grid is not None and not (isinstance(grid, (list, tuple)) and len(grid) == 2
                                     and all(_is_kind(g, int) and g > 0 for g in grid)):
            raise ManifestError(f"inputs.grid must be two positive integers, got {grid!r}")
        if self.version != VERSION:
            raise ManifestError(f"unsupported manifest version {self.version!r}")
        if self.command not in COMMANDS:
            raise ManifestError(f"unknown command {self.command!r}, expected one of {COMMANDS}")
        if self.command in ("synth", "solve", "pipeline") and not self.output_dir:
            raise ManifestError(f"command {self.command!r} requires an output directory")
        if self.command == "synth" and self.synth is None:
            raise ManifestError("synth command requires a synth block")
        # One scene source: a synth block, or the files W and rotations.
        if self.command == "eval" and self.synth is not None:
            raise ManifestError("eval scores the files it is given and takes no synth block")
        given = [key for key in _SCENE_INPUTS if key in self.inputs]
        if self.synth is not None and given:
            raise ManifestError(f"a synth block generates the scene; it cannot be combined "
                                f"with inputs {given}")
        if ("w" in self.inputs) != ("rotations" in self.inputs):
            raise ManifestError("inputs.w and inputs.rotations must be given together "
                                f"(rotations may be {RIGID_INIT!r})")
        if self.command in ("solve", "pipeline") and self.synth is None and "w" not in self.inputs:
            raise ManifestError(f"{self.command} requires either a synth block or "
                                "inputs.w plus inputs.rotations")
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
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


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
                raise ManifestError(f"{where}.centroid[{j}] {_KIND_NAMES[float]}, got {component!r}")
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


def synth_block(config: SynthConfig) -> dict:
    """The manifest ``synth`` block that ``_build_synth_config`` reads back as ``config``."""
    bodies = [{"points": b.points, "basis_rank": b.basis_rank, "centroid": list(b.centroid),
               "scale": b.scale} for b in config.bodies]
    return {"frames": config.frames, "bodies": bodies, "noise_sigma": config.noise_sigma,
            "camera_mode": config.camera_mode, "seed": config.seed}


def _names_file(key: str, value) -> bool:
    """Whether an inputs entry is a file path: not the grid, nor a RIGID_INIT rotation."""
    return key in INPUT_FILES and not (key == "rotations" and value == RIGID_INIT)


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
    inputs = {key: str(base / value) if _names_file(key, value) else value
              for key, value in raw_inputs.items()}
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
    for key, value in inputs.items():
        if _names_file(key, value) and not Path(value).is_file():
            raise ManifestError(f"input file for {key!r} does not exist or is not a "
                                f"regular file: {value}")
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

    with _Stage("scene"):
        scene = _acquire_scene(manifest, out)
    if manifest.command == "synth":
        return {"command": "synth", "artifacts": scene["written"]}
    if manifest.command == "eval":
        with _Stage("eval"):
            metrics = _scores(scene, scene["s_est"], scene["labels_est"])
            if out is not None:
                fileio.write_metrics_csv(out / "metrics.csv", metrics)
        return {"command": "eval", "metrics": metrics}

    with _Stage("solve"):
        fileio.write_matrix(out / "centering.mtx", scene["means"])
        shapes, coeffs, trace = solve(
            scene["w"], scene["camera"], scene["neighbors"], manifest.solver,
            init_shapes=scene["init_s"],
        )
        # Formatted once: Ssharp.mtx and the point clouds reuse the tokens of S.mtx.
        shape_text = fileio.write_matrix(out / "S.mtx", shapes)
        fileio.write_matrix(out / "Ssharp.mtx", shape_text.frame_rows())
        fileio.write_matrix(out / "C.mtx", coeffs)
        fileio.write_trace_csv(out / "trace.csv", trace)

    metrics = {"converged": trace.converged, "iterations": len(trace)}
    summary = {"command": manifest.command, **metrics}
    labels = None
    if manifest.command == "pipeline":
        with _Stage("cluster"):
            affinity = build_affinity(coeffs)
            fileio.write_matrix(out / "A.mtx", affinity)
            labels = spectral_cluster(affinity, manifest.clusters, manifest.seed)
            fileio.write_labels(out / "labels.txt", labels)

    with _Stage("eval"):
        metrics.update(_scores(scene, shapes, labels))
        fileio.write_metrics_csv(out / "metrics.csv", metrics)
    if manifest.command == "solve":
        return summary

    with _Stage("export"):
        fileio.write_pointcloud_frames(out / "pointcloud", shape_text, labels)

    summary["metrics"] = metrics
    return summary


def _acquire_scene(manifest: RunManifest, out: Path | None) -> dict:
    """Generate or read the scene and every input the manifest names, checked against W.

    W comes back row-centred, next to its row ``means``. A synth scene's
    ground truth is written to ``out`` once every check has passed.
    """
    inputs = manifest.inputs
    scene = dict.fromkeys(("w", "means", "camera", "neighbors", *_SHAPE_INPUTS, *_LABEL_INPUTS))
    scene["written"] = []
    if manifest.synth is not None:
        generated = generate_scene(manifest.synth)
        w, scene["camera"] = generated.w, generated.camera
        scene["s_gt"], scene["labels_gt"] = generated.shapes, generated.labels
    else:
        w = fileio.read_matrix(inputs["w"]) if "w" in inputs else None
    if w is not None:
        scene["means"] = w.mean(axis=1, keepdims=True)
        scene["w"] = w - scene["means"]
    if "rotations" in inputs:
        rotations = inputs["rotations"]
        scene["camera"] = (estimate_rigid_rotations(scene["w"]) if rotations == RIGID_INIT
                           else CameraMotion.from_stacked(fileio.read_matrix(rotations)))
    for key in (*_SHAPE_INPUTS, *_LABEL_INPUTS):
        if key in inputs:
            read = fileio.read_matrix if key in _SHAPE_INPUTS else fileio.read_labels
            scene[key] = read(inputs[key])

    if w is not None:
        frames, points = scene["camera"].frames, w.shape[1]
        if w.shape[0] != 2 * frames:
            raise ManifestError(f"W has {w.shape[0]} rows, but the rotations give {frames} "
                                f"frames ({2 * frames} rows)")
        for key in _SHAPE_INPUTS:
            if scene[key] is not None and scene[key].shape != (3 * frames, points):
                raise ManifestError(f"{key} must be {3 * frames} x {points}, "
                                    f"got {scene[key].shape}")
        for key in _LABEL_INPUTS:
            if scene[key] is not None and scene[key].size != points:
                raise ManifestError(f"{key} must hold {points} labels, got {scene[key].size}")
        grid = inputs.get("grid")
        if grid is not None:
            if grid[0] * grid[1] != points:
                raise ManifestError(f"grid {grid[0]} x {grid[1]} does not cover {points} points")
            scene["neighbors"] = build_neighbor_matrix(grid[0], grid[1])
        if manifest.command == "pipeline" and manifest.clusters > points:
            raise ManifestError(f"cannot split {points} points into {manifest.clusters} clusters")

    # Written last, so a run rejected by the checks above leaves no ground truth behind.
    if manifest.synth is not None and out is not None:
        fileio.write_matrix(out / "W.mtx", w)
        fileio.write_matrix(out / "rotations.mtx", scene["camera"].stacked())
        fileio.write_matrix(out / "S_gt.mtx", scene["s_gt"])
        fileio.write_labels(out / "labels_gt.txt", scene["labels_gt"])
        scene["written"] = ["W.mtx", "rotations.mtx", "S_gt.mtx", "labels_gt.txt"]
    return scene


def _scores(scene: dict, shapes, labels) -> dict:
    """Every metric that ``shapes``, ``labels`` and the scene allow, in metrics.csv order."""
    scores = {}
    if shapes is not None and scene["w"] is not None:
        scores["reprojection"] = reprojection_error(scene["w"], scene["camera"], shapes)
    if shapes is not None and scene["s_gt"] is not None:
        scores["e3d"] = reconstruction_error(shapes, scene["s_gt"])
        scores["e3d_whole"] = reconstruction_error_whole(shapes, scene["s_gt"])
    if labels is not None and scene["labels_gt"] is not None:
        scores["ems"] = segmentation_error(labels, scene["labels_gt"])
    return scores
