"""The benchmark's three scene workloads and their set-up.

Each workload is a fixed list of scenes. Scene geometry is fixed so that
every run does the same solver work and the quality metrics compare like
with like; the run seed sets the manifest seed (the k-means restarts of
spectral clustering) and, on ``seeds_small``, the order scenes are visited.

- ``seeds_small``: stock two-body (2x30 points) and three-body (3x20 points)
  scenes, F=30, sparse, scene seeds 0..7 of each family. This is one
  contiguous, unselected seed range, the same for both families, so its
  segmentation numbers are honest. Set-up writes the scenes as MBNR1 files
  and the pipeline reads them back, so this is the only workload that
  exercises artifact reads. Many short solves expose per-call overhead.
- ``long_sequence``: one two-body scene, F=120, 2x60 points, sparse, synthesized
  inside the pipeline. The 3F x 3F shape operand dominates.
- ``dense_grid``: one two-body scene, F=30, on a 12x20 grid (P=240) with the
  spatial term on. It is the only workload on the neighbor-operator path; the
  dense P x 5P merged operator makes the coefficient step dominate.

``tiny=True`` shrinks every workload to a few small scenes for smoke tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mbnrsfm import fileio
from mbnrsfm.pipeline import manifest_from_dict
from mbnrsfm.synth import (
    DEFAULT_TWO_BODY_SEED,
    SynthConfig,
    default_three_body,
    default_two_body,
    generate_scene,
)

WORKLOADS = ("seeds_small", "long_sequence", "dense_grid")
SEED_RANGE = 8  # scene seeds 0..7 of each seeds_small family


@dataclass
class Scene:
    """One pipeline run of a workload: its manifest plus the reference data."""

    scene_id: str
    config: SynthConfig
    clusters: int
    grid: tuple | None
    from_files: bool
    truth: object = None      # SceneData generated by the benchmark itself
    manifest: object = None   # RunManifest handed to run_pipeline
    out_dir: Path | None = None

    @property
    def points(self) -> int:
        return self.config.points

    @property
    def merged_operator_bytes(self) -> int:
        """Computed size of the solver's dense merged [I | D] operator."""
        cols = 5 * self.points if self.grid is not None else self.points
        return self.points * cols * 8


def scene_list(workload: str, tiny: bool = False) -> list[Scene]:
    """The scenes of one workload, in canonical order."""
    if workload == "seeds_small":
        seeds = range(2 if tiny else SEED_RANGE)
        frames = 10 if tiny else 30
        two = [Scene(f"two-{s}", default_two_body(seed=s, frames=frames,
                                                  points_per_body=8 if tiny else 30),
                     2, None, True) for s in seeds]
        three = [Scene(f"three-{s}", default_three_body(seed=s, frames=frames,
                                                        points_per_body=6 if tiny else 20),
                       3, None, True) for s in seeds]
        return two + three
    if workload == "long_sequence":
        config = default_two_body(seed=DEFAULT_TWO_BODY_SEED, frames=20 if tiny else 120,
                                  points_per_body=10 if tiny else 60)
        return [Scene(f"long-{DEFAULT_TWO_BODY_SEED}", config, 2, None, False)]
    if workload == "dense_grid":
        grid = (4, 5) if tiny else (12, 20)
        config = default_two_body(seed=DEFAULT_TWO_BODY_SEED, frames=10 if tiny else 30,
                                  points_per_body=grid[0] * grid[1] // 2)
        return [Scene(f"grid-{DEFAULT_TWO_BODY_SEED}", config, 2, grid, False)]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def _synth_block(config: SynthConfig) -> dict:
    return {
        "frames": config.frames,
        "seed": config.seed,
        "noise_sigma": config.noise_sigma,
        "camera_mode": config.camera_mode,
        "bodies": [
            {"points": b.points, "basis_rank": b.basis_rank,
             "centroid": list(b.centroid), "scale": b.scale}
            for b in config.bodies
        ],
    }


def prepare(workload: str, seed: int, work_dir: Path, tiny: bool = False) -> list[Scene]:
    """Set a workload up: generate its scenes, write file inputs, build manifests.

    Returns the scenes in the order this seed visits them.
    """
    scenes = scene_list(workload, tiny)
    for scene in scenes:
        scene.truth = generate_scene(scene.config)
        scene.out_dir = work_dir / "out" / scene.scene_id
        data = {"version": "MBNR1", "command": "pipeline", "seed": seed,
                "clusters": scene.clusters, "output_dir": str(scene.out_dir)}
        base = work_dir
        if scene.from_files:
            base = work_dir / "inputs" / scene.scene_id
            base.mkdir(parents=True, exist_ok=True)
            fileio.write_matrix(base / "W.mtx", scene.truth.w)
            fileio.write_matrix(base / "rotations.mtx", scene.truth.camera.stacked())
            fileio.write_matrix(base / "S_gt.mtx", scene.truth.shapes)
            fileio.write_labels(base / "labels_gt.txt", scene.truth.labels)
            data["inputs"] = {"w": "W.mtx", "rotations": "rotations.mtx",
                              "s_gt": "S_gt.mtx", "labels_gt": "labels_gt.txt"}
        else:
            data["synth"] = _synth_block(scene.config)
            if scene.grid is not None:
                data["inputs"] = {"grid": list(scene.grid)}
        scene.manifest = manifest_from_dict(data, base_dir=base)
    order = np.random.default_rng(seed).permutation(len(scenes))
    return [scenes[i] for i in order]
