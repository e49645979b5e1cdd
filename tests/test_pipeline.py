import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from mbnrsfm import SolverConfig, cli, fileio, pipeline, solve
from mbnrsfm.admm import DRIFT_TOL
from mbnrsfm.errors import ManifestError
from mbnrsfm.fileio import read_labels, read_matrix, write_labels, write_matrix
from mbnrsfm.metrics import segmentation_error
from mbnrsfm.pipeline import RunManifest, load_manifest, manifest_from_dict, run_pipeline
from mbnrsfm.scene import CameraMotion, build_neighbor_matrix, project, to_frame_rows
from mbnrsfm.synth import (
    assemble_body, default_three_body, default_two_body, generate_scene, _smooth_random_camera,
)

PIPELINE_ARTIFACTS = [
    "W.mtx", "rotations.mtx", "S_gt.mtx", "labels_gt.txt", "centering.mtx",
    "S.mtx", "Ssharp.mtx", "C.mtx", "trace.csv", "A.mtx", "labels.txt",
    "metrics.csv",
]


def synth_block(seed=3, frames=30, ppb=30):
    config = default_two_body(seed=seed, frames=frames, points_per_body=ppb)
    return {
        "frames": config.frames,
        "seed": config.seed,
        "camera_mode": "smooth_random",
        "bodies": [
            {"points": b.points, "basis_rank": b.basis_rank,
             "centroid": list(b.centroid), "scale": b.scale}
            for b in config.bodies
        ],
    }


def pipeline_manifest(out_dir, seed=3, solver=None):
    return {
        "version": "MBNR1",
        "command": "pipeline",
        "output_dir": str(out_dir),
        "seed": seed,
        "clusters": 2,
        "synth": synth_block(seed=seed),
        "solver": solver or {},
    }


# Grids that are not two positive integers; rejected with the rest of the manifest.
BAD_GRIDS = [[3, "x"], [0, 5], [2, 3, 4], [True, 3]]

# Manifest values of the wrong JSON type, and unknown keys in the inputs
# block and in a body spec: (path into pipeline_manifest, value).
BAD_MANIFEST_VALUES = [
    (("clusters",), "2"),
    (("clusters",), 2.0),
    (("output_dir",), 5),
    (("synth", "bodies"), 5),
    (("synth", "frames"), 6.5),
    (("synth", "noise_sigma"), True),
    (("solver", "max_iters"), 2.5),
    (("synth", "bodies", 0, "points"), 5.5),
    (("synth", "bodies", 0, "centroid", 1), "0.1"),
    (("inputs", "w"), 5),
    (("inputs", "lables_gt"), __file__),  # an existing file under a misspelt key
    (("synth", "bodies", 0, "scael"), 0.1),
] + [(("inputs", "grid"), grid) for grid in BAD_GRIDS]
BAD_MANIFEST_IDS = [".".join(map(str, path)) for path, _ in BAD_MANIFEST_VALUES]


# Non-finite numbers, which JSON writers emit as NaN and Infinity:
# (path into pipeline_manifest, value).
NONFINITE_VALUES = [
    (("solver", "epsilon"), float("nan")),
    (("solver", "lambda1"), float("nan")),
    (("solver", "lambda2"), float("inf")),
    (("solver", "beta_max"), float("inf")),
    (("synth", "noise_sigma"), float("nan")),
    (("synth", "bodies", 0, "scale"), float("inf")),
    (("synth", "bodies", 0, "centroid", 1), float("-inf")),
]
NONFINITE_IDS = [".".join(map(str, path)) + f"={value}" for path, value in NONFINITE_VALUES]


def with_value(data, path, value):
    """Set the value at ``path`` in a manifest dict, creating a missing block."""
    block = data
    for key in path[:-1]:
        block = block.setdefault(key, {}) if isinstance(key, str) else block[key]
    block[path[-1]] = value
    return data


def named_key(path):
    """The manifest key an error about ``path`` must name."""
    return [k for k in path if isinstance(k, str)][-1]


GROUND_TRUTH = ["W.mtx", "rotations.mtx", "S_gt.mtx", "labels_gt.txt"]


def uncovering_grid_manifest(out_dir):
    """Two 5-point bodies under a 3 x 5 grid, which covers 15 points, not 10."""
    data = pipeline_manifest(out_dir)
    data["synth"] = synth_block(frames=6, ppb=5)
    data["inputs"] = {"grid": [3, 5]}
    return data


def without_body_key(out_dir, key):
    data = pipeline_manifest(out_dir)
    del data["synth"]["bodies"][0][key]
    return data


def hash_tree(root):
    digest = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                digest[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digest


class TestManifestValidation:
    def test_version_tag_enforced(self):
        with pytest.raises(ManifestError):
            manifest_from_dict({"version": "MBNR9", "command": "synth",
                                "output_dir": "x", "synth": synth_block()})

    def test_unknown_command(self):
        with pytest.raises(ManifestError):
            RunManifest(command="train", output_dir="x")

    def test_pipeline_needs_clusters(self):
        data = pipeline_manifest("x")
        del data["clusters"]
        with pytest.raises(ManifestError):
            manifest_from_dict(data)

    def test_missing_input_file(self, tmp_path):
        data = {"version": "MBNR1", "command": "solve",
                "output_dir": str(tmp_path / "out"),
                "inputs": {"w": "absent.mtx", "rotations": "also_absent.mtx"}}
        with pytest.raises(ManifestError):
            manifest_from_dict(data, base_dir=tmp_path)

    def test_unknown_keys_rejected(self):
        data = pipeline_manifest("x")
        data["extra"] = 1
        with pytest.raises(ManifestError):
            manifest_from_dict(data)

    def test_bad_solver_option(self):
        data = pipeline_manifest("x", solver={"gamma": 2.0})
        with pytest.raises(ManifestError):
            manifest_from_dict(data)

    @pytest.mark.parametrize("seed", [-1, "3", True])
    def test_bad_seed_rejected(self, seed):
        data = pipeline_manifest("x")
        data["seed"] = seed
        with pytest.raises(ManifestError):
            manifest_from_dict(data)

    def test_synth_block_without_seed_inherits_top_level_seed(self):
        data = pipeline_manifest("x", seed=5)
        del data["synth"]["seed"]
        manifest = manifest_from_dict(data)
        assert manifest.seed == 5 and manifest.synth.seed == 5

    def test_synth_block_seed_wins_over_top_level_seed(self):
        data = pipeline_manifest("x", seed=5)
        data["synth"]["seed"] = 2
        manifest = manifest_from_dict(data)
        assert manifest.seed == 5 and manifest.synth.seed == 2

    @pytest.mark.parametrize("seed", [-1, "3", True])
    def test_bad_seed_rejected_before_synth_inherits_it(self, seed):
        data = pipeline_manifest("x")
        del data["synth"]["seed"]
        data["seed"] = seed
        with pytest.raises(ManifestError, match="seed must be a nonnegative integer"):
            manifest_from_dict(data)

    def test_solver_block_has_no_seed(self):
        data = pipeline_manifest("x", solver={"seed": 3})
        with pytest.raises(ManifestError):
            manifest_from_dict(data)

    @pytest.mark.parametrize("block", ["synth", "inputs"])
    def test_block_that_is_not_an_object_rejected(self, block):
        data = pipeline_manifest("x")
        data[block] = [1, 2]
        with pytest.raises(ManifestError, match=f"{block} block must be a JSON object"):
            manifest_from_dict(data)

    @pytest.mark.parametrize("path, value", BAD_MANIFEST_VALUES, ids=BAD_MANIFEST_IDS)
    def test_bad_value_or_unknown_key_rejected(self, path, value):
        data = with_value(pipeline_manifest("x"), path, value)
        with pytest.raises(ManifestError, match=named_key(path)):
            manifest_from_dict(data)

    @pytest.mark.parametrize("path, value", NONFINITE_VALUES, ids=NONFINITE_IDS)
    def test_nonfinite_number_rejected(self, path, value):
        data = with_value(pipeline_manifest("x"), path, value)
        with pytest.raises(ManifestError, match=f"{named_key(path)}.* must be a finite number"):
            manifest_from_dict(data)

    @pytest.mark.parametrize("grid", BAD_GRIDS, ids=str)
    def test_bad_grid_message(self, grid):
        message = f"inputs.grid must be two positive integers, got {grid!r}"
        data = with_value(pipeline_manifest("x"), ("inputs", "grid"), grid)
        with pytest.raises(ManifestError) as err:
            manifest_from_dict(data)
        assert str(err.value) == message
        with pytest.raises(ManifestError) as err:  # a manifest built without a dict
            RunManifest(command="synth", output_dir="x", synth=default_two_body(),
                        inputs={"grid": grid})
        assert str(err.value) == message

    @pytest.mark.parametrize("factory", [default_two_body, default_three_body])
    @pytest.mark.parametrize("camera_mode", ["identity", "smooth_random"])
    def test_synth_block_round_trip(self, factory, camera_mode):
        config = replace(factory(noise_sigma=0.01), camera_mode=camera_mode)
        data = {"version": "MBNR1", "command": "synth", "output_dir": "x",
                "synth": pipeline.synth_block(config)}
        assert manifest_from_dict(json.loads(json.dumps(data))).synth == config

    @pytest.mark.parametrize("key", ["points", "basis_rank"])
    def test_missing_body_key_is_named(self, key):
        with pytest.raises(ManifestError) as err:
            manifest_from_dict(without_body_key("x", key))
        assert str(err.value) == f"synth.bodies[0].{key} is required"

    def test_load_from_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(pipeline_manifest(tmp_path / "out")))
        manifest = load_manifest(path)
        assert manifest.command == "pipeline"
        assert manifest.clusters == 2

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "nope.json")


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    manifest = manifest_from_dict(pipeline_manifest(out))
    summary = run_pipeline(manifest)
    return out, summary


class TestPipelineRun:
    def test_shape_stack_is_formatted_once(self, tmp_path, monkeypatch):
        # S.mtx, Ssharp.mtx and the point clouds share one formatting pass.
        formatted = []
        original = fileio.format_matrix

        def recording(matrix):
            formatted.append(np.array(matrix))
            return original(matrix)

        monkeypatch.setattr(fileio, "format_matrix", recording)
        manifest = {**pipeline_manifest(tmp_path), "synth": synth_block(frames=6, ppb=8),
                    "solver": {"max_iters": 5}}
        run_pipeline(manifest_from_dict(manifest))
        shapes = read_matrix(tmp_path / "S.mtx")
        assert len(list((tmp_path / "pointcloud").iterdir())) == 6
        assert sum(np.array_equal(m, shapes) for m in formatted) == 1
        assert not any(np.array_equal(m, to_frame_rows(shapes)) for m in formatted)

    def test_all_artifacts_written(self, finished):
        out, _ = finished
        for name in PIPELINE_ARTIFACTS:
            assert (out / name).exists(), name
        frames = sorted((out / "pointcloud").iterdir())
        assert len(frames) == 30

    def test_segmentation_matches_ground_truth(self, finished):
        out, summary = finished
        labels = read_labels(out / "labels.txt")
        gt = read_labels(out / "labels_gt.txt")
        assert segmentation_error(labels, gt) == 0.0
        assert summary["metrics"]["ems"] == 0.0

    def test_trace_row_count_matches_iterations(self, finished):
        out, summary = finished
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) - 1 == summary["iterations"]

    def test_converged_flag_consistent_with_trace(self, finished):
        out, summary = finished
        header, *_, last = (out / "trace.csv").read_text().splitlines()
        row = dict(zip(header.split(","), map(float, last.split(","))))
        max_residual = max(row[name] for name in ("r1", "r2", "r3", "r4"))
        assert summary["metrics"]["converged"] == (
            max_residual <= SolverConfig().epsilon and row["drift"] <= DRIFT_TOL)

    def test_zero_iteration_budget_emits_initialization(self, tmp_path):
        manifest = manifest_from_dict(
            pipeline_manifest(tmp_path / "out", solver={"max_iters": 0}))
        summary = run_pipeline(manifest)
        assert summary["iterations"] == 0
        assert summary["metrics"]["converged"] is False
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert len(rows) == 1  # header only
        assert not read_matrix(tmp_path / "out" / "C.mtx").any()

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        run_pipeline(manifest_from_dict(pipeline_manifest(first, seed=4)))
        run_pipeline(manifest_from_dict(pipeline_manifest(second, seed=4)))
        assert hash_tree(first) == hash_tree(second)

    @pytest.mark.parametrize("frames,ppb,grid", [
        (4, 10, [4, 5]),   # 3F + 1 = 13 < P = 20: Woodbury left operand
        (10, 6, [3, 4]),   # 3F + 1 = 31 >= P = 12: formed left operand
    ], ids=["woodbury", "formed"])
    def test_byte_identical_grid_reruns(self, tmp_path, frames, ppb, grid):
        # A grid sweep writes into the buffers it replaces: nothing of one
        # run may leak into the next, in the artifacts or out of solve.
        trees = []
        for name in ("a", "b"):
            data = {**pipeline_manifest(tmp_path / name),
                    "synth": synth_block(frames=frames, ppb=ppb), "inputs": {"grid": grid}}
            run_pipeline(manifest_from_dict(data))
            trees.append(hash_tree(tmp_path / name))
        assert trees[0] == trees[1] and "trace.csv" in trees[0]
        scene = generate_scene(default_two_body(seed=3, frames=frames, points_per_body=ppb))
        neighbors = build_neighbor_matrix(*grid)
        (s1, c1, t1), (s2, c2, t2) = (solve(scene.w, scene.camera, neighbors, SolverConfig())
                                      for _ in range(2))
        assert s1.tobytes() == s2.tobytes() and c1.tobytes() == c2.tobytes()
        assert vars(t1) == vars(t2) and len(t1) > 1


class TestSolveFromFiles:
    def test_solve_command_with_grid_and_rigid_init(self, tmp_path):
        # Near-rigid scene written to disk, rotations recovered by the rigid
        # factorization, dense spatial term over a 6 x 10 grid.
        rng = np.random.default_rng(12)
        frames, points = 20, 60
        basis = rng.normal(size=(1, 3, points))
        shapes = assemble_body(basis, np.ones((1, frames)), (0.0, 0.0, 0.0), 1.0)
        per = shapes.reshape(frames, 3, points)
        shapes = (per - per.mean(axis=2, keepdims=True)).reshape(3 * frames, points)
        camera = _smooth_random_camera(np.random.default_rng(13), frames)
        w = project(camera, shapes)
        write_matrix(tmp_path / "W.mtx", w)

        data = {
            "version": "MBNR1",
            "command": "solve",
            "output_dir": str(tmp_path / "out"),
            "inputs": {"w": str(tmp_path / "W.mtx"), "rotations": "rigid-init",
                       "grid": [6, 10]},
            "solver": {"lambda2": 0.01},
        }
        summary = run_pipeline(manifest_from_dict(data))
        assert summary["converged"]
        assert (tmp_path / "out" / "S.mtx").exists()
        assert (tmp_path / "out" / "centering.mtx").exists()

    def test_grid_must_cover_points(self, tmp_path):
        scene = generate_scene(default_two_body(frames=6, points_per_body=5))
        write_matrix(tmp_path / "W.mtx", scene.w)
        write_matrix(tmp_path / "R.mtx", scene.camera.stacked())
        data = {
            "version": "MBNR1", "command": "solve",
            "output_dir": str(tmp_path / "out"),
            "inputs": {"w": str(tmp_path / "W.mtx"),
                       "rotations": str(tmp_path / "R.mtx"), "grid": [3, 5]},
        }
        with pytest.raises(ManifestError):
            run_pipeline(manifest_from_dict(data))


    def test_uncovering_grid_leaves_no_ground_truth(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ManifestError, match="does not cover 10 points"):
            run_pipeline(manifest_from_dict(uncovering_grid_manifest(out)))
        assert not any((out / name).exists() for name in GROUND_TRUTH)


def small_scene_manifest(tmp_path, source):
    """A 12-point, 6-frame pipeline manifest, from a synth block or from files."""
    data = pipeline_manifest(tmp_path / "out")
    if source == "synth":
        data["synth"] = synth_block(frames=6, ppb=6)
    else:
        del data["synth"]
        scene = generate_scene(default_two_body(frames=6, points_per_body=6))
        write_matrix(tmp_path / "W.mtx", scene.w)
        write_matrix(tmp_path / "R.mtx", scene.camera.stacked())
        data["inputs"] = {"w": str(tmp_path / "W.mtx"), "rotations": str(tmp_path / "R.mtx")}
    return data


class TestSceneChecks:
    """Checks that need the scene run before any artifact is written."""

    @pytest.mark.parametrize("source", ["synth", "files"])
    def test_more_clusters_than_points(self, tmp_path, capsys, source):
        data = small_scene_manifest(tmp_path, source)
        data["clusters"] = 13
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(data))
        assert cli.main(["pipeline", "--manifest", str(manifest)]) == 4
        assert "[scene] cannot split 12 points into 13 clusters" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("source", ["synth", "files"])
    def test_init_s_of_the_wrong_shape(self, tmp_path, capsys, source):
        data = small_scene_manifest(tmp_path, source)
        write_matrix(tmp_path / "init.mtx", np.zeros((18, 11)))
        data.setdefault("inputs", {})["init_s"] = str(tmp_path / "init.mtx")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(data))
        assert cli.main(["pipeline", "--manifest", str(manifest)]) == 4
        assert "[scene] init_s must be 18 x 12, got (18, 11)" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("key, value, message", [
        ("labels_gt", np.zeros(5, dtype=np.int64), "labels_gt must hold 12 labels, got 5"),
        ("s_gt", np.zeros((18, 11)), "s_gt must be 18 x 12, got (18, 11)"),
        ("rotations", CameraMotion.identity(3).stacked(),
         "W has 12 rows, but the rotations give 3 frames (6 rows)"),
    ], ids=["labels_gt", "s_gt", "rotations"])
    def test_input_that_does_not_fit_the_scene(self, tmp_path, capsys, key, value, message):
        data = small_scene_manifest(tmp_path, "files")
        path = tmp_path / "input"
        (write_labels if key == "labels_gt" else write_matrix)(path, value)
        data["inputs"][key] = str(path)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(data))
        assert cli.main(["pipeline", "--manifest", str(manifest)]) == 4
        assert f"[scene] {message}" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_init_s_of_the_right_shape_is_used(self, tmp_path):
        data = small_scene_manifest(tmp_path, "files")
        data["solver"] = {"max_iters": 0}
        write_matrix(tmp_path / "init.mtx", np.ones((18, 12)))
        data["inputs"]["init_s"] = str(tmp_path / "init.mtx")
        run_pipeline(manifest_from_dict(data))
        np.testing.assert_array_equal(read_matrix(tmp_path / "out" / "S.mtx"), np.ones((18, 12)))


class TestEvalCommand:
    def test_eval_external_baseline_labels(self, tmp_path):
        gt = np.array([0, 0, 0, 1, 1, 1])
        est = np.array([1, 1, 1, 0, 0, 2])
        write_labels(tmp_path / "gt.txt", gt)
        write_labels(tmp_path / "est.txt", est)
        data = {
            "version": "MBNR1", "command": "eval",
            "output_dir": str(tmp_path / "out"),
            "inputs": {"labels_est": str(tmp_path / "est.txt"),
                       "labels_gt": str(tmp_path / "gt.txt")},
        }
        summary = run_pipeline(manifest_from_dict(data, base_dir=tmp_path))
        assert summary["metrics"]["ems"] == pytest.approx(1 / 6)
        assert (tmp_path / "out" / "metrics.csv").exists()


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    """A 12-point, 6-frame synth scene on disk, and a pipeline run on its files."""
    root = tmp_path_factory.mktemp("scene_files")
    assert cli.main(["synth", "--out", str(root / "scene"), "--frames", "6",
                     "--points-per-body", "6"]) == 0
    assert cli.main(["pipeline", "--out", str(root / "run"), "--clusters", "2",
                     *scene_flags(root / "scene", "s_gt", "labels_gt")]) == 0
    return root


def scene_flags(scene, *keys, rotations=None):
    """--w and --rotations flags for a synth scene directory, plus its ground truth ``keys``."""
    files = {"s_gt": "S_gt.mtx", "labels_gt": "labels_gt.txt"}
    flags = ["--w", str(scene / "W.mtx"), "--rotations", rotations or str(scene / "rotations.mtx")]
    for key in keys:
        flags += [f"--{key.replace('_', '-')}", str(scene / files[key])]
    return flags


def metric_rows(path):
    return path.read_text().splitlines()[1:]


class TestSolverOverflow:
    @pytest.mark.parametrize("frames,per_body,grid,scale", [
        (10, 8, None, 1e200), (4, 10, None, 1e200), (10, 6, "3x4", 1e200),
        (10, 8, None, 1e307),
    ], ids=["sparse_cholesky", "sparse_woodbury", "grid_formed", "shape_step"])
    def test_overflowing_solve_exits_3(self, tmp_path, capsys, frames, per_body, grid, scale):
        # W x 1e200: the coefficient step's S^T S overflows; W x 1e307: the
        # shape step's R^T W / beta already does. The operands are built from
        # solver state, so that is a numerical failure, not bad input, and no
        # overflow warning escapes the solve (the suite turns a
        # RuntimeWarning into an error).
        scene = tmp_path / "scene"
        assert cli.main(["synth", "--out", str(scene), "--frames", str(frames),
                         "--points-per-body", str(per_body)]) == 0
        write_matrix(scene / "W.mtx", scale * read_matrix(scene / "W.mtx"))
        grid_flags = ["--grid", grid] if grid else []
        assert cli.main(["pipeline", "--out", str(tmp_path / "run"), "--clusters", "2",
                         *grid_flags, *scene_flags(scene)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("frames,per_body,grid", [(4, 10, None), (10, 6, "3x4")],
                             ids=["sparse", "grid"])
    def test_w_near_the_float_maximum_exits_4(self, tmp_path, capsys, frames, per_body, grid):
        # Centring W takes its row sums, which overflow near the float
        # maximum: that is refused as bad input, before any solve and with
        # no overflow warning (the suite turns a RuntimeWarning into an error).
        scene = tmp_path / "scene"
        assert cli.main(["synth", "--out", str(scene), "--frames", str(frames),
                         "--points-per-body", str(per_body)]) == 0
        w = read_matrix(scene / "W.mtx")
        write_matrix(scene / "W.mtx", w / np.abs(w).max() * 1.7e308)
        grid_flags = ["--grid", grid] if grid else []
        assert cli.main(["pipeline", "--out", str(tmp_path / "run"), "--clusters", "2",
                         *grid_flags, *scene_flags(scene)]) == 4
        assert "[scene] centring W overflows" in capsys.readouterr().err
        assert not (tmp_path / "run" / "centering.mtx").exists()


class TestOneLoaderOneScorer:
    """solve, pipeline and eval read through one loader and score through one scorer."""

    def eval_flags(self, root):
        return ["eval", "--labels-est", str(root / "run" / "labels.txt"),
                "--labels-gt", str(root / "scene" / "labels_gt.txt"),
                "--s-est", str(root / "run" / "S.mtx"),
                "--s-gt", str(root / "scene" / "S_gt.mtx")]

    def test_eval_with_rigid_init_rotations(self, scene_files, tmp_path, capsys):
        out = tmp_path / "eval"
        flags = scene_flags(scene_files / "scene", rotations="rigid-init")
        assert cli.main([*self.eval_flags(scene_files), *flags, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert [row.split(",")[0] for row in metric_rows(out / "metrics.csv")] == [
            "reprojection", "e3d", "e3d_whole", "ems"]

    def test_eval_s_est_of_the_wrong_shape_exit_4(self, scene_files, tmp_path, capsys):
        write_matrix(tmp_path / "S.mtx", np.zeros((18, 11)))
        flags = self.eval_flags(scene_files)
        flags[flags.index("--s-est") + 1] = str(tmp_path / "S.mtx")
        assert cli.main([*flags, *scene_flags(scene_files / "scene")]) == 4
        assert "[scene] s_est must be 18 x 12, got (18, 11)" in capsys.readouterr().err

    def test_solve_scores_its_ground_truth(self, scene_files, tmp_path):
        out = tmp_path / "solve"
        assert cli.main(["solve", "--out", str(out),
                         *scene_flags(scene_files / "scene", "s_gt")]) == 0
        solved = dict(row.split(",") for row in metric_rows(out / "metrics.csv"))
        assert list(solved) == ["converged", "iterations", "reprojection", "e3d", "e3d_whole"]
        run = dict(row.split(",") for row in metric_rows(scene_files / "run" / "metrics.csv"))
        assert solved == {key: run[key] for key in solved}  # the pipeline's solve, to the bit


# Manifests with more or less than one scene source: (id, command, inputs
# named by file in the scene directory, whether a synth block is given). Each
# is rejected before any output directory is made.
LABELS = {"labels_est": "labels_gt.txt", "labels_gt": "labels_gt.txt"}
SCENE_SOURCE_CLASHES = [
    ("synth_and_w", "pipeline", {"w": "W.mtx"}, True),
    ("synth_and_rotations", "pipeline", {"rotations": "rotations.mtx"}, True),
    ("synth_and_s_gt", "pipeline", {"s_gt": "S_gt.mtx"}, True),
    ("synth_and_labels_gt", "pipeline", {"labels_gt": "labels_gt.txt"}, True),
    ("synth_on_eval", "eval", LABELS, True),
    ("rigid_init_without_w", "eval", {**LABELS, "rotations": "rigid-init"}, False),
    ("w_without_rotations", "eval", {**LABELS, "w": "W.mtx"}, False),
]


class TestOneSceneSource:
    @pytest.mark.parametrize("command, inputs, synth", [c[1:] for c in SCENE_SOURCE_CLASHES],
                             ids=[c[0] for c in SCENE_SOURCE_CLASHES])
    def test_rejected_exit_4_without_output(self, scene_files, tmp_path, capsys, command,
                                            inputs, synth):
        data = pipeline_manifest(tmp_path / "out")
        data["command"] = command
        data["inputs"] = {key: name if name == "rigid-init" else str(scene_files / "scene" / name)
                          for key, name in inputs.items()}
        if not synth:
            del data["synth"]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(data))
        assert cli.main(["pipeline", "--manifest", str(manifest)]) == 4
        assert "bad manifest or inputs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bodies_flag_with_file_inputs_exit_4(self, scene_files, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--bodies", "3", "--clusters", "2", "--out", str(out),
                         *scene_flags(scene_files / "scene")]) == 4
        assert "a synth block generates the scene" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, named", [
        ("solve", ["--frames", "99", "--noise-sigma", "0.5"], "--frames, --noise-sigma"),
        ("pipeline", ["--points-per-body", "7", "--basis-rank", "2", "--camera", "identity"],
         "--points-per-body, --basis-rank, --camera"),
    ])
    def test_synth_flags_without_bodies_exit_4(self, scene_files, tmp_path, capsys, command,
                                               flags, named):
        # Without --bodies the files are the scene, and nothing would read these flags.
        out = tmp_path / "out"
        argv = [command, "--out", str(out), *scene_flags(scene_files / "scene"), *flags]
        if command == "pipeline":
            argv += ["--clusters", "2"]
        assert cli.main(argv) == 4
        assert f"{named} given without --bodies" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--out", "elsewhere"], "--out"),
        (["--clusters", "3", "--seed", "1"], "--clusters, --seed"),
        (["--grid", "2x3", "--bodies", "2", "--frames", "99"], "--grid, --bodies, --frames"),
        (["--lambda1", "5", "--max-iters", "3"], "--lambda1, --max-iters"),
    ], ids=["out", "clusters_seed", "scene", "solver"])
    def test_flags_beside_manifest_exit_4(self, tmp_path, capsys, monkeypatch, flags, named):
        # The manifest holds the whole run: a flag given with it would be ignored.
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(pipeline_manifest(tmp_path / "out")))
        assert cli.main(["pipeline", "--manifest", str(manifest), *flags]) == 4
        assert f"{named} given with --manifest" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


class TestCliExitCodes:
    def test_success(self, tmp_path, capsys):
        code = cli.main([
            "pipeline", "--out", str(tmp_path / "out"), "--clusters", "2",
            "--bodies", "2", "--frames", "20", "--points-per-body", "10",
        ])
        assert code == 0
        assert "ems" in capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "W.mtx"
        bad.write_text("MBNR1 matrix 2 2\n1.0 2.0\n3.0\n")
        code = cli.main([
            "solve", "--out", str(tmp_path / "out"),
            "--w", str(bad), "--rotations", "rigid-init",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert "[scene]" in err

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "W.mtx"
        bad.write_bytes(b"MBNR1 matrix 2 2\n\xff\xfe 1\n")
        code = cli.main([
            "solve", "--out", str(tmp_path / "out"),
            "--w", str(bad), "--rotations", "rigid-init",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert f"{bad}:2:" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_points_per_body_exit_4(self, tmp_path, capsys, count):
        # A given 0 is a body size like any other, not an unset flag.
        out = tmp_path / "out"
        code = cli.main(["synth", "--out", str(out), "--points-per-body", count,
                         "--frames", "4"])
        assert code == 4
        assert "body needs at least one point" in capsys.readouterr().err
        assert not (out / "W.mtx").exists()

    def test_degenerate_input_exit_4(self, tmp_path, capsys):
        # Rank-deficient tracks make the rigid initializer refuse; input
        # degeneracies are bad-input failures, not numerical ones.
        rng = np.random.default_rng(1)
        w = np.tile(rng.normal(size=(2, 8)), (4, 1))  # rank 2
        write_matrix(tmp_path / "W.mtx", w)
        code = cli.main([
            "solve", "--out", str(tmp_path / "out"),
            "--w", str(tmp_path / "W.mtx"), "--rotations", "rigid-init",
        ])
        assert code == 4

    def test_numerical_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        import mbnrsfm.pipeline as pipeline_module
        from mbnrsfm.errors import NumericalError

        def explode(*args, **kwargs):
            raise NumericalError("synthetic eigensolver breakdown")

        monkeypatch.setattr(pipeline_module, "solve", explode)
        code = cli.main([
            "pipeline", "--out", str(tmp_path / "out"), "--clusters", "2",
            "--bodies", "2", "--frames", "8", "--points-per-body", "5",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "[solve]" in err

    def test_lapack_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # LinAlgError is a ValueError; it must not read as a bad input.
        import mbnrsfm.pipeline as pipeline_module

        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(pipeline_module, "solve", explode)
        code = cli.main([
            "pipeline", "--out", str(tmp_path / "out"), "--clusters", "2",
            "--bodies", "2", "--frames", "8", "--points-per-body", "5",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "[solve] SVD did not converge" in err

    def test_value_error_subclass_exit_4(self, tmp_path, capsys, monkeypatch):
        # A subclass whose constructor takes other arguments cannot be
        # rebuilt from a message; it is wrapped as a plain ValueError.
        import mbnrsfm.pipeline as pipeline_module

        class TwoArgumentError(ValueError):
            def __init__(self, what, where):
                super().__init__(f"{what} in {where}")

        def explode(*args, **kwargs):
            raise TwoArgumentError("degenerate tracks", "W")

        monkeypatch.setattr(pipeline_module, "solve", explode)
        code = cli.main([
            "pipeline", "--out", str(tmp_path / "out"), "--clusters", "2",
            "--bodies", "2", "--frames", "8", "--points-per-body", "5",
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "bad manifest or inputs: [solve] degenerate tracks in W" in err
        assert "Traceback" not in err

    def test_bad_manifest_exit_4(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"version": "MBNR1", "command": "pipeline"}))
        code = cli.main(["pipeline", "--manifest", str(manifest)])
        assert code == 4
        assert "bad manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["synth", "inputs"])
    def test_block_that_is_not_an_object_exit_4(self, tmp_path, capsys, block):
        data = pipeline_manifest(tmp_path / "out")
        data[block] = [1, 2]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(data))
        code = cli.main(["pipeline", "--manifest", str(manifest)])
        assert code == 4
        err = capsys.readouterr().err
        assert f"bad manifest or inputs: {block} block must be a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path, value", BAD_MANIFEST_VALUES, ids=BAD_MANIFEST_IDS)
    def test_bad_value_or_unknown_key_exit_4(self, tmp_path, capsys, path, value):
        data = with_value(pipeline_manifest(tmp_path / "out"), path, value)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(data))
        code = cli.main(["pipeline", "--manifest", str(manifest)])
        assert code == 4
        err = capsys.readouterr().err
        assert "bad manifest or inputs" in err and named_key(path) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value", NONFINITE_VALUES, ids=NONFINITE_IDS)
    def test_nonfinite_number_exit_4(self, tmp_path, capsys, path, value):
        data = with_value(pipeline_manifest(tmp_path / "out"), path, value)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(data))  # NaN / Infinity / -Infinity literals
        assert cli.main(["pipeline", "--manifest", str(manifest)]) == 4
        assert "must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["--epsilon", "nan"], ["--lambda1", "nan"], ["--rho", "inf"], ["--noise-sigma", "nan"],
    ], ids=lambda flags: "=".join(flags))
    def test_nonfinite_flag_exit_4(self, tmp_path, capsys, flags):
        code = cli.main(["pipeline", "--out", str(tmp_path / "out"), "--clusters", "2",
                         "--bodies", "2", "--frames", "6", "--points-per-body", "5", *flags])
        assert code == 4
        assert "bad manifest or inputs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--grid", "--init-s"])
    def test_empty_flag_exit_4(self, tmp_path, capsys, flag):
        # An empty value is a value: it is rejected, not taken for a flag left out.
        code = cli.main(["pipeline", "--out", str(tmp_path / "out"), "--clusters", "2",
                         "--bodies", "2", "--frames", "4", "--points-per-body", "5", flag, ""])
        assert code == 4
        assert "bad manifest or inputs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("w", ["", "subdir"], ids=["empty", "directory"])
    def test_input_that_is_not_a_regular_file_exit_4(self, tmp_path, capsys, w):
        (tmp_path / "subdir").mkdir()
        scene = generate_scene(default_two_body(frames=4, points_per_body=5))
        write_matrix(tmp_path / "R.mtx", scene.camera.stacked())
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "version": "MBNR1", "command": "solve", "output_dir": "out",
            "inputs": {"w": w, "rotations": "R.mtx"},
        }))
        assert cli.main(["pipeline", "--manifest", str(manifest)]) == 4
        err = capsys.readouterr().err
        assert "input file for 'w' does not exist or is not a regular file" in err
        assert not (tmp_path / "out").exists()

    def test_uncovering_grid_exit_4_leaves_no_ground_truth(self, tmp_path, capsys):
        out = tmp_path / "out"
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(uncovering_grid_manifest(out)))
        code = cli.main(["pipeline", "--manifest", str(manifest)])
        assert code == 4
        assert "grid 3 x 5 does not cover 10 points" in capsys.readouterr().err
        assert not any((out / name).exists() for name in GROUND_TRUTH)

    @pytest.mark.parametrize("key", ["points", "basis_rank"])
    def test_missing_body_key_exit_4(self, tmp_path, capsys, key):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(without_body_key(tmp_path / "out", key)))
        code = cli.main(["pipeline", "--manifest", str(manifest)])
        assert code == 4
        err = capsys.readouterr().err
        assert f"bad manifest or inputs: synth.bodies[0].{key} is required" in err
        assert "Traceback" not in err

    def test_bodies_flags_equal_explicit_manifest(self, tmp_path, capsys):
        assert cli.main([
            "pipeline", "--out", str(tmp_path / "flags"), "--clusters", "2", "--bodies", "2",
            "--frames", "12", "--points-per-body", "8", "--max-iters", "40",
        ]) == 0
        data = pipeline_manifest(tmp_path / "manifest", solver={"max_iters": 40})
        data["synth"] = synth_block(frames=12, ppb=8)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(data))
        assert cli.main(["pipeline", "--manifest", str(manifest)]) == 0
        flags, explicit = hash_tree(tmp_path / "flags"), hash_tree(tmp_path / "manifest")
        assert len(flags) > len(PIPELINE_ARTIFACTS) and flags == explicit

    def test_synth_then_solve_then_eval_round_trip(self, tmp_path, capsys):
        # W is moved off its row means: the pipeline solves and scores the
        # row-centred W, and eval must score the same, to the bit.
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--out", str(scene_dir), "--bodies", "2"]) == 0
        w = read_matrix(scene_dir / "W.mtx")
        write_matrix(scene_dir / "W_offset.mtx", w + 0.05 * np.arange(w.shape[0])[:, None])
        run_dir = tmp_path / "run"
        measurements = ["--w", str(scene_dir / "W_offset.mtx"),
                        "--rotations", str(scene_dir / "rotations.mtx")]
        assert cli.main([
            "pipeline", "--out", str(run_dir), "--clusters", "2", *measurements,
            "--s-gt", str(scene_dir / "S_gt.mtx"),
            "--labels-gt", str(scene_dir / "labels_gt.txt"),
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "eval",
            "--labels-est", str(run_dir / "labels.txt"),
            "--labels-gt", str(scene_dir / "labels_gt.txt"),
            "--s-est", str(run_dir / "S.mtx"),
            "--s-gt", str(scene_dir / "S_gt.mtx"), *measurements,
            "--out", str(tmp_path / "eval"),
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "ems: 0.0" in out
        recorded = metric_rows(run_dir / "metrics.csv")
        assert f"reprojection: {dict(row.split(',') for row in recorded)['reprojection']}" in out
        # The pipeline's rows after converged and iterations, in its order, to the bit.
        assert [row.split(",")[0] for row in recorded] == [
            "converged", "iterations", "reprojection", "e3d", "e3d_whole", "ems"]
        assert metric_rows(tmp_path / "eval" / "metrics.csv") == recorded[2:]
