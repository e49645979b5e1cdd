import hashlib
import json
import os

import numpy as np
import pytest

from mbnrsfm import cli
from mbnrsfm.errors import ManifestError
from mbnrsfm.fileio import read_labels, read_matrix, write_labels, write_matrix
from mbnrsfm.metrics import segmentation_error
from mbnrsfm.pipeline import RunManifest, load_manifest, manifest_from_dict, run_pipeline
from mbnrsfm.scene import project
from mbnrsfm.synth import assemble_body, default_two_body, generate_scene, _smooth_random_camera

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
]
BAD_MANIFEST_IDS = [".".join(map(str, path)) for path, _ in BAD_MANIFEST_VALUES]


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
        last = (out / "trace.csv").read_text().splitlines()[-1].split(",")
        max_residual = max(float(v) for v in last[2:6])
        assert summary["metrics"]["converged"] == (max_residual <= 1e-4)

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

    def test_synth_then_solve_then_eval_round_trip(self, tmp_path, capsys):
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--out", str(scene_dir), "--bodies", "2"]) == 0
        run_dir = tmp_path / "run"
        assert cli.main([
            "pipeline", "--out", str(run_dir), "--clusters", "2",
            "--w", str(scene_dir / "W.mtx"),
            "--rotations", str(scene_dir / "rotations.mtx"),
            "--s-gt", str(scene_dir / "S_gt.mtx"),
            "--labels-gt", str(scene_dir / "labels_gt.txt"),
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "eval",
            "--labels-est", str(run_dir / "labels.txt"),
            "--labels-gt", str(scene_dir / "labels_gt.txt"),
            "--s-est", str(run_dir / "S.mtx"),
            "--s-gt", str(scene_dir / "S_gt.mtx"),
        ]) == 0
        out = capsys.readouterr().out
        assert "ems: 0.0" in out
