import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mbnrsfm

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_export_resolves_and_star_import_binds_it():
    missing = [name for name in mbnrsfm.__all__ if not hasattr(mbnrsfm, name)]
    assert missing == []
    namespace = {}
    exec("from mbnrsfm import *", namespace)
    assert set(mbnrsfm.__all__) <= set(namespace)


def test_exports_are_the_solver_and_scene_api():
    # The solver, its config and trace, the scene and synth types,
    # clustering, metrics and errors. The Sylvester operands and kernels
    # stay importable from mbnrsfm.linalg.
    assert sorted(mbnrsfm.__all__) == [
        "BodySpec",
        "CameraMotion",
        "ManifestError",
        "NumericalError",
        "ParseError",
        "SceneData",
        "SingularPencilError",
        "SolverConfig",
        "SolverTrace",
        "SynthConfig",
        "build_affinity",
        "build_neighbor_matrix",
        "default_three_body",
        "default_two_body",
        "estimate_rigid_rotations",
        "generate_body",
        "generate_scene",
        "max_abs_measurement",
        "project",
        "reconstruction_error",
        "reconstruction_error_whole",
        "reprojection_error",
        "segmentation_error",
        "solve",
        "spectral_cluster",
        "to_frame_rows",
        "to_point_columns",
    ]


def test_cold_import_leaves_out_scipy_optimize(tmp_path):
    # scipy.optimize (linprog, HiGHS, scipy.fft, scipy.special) about
    # doubles the package's cold start, and scipy.sparse with its csgraph
    # adds about 5 MB of RSS; the package needs neither. A fresh interpreter
    # sees only what the package's own imports load: first on import, then
    # after a whole pipeline run, which would show a lazy import.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = textwrap.dedent("""
        import sys, mbnrsfm, mbnrsfm.cli
        unwanted = ("scipy.sparse", "scipy.optimize")
        print("import", [name for name in unwanted if name in sys.modules])
        exit_code = mbnrsfm.cli.main(["pipeline", "--bodies", "2", "--frames", "4",
                                      "--points-per-body", "5", "--clusters", "2",
                                      "--out", sys.argv[1]])
        print("run", exit_code, [name for name in unwanted if name in sys.modules])
    """)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert lines[0] == "import []"
    assert lines[-1] == "run 0 []"
