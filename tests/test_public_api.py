import ast
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


def _top_level_names(statement) -> set[str]:
    """The names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
        return set()
    targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def _referenced_names(node) -> set[str]:
    """Every name ``node`` reads: bare names, attributes and names imported from a module."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            found |= {alias.name for alias in child.names}
    return found


def test_no_unused_import_or_private_name():
    # A dead-code guard, as no linter runs in CI: every module but
    # __init__.py uses each name it imports, and each module-level _private
    # name is read by some other module-level statement in the package, so a
    # deleted path cannot leave its helpers or imports behind.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted((SRC / "mbnrsfm").glob("*.py"))}
    reads = [(statement, _referenced_names(statement))
             for tree in trees.values() for statement in tree.body]
    unused_imports, unread_private = [], []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused_imports += [f"{module}: {name}" for name in bound if name not in used]
        for statement in tree.body:
            for name in _top_level_names(statement):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(name in names for other, names in reads if other is not statement):
                    unread_private.append(f"{module}: {name}")
    assert unused_imports == []
    assert unread_private == []
