"""Command-line interface: synth, solve, eval, pipeline.

Custom body geometry beyond the stock two- and three-body families goes
through a manifest file (see the pipeline command's --manifest flag); the
flags here cover the everyday runs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ManifestError, NumericalError, ParseError
from .pipeline import (
    _SOLVER_KINDS, INPUT_FILES, RIGID_INIT, VERSION, load_manifest, manifest_from_dict,
    run_pipeline, synth_block,
)
from .synth import default_three_body, default_two_body

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_MANIFEST = 4

# Flags that shape a generated scene; without --bodies there is none to shape.
_SYNTH_SHAPE_FLAGS = ("frames", "points_per_body", "basis_rank", "noise_sigma")


def _add_solver_flags(parser):
    parser.add_argument("--lambda1", type=float, default=None, help="l1 weight")
    parser.add_argument("--lambda2", type=float, default=None,
                        help="nuclear-norm weight (default: 1/sqrt(3*max(F,P)))")
    parser.add_argument("--beta0", type=float, default=None, help="initial penalty")
    parser.add_argument("--rho", type=float, default=None, help="penalty growth factor")
    parser.add_argument("--beta-max", type=float, default=None, help="penalty cap")
    parser.add_argument("--epsilon", type=float, default=None, help="convergence tolerance")
    parser.add_argument("--max-iters", type=int, default=None, help="iteration cap")


def _add_scene_source_flags(parser):
    parser.add_argument("--w", help="measurement matrix file (MBNR1 matrix)")
    parser.add_argument("--rotations",
                        help=f"stacked 2Fx3 rotation file, or '{RIGID_INIT}'")
    parser.add_argument("--s-gt", help="ground-truth shape file (enables e3d)")
    parser.add_argument("--labels-gt", help="ground-truth labels (enables ems)")
    parser.add_argument("--init-s", help="initial shape stack file")
    parser.add_argument("--grid", help="HxW grid enabling the spatial term")
    _add_synth_flags(parser)


def _add_synth_flags(parser):
    parser.add_argument("--bodies", type=int, choices=(2, 3), default=None,
                        help="generate a stock 2- or 3-body scene instead of reading files")
    # Left out, each flag keeps the stock scene's own default.
    parser.add_argument("--frames", type=int)
    parser.add_argument("--points-per-body", type=int)
    parser.add_argument("--basis-rank", type=int)
    parser.add_argument("--noise-sigma", type=float)
    parser.add_argument("--camera", choices=("identity", "smooth_random"))


def _solver_block(args) -> dict:
    return {key: getattr(args, key) for key in _SOLVER_KINDS
            if getattr(args, key, None) is not None}


def _synth_block(args, n_bodies: int) -> dict:
    factory = default_two_body if n_bodies == 2 else default_three_body
    stock = ("seed", *_SYNTH_SHAPE_FLAGS)
    config = factory(**{key: getattr(args, key) for key in stock if getattr(args, key) is not None})
    if args.camera is not None:
        config = replace(config, camera_mode=args.camera)
    return synth_block(config)


def _inputs_block(args) -> dict:
    # Only a flag left out is unset: an empty value is passed on and rejected.
    inputs = {key: getattr(args, key) for key in INPUT_FILES
              if getattr(args, key, None) is not None}
    if getattr(args, "grid", None) is not None:
        try:
            h, w = args.grid.lower().split("x")
            inputs["grid"] = [int(h), int(w)]
        except ValueError:
            raise ManifestError(f"--grid expects HxW, got {args.grid!r}") from None
    return inputs


def _manifest_data(args, command: str) -> dict:
    data = {
        "version": VERSION,
        "command": command,
        "output_dir": args.out,
        "seed": getattr(args, "seed", None) or 0,
        "solver": _solver_block(args),
        "inputs": _inputs_block(args),
    }
    if getattr(args, "clusters", None) is not None:
        data["clusters"] = args.clusters
    if getattr(args, "bodies", None):
        data["synth"] = _synth_block(args, args.bodies)
        data["seed"] = data["synth"]["seed"]
    else:
        orphans = [f"--{key.replace('_', '-')}" for key in (*_SYNTH_SHAPE_FLAGS, "camera")
                   if getattr(args, key, None) is not None]
        if orphans:
            raise ManifestError(
                f"{', '.join(orphans)} given without --bodies: there is no generated scene "
                "to shape")
    return data


def _flags_beside_manifest(args) -> list:
    """Every flag given with ``pipeline --manifest``; the manifest is the whole run."""
    return [f"--{key.replace('_', '-')}" for key, value in vars(args).items()
            if key not in ("command", "manifest") and value is not None]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbnrsfm",
        description="Joint 3D reconstruction and segmentation of multiple "
                    "deforming objects from 2D point tracks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=None)
    _add_synth_flags(p_synth)
    p_synth.set_defaults(bodies=2)

    p_solve = sub.add_parser("solve", help="run the solver on a scene")
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--seed", type=int, default=None)
    _add_scene_source_flags(p_solve)
    _add_solver_flags(p_solve)

    p_eval = sub.add_parser("eval", help="evaluate labels/shapes against ground truth")
    p_eval.add_argument("--labels-est", required=True)
    p_eval.add_argument("--labels-gt", required=True)
    p_eval.add_argument("--s-est")
    p_eval.add_argument("--s-gt")
    p_eval.add_argument("--w", help="measurement matrix file (enables reprojection)")
    p_eval.add_argument("--rotations",
                        help=f"stacked 2Fx3 rotation file, or '{RIGID_INIT}' to estimate "
                             "them from the row-centred --w, as solve does")
    p_eval.add_argument("--out", default="")

    p_pipe = sub.add_parser("pipeline", help="synth/load, solve, cluster, evaluate")
    p_pipe.add_argument("--manifest", help="run everything from a manifest JSON")
    p_pipe.add_argument("--out")
    p_pipe.add_argument("--clusters", type=int)
    p_pipe.add_argument("--seed", type=int, default=None)
    _add_scene_source_flags(p_pipe)
    _add_solver_flags(p_pipe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "pipeline" and args.manifest:
            extra = _flags_beside_manifest(args)
            if extra:
                raise ManifestError(
                    f"{', '.join(extra)} given with --manifest: the manifest holds the "
                    "whole run")
            manifest = load_manifest(args.manifest)
        else:
            if args.command == "pipeline" and args.clusters is None:
                raise ManifestError("pipeline requires --clusters (or a manifest)")
            if args.command != "eval" and not args.out:
                raise ManifestError(f"{args.command} requires --out")
            manifest = manifest_from_dict(_manifest_data(args, args.command))
        summary = run_pipeline(manifest)
    except ParseError as exc:
        print(f"mbnrsfm: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericalError as exc:
        print(f"mbnrsfm: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ManifestError, ValueError) as exc:
        print(f"mbnrsfm: bad manifest or inputs: {exc}", file=sys.stderr)
        return EXIT_MANIFEST

    if "metrics" in summary:
        for key, value in summary["metrics"].items():
            print(f"{key}: {value}")
    else:
        print(f"{summary['command']}: done")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
