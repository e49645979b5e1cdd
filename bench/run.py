"""End-to-end benchmark of ``mbnrsfm.pipeline.run_pipeline``.

Usage, from the repository root:

    python3 bench/run.py --workload seeds_small --seed 0 --seconds 40 --trace 0

One client runs the workload's scenes back to back (a closed loop), one
pass after another, until the next pass would end after ``--seconds``. Each
scene goes from manifest to MBNR1 artifacts on disk. After every pass, and
outside its timing, the artifacts are read back and checked. Timings are
normalized by a host-speed probe taken next to them (see ``probe.py``); the
raw ones are printed and stored as data.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics from the traced ones, plus the tracing overhead (median
traced pass minus median untraced pass). Spans and a full JSON report land
in ``.bench_out/`` at the repository root. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

# Single-threaded BLAS keeps runs reproducible and comparable; the variables
# only take effect if set before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_NUMPY_PRELOADED = "numpy" in sys.modules
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_CHILDREN = 2  # set-up is also timed in this process: three samples


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "mbnrsfm" / "__init__.py").is_file():
    _fail(f"no mbnrsfm sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mbnrsfm  # noqa: E402
import mbnrsfm.pipeline  # noqa: E402
from mbnrsfm.clustering import build_affinity, spectral_cluster  # noqa: E402
from mbnrsfm.fileio import read_labels, read_matrix  # noqa: E402
from mbnrsfm.metrics import (  # noqa: E402
    reconstruction_error,
    reconstruction_error_whole,
    reprojection_error,
    segmentation_error,
)

import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import Probe  # noqa: E402


@dataclass
class SceneRun:
    scene: workloads.Scene
    seconds: float
    summary: dict | None
    error: str | None
    solve_s: float = 0.0
    probe_s: float = 0.0      # host-speed probe around this scene
    scale: float = 1.0        # raw -> normalized time, from probe_s
    e3d: float | None = None
    ems: float | None = None
    digest: str | None = None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


@dataclass
class Pass:
    traced: bool
    runs: list

    @property
    def wall(self) -> float:
        """Raw seconds spent in the pass's scenes (probes excluded)."""
        return sum(r.seconds for r in self.runs)

    @property
    def normalized(self) -> float:
        return sum(r.seconds * r.scale for r in self.runs)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few small scenes (smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this fresh interpreter, print it, exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def check_environment() -> None:
    """Refuse to measure unless BLAS was pinned to one thread before numpy loaded."""
    if _NUMPY_PRELOADED:
        _fail("numpy was imported before the BLAS thread count could be pinned")
    unpinned = {var: os.environ.get(var) for var in THREAD_VARS if os.environ.get(var) != "1"}
    if unpinned:
        _fail(f"BLAS thread variables must be 1, got {unpinned}")
    loaded_from = Path(mbnrsfm.__file__).resolve()
    if SRC.resolve() not in loaded_from.parents:
        _fail(f"mbnrsfm was imported from {loaded_from}, not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": _git_commit(),
    }


def setup_samples(args, count: int) -> list[tuple[float, float]]:
    """Time ``count`` set-ups, each in a fresh interpreter: (raw s, probe s) each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        raw, probe_s = proc.stdout.split()[-2:]
        samples.append((float(raw), float(probe_s)))
    return samples


def warm_up(work_dir: Path) -> None:
    """One untimed tiny pipeline run, so lazy loading is not timed."""
    manifest = mbnrsfm.pipeline.manifest_from_dict({
        "version": "MBNR1", "command": "pipeline", "clusters": 2,
        "output_dir": str(work_dir / "warmup"), "solver": {"max_iters": 5},
        "synth": {"frames": 6, "seed": 0, "bodies": [
            {"points": 5, "basis_rank": 1, "centroid": [-0.2, 0.0, 0.0], "scale": 0.1},
            {"points": 5, "basis_rank": 1, "centroid": [0.2, 0.0, 0.0], "scale": 0.1}]},
    })
    mbnrsfm.pipeline.run_pipeline(manifest)


def run_pass(scenes, tracer: tracing.Tracer | None, probe: Probe) -> Pass:
    """Run every scene once, back to back, with a probe before and after each.

    Only the scenes are timed; each scene's probe time is the mean of the
    probes on either side of it.
    """
    runs = []
    solve_times: list[float] = []
    record = tracer.spans if tracer else solve_times
    marks = []  # per scene: the slice of ``record`` it appended
    probes = [probe.measure()]
    run = mbnrsfm.pipeline.run_pipeline
    with (tracer.installed() if tracer else tracing.solve_clock(solve_times)):
        if tracer:
            run = tracer.wrap("pipeline.run_pipeline", run)
        for scene in scenes:
            if tracer:
                tracer.scene = scene.scene_id
            begin = len(record)
            t0 = time.perf_counter()
            try:
                summary, error = run(scene.manifest), None
            except Exception:  # a failed scene is counted, the run goes on
                summary, error = None, traceback.format_exc()
            runs.append(SceneRun(scene, time.perf_counter() - t0, summary, error))
            marks.append((begin, len(record)))
            probes.append(probe.measure())
    for i, (r, (begin, end)) in enumerate(zip(runs, marks)):
        if tracer:
            r.solve_s = sum(s.duration for s in record[begin:end] if s.name == "admm.solve")
        else:
            r.solve_s = sum(record[begin:end])
        r.probe_s = (probes[i] + probes[i + 1]) / 2
        r.scale = probe.scale(r.probe_s)
    return Pass(tracer is not None, runs)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def artifact_digest(out_dir: Path) -> str:
    """sha256 over the scene's artifact set: relative paths and contents."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_run(r: SceneRun, seed: int) -> None:
    """Read the artifacts back and compare them with the pipeline's results.

    ``run_pipeline`` returns metrics, not arrays, so the in-memory results
    are checked through what it computed from them: e3d, e3d_whole, ems and
    the reprojection error must be bit-identical when recomputed from the
    files, A.mtx must equal build_affinity(C.mtx) bit for bit, and
    re-clustering A.mtx must give labels.txt.
    """
    if r.error is not None:
        return
    scene, truth, out = r.scene, r.scene.truth, r.scene.out_dir
    frames, points = truth.camera.frames, scene.points
    try:
        shapes = read_matrix(out / "S.mtx")
        coeffs = read_matrix(out / "C.mtx")
        affinity = read_matrix(out / "A.mtx")
        labels = read_labels(out / "labels.txt")
        expected = {"S.mtx": (shapes, (3 * frames, points)),
                    "C.mtx": (coeffs, (points, points)),
                    "A.mtx": (affinity, (points, points)),
                    "labels.txt": (labels, (points,))}
        for name, (value, shape) in expected.items():
            if value.shape != shape:
                r.problems.append(f"{name} has shape {value.shape}, expected {shape}")
        if r.problems:
            return
        if np.any(np.diag(coeffs) != 0.0):
            r.problems.append("C.mtx has a nonzero diagonal")
        if not _same_bits(build_affinity(coeffs), affinity):
            r.problems.append("A.mtx differs from build_affinity(C.mtx)")
        if not _same_bits(spectral_cluster(affinity, scene.clusters, seed), labels):
            r.problems.append("labels.txt differs from clustering A.mtx")
        centered = truth.w - truth.w.mean(axis=1, keepdims=True)
        r.e3d = reconstruction_error(shapes, truth.shapes)
        r.ems = segmentation_error(labels, truth.labels)
        recomputed = {
            "e3d": r.e3d,
            "e3d_whole": reconstruction_error_whole(shapes, truth.shapes),
            "ems": r.ems,
            "reprojection": reprojection_error(centered, truth.camera, shapes),
        }
        for key, value in recomputed.items():
            reported = r.summary["metrics"].get(key)
            if reported != value:
                r.problems.append(f"{key} from files is {value!r}, pipeline said {reported!r}")
        r.digest = artifact_digest(out)
    except Exception:  # any failure to read or check counts as failed
        r.problems.append(traceback.format_exc())


def measure(scenes, args, tracer: tracing.Tracer | None, probe: Probe) -> list[Pass]:
    """Closed loop: whole passes until the next one would end after --seconds.

    A traced run alternates traced and untraced passes, at least one each.
    """
    passes = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        p = run_pass(scenes, tracer if traced else None, probe)
        for r in p.runs:
            check_run(r, args.seed)
        passes.append(p)
        elapsed = time.perf_counter() - begin
        enough = tracer is None or len(passes) >= 2
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            return passes


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]],
               probe: Probe) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes, plus unguarded extras.

    Timings are normalized by the host-speed probe; the raw ones are extras.
    Needs at least one untraced scene that passed its output check.
    """
    plain = [p for p in passes if not p.traced]
    runs = [r for p in plain for r in p.runs]
    good = [r for r in runs if r.ok]

    def ms_per_iter(normalize: bool) -> float:
        values = []
        for p in plain:
            done = [r for r in p.runs if r.ok]
            iterations = sum(r.summary["iterations"] for r in done)
            solve = sum(r.solve_s * (r.scale if normalize else 1.0) for r in done)
            if iterations:
                values.append(1000.0 * solve / iterations)
        return statistics.median(values)

    ems = [r.ems for r in good]
    metrics = {
        "wall_s": statistics.median(p.normalized for p in plain),
        "scene_s_p50": statistics.median(r.seconds * r.scale for r in runs),
        "solve_ms_per_iter": ms_per_iter(normalize=True),
        "iterations_mean": statistics.fmean(r.summary["iterations"] for r in good),
        "converged_frac": statistics.fmean(float(r.summary["converged"]) for r in good),
        "e3d_mean": statistics.fmean(r.e3d for r in good),
        "e3d_max": max(r.e3d for r in good),
        "seg_acc_mean": 1.0 - statistics.fmean(ems),
        "seg_acc_min": 1.0 - max(ems),
        "success_frac": len(good) / len(runs),
        "setup_s": statistics.median(raw * probe.scale(p) for raw, p in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras = {
        "failed_frac": 1.0 - len(good) / len(runs),
        "ems_mean": statistics.fmean(ems),
        "seg_fail_frac": sum(e > 0 for e in ems) / len(ems),
        "scene_samples": len(runs),
        "wall_raw_s": statistics.median(p.wall for p in plain),
        "scene_raw_s_p50": statistics.median(r.seconds for r in runs),
        "solve_raw_ms_per_iter": ms_per_iter(normalize=False),
        "setup_raw_s": statistics.median(raw for raw, _ in setup),
        "probe_ms": 1000.0 * statistics.median(r.probe_s for r in runs),
        "setup_samples_s": setup,
    }
    return metrics, extras


def _file_stats(paths) -> tuple[int, int]:
    """Bytes and file count of the given files; a directory counts its files."""
    size = files = 0
    for path in map(Path, paths):
        members = [p for p in path.rglob("*") if p.is_file()] if path.is_dir() else [path]
        size += sum(p.stat().st_size for p in members)
        files += len(members)
    return size, files


# Exact counts computed from operand sizes, scene sizes and artifact files;
# they repeat exactly between runs.
COMPUTED = ("scene.merged_operator.bytes", "linalg.solve_sylvester.work",
            "fileio.write.bytes", "fileio.read.bytes", "fileio.files")
STEPS = ("pseudo_inverse_shapes", "update_shapes", "update_lowrank", "update_slack",
         "update_coefficients", "constraint_residuals", "objective_value", "update_duals")


def per_layer(tracer: tracing.Tracer, passes: list[Pass], scenes) -> dict:
    """Per-layer metrics, averaged over the traced passes (the only ones with spans)."""
    traced = [p for p in passes if p.traced]
    n = len(traced)
    totals = tracer.totals()
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "details": []}

    def get(name):
        return totals.get(name, empty)

    def seconds(*names):
        return sum(get(name)["s"] for name in names) / n

    reads = [name for name in totals if name.startswith("fileio.read_")]
    writes = [name for name in totals if name.startswith("fileio.write_")]
    read_bytes, read_files = _file_stats(d for name in reads for d in get(name)["details"])
    write_bytes, write_files = _file_stats(d for name in writes for d in get(name)["details"])
    sylvester = get("linalg.solve_sylvester")
    metrics = {
        "synth.generate_scene.s": seconds("synth.generate_scene"),
        "scene.build_neighbor_matrix.s": seconds("scene.build_neighbor_matrix"),
        "scene.merged_operator.bytes": max(s.merged_operator_bytes for s in scenes),
        "admm.solve.s": seconds("admm.solve"),
        "admm.solve.self_s": get("admm.solve")["self_s"] / n,
    }
    for step in STEPS:
        metrics[f"admm.{step}.s"] = seconds(f"admm.{step}")
    metrics.update({
        "admm.iterations": sum(r.summary["iterations"] for p in traced
                               for r in p.runs if r.summary) / n,
        "linalg.solve_sylvester.s": seconds("linalg.solve_sylvester"),
        "linalg.solve_sylvester.calls": sylvester["calls"] / n,
        "linalg.solve_sylvester.work": sum(a**3 + b**3 for a, b in sylvester["details"]) / n,
        "linalg.svt.s": seconds("linalg.svt"),
        "linalg.soft_threshold.s": seconds("linalg.soft_threshold"),
        "clustering.build_affinity.s": seconds("clustering.build_affinity"),
        "clustering.spectral_cluster.s": seconds("clustering.spectral_cluster"),
        "metrics.s": seconds(*[name for name in totals if name.startswith("metrics.")]),
        "fileio.write.s": seconds(*writes),
        "fileio.write.bytes": write_bytes / n,
        "fileio.read.s": seconds(*reads),
        "fileio.read.bytes": read_bytes / n,
        "fileio.files": (read_files + write_files) / n,
        "pipeline.run_pipeline.self_s": get("pipeline.run_pipeline")["self_s"] / n,
    })
    plain = [p.normalized for p in passes if not p.traced]
    metrics["trace.overhead_s"] = (statistics.median(p.normalized for p in traced)
                                   - statistics.median(plain))
    return metrics


def load_declared() -> dict:
    """Metric name -> unit for the end-to-end and per-layer lists."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def result_line(values: dict, declared: dict, attempted: int, failed: int) -> dict:
    missing = set(declared) - set(values)
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {sorted(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }


def setup_probe(probe: Probe) -> float:
    """Probe a freshly set-up process; the first, cold probe is discarded."""
    probe.measure()
    return probe.measure()


def setup_only(args) -> None:
    work = OUT / "work" / f"setup-{os.getpid()}"
    try:
        workloads.prepare(args.workload, args.seed, work, args.tiny)
        raw = time.perf_counter() - _START
        print(raw, setup_probe(Probe(args.workload)))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_scenes(passes: list[Pass]) -> None:
    """One line per scene of the first pass; flag artifacts that changed between passes."""
    digests: dict = {}
    for p in passes:
        for r in p.runs:
            digests.setdefault(r.scene.scene_id, set()).add(r.digest)
    for r in passes[0].runs:
        status = "; ".join(msg.strip().splitlines()[-1] for msg in [r.error or ""] + r.problems
                           if msg) or "ok"
        iterations = r.summary["iterations"] if r.summary else "-"
        print(f"# scene {r.scene.scene_id}: {r.seconds:.3f} s, {iterations} iterations, "
              f"e3d {r.e3d}, ems {r.ems}, sha256 {r.digest}, {status}")
    unstable = sorted(sid for sid, d in digests.items() if len(d) > 1)
    if unstable:
        print(f"# artifacts differed between passes for {unstable}")


def write_report(path: Path, args, env: dict, passes: list[Pass], **results) -> None:
    """The full record of a run: arguments, environment, every scene, results."""
    report = {
        "args": vars(args), "environment": env,
        "passes": [{"wall_s": p.wall, "traced": p.traced, "scenes": [
            {"scene": r.scene.scene_id, "seconds": r.seconds, "solve_s": r.solve_s,
             "probe_s": r.probe_s,
             "iterations": r.summary["iterations"] if r.summary else None,
             "converged": r.summary["converged"] if r.summary else None,
             "e3d": r.e3d, "ems": r.ems, "sha256": r.digest,
             "error": r.error, "problems": r.problems} for r in p.runs]}
            for p in passes],
        **results,
    }
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    check_environment()
    if args.setup_only:
        setup_only(args)
        return 0
    declared = load_declared()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        scenes = workloads.prepare(args.workload, args.seed, work, args.tiny)
        raw = time.perf_counter() - _START
        probe = Probe(args.workload)
        setup = [(raw, setup_probe(probe))] + setup_samples(args, SETUP_CHILDREN)
        warm_up(work)
        tracer = tracing.Tracer() if args.trace else None
        passes = measure(scenes, args, tracer, probe)
        env = environment()
        print(f"# workload {args.workload}, seed {args.seed}, {len(passes)} passes "
              f"({sum(p.traced for p in passes)} traced), report {OUT.name}/{stem}.json")
        print("# environment " + json.dumps(env))
        print_scenes(passes)
        if not any(r.ok for p in passes if not p.traced for r in p.runs):
            write_report(OUT / f"{stem}.json", args, env, passes)
            print("bench: no scene ran and passed its output check", file=sys.stderr)
            return 1
        e2e, extras = end_to_end(passes, setup, probe)
        layers = per_layer(tracer, passes, scenes) if tracer else {}
        results = {"end_to_end": e2e, "data": extras, "per_layer": layers}
        if tracer:
            results["spans_file"] = f"{stem}-spans.csv"
            tracer.write_spans(OUT / results["spans_file"])
        write_report(OUT / f"{stem}.json", args, env, passes, **results)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {**declared["end_to_end"], **declared["per_layer"]}
    for name, value in {**e2e, **layers}.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name} = {value!r} {units[name]}{label}")
    for name, value in extras.items():
        print(f"{name} = {value!r} (data)")
    if tracer:
        steps = sum(layers[f"admm.{step}.s"] for step in STEPS)
        print(f"# admm steps {steps!r} s + admm.solve.self_s "
              f"{layers['admm.solve.self_s']!r} s = admm.solve.s {layers['admm.solve.s']!r} s")
    runs = [r for p in passes for r in p.runs]
    failed = sum(not r.ok for r in runs)
    values, kind = (layers, "per_layer") if args.trace else (e2e, "end_to_end")
    print(json.dumps(result_line(values, declared[kind], len(runs), failed)))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
