"""Spans around each layer's public functions, installed from outside ``src/``.

The package imports its helpers by name (``admm`` binds ``solve_sylvester``,
``svt`` and ``soft_threshold``; ``pipeline`` binds ``solve``,
``generate_scene``, the clustering and metric functions), so each wrapper is
installed under the name its caller looks up. Patching ``mbnrsfm.linalg``
alone would record nothing. The pipeline reaches file IO through the
``fileio`` module object, so those wrappers go on ``mbnrsfm.fileio``.

Spans (name, start, end, parent, scene) stay in memory; ``write_spans`` saves
them when the run ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import mbnrsfm.admm
import mbnrsfm.fileio
import mbnrsfm.pipeline


def _first_arg(args, kwargs):
    return args[0]


def _sylvester_sizes(args, kwargs):
    return args[0].shape[0], args[1].shape[0]


# (module, attribute, span name, detail extractor). Span names are
# "<layer>.<function>"; the layer is the module that defines the function.
TRACED = (
    (mbnrsfm.pipeline, "generate_scene", "synth.generate_scene", None),
    (mbnrsfm.pipeline, "build_neighbor_matrix", "scene.build_neighbor_matrix", None),
    (mbnrsfm.pipeline, "solve", "admm.solve", None),
    (mbnrsfm.pipeline, "build_affinity", "clustering.build_affinity", None),
    (mbnrsfm.pipeline, "spectral_cluster", "clustering.spectral_cluster", None),
    (mbnrsfm.pipeline, "reconstruction_error", "metrics.reconstruction_error", None),
    (mbnrsfm.pipeline, "reconstruction_error_whole", "metrics.reconstruction_error_whole", None),
    (mbnrsfm.pipeline, "reprojection_error", "metrics.reprojection_error", None),
    (mbnrsfm.pipeline, "segmentation_error", "metrics.segmentation_error", None),
    (mbnrsfm.admm, "pseudo_inverse_shapes", "admm.pseudo_inverse_shapes", None),
    (mbnrsfm.admm, "update_shapes", "admm.update_shapes", None),
    (mbnrsfm.admm, "update_lowrank", "admm.update_lowrank", None),
    (mbnrsfm.admm, "update_slack", "admm.update_slack", None),
    (mbnrsfm.admm, "update_coefficients", "admm.update_coefficients", None),
    (mbnrsfm.admm, "constraint_residuals", "admm.constraint_residuals", None),
    (mbnrsfm.admm, "objective_value", "admm.objective_value", None),
    (mbnrsfm.admm, "update_duals", "admm.update_duals", None),
    (mbnrsfm.admm, "solve_sylvester", "linalg.solve_sylvester", _sylvester_sizes),
    (mbnrsfm.admm, "svt", "linalg.svt", None),
    (mbnrsfm.admm, "soft_threshold", "linalg.soft_threshold", None),
    (mbnrsfm.fileio, "read_matrix", "fileio.read_matrix", _first_arg),
    (mbnrsfm.fileio, "read_labels", "fileio.read_labels", _first_arg),
    (mbnrsfm.fileio, "write_matrix", "fileio.write_matrix", _first_arg),
    (mbnrsfm.fileio, "write_labels", "fileio.write_labels", _first_arg),
    (mbnrsfm.fileio, "write_trace_csv", "fileio.write_trace_csv", _first_arg),
    (mbnrsfm.fileio, "write_metrics_csv", "fileio.write_metrics_csv", _first_arg),
    (mbnrsfm.fileio, "write_pointcloud_frames", "fileio.write_pointcloud_frames", _first_arg),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "scene", "detail")

    def __init__(self, name, start, parent, scene, detail):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.scene = scene
        self.detail = detail

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.scene = None
        self._stack: list[int] = []

    def wrap(self, name, fn, detail=None):
        """Return ``fn`` wrapped so that each call records a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            info = detail(args, kwargs) if detail is not None else None
            span = Span(name, perf_counter(), parent, self.scene, info)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every TRACED name for the duration of the block."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TRACED]
        try:
            for (module, attr, name, detail), (_, _, fn) in zip(TRACED, originals):
                setattr(module, attr, self.wrap(name, fn, detail))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def totals(self) -> dict:
        """Summed duration, self time, call count and details per span name."""
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "details": []})
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span.name]
            entry["s"] += span.duration
            entry["self_s"] += own
            entry["calls"] += 1
            if span.detail is not None:
                entry["details"].append(span.detail)
        return out

    def write_spans(self, path: Path) -> None:
        """Save every span as CSV: index, name, start, end, parent, scene."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "scene"])
            for i, span in enumerate(self.spans):
                writer.writerow([i, span.name, repr(span.start), repr(span.end),
                                 span.parent, span.scene])


@contextmanager
def solve_clock(durations: list):
    """Time each ``solve`` call the pipeline makes, and nothing else.

    The untraced passes need solve time for ``solve_ms_per_iter``; this one
    timer costs two clock reads per scene.
    """
    original = mbnrsfm.pipeline.solve

    @functools.wraps(original)
    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(perf_counter() - start)

    mbnrsfm.pipeline.solve = timed
    try:
        yield durations
    finally:
        mbnrsfm.pipeline.solve = original
