"""The benchmark tracer patches package functions by name; each name must exist.

``bench/tracing.py`` installs its wrappers with ``setattr(module, name, ...)``
under the name each caller looks up. A renamed or deleted function would
only show when the benchmark runs, so this loads the tracer's table (and
nothing else from ``bench/``) and resolves every entry.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_table():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_, attr) for module_, attr, _, _ in module.TRACED]


TRACED = _traced_table()


@pytest.mark.parametrize("module, attr", TRACED,
                         ids=[f"{module.__name__}.{attr}" for module, attr in TRACED])
def test_traced_name_resolves_to_a_callable(module, attr):
    assert callable(getattr(module, attr, None))
