"""The library names and call shapes the frozen benchmark in perfbench/ uses.

perfbench/ is never edited alongside the library, so a rename or a dropped
parameter would only surface when the benchmark runs; these tests catch it
in the ordinary test run.  The tracer module is loaded from its file as it
stands.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from hypercones import autgroup, cones, spectrum, suite

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load_tracer().TRACED, ids=lambda e: ".".join(e[1:]))
def test_traced_name_resolves(entry):
    _, module_name, path = entry
    target = importlib.import_module(f"hypercones.{module_name}")
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)


X = object()  # stands for any argument: binding checks only the shape

CALL_SHAPES = [
    (cones.contains_by_inequalities, (X, X, X, X), {}),
    (spectrum.rank_exact, (X, X), {"sturm_verify": True}),
    (spectrum.batch_eigenvalues, (X, X), {}),
    (spectrum.eigenvalues, (X, X), {}),
    (autgroup.check_deriv_automorphism, (X, X, X), {}),
    (autgroup.lm_linear_map, (X, X), {}),
    (suite.run_suite, (X,), {"name_filter": X}),
    (suite.check_names, (), {}),
    (cones.cone_view, (X,), {}),
]


@pytest.mark.parametrize(
    "fn, args, kwargs", CALL_SHAPES, ids=[fn.__name__ for fn, _, _ in CALL_SHAPES]
)
def test_frozen_call_shape_binds(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)
