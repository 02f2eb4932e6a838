"""The names the traced benchmark wraps must exist in the package.

``benchmarks/spans.py`` replaces public functions with timing wrappers where
the calling modules look them up.  A rename or move there would only show as
a failed benchmark run, so this checks the names against the package.
"""

import importlib
import inspect
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("spans")


def test_traced_names_exist_where_spans_looks_them_up(spans):
    for name, attr, modules in spans.LAYERS:
        for module in modules:
            fn = getattr(importlib.import_module(f"wallcurve.{module}"), attr, None)
            assert callable(fn), f"{name}: wallcurve.{module}.{attr} is missing"
            if name.endswith("."):
                assert "estimator" in inspect.signature(fn).parameters, name
    assert callable(importlib.import_module("wallcurve.oracle").joint_density)
