"""The names the benchmark tracer wraps by string still exist in finfree.

perfbench/tracer.py looks functions up with getattr when a traced run
starts, so a renamed or deleted name would only fail there. It imports
only the standard library and is loaded here by file path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from finfree.polynomials import MonicPoly

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module_name", sorted(tracer.FUNCTIONS))
def test_traced_functions_exist(module_name):
    module = importlib.import_module(f"finfree.{module_name}")
    for name in tracer.FUNCTIONS[module_name]:
        if name in tracer.METHODS:
            continue
        assert callable(getattr(module, name, None)), f"finfree.{module_name}.{name}"


def test_traced_methods_exist():
    for name in tracer.METHODS:
        assert name in vars(MonicPoly), f"MonicPoly.{name}"


@pytest.mark.parametrize("cache_name", sorted(tracer.CACHES))
def test_traced_caches_report_stats(cache_name):
    module_name, attr = tracer.CACHES[cache_name]
    module = importlib.import_module(f"finfree.{module_name}")
    assert callable(getattr(getattr(module, attr), "cache_info", None)), cache_name
