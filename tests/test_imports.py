import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import dilatory

MODULES = ["dilatory"] + [f"dilatory.{m.name}" for m in pkgutil.iter_modules(dilatory.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert len(namespace) > 1


def test_traced_names_resolve():
    # bench/spans.py installs its wrappers with getattr, so a name that no
    # longer resolves would crash a traced benchmark run instead of a test;
    # the file is only loaded here, and no wrapper is installed
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"dilatory.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"dilatory.{layer}.{name}"
    for layer, cls_name, method in spans.TRACED_METHODS:
        cls = getattr(importlib.import_module(f"dilatory.{layer}"), cls_name)
        assert callable(cls.__dict__.get(method)), f"dilatory.{layer}.{cls_name}.{method}"
