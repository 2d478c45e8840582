import pkgutil

import pytest

import dilatory

MODULES = ["dilatory"] + [f"dilatory.{m.name}" for m in pkgutil.iter_modules(dilatory.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert len(namespace) > 1
