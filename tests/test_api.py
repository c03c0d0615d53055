import importlib

import pytest

import quantocds

MODULES = ["cli", "grid", "model", "oracles", "pde", "pricing", "rbffd"]


def test_package_exports_resolve():
    missing = [name for name in quantocds.__all__ if not hasattr(quantocds, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"quantocds.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
