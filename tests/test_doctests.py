import doctest
import importlib
import pkgutil

import pytest

import redei

MODULES = sorted(
    f"redei.{info.name}" for info in pkgutil.iter_modules(redei.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
