"""The examples in the package docstrings run and give what they show."""

import doctest
import importlib
import pkgutil

import vfcoho


def test_every_module_docstring_example_holds():
    failed = attempted = 0
    for info in pkgutil.iter_modules(vfcoho.__path__):
        result = doctest.testmod(importlib.import_module(f"vfcoho.{info.name}"))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 6
