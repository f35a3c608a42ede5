"""Run the `>>>` examples in the affweyl module docstrings."""

import doctest
import importlib
import pkgutil

import affweyl


def test_module_doctests_pass():
    names = [affweyl.__name__] + [
        info.name for info in pkgutil.iter_modules(affweyl.__path__, affweyl.__name__ + ".")
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 1
