"""The examples in the module docstrings are part of the test suite."""

import doctest
import importlib

import pytest

MODULES = [
    "steinperm._sn",
    "steinperm.analysis",
    "steinperm.chain",
    "steinperm.cli",
    "steinperm.exact_dist",
    "steinperm.exchangeability",
    "steinperm.perm_core",
    "steinperm.stein_bounds",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
