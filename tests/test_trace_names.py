"""Every function the benchmark's tracer wraps still exists.

``perfbench/run.py --trace 1`` installs ``tracing.Tracer``, which looks up
each ``(module, name, kind)`` of ``tracing.TRACED`` with ``getattr`` on
``steinperm.<module>``; a deleted or renamed name breaks the traced run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


@pytest.mark.parametrize(("module", "name", "kind"), TRACED, ids=[f"{m}.{n}" for m, n, _ in TRACED])
def test_traced_name_resolves(module, name, kind):
    target = getattr(importlib.import_module("steinperm." + module), name, None)
    assert callable(target), f"steinperm.{module}.{name} is gone"
    assert inspect.isgeneratorfunction(target) == (kind == "gen")
