"""The benchmark's wrap points all resolve in the package.

``perfbench/worker.py`` times the program by wrapping module attributes
from outside, and reports a point it cannot find as absent, with its
metrics at zero, rather than failing.  So a rename in ``src/`` could zero a
per-layer metric without anything failing; this test fails instead.  It
reads the worker's point tables and wraps nothing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
TABLES = ("RUN_POINTS", "SLOT_POINTS", "LAYER_POINTS", "RESPONDER_POINTS",
          "CASE_POINTS")


def _worker():
    # The worker imports its sibling modules by plain name.  Nothing is
    # written under perfbench/, not even a bytecode cache.
    sys.path.insert(0, str(BENCH))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                      BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up by name.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(BENCH))
    return module


WORKER = _worker()


@pytest.mark.parametrize("table", TABLES)
def test_every_wrap_point_resolves(table):
    points = getattr(WORKER, table)
    assert points
    absent = []
    for _name, module_name, attr in points:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            absent.append(f"{module_name}.{attr}")
    assert not absent, f"{table}: absent wrap points {absent}"
