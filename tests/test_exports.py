import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("module", ["mpisentinel", "mpisentinel.gnn"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_name_the_benchmark_wraps_resolves():
    """The perfbench tracer replaces each WRAP_POINTS entry in place, so a
    renamed or deleted one would otherwise fail only the traced bench run.
    The tracer is run from its source, which writes nothing next to it."""
    points = runpy.run_path(str(TRACER))["WRAP_POINTS"]
    missing = []
    for module_name, path, _, _ in points:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert points
    assert missing == []
