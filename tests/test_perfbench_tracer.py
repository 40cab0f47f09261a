"""The benchmark names vannodes functions: its tracer wraps them by name, and
each workload names its runner and the calls that open and close a cell.
Every name must still exist, or a run (``perfbench/run.py``) breaks.  The
benchmark's modules are loaded from their files, unchanged."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _unresolved(names) -> list:
    """The dotted ``module.attr[.attr]`` names that are not callables of vannodes."""
    missing = []
    for name in names:
        module, *path = name.split(".")
        owner = importlib.import_module(f"vannodes.{module}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    return missing


def test_traced_boundaries_resolve():
    tracer = _load("tracer")
    names = tracer.SPANS + tracer.COUNTS
    assert names
    assert _unresolved(names) == []


def test_workload_names_resolve():
    workloads = _load("workloads").WORKLOADS
    assert workloads
    names = [name for w in workloads.values() for name in (f"experiments.{w.runner}", w.cell_start, w.cell_end)]
    assert _unresolved(names) == []
