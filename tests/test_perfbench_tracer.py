"""The benchmark's tracer wraps vannodes functions by name: every name it
lists must still exist, or a traced run (``perfbench/run.py --trace 1``)
breaks.  The tracer module is loaded from its file, unchanged."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_resolve():
    tracer = _load_tracer()
    names = tracer.SPANS + tracer.COUNTS
    assert names
    missing = []
    for name in names:
        module, *path = name.split(".")
        owner = importlib.import_module(f"vannodes.{module}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
