"""Every name the package exports resolves: a stale ``__all__`` entry would
break ``from vannodes.<module> import *`` only when it runs."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vannodes

MODULES = sorted(m.name for m in pkgutil.iter_modules(vannodes.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"vannodes.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
    exec(f"from vannodes.{name} import *", {})


def test_every_name_the_package_imports_is_a_module_export():
    imports = [node for node in ast.parse(Path(vannodes.__file__).read_text()).body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"vannodes.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert hasattr(vannodes, alias.asname or alias.name), alias.name
