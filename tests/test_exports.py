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


def _unused_imports(source: str) -> list:
    """Names a module's imports bind that no other line of it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("name", MODULES)  # not __init__, which only re-exports
def test_no_module_imports_a_name_it_never_uses(name):
    path = Path(vannodes.__path__[0]) / f"{name}.py"
    assert _unused_imports(path.read_text()) == []
