"""Every name the package exports resolves: a stale ``__all__`` entry would
break ``from vannodes.<module> import *`` only when it runs."""

import ast
import builtins
import importlib
import pkgutil
import symtable
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


def _names_read(source: str) -> set:
    """Every name a module reads as a Name, an Attribute or an import alias."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_export_is_read_somewhere_in_the_package():
    # An export nothing of the package reads is dead code; a re-export in
    # the package __init__ counts as a read.
    read = set().union(*(_names_read(p.read_text()) for p in Path(vannodes.__path__[0]).glob("*.py")))
    unread = {
        f"{name}.{n}" for name in MODULES for n in getattr(importlib.import_module(f"vannodes.{name}"), "__all__", []) if n not in read
    }
    assert sorted(unread) == []


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


def _unbound_globals(source: str) -> list:
    """Global names a module's code reads that neither the module nor a
    ``global`` statement of it binds, and that are not builtins or
    ``__file__``: each raises NameError when the line reading it runs."""
    top = symtable.symtable(source, "<module>", "exec")
    bound, read = set(), set()

    def visit(table):
        for s in table.get_symbols():
            if table is top or s.is_global():
                if s.is_assigned() or s.is_imported():
                    bound.add(s.get_name())
                if s.is_referenced():
                    read.add(s.get_name())
        for child in table.get_children():
            visit(child)

    visit(top)
    return sorted(read - bound - set(dir(builtins)) - {"__file__"})


SOURCES = sorted(Path(vannodes.__path__[0]).glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_reads_a_global_it_never_binds(path):
    assert _unbound_globals(path.read_text()) == []
    assert _unbound_globals("def f():\n    return opt\n") == ["opt"]  # the walk does see one


def _calls(source: str):
    """(qualified name of the enclosing function, name called, call node)
    of each call in a module; the name called is a bare name's or an
    attribute's."""

    def visit(node, scope: list):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                yield ".".join(scope), getattr(child.func, "id", getattr(child.func, "attr", None)), child
            yield from visit(child, scope)

    return visit(ast.parse(source), [])


def _writing_opens(source: str) -> list:
    """Qualified names of the functions of a module that call ``open`` with
    a mode that may write (a mode that is not a literal counts as one)."""
    found = []
    for scope, name, call in _calls(source):
        if name == "open" and isinstance(call.func, ast.Name):
            modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
            if not all(isinstance(m, ast.Constant) and set(m.value).isdisjoint("wax+") for m in modes):
                found.append(scope)
    return found


# The only code that opens a file to write: the one writer of result files,
# the run store's row append, the MNIST download (a dataset, not a result),
# and a forked worker's pipe back to its parent (not a file).
WRITERS = {"experiments._write", "experiments.RunStore.add", "data.fetch_mnist", "cpus._forked"}


def test_only_the_writers_open_a_file_to_write():
    found = {
        f"{name}.{scope}"
        for name in MODULES
        for scope in _writing_opens((Path(vannodes.__path__[0]) / f"{name}.py").read_text())
    }
    assert sorted(found - WRITERS) == []
    assert "experiments._write" in found  # the walk does see a writer


def test_one_loop_steps_the_layers():
    # Built, stacked and streamed networks are all stepped by network._layers:
    # no other function of the package makes a layer step.
    found = [
        f"{name}.{scope}"
        for name in MODULES
        for scope, called, _ in _calls((Path(vannodes.__path__[0]) / f"{name}.py").read_text())
        if called == "_layer_step"
    ]
    assert found == ["network._layers"]
    assert [c[:2] for c in _calls("def f(x):\n    return m._layer_step(x)")] == [("f", "_layer_step")]


THREADS = {"threading", "Thread", "concurrent", "ThreadPoolExecutor"}


def _cpu_code(source: str) -> set:
    """The process and thread names a module reads or imports, also as the
    module of a ``from`` import: ``os.fork``, ``os.sched_getaffinity``, any
    thread module or class (``THREADS``), ``one_blas_thread`` (a BLAS pin
    outside ``fan_out``) and any OpenBLAS symbol (its thread getter and
    setter)."""
    cpu_names = {"fork", "sched_getaffinity", "one_blas_thread"} | THREADS
    modules = {n for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom) for n in (node.module or "").split(".")}
    return {n for n in _names_read(source) | modules if n in cpu_names or "openblas" in n.lower()}


def test_only_cpus_forks_or_sets_blas_threads_and_no_module_starts_a_thread():
    # Another CPU is reached only by cpus.fan_out's forked children: no
    # module, cpus included, imports or reads a thread module or class.
    found = {name: _cpu_code((Path(vannodes.__path__[0]) / f"{name}.py").read_text()) for name in MODULES}
    assert {name: names for name, names in found.items() if names and name != "cpus"} == {}
    assert {"fork", "sched_getaffinity", "one_blas_thread"} < found["cpus"]  # the walk does see them
    assert found["cpus"].isdisjoint(THREADS)
    assert _cpu_code("from concurrent.futures import ThreadPoolExecutor\nfrom threading import Thread") == THREADS
