"""Every module-level import in ``gpdlab`` is read in its module, every
module-level private name is read somewhere in the package, and every
method or property of a ``gpdlab`` class is read somewhere in the
package, the tests or the benchmark.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.  Dunder methods are exempt from the method check:
Python calls them.
"""

import ast
from pathlib import Path

import pytest

import gpdlab

SOURCES = sorted(Path(gpdlab.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parent.parent
READERS = SOURCES + sorted(ROOT.glob("tests/**/*.py")) + sorted(ROOT.glob("perfbench/**/*.py"))


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def private_definitions(tree: ast.Module) -> dict:
    """Module-level ``_name`` functions, classes and constants -> line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update((n.id, node.lineno) for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name: line for name, line in defined.items() if name.startswith("_") and not name.startswith("__")}


def package_reads() -> set:
    """Every name the package reads: loaded names, attributes and imported names."""
    read = set()
    for path in SOURCES:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    defined = private_definitions(ast.parse(path.read_text(encoding="utf-8")))
    read = package_reads()
    assert sorted((line, name) for name, line in defined.items() if name not in read) == []


def methods(tree: ast.Module) -> dict:
    """``Class.method`` -> line for the functions defined in a class body, dunders left out."""
    defined = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        node.name.startswith("__") and node.name.endswith("__")):
                    defined[f"{cls.name}.{node.name}"] = node.lineno
    return defined


def attribute_reads(paths) -> set:
    """Attributes and names loaded, and each part of a dotted string constant
    (a benchmark names what it wraps as ``"GluingAtlas.check"``)."""
    read = set()
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and "." in n.value:
                parts = n.value.split(".")
                if all(part.isidentifier() for part in parts):
                    read.update(parts)
    return read


def test_every_method_is_read():
    assert ROOT.joinpath("perfbench").is_dir()
    read = attribute_reads(READERS)
    unread = [(path.name, line, name) for path in SOURCES
              for name, line in methods(ast.parse(path.read_text(encoding="utf-8"))).items()
              if name.split(".")[1] not in read]
    assert sorted(unread) == []
