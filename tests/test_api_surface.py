"""The library exports no function or class that only tests call.

Every public module-level def and class in src/pericatalan must be named
somewhere in src/, scripts/ or perfbench/ outside its own definition.
The re-export in pericatalan/__init__.py does not count.  This reads
names only: it cannot see methods, attributes or properties.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src", "pericatalan")


def _sources(*dirs):
    for d in dirs:
        for dirpath, _, files in os.walk(os.path.join(ROOT, d)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _names(node):
    # identifiers read under node: bare names and attribute names
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _public_definitions():
    for path in _sources(os.path.join("src", "pericatalan")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield os.path.relpath(path, ROOT), node.name


def _references():
    # every name read outside the top-level definition of that name
    uses = set()
    init = os.path.join(PACKAGE, "__init__.py")
    for path in _sources(os.path.join("src", "pericatalan"), "scripts", "perfbench"):
        if os.path.samefile(path, init):
            continue
        for node in _parse(path).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for name in _names(node):
                if name != own:
                    uses.add(name)
    return uses


def test_every_public_definition_has_a_non_test_caller():
    uses = _references()
    unused = [f"{path}: {name}" for path, name in _public_definitions() if name not in uses]
    assert not unused, "public API that only tests use:\n" + "\n".join(unused)
