"""The library exports no function, class or parameter that only tests use.

Every public module-level def and class in src/pericatalan must be named
somewhere in src/, scripts/ or perfbench/ outside its own definition.

Every public method or property of a public class (dunders are exempt)
must be read as an attribute somewhere in src/, scripts/ or perfbench/
outside its own body.  Attributes are matched by name alone, so a read
of another attribute of the same name counts too.

Every parameter with a default of a public function, or of a public
method of a public class, must be passed by some call of that name in
src/, scripts/ or perfbench/: by position, by keyword, or through * or
**.  Calls are matched by name alone, so a call of another function of
the same name counts too.

pericatalan/__init__.py imports nothing, so `import pericatalan` loads
no submodule, and the exact routes (enumeration, euclid, freewords) load
no numpy, neither on import nor when they run.
"""

import ast
import os
import subprocess
import sys

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
    for path in _sources(os.path.join("src", "pericatalan"), "scripts", "perfbench"):
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


def _public_methods():
    # (path, class, method) of every public method or property of a public class
    for path in _sources(os.path.join("src", "pericatalan")):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                        yield os.path.relpath(path, ROOT), node.name, f.name


def _attribute_reads():
    # (attribute name, (path, class, method) of the method of a
    # module-level class whose body reads it, or None elsewhere)
    for path in _sources(os.path.join("src", "pericatalan"), "scripts", "perfbench"):
        rel = os.path.relpath(path, ROOT)
        for node in _parse(path).body:
            owned = set()
            if isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        for sub in ast.walk(f):
                            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                                owned.add(id(sub))
                                yield sub.attr, (rel, node.name, f.name)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load) and id(sub) not in owned:
                    yield sub.attr, None


def test_every_public_method_has_a_non_test_caller():
    reads = set(_attribute_reads())
    unused = [f"{path}: {cls}.{name}" for path, cls, name in _public_methods()
              if not any(attr == name and owner != (path, cls, name) for attr, owner in reads)]
    assert not unused, "public methods and properties that only tests read:\n" + "\n".join(unused)


def _call_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _public_functions():
    # (path, def, bound): module-level functions, and the methods of
    # module-level classes, whose first parameter (self) a call does not pass
    for path in _sources(os.path.join("src", "pericatalan")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef):
                yield path, node, 0
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from ((path, f, 1) for f in node.body if isinstance(f, ast.FunctionDef))


def _defaulted_parameters():
    # (path, function, parameter, position among a call's arguments, or
    # None for a keyword-only parameter)
    for path, f, bound in _public_functions():
        if f.name.startswith("_"):
            continue
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        for i in range(first, len(positional)):
            yield os.path.relpath(path, ROOT), f.name, positional[i].arg, i - bound
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield os.path.relpath(path, ROOT), f.name, arg.arg, None


def _passes(call, parameter, position):
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_has_a_non_test_caller():
    calls = {}
    for path in _sources(os.path.join("src", "pericatalan"), "scripts", "perfbench"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    unused = [f"{path}: {name}({parameter})" for path, name, parameter, position in _defaulted_parameters()
              if not any(_passes(call, parameter, position) for call in calls.get(name, []))]
    assert not unused, "parameters that only tests pass:\n" + "\n".join(unused)


def test_package_init_imports_nothing():
    # every name is imported from the module that defines it
    tree = _parse(os.path.join(PACKAGE, "__init__.py"))
    imports = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, "pericatalan/__init__.py imports:\n" + "\n".join(imports)


def test_import_boundary_in_a_fresh_interpreter():
    code = ("import sys\n"
            "import tempfile\n"
            "import pericatalan\n"
            "print(sorted(m for m in sys.modules if m.startswith('pericatalan.') or m == 'numpy'))\n"
            "from pericatalan import enumeration, euclid, freewords\n"
            "print('numpy' in sys.modules)\n"
            "with tempfile.TemporaryDirectory() as d:\n"
            "    enumeration.build_table(2, 6, d)\n"  # a save
            "    enumeration.build_table(2, 8, d)\n"  # a load and an extend
            "freewords.count_reduced(2, 4)\n"
            "enumeration.aux_bivariate(2, 2, 2)\n"
            "euclid.euclid_trace(10, 4)\n"
            "freewords.parse_word('(a*b)', 2)\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "[]\nFalse\nFalse\n", (proc.stdout, proc.stderr)
