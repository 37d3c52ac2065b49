"""No contract in the library or in scripts/ rests on `assert`, which
`python -O` strips, or on raising Python's recursion limit, no
`SolverConfig` field goes unread, no module or script imports a name it
never reads or takes a parameter it never reads, and every name the
package exports is read outside the tests.

There is no `assert` exception: the push-relabel debug oracle
`_assert_invariants` raises `SolverInvariantError` too, so its checks
survive `-O`.
"""
import ast
import dataclasses
from pathlib import Path

import hierflow
from hierflow.config import SolverConfig

ROOT = Path(__file__).resolve().parent.parent


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _offences(tree):
    """Line numbers of `assert` and `raise AssertionError` anywhere."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert) or (
        isinstance(node, ast.Raise) and _raises_assertion_error(node)))


def test_checker_finds_both_forms_in_any_function():
    src = ("def f(x):\n"
           "    assert x\n"
           "    raise AssertionError('no')\n"
           "def _assert_invariants(x):\n"
           "    assert x\n")
    assert _offences(ast.parse(src)) == [2, 3, 5]


def test_library_has_no_assert_based_contracts():
    modules = sorted(Path(hierflow.__file__).parent.glob("*.py"))
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert modules and scripts
    modules += scripts
    bad = [f"{path.name}:{line}" for path in modules
           for line in _offences(ast.parse(path.read_text(), str(path)))]
    assert bad == []


def _recursion_limit_calls(tree):
    """Line numbers of calls to any `setrecursionlimit`."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        getattr(node.func, "attr", None) == "setrecursionlimit"
        or getattr(node.func, "id", None) == "setrecursionlimit")]


def test_library_never_raises_the_recursion_limit():
    assert _recursion_limit_calls(ast.parse("import sys\nsys.setrecursionlimit(9)\n")) == [2]
    bad = [f"{path.name}:{line}"
           for path in sorted(Path(hierflow.__file__).parent.glob("*.py"))
           for line in _recursion_limit_calls(ast.parse(path.read_text(), str(path)))]
    assert bad == []


def _config_fields():
    """Names of the SolverConfig fields, read from config.py's source."""
    tree = ast.parse((Path(hierflow.__file__).parent / "config.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "SolverConfig")
    return [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]


def test_config_field_list_matches_the_dataclass():
    assert _config_fields() == [f.name for f in dataclasses.fields(SolverConfig)]


def test_every_config_field_is_read_outside_config():
    """No config knob that no code path reaches."""
    read = set()
    for path in Path(hierflow.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert [name for name in _config_fields() if name not in read] == []


def _unread_imports(tree):
    """Names a module imports but never reads, `from __future__` aside."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported if name not in read]


def test_import_checker_finds_unread_names():
    src = ("from __future__ import annotations\n"
           "import os.path, sys as system\n"
           "from typing import List, Optional\n"
           "def f(x: List[int]):\n"
           "    return os.path.join(*x)\n")
    assert _unread_imports(ast.parse(src)) == [("system", 2), ("Optional", 3)]


def test_library_imports_only_names_it_reads():
    """`__init__.py` is exempt: its imports are the package's re-exports."""
    unread = [f"{path.name}:{line} {name}"
              for path in sorted(Path(hierflow.__file__).parent.glob("*.py"))
              if path.name != "__init__.py"
              for name, line in _unread_imports(ast.parse(path.read_text(), str(path)))]
    assert unread == []


def test_scripts_import_only_names_they_read():
    unread = [f"{path.name}:{line} {name}"
              for path in sorted((ROOT / "scripts").glob("*.py"))
              for name, line in _unread_imports(ast.parse(path.read_text(), str(path)))]
    assert unread == []


def _unread_params(tree):
    """(function, parameter, line) of each parameter of a def or lambda
    that its body never loads.  Names starting with `_` are exempt, and
    so are `self` and `cls`, which `super()` reads without naming them."""
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        unread += [(name, p.arg, fn.lineno) for p in params
                   if p.arg not in read and p.arg not in ("self", "cls")
                   and not p.arg.startswith("_")]
    return unread


def test_parameter_checker_finds_unread_parameters():
    src = ("def f(a, b=1, *rest, c, _d, **kw):\n"
           "    def g(x):\n"
           "        return a + c\n"
           "    return lambda y, z: z + g\n")
    assert _unread_params(ast.parse(src)) == [
        ("f", "b", 1), ("f", "rest", 1), ("f", "kw", 1), ("g", "x", 2), ("<lambda>", "y", 4)]


def test_every_parameter_is_read():
    """A parameter no body reads is a value every caller computes for nothing."""
    paths = sorted(Path(hierflow.__file__).parent.glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py"))
    unread = [f"{path.name}:{line} {fn}({param})" for path in paths
              for fn, param, line in _unread_params(ast.parse(path.read_text(), str(path)))]
    assert unread == []


def _loads(tree):
    """Names a module reads: loaded names and loaded attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_exported_name_is_read_outside_the_tests():
    """Read by a library module other than `__init__.py`, a script or the
    benchmark; a name only the tests read is no longer the package's."""
    modules = [path for path in Path(hierflow.__file__).parent.glob("*.py")
               if path.name != "__init__.py"]
    modules += list((ROOT / "scripts").glob("*.py")) + list((ROOT / "benchmark").glob("*.py"))
    read = set()
    for path in modules:
        read |= _loads(ast.parse(path.read_text(), str(path)))
    assert [name for name in hierflow.__all__ if name not in read] == []
