"""The package namespace: public names resolve to their home modules, the
oracles stay out of it, and every private helper is named somewhere in it."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import cyclictri

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_public_names_are_their_home_modules_objects():
    names = [name for name in cyclictri.__all__ if name != "__version__"]
    assert sorted(cyclictri._HOME) == sorted(names)
    for name in names:
        home = importlib.import_module("cyclictri." + cyclictri._HOME[name])
        assert getattr(cyclictri, name) is getattr(home, name), name
    assert cyclictri.homology is cyclictri.topology.homology
    assert cyclictri.ResourceBudgetError is cyclictri.triangulations.ResourceBudgetError
    assert cyclictri.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cyclictri import *", namespace)
    assert set(cyclictri.__all__) <= set(namespace)
    assert namespace["build_s2"] is cyclictri.posets.build_s2


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cyclictri.no_such_name
    with pytest.raises(ImportError):
        exec("from cyclictri import no_such_name", {})
    assert set(cyclictri.__all__) <= set(dir(cyclictri))


def test_oracles_are_not_registered_but_import():
    code = ("import sys, cyclictri; "
            "print('cyclictri.oracles' in sys.modules, hasattr(cyclictri, 'oracles')); "
            "import cyclictri.oracles; "
            "print(cyclictri.oracles.brute_force_triangulations.__module__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\ncyclictri.oracles\n"


def test_every_private_helper_is_referenced():
    # a private function, method or class no code of the package names is dead
    defined, named = {}, set()
    package = os.path.join(SRC, "cyclictri")
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(package, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = "%s:%d" % (fname, node.lineno)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert defined
    assert {name: at for name, at in defined.items() if name not in named} == {}


def test_only_triangulations_reads_table_rows():
    # the row tuple of a table simplex has one reader, triangulations, so its
    # layout can change in one module; the oracles, reference code the tests
    # check against, are not held to it
    calls = []
    package = os.path.join(SRC, "cyclictri")
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py") or fname in ("triangulations.py", "oracles.py"):
            continue
        with open(os.path.join(package, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        calls += ["%s:%d" % (fname, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "row"]
    assert calls == []
