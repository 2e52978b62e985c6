"""The package namespace: public names resolve to their home modules, the
oracles stay out of it, every private helper is named somewhere in it, and
every public entry point that reads labels refuses malformed ones in its
own terms."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclictri
from cyclictri.baues import (Subdivision, cell_bottom, cell_top, make_subdivision,
                             validate_subdivision)
from cyclictri.simplices import facet_class
from cyclictri.triangulations import (ResourceBudgetError, Triangulation, Violation,
                                      apply_flip, bottom, make_triangulation, top,
                                      validate)
from cyclictri.verification import verify_connecting_set

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


N, D = 6, 2
# ints (0 and above N included), floats, strs, None, lists and nested tuples
LABELS = st.one_of(
    st.integers(0, N + 3), st.floats(), st.text(max_size=2), st.none(),
    st.lists(st.integers(1, N), max_size=2),
    st.tuples(st.integers(1, N), st.tuples(st.integers(1, N))))
MEMBERS = st.lists(LABELS, max_size=5).map(tuple)


def _entry_points(cells, member, as_generator):
    """(name, call, kind, read) for each public entry point that reads
    labels, read being the members whose labels it reads: kind "validator"
    returns None or a Violation, "checked" refuses every non-int label with
    ValueError, and "canonical" (Subdivision's constructors, which only
    sort) may keep a label that sorts."""
    def fresh():
        return (c for c in cells) if as_generator else list(cells)
    doc = json.dumps({"n": N, "d": D, "simplices": cells, "cells": cells})
    one = [member]
    return [
        ("validate", lambda: validate(fresh(), N, D), "validator", cells),
        ("Triangulation", lambda: Triangulation(N, D, fresh()), "checked", cells),
        ("Triangulation.from_json", lambda: Triangulation.from_json(doc), "checked", cells),
        ("make_triangulation", lambda: make_triangulation(fresh(), N, D), "checked", cells),
        ("apply_flip", lambda: apply_flip(bottom(N, D), member), "checked", one),
        ("facet_class", lambda: facet_class(member, range(1, N + 1), D), "checked", one),
        ("facet_class vertices", lambda: facet_class((1, 2), member, D), "checked", one),
        ("cell_bottom", lambda: cell_bottom(member, D), "checked", one),
        ("cell_top", lambda: cell_top(member, D), "checked", one),
        ("Subdivision", lambda: Subdivision(N, D, fresh()), "canonical", cells),
        ("Subdivision.from_json", lambda: Subdivision.from_json(doc), "canonical", cells),
        ("validate_subdivision", lambda: validate_subdivision(fresh(), N, D),
         "validator", cells),
        ("make_subdivision", lambda: make_subdivision(N, D, fresh()), "checked", cells),
        ("verify_connecting_set",
         lambda: verify_connecting_set(bottom(N, D), top(N, D), fresh()), "checked", cells),
    ]


@given(st.lists(MEMBERS, max_size=3), MEMBERS, st.booleans())
@example([(1, "a", 3)], (1, "a", 3, 4), False)
@example([(1, [2], 3)], (2, "a", 5), True)
@example([(1, 2.5, 3, 4)], (1, 2.5), False)
@example([(1, 2, 3, 4), (1, 4, 5)], (1, None), True)
@settings(max_examples=200, deadline=None)
def test_entry_points_refuse_malformed_labels_in_their_own_terms(cells, member, as_generator):
    # an entry point returns or raises ValueError or ResourceBudgetError,
    # never another error; a label that is not an int is refused, and what a
    # validating constructor returns validates
    for name, call, kind, read in _entry_points(cells, member, as_generator):
        try:
            got = call()
        except (ValueError, ResourceBudgetError) as e:
            got = e
        bad = any(not isinstance(v, int) for c in read for v in c)
        if kind == "validator":
            assert got is None or isinstance(got, Violation), name
            assert not bad or got is not None, name
        elif kind == "checked" and bad:
            assert isinstance(got, ValueError), name
        if name == "make_triangulation" and isinstance(got, Triangulation):
            assert validate(got, N, D) is None
        if name == "make_subdivision" and isinstance(got, Subdivision):
            assert validate_subdivision(got, N, D) is None
