"""The names the benchmark harness under perfbench/ calls or patches must exist.

perfbench/tracing.py wraps mdlab functions and methods by name, and the
workloads call module attributes directly; a deletion that breaks either
fails here rather than halfway through a benchmark run.  So does a keyword
argument the harness passes that the called function no longer takes.  The
harness files are read, never edited.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import os

import pytest

from mdlab import cli, config, families, groups, multipliers, schur

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
MODULES = {m.__name__.rsplit(".", 1)[1]: m
           for m in (cli, families, groups, multipliers, schur)}


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    assert tracing.FUNCTIONS and tracing.METHODS and tracing.COUNTED
    for owner, attr, *_ in tracing.FUNCTIONS + tracing.METHODS + tracing.COUNTED:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    assert callable(multipliers.md_upper_from_certificate)


@pytest.mark.parametrize("name", ["config", "groups", "schur", "multipliers",
                                  "families", "cli"])
def test_all_entries_resolve(name):
    module = importlib.import_module(f"mdlab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


HARNESS_FILES = sorted(f for f in os.listdir(PERFBENCH) if f.endswith(".py"))


def _harness_tree(filename):
    with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
        return ast.parse(fh.read())


@pytest.mark.parametrize("filename", HARNESS_FILES)
def test_harness_attribute_references_resolve(filename):
    tree = _harness_tree(filename)
    missing = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES
                and not hasattr(MODULES[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mdlab."):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
    assert not missing


def _methods_by_name() -> dict:
    """Method name -> the mdlab classes that define it."""
    out: dict = {}
    for module in (cli, config, families, groups, multipliers, schur):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for name, v in vars(cls).items():
                    if inspect.isfunction(v) or isinstance(v, (staticmethod, classmethod)):
                        out.setdefault(name, []).append(cls)
    return out


def _keyword_calls(tree, methods):
    """(label, callee, keyword) for each keyword the file passes to mdlab: to
    a module attribute (groups.build_ball), to a name imported from mdlab or
    an attribute of one (Multiplier.finite), or to a method only one mdlab
    class defines (.point)."""
    imported, foreign = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mdlab."):
            module = importlib.import_module(node.module)
            imported.update({a.asname or a.name: getattr(module, a.name) for a in node.names})
        elif isinstance(node, ast.Import):
            foreign.update((a.asname or a.name).split(".")[0] for a in node.names)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in imported:
            label, callee = f.id, imported[f.id]
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in MODULES:
            label, callee = f"{f.value.id}.{f.attr}", getattr(MODULES[f.value.id], f.attr)
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in imported:
            label, callee = f"{f.value.id}.{f.attr}", getattr(imported[f.value.id], f.attr)
        elif (isinstance(f, ast.Attribute) and len(methods.get(f.attr, ())) == 1
              and not (isinstance(f.value, ast.Name) and f.value.id in foreign)):
            cls = methods[f.attr][0]
            label, callee = f"{cls.__name__}.{f.attr}", getattr(cls, f.attr)
        else:
            continue
        for kw in node.keywords:
            if kw.arg is not None:
                yield label, callee, kw.arg


def test_harness_keyword_arguments_are_accepted():
    methods = _methods_by_name()
    seen, missing = set(), []
    for filename in HARNESS_FILES:
        for label, callee, keyword in _keyword_calls(_harness_tree(filename), methods):
            params = inspect.signature(callee).parameters
            if keyword not in params and not any(
                    p.kind is p.VAR_KEYWORD for p in params.values()):
                missing.append(f"{filename}: {label}({keyword}=...)")
            seen.add((label, keyword))
    assert not missing
    # one of each kind of call is resolved
    assert {("groups.build_ball", "cap"), ("Multiplier.finite", "name"),
            ("TreeFamily.point", "check")} <= seen
