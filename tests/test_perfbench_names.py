"""The names the benchmark harness under perfbench/ calls or patches must exist.

perfbench/tracing.py wraps mdlab functions and methods by name, and the
workloads call module attributes directly; a deletion that breaks either
fails here rather than halfway through a benchmark run.  The harness files
are read, never edited.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os

import pytest

from mdlab import cli, families, groups, multipliers, schur

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


@pytest.mark.parametrize("filename", sorted(
    f for f in os.listdir(PERFBENCH) if f.endswith(".py")))
def test_harness_attribute_references_resolve(filename):
    with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
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
