"""Imports a module keeps without using them are the ones perfbench rebinds.

``perfbench/spans.py`` traces a helper by rebinding its name in the
module that looks it up (``TRACE_POINTS``, plus ``greedy_replace`` in
every ``GREEDY_CONSUMERS`` module). A module that no longer calls such a
helper still imports it, so that the rebinding finds it. These tests
keep those imports and the tracer's list equal: an import kept for the
tracer must be named there, and one it no longer needs fails here. Every
name the tracer rebinds must stay a module attribute: imported, or
defined in the module. The operators defined in ``battleopt.mbgo`` and
``battleopt.embgo`` need not be called there: the windowed member sweep
builds candidates by their expressions, so their spans read no calls.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans_for_import_check", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rebound_names(spans, module: str) -> set:
    names = {attr for owner, attr, _ in spans.TRACE_POINTS if owner == module}
    if module in spans.GREEDY_CONSUMERS:
        names.add("greedy_replace")
    return names


def imported_and_referenced(source: str) -> tuple:
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported, referenced


def defined_at_top(source: str) -> set:
    return {
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


@pytest.mark.parametrize("name", ["mbgo", "embgo", "baselines"])
def test_unreferenced_imports_are_the_names_the_tracer_rebinds(name):
    source = (ROOT / "src" / "battleopt" / f"{name}.py").read_text(encoding="utf-8")
    imported, referenced = imported_and_referenced(source)
    rebound = rebound_names(load_spans(), f"battleopt.{name}")
    # a module attribute: imported, or defined in the module
    assert rebound <= imported | defined_at_top(source)
    assert imported - referenced == (rebound & imported) - referenced


def test_the_check_sees_an_unused_import_and_a_missing_one():
    imported, referenced = imported_and_referenced(
        "import math\nfrom .core import clamp, best_worst\nclamp(x, b)\n"
    )
    assert imported - referenced == {"math", "best_worst"}
    assert "clamp" in referenced and "x" in referenced
    assert defined_at_top("import math\ndef f():\n    def g(): pass\nclass C: pass\n") == {"f", "C"}
