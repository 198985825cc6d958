"""Source-level checks on the package itself."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvprob"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_assert_statements(module):
    # `python -O` strips assert statements; invariant checks raise explicitly
    tree = ast.parse((PACKAGE / module).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} asserts at lines {lines}"


def test_golden_reports_hold_under_optimized_python():
    # `python -O` drops assert statements and `__debug__` blocks from the
    # library; pytest still rewrites the asserts of the test module itself
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_golden.py")],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_benchmark_function_metrics_name_library_functions():
    # a name that no longer resolves would make its per-layer metric read 0
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    (metrics,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "FUNCTION_METRICS" for t in node.targets)
    ]
    names = sorted({key for key, _ in ast.literal_eval(metrics)})
    assert names
    for name in names:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"mvprob.{module}"), function, None)), name


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{module} imports {unused} and never uses them"


TRUSTED_CONSTRUCTOR = "_trusted"  # core's unchecked Element builder


def _mentions(tree: ast.AST, name: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and name in (node.name, node.asname))
        or (isinstance(node, ast.Constant) and node.value == name)
    ]


def test_trusted_constructor_is_defined_in_core():
    tree = ast.parse((PACKAGE / "core.py").read_text())
    defined = [
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == TRUSTED_CONSTRUCTOR
    ]
    assert defined == [TRUSTED_CONSTRUCTOR]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "core.py")
)
def test_only_core_builds_unchecked_elements(module):
    # every Element made outside core.py goes through the payload check,
    # so nothing read from a document or argv can skip it
    lines = _mentions(ast.parse((PACKAGE / module).read_text()), TRUSTED_CONSTRUCTOR)
    assert lines == [], f"{module} uses {TRUSTED_CONSTRUCTOR} at lines {lines}"
