"""Smoke runs of the experiment scripts: each must import from the
top-level `pathfield` package and finish a tiny fit without error. Also
checks that every exported name exists."""
import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_desk_fit.py", "--objects", "1", "--epochs", "2"],
        ["scripts/compare_activations.py", "--epochs", "2"],
    ],
)
def test_script_runs(argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=checkout_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


SUBMODULES = sorted(p.stem for p in (ROOT / "src" / "pathfield").glob("*.py") if not p.stem.startswith("_"))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_names_exist(name):
    module = importlib.import_module(f"pathfield.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from pathfield.{name} import *", namespace)


def test_package_imports_exist():
    import pathfield

    tree = ast.parse((ROOT / "src" / "pathfield" / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(pathfield, n)] == []
