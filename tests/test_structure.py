"""Structural guards on the package layout.

* **One execution engine** — the sharded runner is the only place work
  units run in parallel, so ``experiments/runner.py`` is the only module
  under ``src/repro`` that touches ``ProcessPoolExecutor``.
* **Examples stay importable** — every ``examples/*.py`` script imports
  cleanly (``main()`` is not run), so removing an API they use breaks a
  test instead of a user.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def _uses_process_pool(path: pathlib.Path) -> bool:
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            alias.name.rpartition(".")[2] == "ProcessPoolExecutor"
            for alias in node.names
        ):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
            return True
    return False


def test_runner_is_the_only_process_pool():
    users = sorted(
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if _uses_process_pool(path)
    )
    assert users == ["experiments/runner.py"]


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
