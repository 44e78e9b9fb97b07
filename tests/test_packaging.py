"""Packaging: every third-party module ``src/repro`` imports at import time
is a declared runtime dependency, so a plain ``pip install .`` (no
extras) gives an importable package."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_time_modules(tree: ast.Module):
    """Top-level names of the absolute imports that run when the module
    is imported: everything outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _runtime_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9._-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in project.get("dependencies", [])
    }


def test_import_time_third_party_modules_are_runtime_dependencies():
    third_party: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for module in _import_time_modules(ast.parse(path.read_text())):
            if module not in sys.stdlib_module_names and module != "repro":
                third_party.setdefault(module, []).append(str(path.relative_to(ROOT)))
    # The scan must see the numerical stack, or it is scanning nothing.
    assert {"numpy", "scipy"} <= set(third_party)
    declared = _runtime_dependencies()
    undeclared = {
        module: files
        for module, files in third_party.items()
        if module.lower() not in declared
    }
    assert not undeclared, (
        f"imported at module level but not in [project].dependencies: {undeclared}"
    )


def test_package_version_matches_pyproject():
    import repro

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == repro.__version__
