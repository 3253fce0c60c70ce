"""The package ships only code that its commands or the benchmark run.

Code that only tests call belongs in ``tests/oracles.py``, not in ``src/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions_and_uses():
    """Top-level function and class names of the package, and every name used.

    A use is any use as a Name or an Attribute in the package or the
    benchmark; an import alone does not count.
    """
    package = sorted((ROOT / "src" / "wxhier").rglob("*.py"))
    files = package + sorted((ROOT / "perfbench").glob("*.py"))
    defined, used = {}, set()
    for path in files:
        tree = ast.parse(path.read_bytes(), filename=str(path))
        if path in package:
            for node in tree.body:
                kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                if isinstance(node, kinds):
                    defined[node.name] = path.relative_to(ROOT).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined, "no definitions found"
    return defined, used


def test_every_public_definition_in_the_package_has_a_caller():
    defined, used = _definitions_and_uses()
    uncalled = {
        name: where for name, where in defined.items()
        if not name.startswith("_") and name not in used
    }
    assert not uncalled, f"defined in the package, called by nothing it ships: {uncalled}"


def test_every_private_definition_in_the_package_has_a_use():
    # a refactor that inlines a private helper's last caller deletes the helper too
    defined, used = _definitions_and_uses()
    unused = {
        name: where for name, where in defined.items()
        if name.startswith("_") and name not in used
    }
    assert any(name.startswith("_") for name in defined), "no private definitions found"
    assert not unused, f"private in the package, used by nothing it ships: {unused}"
