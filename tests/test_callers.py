"""The package ships only code that its commands or the benchmark run.

Code that only tests call belongs in ``tests/oracles.py``, not in ``src/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_definition_in_the_package_has_a_caller():
    # a caller is any use as a Name or an Attribute in the package or the
    # benchmark; an import alone does not count
    package = sorted((ROOT / "src" / "wxhier").rglob("*.py"))
    files = package + sorted((ROOT / "perfbench").glob("*.py"))
    defined, used = {}, set()
    for path in files:
        tree = ast.parse(path.read_bytes(), filename=str(path))
        if path in package:
            for node in tree.body:
                kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                if isinstance(node, kinds) and not node.name.startswith("_"):
                    defined[node.name] = path.relative_to(ROOT).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined, "no definitions found"
    uncalled = {name: where for name, where in defined.items() if name not in used}
    assert not uncalled, f"defined in the package, called by nothing it ships: {uncalled}"
