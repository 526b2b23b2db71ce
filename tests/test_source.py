"""Checks on the package source itself."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "filterkit"


def test_package_has_no_assert_statements():
    # invariants raise exceptions: an assert vanishes under `python -O`
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 5
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
