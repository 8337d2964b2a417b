"""Checks on the package source itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gbs"


def test_no_assert_statements():
    # witness checks must survive python -O, which strips every assert
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")) and not found, found
