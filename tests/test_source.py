"""Checks on the package source itself."""
import ast
import sys
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


def test_production_imports_are_stdlib_only():
    # every import counts in start-up time, and the package has no dependencies
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative ones stay in gbs
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "gbs" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno}: {module}")
    assert list(SRC.glob("*.py")) and not found, found


# all that the oracles may take from gbs.graphs: its data types and errors
GRAPH_TYPES = {"Edge", "GbsError", "GbsGraph", "GFactorization", "GraphError", "WordError"}


def _imports(path: Path):
    """``(line, module, names)`` for each import of the file, names None
    for a plain ``import``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or "", {alias.name for alias in node.names}


def test_oracles_share_no_code_with_the_fast_paths():
    # a cross-check is only worth something while the two sides are
    # independent.  The shared reference, perfbench/oracle.py, imports
    # nothing from gbs.  Besides the standard library, tests/oracles.py
    # imports only the data types and errors of gbs.graphs, never a
    # reducer, walk, word helper such as invert or concat, verifier or
    # verdict (nor gen, which imports gbs.freegroup).  The other way
    # round, the stdlib-only guard above already keeps src/gbs from
    # importing oracles or gen, which are not in the standard library.
    top = SRC.parent.parent
    reference = top / "perfbench" / "oracle.py"
    found = [f"oracle.py:{line}: {module}" for line, module, _ in _imports(reference)
             if module.split(".")[0] == "gbs"]
    for line, module, names in _imports(top / "tests" / "oracles.py"):
        if module.split(".")[0] in sys.stdlib_module_names:
            continue
        if module == "gbs.graphs" and names is not None and names <= GRAPH_TYPES:
            continue
        found.append(f"oracles.py:{line}: {module} {sorted(names or ())}")
    assert not found, found
