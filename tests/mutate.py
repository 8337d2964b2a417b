"""Mutation testing of chosen functions of the package, run by hand.

    python tests/mutate.py [MODULE FUNCTION ...] [--tests TEST ...]

Each mutant is one small edit, made with ``ast`` to a temporary copy of the
repository's ``src/gbs``, ``tests``, ``pyproject.toml`` and the reference
that the tests load, ``perfbench/oracle.py``, inside the named functions of
``src/gbs/<MODULE>.py``:

- a comparison flipped to its negation (``<`` to ``>=``, ``==`` to ``!=``,
  ``is`` to ``is not``, ``in`` to ``not in``)
- ``+`` and ``-`` swapped, or ``//`` and ``%``
- an integer constant changed by +1 or -1
- a condition negated (``if``, ``while``, conditional expression,
  comprehension filter)
- a guard dropped: an ``if`` whose body ends in ``return`` or ``raise``

For each mutant the tests run with ``pytest -x``; a mutant that they pass
survives.  The script prints each survivor and the kill rate, and exits 1
when a mutant survives.  The defaults are the relation lattice's Hermite
basis in ``monoid`` and the three test modules that cover it (about 5 s a
mutant).  pytest does not collect this file: its name does not start with
``test_``.
"""
from __future__ import annotations

import argparse
import ast
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FLIP = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mod, ast.Mod: ast.FloorDiv}


def _guard(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.If) and isinstance(stmt.body[-1], (ast.Return, ast.Raise))


def _sites(tree: ast.Module, functions: set):
    """``(line, before, edit)`` for every mutant in the named functions, in
    an order fixed by the source: ``edit()`` applies the mutant to tree in
    place and returns the edited code."""
    for fn in ast.walk(tree):
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in functions):
            continue
        parent = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in FLIP:
                        def edit(node=node, i=i, op=op):
                            node.ops[i] = FLIP[type(op)]()
                            return ast.unparse(node)
                        yield node.lineno, ast.unparse(node), edit
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
                def edit(node=node):
                    node.op = SWAP[type(node.op)]()
                    return ast.unparse(node)
                yield node.lineno, ast.unparse(node), edit
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                # shown with its operator, or in its call when it is an argument
                shown = parent[node]
                if isinstance(shown, ast.UnaryOp):
                    shown = parent[shown]
                for step in (1, -1):
                    def edit(node=node, step=step, shown=shown):
                        node.value += step
                        return ast.unparse(shown)
                    yield node.lineno, ast.unparse(shown), edit
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                def edit(node=node):
                    node.test = ast.UnaryOp(ast.Not(), node.test)
                    return ast.unparse(node.test)
                yield node.lineno, ast.unparse(node.test), edit
            elif isinstance(node, ast.comprehension):
                for i, test in enumerate(node.ifs):
                    def edit(node=node, i=i, test=test):
                        node.ifs[i] = ast.UnaryOp(ast.Not(), test)
                        return ast.unparse(node.ifs[i])
                    yield test.lineno, ast.unparse(test), edit
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if not isinstance(block, list):
                    continue
                for i, stmt in enumerate(block):
                    if _guard(stmt):
                        def edit(block=block, i=i):
                            block[i] = ast.Pass()
                            return "pass"
                        yield stmt.lineno, f"if {ast.unparse(stmt.test)}: ...", edit


def _run_tests(top: Path, tests: list, timeout: float) -> bool:
    """Whether the tests pass in the copy at top; a run past the timeout
    fails."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=top, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", nargs="?", default="monoid")
    parser.add_argument("functions", nargs="*", default=["_lattice", "_settle", "_reduced", "in_lattice"])
    parser.add_argument("--tests", nargs="+", default=[
        "tests/test_lattice.py", "tests/test_monoid.py", "tests/test_growth.py",
    ])
    args = parser.parse_args(argv)
    source = (ROOT / "src" / "gbs" / f"{args.module}.py").read_text(encoding="utf-8")
    functions = set(args.functions)
    count = sum(1 for _ in _sites(ast.parse(source), functions))
    if not count:
        parser.error(f"no mutation site in {', '.join(sorted(functions))}")
    with tempfile.TemporaryDirectory(prefix="gbs-mutate-") as tmp:
        top = Path(tmp)
        shutil.copytree(ROOT / "src" / "gbs", top / "src" / "gbs")
        shutil.copytree(ROOT / "tests", top / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", top)
        (top / "perfbench").mkdir()
        shutil.copy(ROOT / "perfbench" / "oracle.py", top / "perfbench")
        target = top / "src" / "gbs" / f"{args.module}.py"
        # mutants are written back by ast.unparse, so the baseline is too
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        start = time.perf_counter()
        if not _run_tests(top, args.tests, 600):
            print("the tests fail on the unmutated copy", file=sys.stderr)
            return 2
        timeout = max(60.0, 10 * (time.perf_counter() - start))
        survivors = []
        for k in range(count):
            tree = ast.parse(source)
            line, before, edit = next(itertools.islice(_sites(tree, functions), k, None))
            after = edit()
            target.write_text(ast.unparse(tree), encoding="utf-8")
            killed = not _run_tests(top, args.tests, timeout)
            label = f"{args.module}.py:{line}: {before}  ->  {after}"
            print(f"{'killed ' if killed else 'SURVIVED'} {label}", flush=True)
            if not killed:
                survivors.append(label)
    print(f"\nkilled {count - len(survivors)} of {count} mutants "
          f"({100 * (count - len(survivors)) / count:.0f}%) in {args.module}: {', '.join(args.functions)}")
    for label in survivors:
        print(f"survivor: {label}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
