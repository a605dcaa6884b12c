"""Count the `crnsim` statements that the benchmark's workloads never run.

Runs the core units of each workload in `bench/workloads.py` with
`workers=1`, so that every (run, policy) cell runs in this process, under
a `sys.settrace` line trace that starts before `crnsim` is imported. It
then prints each statement of the package that no line of the trace
reached, and last the count of never-run statements out of all of them.

A statement is an AST statement node other than a docstring (a string
constant that opens a module, class or function body). A compound
statement (`if`, `for`, `def`, ...) is its header: the lines from its
first decorator or keyword down to its body, whose statements count on
their own. A simple statement is all its lines. A statement ran when a
line event fell on one of those lines.

Run from the repository root, with the package on the path:

    PYTHONPATH=src python tests/never_run.py --seed 1
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> list:
    """(first line, lines) of every statement of a module's source: the
    lines a line event may fall on when the statement runs."""
    found = []

    def visit(parent):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                first = min(
                    [node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])]
                )
                body = getattr(node, "body", None)
                last = body[0].lineno - 1 if body else node.end_lineno
                found.append((node.lineno, range(first, max(first, last) + 1)))
            visit(node)

    visit(ast.parse(source))
    return sorted(found)


def traced_lines(package: Path, run) -> dict:
    """{file path: set of lines} of the line events that `run()` caused in
    the modules under `package`."""
    seen: dict = {}
    root = str(package)

    def local(frame, event, arg):
        if event == "line":
            seen.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def run_core_units(seed: int) -> None:
    """Import the package and run every workload's core units in turn."""
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from crnsim import engine

    for workload in workloads.WORKLOADS.values():
        for unit in range(workload.core_units):
            config = workload.unit_config(seed, unit)
            engine.run_experiment(config, workload.policies, workers=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    import importlib.util

    package = Path(importlib.util.find_spec("crnsim").origin).parent
    seen = traced_lines(package, lambda: run_core_units(args.seed))
    total = never = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = seen.get(str(path), set())
        for first, span in statements(source):
            total += 1
            if ran.isdisjoint(span):
                never += 1
                print(f"{path.name}:{first}: {lines[first - 1].strip()}")
    print(f"{never} of {total} statements never run (seed {args.seed}, core units)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
