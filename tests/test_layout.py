"""Layout guard: every module-level function and class of `crnsim`, and
every method that is not a dunder, is loaded by name somewhere in the
package outside its own definition. Code only tests run belongs in
`tests/scalar_reference.py`, not in `src/`. The public entry points, which
only callers outside the package use, are the allowed exceptions.

No `einsum` call in the package takes more than two operands: without
`optimize`, numpy runs such a contraction as one loop over every index at
once, several times slower than the chained `matmul` the filter kernels
use."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crnsim"

ENTRY_POINTS = {"run_experiment", "rmse_improvement", "select_k_aic"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(qualified name, name, node) of each module-level function and class
    and of each non-dunder method of those classes."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def _loads(tree):
    """(name, line) of every name loaded, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unused_definitions(package: Path) -> set:
    trees = {path: ast.parse(path.read_text()) for path in package.glob("*.py")}
    loads = {path: list(_loads(tree)) for path, tree in trees.items()}
    unused = set()
    for path, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            used = any(
                loaded == name
                and not (other == path and node.lineno <= line <= node.end_lineno)
                for other, found in loads.items()
                for loaded, line in found
            )
            if not used:
                unused.add(qualified)
    return unused


def test_every_definition_is_used_in_the_package():
    assert unused_definitions(PACKAGE) == ENTRY_POINTS


def test_the_guard_sees_an_unused_function_and_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "def helper():\n    return helper()\n\n\n"
        "class Box:\n    def used(self):\n        return 1\n\n"
        "    def unused(self):\n        return self.used()\n\n"
        "    def __len__(self):\n        return 0\n"
    )
    (tmp_path / "b.py").write_text("from a import Box\n\nBox()\n")
    assert unused_definitions(tmp_path) == {"helper", "Box.unused"}


def wide_einsums(package: Path) -> set:
    """(file name, line) of every `einsum` call with more than two operands,
    counted from its arguments and from its subscripts string."""
    found = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name != "einsum" or not node.args:
                continue
            operands = len(node.args) - 1
            spec = node.args[0]
            if isinstance(spec, ast.Constant) and isinstance(spec.value, str):
                operands = max(operands, spec.value.split("->")[0].count(",") + 1)
            if operands > 2:
                found.add((path.name, node.lineno))
    return found


def test_no_einsum_takes_more_than_two_operands():
    assert wide_einsums(PACKAGE) == set()


def test_the_guard_sees_a_wide_einsum(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "from numpy import einsum\n"
        "x = np.einsum('ij,jk->ik', a, b)\n"
        "y = np.einsum('ij,jk,kl->il', a, b, c)\n"
        "z = einsum('bi,bj,bk->bijk', *ops)\n"
        "w = np.einsum(spec, a, b, c)\n"
    )
    assert wide_einsums(tmp_path) == {("a.py", 4), ("a.py", 5), ("a.py", 6)}
