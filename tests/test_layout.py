"""Layout guard: every module-level function and class of `crnsim`, and
every method that is not a dunder, is loaded by name somewhere in the
package outside its own definition. Code only tests run belongs in
`tests/scalar_reference.py`, not in `src/`. The public entry points, which
only callers outside the package use, are the allowed exceptions.

The same rule holds for branches, which this scan cannot see: an argument
is checked once, where it enters the program -- in the config, family and
chain constructors and in `run_experiment(workers)`. Internal kernels trust
their callers and state what they need in their docstrings (for example,
`assign_class` needs a non-empty library, `kmeans_distributions` needs
1 <= k <= N); the caller's guarantee is what the tests check.

Every console script that `pyproject.toml` declares names a module and
function that exist, so an installed command cannot fail on import.

No `einsum` call in the package takes more than two operands: without
`optimize`, numpy runs such a contraction as one loop over every index at
once, several times slower than the chained `matmul` the filter kernels
use.

An internal function takes the one input form the engine passes it, so
`np.asarray` and `np.atleast_1d` appear only in the functions that really
take more than one: the constructors of outside input (`MarkovChain`,
`chain_from_stationary`, `TargetClass`), `process_noise_matrix` (an array
or one float) and `polar_to_cartesian` (its sigmas as a tuple).

A track's behavior record has one owner, `classlib`: its `Readings` tables
count the readings and turn the counts into vectors and entropies, and
`ClassLibrary` builds the per-class arrays. So `engine.py` imports nothing
from `crnsim.markov`, whose count math (`transition_matrix_from_counts`,
`normalized_entropy`) it would need only to redo that work.

A categorical draw has one implementation, `markov.inverse_cdf` on a
cached CDF, which the spawn and every step use. So no `choice` call in the
package passes probabilities `p`, by keyword or as its fourth argument."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crnsim"

ENTRY_POINTS = {"run_experiment", "rmse_improvement"}

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


CONVERSIONS = {"asarray", "atleast_1d"}

CONVERTING = {
    "MarkovChain.__post_init__",
    "chain_from_stationary",
    "TargetClass.__post_init__",
    "process_noise_matrix",
    "polar_to_cartesian",
}


def conversions(package: Path) -> set:
    """(file name, enclosing definition) of every `asarray` or `atleast_1d`
    call, the definition qualified by its class ("<module>" outside any)."""
    found = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                visit(child, path, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) in CONVERSIONS:
                    found.add((path.name, scope or "<module>"))
            visit(child, path, scope)

    for path in package.glob("*.py"):
        visit(ast.parse(path.read_text()), path, "")
    return found


def test_only_the_converting_functions_convert_their_input():
    assert {scope for _, scope in conversions(PACKAGE)} - CONVERTING == set()


def test_the_guard_sees_a_conversion_in_any_scope(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "from numpy import atleast_1d\n"
        "x = np.asarray([1])\n"
        "def kernel(v):\n    return f(np.asarray(v))\n\n\n"
        "def polar_to_cartesian(s):\n    return np.asarray(s)\n\n\n"
        "class Box:\n    def method(self, v):\n"
        "        def inner(w):\n            return atleast_1d(w)\n"
        "        return inner(v)\n"
    )
    assert conversions(tmp_path) == {
        ("a.py", "<module>"),
        ("a.py", "kernel"),
        ("a.py", "polar_to_cartesian"),
        ("a.py", "Box.method.inner"),
    }


def unresolved_scripts(pyproject: Path) -> set:
    """Every `[project.scripts]` target, "module:function", whose module
    does not import or has no such function."""
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(pyproject.read_text()).get("project", {}).get("scripts", {})
    unresolved = set()
    for target in scripts.values():
        module, _, function = target.partition(":")
        try:
            found = hasattr(importlib.import_module(module), function)
        except ModuleNotFoundError:
            found = False
        if not found:
            unresolved.add(target)
    return unresolved


def test_every_console_script_resolves():
    assert unresolved_scripts(ROOT / "pyproject.toml") == set()


def test_the_guard_sees_a_missing_script_target(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[project.scripts]\n"
        'missing-module = "crnsim.no_such_module:main"\n'
        'missing-function = "crnsim.engine:no_such_function"\n'
        'entry = "crnsim.engine:run_experiment"\n'
    )
    assert unresolved_scripts(tmp_path / "pyproject.toml") == {
        "crnsim.no_such_module:main",
        "crnsim.engine:no_such_function",
    }


def markov_imports(path: Path) -> set:
    """Line of every import of `crnsim.markov`, or of a name from it, in
    the module at `path`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if "crnsim.markov" in names:
            found.add(node.lineno)
    return found


def test_the_engine_imports_nothing_from_markov():
    assert markov_imports(PACKAGE / "engine.py") == set()


def test_the_guard_sees_every_form_of_markov_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "from crnsim.markov import normalized_entropy\n"
        "import crnsim.markov as markov\n"
        "from crnsim import markov\n"
        "from crnsim.classlib import Readings\n"
        "def f():\n    from crnsim.markov import sample_next\n"
    )
    assert markov_imports(tmp_path / "a.py") == {2, 3, 4, 7}


def weighted_choices(package: Path) -> set:
    """(file name, line) of every `choice` call that passes probabilities
    `p`, by keyword or as its fourth positional argument."""
    found = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) != "choice":
                continue
            if len(node.args) > 3 or any(k.arg == "p" for k in node.keywords):
                found.add((path.name, node.lineno))
    return found


def test_no_choice_draws_with_probabilities():
    assert weighted_choices(PACKAGE) == set()


def test_the_guard_sees_every_weighted_choice(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "from numpy.random import choice\n"
        "a = rng.choice(n, size=k, replace=False)\n"
        "b = rng.choice(pi.size, p=pi)\n"
        "c = np.random.choice(3, 1, True, pi)\n"
        "d = choice(3, p=[0.5, 0.25, 0.25])\n"
        "e = rng.integers(3)\n"
    )
    assert weighted_choices(tmp_path) == {("a.py", 4), ("a.py", 5), ("a.py", 6)}
