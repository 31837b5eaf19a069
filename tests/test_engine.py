"""The untraced arithmetic lives in ``engine``, below the paper's modules.

Every function of the pass, the untraced Q, the full periods, the Dedekind
term and the sum of squared remainders is defined in ``engine`` and nowhere
else, and ``engine`` imports from the package only ``errors``, ``models``
and ``numeric``, read from its source so that a new import cannot slip in.
"""

import ast
from pathlib import Path

from floorsums import engine

PACKAGE = Path(engine.__file__).resolve().parent
MOVED = (
    "_sums", "_full_period", "_period_term", "_blocks", "_t3_blocks",
    "_remainder_squares", "_q_blocks", "_floor_sum",
)


def package_imports(tree):
    """The package modules a module's source imports: a relative import by
    its module name, an absolute import of floorsums by its dotted name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
            found.update(name for name in names if name.split(".")[0] == "floorsums")
    return found


def test_moved_functions_live_in_the_engine():
    for name in MOVED:
        assert getattr(engine, name).__module__ == "floorsums.engine", name


def test_no_other_module_defines_a_moved_function():
    for path in PACKAGE.glob("*.py"):
        if path.name == "engine.py":
            continue
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & set(MOVED), (path.name, defined & set(MOVED))


def test_engine_imports_only_errors_models_and_numeric():
    imported = package_imports(ast.parse((PACKAGE / "engine.py").read_text()))
    # So none of floor_sum, square_sum, cross_sum or trace: the walks sit above.
    assert imported <= {"errors", "models", "numeric"}, imported
