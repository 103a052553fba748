"""The package's public names: ``__all__`` and the imports of ``__init__``."""

import ast
from pathlib import Path

import stackmbrl


def test_all_lists_exactly_the_imported_names():
    """Every name in ``__all__`` resolves, and ``__all__`` holds exactly the
    names ``__init__`` imports, so a deleted name cannot linger in it."""
    tree = ast.parse(Path(stackmbrl.__file__).read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(stackmbrl.__all__) == len(set(stackmbrl.__all__))
    assert set(stackmbrl.__all__) == imported
    for name in stackmbrl.__all__:
        assert getattr(stackmbrl, name) is not None, name


# Settable values in the package: every parameter default plus every
# dataclass field default. A new knob must raise this bound in the same
# change that adds it.
SETTABLE_VALUES_BUDGET = 74


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(decorator.func if isinstance(decorator, ast.Call)
                       else decorator, "id", None) == "dataclass"
               for decorator in node.decorator_list)


def test_settable_values_stay_within_budget():
    count = 0
    for path in Path(stackmbrl.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                count += len(node.args.defaults) + sum(
                    default is not None for default in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(stmt, ast.AnnAssign)
                             and stmt.value is not None for stmt in node.body)
    assert count <= SETTABLE_VALUES_BUDGET


# Lines in the package's modules, as ``wc -l src/stackmbrl/*.py`` counts
# them. A change that grows the package must raise this ceiling in the same
# change and say why.
SOURCE_LINES_CEILING = 4571


def test_source_lines_stay_within_ceiling():
    count = sum(len(path.read_text().splitlines()) for path in
                Path(stackmbrl.__file__).parent.glob("*.py"))
    assert count <= SOURCE_LINES_CEILING
