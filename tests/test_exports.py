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
