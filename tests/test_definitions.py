"""Every top-level definition in ``src/offloadsim`` is used in ``src/``,
and every name a module imports is read in that module.

A function, class or constant that only its own definition or the tests
refer to is dead weight in the package: it belongs in ``tests/`` or
nowhere. References are read with ``ast``, so a name in a comment or a
docstring does not count; a name read, an attribute or an imported name
does. Dunder names such as ``__version__`` are exempt.

An import that its module never reads is dead weight too, and it keeps a
definition elsewhere looking used. ``__init__.py``, which imports to
re-export, and ``from __future__`` imports are exempt.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "offloadsim"


def _defined(statement):
    """Names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else []
    if isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def _referenced(statement):
    """Names a statement reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_definitions(root=SRC):
    """``module:name`` of each top-level definition under ``root`` that no
    statement in any module refers to, its own definition aside."""
    statements = []  # (module, names defined, names referenced)
    for path in sorted(root.glob("*.py")):
        for statement in ast.parse(path.read_text(), str(path)).body:
            statements.append((path.stem, _defined(statement), _referenced(statement)))
    unused = []
    for i, (module, defined, _) in enumerate(statements):
        for name in defined:
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in refs for j, (_, _, refs) in enumerate(statements) if j != i):
                unused.append(f"{module}:{name}")
    return unused


def unread_imports(root=SRC):
    """``module:name`` of each name an import binds in a module under
    ``root`` that the module never reads, ``__init__.py`` and ``from
    __future__`` aside."""
    unread = []
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.stem}:{name}")
    return unread


def test_every_definition_in_src_is_used_in_src():
    assert unreferenced_definitions() == []


def test_the_check_finds_a_definition_only_its_tests_would_call(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Mentions helper in a docstring."""\n'
        "from .b import used\n\n"
        "LIMIT = 3  # helper\n\n"
        "def helper(n):\n    return helper(n - 1) if n else LIMIT\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    (tmp_path / "b.py").write_text("def used():\n    return 1\n")
    assert unreferenced_definitions(tmp_path) == ["a:helper"]


def test_every_import_in_src_is_read():
    assert unread_imports() == []


def test_the_check_finds_an_import_its_module_never_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import shown\n")
    (tmp_path / "a.py").write_text(
        '"""Mentions gone in a docstring."""\n'
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .b import gone, kept, used as alias\n\n"
        "def shown(x: kept):\n"
        "    import json  # gone\n"
        "    return np.sqrt(alias(x))\n"
    )
    assert unread_imports(tmp_path) == ["a:os", "a:gone", "a:json"]
