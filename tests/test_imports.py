"""Every name a module imports at module level is used in that module.

Package ``__init__`` modules are skipped: their imports are re-exports.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
                   "testability")


def modules():
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(dirpath, name)


def unused_imports(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{os.path.relpath(path, SRC)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    assert [line for path in modules() for line in unused_imports(path)] == []
