"""Every module of the package uses each name it imports.

No linter ships with the test extra, so the check walks each module's syntax
tree: a name bound by an import statement must be read somewhere in the module.
``__init__.py`` is left out, its imports are the package's exports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ngbounds"


def test_every_module_uses_every_name_it_imports():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert unused == {}
