"""Every module of the package and of the test suite uses each name it imports.

No linter ships with the test extra, so the check walks each module's syntax
tree: a name bound by an import statement must be read somewhere in the module.
The package's ``__init__.py`` is left out, its imports are the package's exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = [*sorted((ROOT / "src" / "ngbounds").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]


def test_every_module_uses_every_name_it_imports():
    unused = {}
    for path in MODULES:
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
            unused[str(path.relative_to(ROOT))] = sorted(imported - read)
    assert unused == {}
