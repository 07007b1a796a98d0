"""No module of the package or of its tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    """(line, name) for each name that ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_imported_name_is_used():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for root in (ROOT / "src" / "hammerkit", ROOT / "tests")
        for path in sorted(root.rglob("*.py"))
        for line, name in _unused_imports(path)
    ]
    assert unused == []
