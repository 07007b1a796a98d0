"""No module of the package or of its tests imports a name it never uses,
every module of the package is reachable from the command line, and every
module-level function and class, and every method of such a class, is
named by package code other than its own definition, and every field of
such a dataclass is read by package code."""

import ast
from collections import Counter
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


SRC = ROOT / "src"


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(path):
    """Dotted names ``path`` imports: each statement's module, and each
    ``from`` name as a possible submodule of it."""
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_every_module_is_imported_from_the_cli():
    # A module only the tests import is code nothing runs.
    modules = {_module_name(p): p for p in (SRC / "hammerkit").rglob("*.py")}
    reached, todo = set(), ["hammerkit.cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        # Importing a submodule runs its package's __init__ first.
        package = name.rpartition(".")[0]
        todo.extend(m for m in {package, *_imported_modules(modules[name])} if m in modules)
    assert sorted(set(modules) - reached) == []


def _definitions_and_references(path):
    """The module-level functions and classes ``path`` defines, and the
    names it reads as a ``Name`` or an attribute, each statement's own
    name left out of what that statement reads."""
    defined, read = [], set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(stmt.name)
            names.discard(stmt.name)
        read |= names
    return defined, read


def test_every_function_and_class_is_referenced_from_the_package():
    # A definition that only its own body or the tests name is code
    # nothing runs.  The benchmark's scripts run the package too, so what
    # they name counts: ``harness.reprove`` is kept for them alone.
    defined, read = [], set()
    for path in sorted((SRC / "hammerkit").rglob("*.py")):
        names, refs = _definitions_and_references(path)
        defined += [f"{path.relative_to(ROOT)}: {name}" for name in names]
        read |= refs
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        read |= _definitions_and_references(path)[1]
    assert [d for d in defined if d.rpartition(" ")[2] not in read] == []


def _methods_and_reads(path):
    """The non-dunder methods of ``path``'s module-level classes, each with
    the names its own body reads, and every name ``path`` reads, counted
    once per place it is read."""

    def reads(node):
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = [
        (f"{cls.name}.{fn.name}", fn.name, reads(fn))
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
    ]
    return methods, reads(tree)


def test_every_method_is_referenced_from_the_package():
    # A method that only its own body or the tests call is code nothing
    # runs, like a view on a report that only the tests ask for.
    methods, read = [], Counter()
    for path in sorted((SRC / "hammerkit").rglob("*.py")):
        found, refs = _methods_and_reads(path)
        methods += [(f"{path.relative_to(ROOT)}: {q}", name, own) for q, name, own in found]
        read += refs
    assert [q for q, name, own in methods if read[name] <= own[name]] == []


def _dataclass_fields(path):
    """``Class.field`` for each field of ``path``'s module-level dataclasses."""
    fields = []
    for cls in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(cls, ast.ClassDef) and any(
            "dataclass" in {n.id for n in ast.walk(d) if isinstance(n, ast.Name)}
            for d in cls.decorator_list
        ):
            fields += [
                (f"{cls.name}.{stmt.target.id}", stmt.target.id)
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return fields


def test_every_dataclass_field_is_read_from_the_package():
    # A field that only the tests read is state nothing uses; the
    # class's own methods count as readers.
    fields, read = [], set()
    for path in sorted((SRC / "hammerkit").rglob("*.py")):
        fields += [(f"{path.relative_to(ROOT)}: {q}", name) for q, name in _dataclass_fields(path)]
        read |= {
            node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    assert [q for q, name in fields if name not in read] == []
