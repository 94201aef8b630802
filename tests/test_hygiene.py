"""Source hygiene of the library modules, read with ast."""

import ast
from pathlib import Path

import rrmf

MODULES = sorted(p for p in Path(rrmf.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads, also not in a quoted
    annotation; ``from __future__`` imports are exempt."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_library_imports_are_used():
    assert MODULES
    unused = {p.name: found for p in MODULES
              if (found := _unused_imports(ast.parse(p.read_text(encoding="utf-8"))))}
    assert not unused, unused


# the algebra tables the kernel oracle may read from the library; any
# kernel routine it imported would make it check the library against itself
ORACLE_IMPORTS = {"_REAL", "_COMPLEX", "_Algebra", "_algebra"}


def _library_imports(name: str) -> list[str]:
    """The rrmf modules and names that tests/<name> imports."""
    path = Path(__file__).parent / name
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "rrmf"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rrmf":
            found += [f"{node.module}.{alias.name}" for alias in node.names]
    return found


def test_kernel_oracle_imports_only_the_algebra_tables():
    found = [name for name in _library_imports("kernel_reference.py")
             if name.rsplit(".", 1)[-1] not in ORACLE_IMPORTS]
    assert not found, found


def test_decision_oracle_imports_nothing_from_the_library():
    assert _library_imports("decision_reference.py") == []
