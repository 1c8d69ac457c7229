"""Every name a module of the package imports is used in that module,
every module-level name is read somewhere in the package, or exported
by it if public, and neither the package nor its tests import an
undeclared dependency."""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pohst"


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":   # its imports are the package's re-exports
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []


def _unread_module_names(private: bool) -> list[str]:
    """The module-level names defined in the package, private (_x) or
    public, that no statement of the package reads outside the statement
    that defines them.  An import reads the names it imports, so the
    re-exports of pohst/__init__.py count."""
    defined, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.ImportFrom):
                    names |= {alias.name for alias in node.names}
            reads.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                targets = [stmt.target.id]
            else:
                targets = []
            defined += [(path.name, stmt, name) for name in targets
                        if not name.startswith("__") and name.startswith("_") == private]
    return [f"{file}:{stmt.lineno} {name}" for file, stmt, name in defined
            if not any(name in names for other, names in reads if other is not stmt)]


def test_every_private_name_is_used():
    """Every module-level private name (_x) defined in the package is
    read somewhere in the package outside the statement that defines it."""
    assert _unread_module_names(private=True) == []


def test_every_public_name_is_exported_or_used():
    """Every public module-level name defined in the package is exported
    by pohst/__init__.py or read in another statement of the package, so
    no name lives on only because a test reads it."""
    assert _unread_module_names(private=False) == []


def test_every_private_method_is_used():
    """Every private method (_x) defined in a class of the package is
    referenced somewhere in the package outside its own definition, so
    a retired helper cannot linger."""
    methods, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        refs += [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods += [(path.name, f) for f in cls.body
                            if isinstance(f, ast.FunctionDef) and f.name.startswith("_")
                            and not f.name.startswith("__")]
    unused = []
    for file, f in methods:
        own = {id(node) for node in ast.walk(f)}
        if not any(node.attr == f.name and id(node) not in own for node in refs):
            unused.append(f"{file}:{f.lineno} {f.name}")
    assert unused == []


def _imported_packages(paths) -> set[str]:
    """The top-level package of every absolute import in the files paths."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def test_imports_stay_within_the_declared_dependencies():
    """The package imports only the standard library, numpy and itself,
    and the tests add only pytest and hypothesis: packages that happen
    to be installed but are not declared, such as sympy, scipy and
    mpmath, never reach either."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "pohst"}
    assert _imported_packages(SRC.rglob("*.py")) - allowed == set()
    assert _imported_packages(TESTS.rglob("*.py")) - allowed - {"pytest", "hypothesis"} == set()
