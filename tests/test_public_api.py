"""Every public name is used by the package itself.

A public routine that only its own tests reach is code the studies, the CLI
and the validation suite never run. This test requires each name in
``trackfuse.__all__`` to be read, as a ``Name`` or an ``Attribute``, somewhere
in the package's modules other than ``__init__.py``. Import statements and the
``__all__`` strings do not count as uses.

It also requires every name a module imports, in the package (other than
``__init__.py``, which re-exports) and in the tests, to be read in that module.
"""

import ast
from pathlib import Path

import trackfuse

PACKAGE = Path(trackfuse.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# Public names that only tests reach, with the reason each one stays.
ALLOWED_UNUSED: dict = {}


def _used_names() -> set:
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_used_by_the_package():
    unused = set(trackfuse.__all__) - _used_names() - set(ALLOWED_UNUSED)
    assert sorted(unused) == []


def test_every_allowed_exception_is_public_and_still_unused():
    used = _used_names()
    for name in ALLOWED_UNUSED:
        assert name in trackfuse.__all__
        assert name not in used, f"the package uses {name} now; drop its exception"


def _unused_imports(path: Path) -> list:
    """Names ``path`` imports but never reads; a name listed in its
    ``__all__`` counts as read, and ``from __future__`` imports are skipped."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_every_imported_name_is_read():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    unused = {p.name: names for p in modules + sorted(TESTS.glob("*.py"))
              if (names := _unused_imports(p))}
    assert unused == {}
