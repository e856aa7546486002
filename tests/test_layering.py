"""Each module of the package uses only the public names of its siblings,
and imports nothing from outside the package but the standard library.

A leading underscore marks a name as private to its module, so no other
module of the package may import it (``from .game import _name``) or call it
through the module (``game._name(...)``).
"""

import ast
import sys
from pathlib import Path

import littlelab

PACKAGE = Path(littlelab.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _source_module(node: ast.ImportFrom) -> str | None:
    """'' for ``from . import x``, the sibling's name for ``from .x import y``,
    None for an import from outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "littlelab":
        return node.module.partition(".")[2]
    return None


def private_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    modules = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        source = _source_module(node) if isinstance(node, ast.ImportFrom) else None
        if source is not None:
            for alias in node.names:
                if not source:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name} "
                                 f"from {source}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules and _private(node.func.attr)):
            found.append(f"{path.name}:{node.lineno} calls "
                         f"{node.func.value.id}.{node.func.attr}")
    return found


def test_modules_use_only_public_names_of_their_siblings():
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in private_uses(path)]
    assert not found, "\n".join(found)


def outside_imports(path: Path) -> list[str]:
    """Imports of path that come neither from the package nor from the
    standard library."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and _source_module(node) is None:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "littlelab" and top not in sys.stdlib_module_names:
                found.append(f"{path.name}:{node.lineno} imports {name}")
    return found


def test_modules_import_only_the_package_and_the_standard_library():
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in outside_imports(path)]
    assert not found, "\n".join(found)
