"""Each module of the package uses only the public names of its siblings,
imports nothing from outside the package but the standard library, defines
no public name that only its own unit tests reference, and bounds every
cache it keeps.  Only the game module names its explorer.

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


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def private_uses(path: Path) -> list[str]:
    tree = _parse(path)
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
    for node in ast.walk(_parse(path)):
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


ROOT = Path(__file__).resolve().parent.parent


def public_definitions(path: Path) -> list[tuple[str, str]]:
    """(qualified name, name) for each public top-level function, class and
    module constant of path, and each public method of its classes."""
    found = []
    for node in _parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, t.id) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name)
                      for item in node.body if isinstance(item, ast.FunctionDef)]
    return [(f"{path.stem}.{qualified}", name) for qualified, name in found
            if not name.startswith("_")]


def references(path: Path, strings: bool) -> set[str]:
    """Names path reads, attributes it reads, names it imports, and, if
    strings, the last dotted part of each string constant it holds.  A
    definition (``X = 1``) stores its name and so is not a reference."""
    found = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value.rpartition(".")[2])
    return found


def unused_public_names(modules, readers, string_readers) -> list[str]:
    """The public names of modules that neither modules, readers nor the
    strings of string_readers reference."""
    used = set().union(*(references(path, strings=False) for path in [*modules, *readers]),
                       *(references(path, strings=True) for path in string_readers))
    return [qualified for path in modules
            for qualified, name in public_definitions(path) if name not in used]


def test_every_public_name_has_a_caller_outside_its_unit_tests():
    """A public name of the package is read by the package itself, by the
    benchmark harnesses or by the acceptance criteria; a name that only its
    own unit tests call is dead weight."""
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    unused = unused_public_names(
        modules, [ROOT / "tests" / "test_acceptance.py"],
        [path for folder in ("labbench", "benchmarks")
         for path in sorted((ROOT / folder).glob("*.py"))])
    assert not unused, "\n".join(unused)


def test_the_caller_guard_lists_unread_constants_functions_and_methods(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("READ = 1\nUNREAD: int = 2\nHOOKED = 3\n\n"
                      "def f():\n    return READ\n\n"
                      "class C:\n    def kept(self):\n        pass\n\n"
                      "    def dropped(self):\n        pass\n\n"
                      "def g():\n    pass\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from mod import C, f\n\nf()\nC().kept()\n")
    harness = tmp_path / "harness.py"
    harness.write_text('HOOKS = {"mod.HOOKED": 1}\n')
    assert unused_public_names([module], [reader], [harness]) == [
        "mod.UNREAD", "mod.C.dropped", "mod.g"]
    # Without the harness its string is no reference, and a reader's
    # strings never count.
    assert "mod.HOOKED" in unused_public_names([module], [reader, harness], [])


def _cache_decorator(node: ast.AST) -> bool:
    """True for a reference to functools.lru_cache or functools.cache."""
    name = (node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name) else None)
    return name in ("lru_cache", "cache")


def unbounded_caches(path: Path) -> list[str]:
    """Each use of lru_cache or cache in path without an integer maxsize: a
    literal, or a module constant assigned one."""
    tree = _parse(path)
    integers = {target.id for node in tree.body if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant) and type(node.value.value) is int
                for target in node.targets if isinstance(target, ast.Name)}
    called = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _cache_decorator(node.func):
            called.add(id(node.func))
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            size = sizes[0] if len(sizes) == 1 else None
            if not (isinstance(size, ast.Constant) and type(size.value) is int
                    or isinstance(size, ast.Name) and size.id in integers):
                found.append(node.lineno)
    for node in ast.walk(tree):
        if _cache_decorator(node) and id(node) not in called:
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_every_cache_has_an_integer_maxsize():
    """A process-wide cache without a bound grows for as long as a run lasts."""
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in unbounded_caches(path)]
    assert not found, "\n".join(found)


def test_the_cache_guard_lists_unbounded_caches(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import functools\nfrom functools import cache, lru_cache\n"
                      "KEPT = 8\nUNSET = None\n\n"
                      "@lru_cache(maxsize=16)\ndef a(): pass\n\n"
                      "@functools.lru_cache(KEPT)\ndef b(): pass\n\n"
                      "@lru_cache(maxsize=UNSET)\ndef c(): pass\n\n"
                      "@lru_cache\ndef d(): pass\n\n"
                      "@cache\ndef e(): pass\n\n"
                      "f = functools.lru_cache(maxsize=None)(len)\n")
    assert unbounded_caches(module) == ["mod.py:12", "mod.py:15", "mod.py:18", "mod.py:21"]


def names_read(path: Path, name: str) -> list[str]:
    """Each line of path that reads, imports or binds name, as a name or an
    attribute."""
    found = set()
    for node in ast.walk(_parse(path)):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)):
            found.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_only_the_game_module_names_the_explorer():
    """The other modules reach the explorer through `mistake_bound`,
    `is_optimal` and `is_anytime_optimal`, which share one per (learner,
    class); an explorer built elsewhere would solve its games again."""
    found = [use for path in sorted(PACKAGE.glob("*.py")) if path.name != "game.py"
             for use in names_read(path, "Explorer")]
    assert not found, "\n".join(found)


def test_the_explorer_guard_sees_imports_names_and_attributes(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .game import Explorer\n"
                      "from .game import Explorer as E\n"
                      "from . import game\n\n"
                      "def f(H):\n    return game.Explorer(None, H)\n\n"
                      "g = Explorer\n"
                      "# Explorer in a comment\n"
                      "h = 'Explorer'\n")
    assert names_read(module, "Explorer") == ["mod.py:1", "mod.py:2", "mod.py:6", "mod.py:8"]


# What the witness check may not read: the representations and engines of
# the dimension computations it checks.
ENGINE_NAMES = frozenset({"columns", "splits", "version_space", "_search", "kernels"})


def names_in_function(path: Path, function: str) -> set[str]:
    """Every name and attribute the top-level function of path reads or binds."""
    found = set()
    for node in _parse(path).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name):
                    found.add(inner.id)
                elif isinstance(inner, ast.Attribute):
                    found.add(inner.attr)
            return found
    raise LookupError(f"{path.name} defines no function {function}")


def test_the_witness_check_reads_raw_rows_only():
    """verify_shattered_tree checks the engines' witnesses, so it reads the
    class's rows and never the columns, splits or search it checks."""
    used = names_in_function(PACKAGE / "littlestone.py", "verify_shattered_tree")
    assert "rows" in used
    assert not used & ENGINE_NAMES, sorted(used & ENGINE_NAMES)


def test_the_engine_guard_sees_names_and_attributes(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def check(H):\n    return H.splits and kernels.ldim(H)\n\n"
                      "def other():\n    return columns\n")
    assert names_in_function(module, "check") & ENGINE_NAMES == {"splits", "kernels"}
    assert names_in_function(module, "other") & ENGINE_NAMES == {"columns"}
