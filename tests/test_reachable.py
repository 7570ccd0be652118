"""Every top-level function and class of the package is used by the
package itself or by the benchmark harness, not only by the tests.

Code kept alive only by its tests is a second copy of a rule the program no
longer follows. The check reads the source the way test_no_blas.py does: a
definition counts as used when its name is read (as a name or an attribute)
outside its own definition, anywhere in src/ilt_admm or in perfbench/*.py.
An import alone does not count, and an import that nothing in its module
reads is refused too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ilt_admm"

# The paper's sufficient-decrease condition on rho: the acceptance criteria
# check it, and it is meant to be reported with each run, but no solver
# step calls it.
RHO_CONDITION = ("estimate_lipschitz", "check_rho_condition")


def names_read(node: ast.AST) -> set[str]:
    """Each name node reads: its Name ids and Attribute attrs."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def unused_definitions(modules: dict[str, ast.Module],
                       readers: list[ast.Module]) -> list[str]:
    """'module.name' of each top-level def or class in modules whose name
    no other top-level statement of modules, and no tree in readers, reads."""
    read_by = []  # (module, defined name or None, names the statement reads)
    for module, tree in modules.items():
        for stmt in tree.body:
            defined = getattr(stmt, "name", None)
            read_by.append((module, defined, names_read(stmt)))
    outside = set().union(*(names_read(tree) for tree in readers))
    unused = []
    for module, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            used = name in outside or any(
                name in names for m, defined, names in read_by
                if (m, defined) != (module, name))
            if not used:
                unused.append(f"{module}.{name}")
    return unused


def unused_imports(modules: dict[str, ast.Module]) -> list[str]:
    """'module.name' of each name a top-level import of modules binds that
    nothing in that module reads. A from-__future__ import binds nothing."""
    unused = []
    for module, tree in modules.items():
        read = names_read(tree)  # an import statement reads no name
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{module}.{name}")
    return unused


def package_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_is_reachable():
    modules = package_modules()
    readers = [ast.parse(path.read_text(), str(path))
               for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert modules and readers
    allowed = {f"solver.{name}" for name in RHO_CONDITION}
    assert not set(unused_definitions(modules, readers)) - allowed


def test_reachability_guard_sees_each_form():
    tree = ast.parse(
        "def used(): pass\n"
        "def recursive(): return recursive()\n"
        "class Unused: pass\n"
        "def caller(): return used() + self.method()\n"
        "def method(): pass\n")
    imported = ast.parse("from pkg.m import caller\n")
    assert unused_definitions({"m": tree}, [imported]) == [
        "m.recursive", "m.Unused", "m.caller"]
    assert unused_definitions({"m": tree}, [ast.parse("pkg.m.caller()")]) == [
        "m.recursive", "m.Unused"]


def test_every_import_is_read():
    modules = package_modules()
    assert modules
    assert unused_imports(modules) == []


def test_import_guard_sees_each_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path\n"
        "import numpy as np\n"
        "from a import b, c as d\n"
        "def f(x: np.ndarray) -> int: return sys.maxsize + d\n")
    assert unused_imports({"m": tree}) == ["m.os", "m.os", "m.b"]
