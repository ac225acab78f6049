"""src/ keeps only what something reaches.

Every public module-level function, class or constant of weylq must be
referenced somewhere other than its own definition: by name, import or
attribute in src/, or in the benchmark, whose tracing binds functions by
name strings.  Names that only the tests use belong in tests/oracles.py,
and no public name there may repeat one of weylq's, so that an oracle
never stands in for the function it checks.  Every module-level import of
weylq must be read in its own module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# public names that nothing in src/ or perfbench/ refers to, with the reason
# each stays
EXCEPTIONS = {}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id


def _references(tree, strings):
    """Names loaded, attributes read and names imported; with strings, also
    every string constant (the benchmark binds layers by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _package_modules(root):
    return {path.stem: ast.parse(path.read_text()) for path in sorted((root / "src" / "weylq").glob("*.py"))}


def unreached_names(root=ROOT):
    modules = _package_modules(root)
    reached = set()
    for tree in modules.values():
        reached.update(_references(tree, strings=False))
    for path in sorted((root / "perfbench").glob("*.py")):
        reached.update(_references(ast.parse(path.read_text()), strings=True))
    return [
        f"{module}.{name}"
        for module, tree in modules.items()
        for name in _public_definitions(tree)
        if not name.startswith("_") and name not in reached
    ]


def test_every_public_name_is_reached():
    unreached = [name for name in unreached_names() if name not in EXCEPTIONS]
    assert not unreached, f"referenced by nothing in src/ or perfbench/: {', '.join(unreached)}"


def test_every_exception_is_still_needed():
    assert set(EXCEPTIONS) <= set(unreached_names())


def shadowed_names(root=ROOT):
    """Public names defined both in tests/oracles.py and in a weylq module."""
    oracles = set(_public_definitions(ast.parse((root / "tests" / "oracles.py").read_text())))
    return [
        f"{module}.{name}"
        for module, tree in _package_modules(root).items()
        for name in _public_definitions(tree)
        if not name.startswith("_") and name in oracles
    ]


def test_no_oracle_shadows_a_package_name():
    shadowed = shadowed_names()
    assert not shadowed, f"defined in tests/oracles.py as well: {', '.join(shadowed)}"


def test_shadowing_is_detected(tmp_path):
    """The check sees a test-side copy of a package function."""
    (tmp_path / "src" / "weylq").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "weylq" / "quasipoly.py").write_text("def qp_equal(a, b):\n    pass\n")
    (tmp_path / "tests" / "oracles.py").write_text("def qp_equal(a, b):\n    pass\n\n\ndef _private():\n    pass\n")
    assert shadowed_names(tmp_path) == ["quasipoly.qp_equal"]


def unused_imports(root=ROOT):
    """Module-level imports of weylq that their own module never reads; a
    name listed in the module's __all__ is read, as a re-export."""
    unused = []
    for module, tree in _package_modules(root).items():
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        unused += [f"{module}.{name}" for name in bound if name not in read]
    return unused


def test_every_import_is_read():
    unused = unused_imports()
    assert not unused, f"imported but never read in its module: {', '.join(unused)}"


def test_unused_import_is_detected(tmp_path):
    """The check sees an import left behind, and not a read, aliased,
    dotted or re-exported one."""
    (tmp_path / "src" / "weylq").mkdir(parents=True)
    (tmp_path / "src" / "weylq" / "charquasi.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from math import gcd as g, lcm\n"
        "from typing import Dict\n"
        "__all__ = ['Dict']\n"
        "x: int = g(os.path.sep.count('/'), lcm(2, 3))\n"
    )
    assert unused_imports(tmp_path) == ["charquasi.Fraction"]
