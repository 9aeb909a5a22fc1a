"""The public surface is what the package itself calls: every exported name is
used by some module other than as its own definition, and every public member
of a package class is read by the package or by the benchmark in perfbench/."""

from __future__ import annotations

import ast
from pathlib import Path

import shortcutforge


def test_every_exported_name_is_used_inside_the_package():
    used: set[str] = set()
    for path in Path(shortcutforge.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(set(shortcutforge.__all__) - used - {"__version__"})
    assert unused == [], f"exported but never used inside the package: {unused}"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _attributes_read(paths) -> set[str]:
    """Attribute names loaded in the files, except those of imported modules (os.path)."""
    read: set[str] = set()
    for path in paths:
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        modules = {
            (alias.asname or alias.name).split(".")[0]
            for node in nodes
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        read.update(
            node.attr
            for node in nodes
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)
        )
    return read


def test_every_public_member_is_read_by_the_package_or_the_benchmark():
    package = sorted(Path(shortcutforge.__file__).parent.glob("*.py"))
    assert PERFBENCH.is_dir()
    read = _attributes_read([*package, *sorted(PERFBENCH.glob("*.py"))])
    unread = []
    for path in package:
        for cls in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_") and name not in read:
                    unread.append(f"{cls.name}.{name}")
    unread.sort()
    assert unread == [], f"public members no module of the package or perfbench reads: {unread}"
