"""The public surface is what the package itself calls: every exported name is
used by some module other than as its own definition."""

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
