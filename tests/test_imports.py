"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedka"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never reads;
    ``from __future__`` imports are not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Sequence, Iterable\n\ndef f(x: Sequence) -> int:\n    return os.sep\n")
    assert unused_imports(source) == [(3, "np"), (4, "Iterable")]


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{path.name}:{line} {name}" for path in sorted(PACKAGE.glob("*.py"))
              for line, name in unused_imports(path.read_text())]
    assert unused == []
