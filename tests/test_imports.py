"""No module of the package imports a name it never uses.

No linter runs on this repository, so this scan stands in for one: each
``src/truthfuse/*.py`` is parsed with ``ast``, and every name an import
binds (``__future__`` imports aside) must be read somewhere in the
module or be listed in its ``__all__`` as a re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "truthfuse"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the source neither reads nor exports."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used = read | _exported_names(tree)
    return sorted(
        (line, name) for name, line in _imported_names(tree).items() if name not in used
    )


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import hashlib\n"
        "import math\n"
        "from collections.abc import Mapping, Sequence\n"
        "from .logspace import safe_log\n"
        "from .model import Value\n"
        "__all__ = ['Value']\n"
        "def f(x: Sequence[float]) -> float:\n"
        "    return math.log(x[0])\n"
    )
    assert unused_imports(source) == [(2, "hashlib"), (4, "Mapping"), (5, "safe_log")]
