"""No module of the package imports a name it never uses, and its imports are layered.

No linter runs on this repository, so these scans stand in for one:
each ``src/truthfuse/*.py`` is parsed with ``ast``. Every name an import
binds (``__future__`` imports aside) must be read somewhere in the
module or be listed in its ``__all__`` as a re-export. The modules'
imports from the package itself, at any depth and ``TYPE_CHECKING``
blocks included, must form no cycle, and each must sit at module top
level: an import inside a function or an ``if`` block is how a cycle
hides. Importing the CLI must not load ``hashlib``, which the manifest's
digests import only when they are taken.
"""

import ast
import os
import subprocess
import sys
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


def package_imports(source: str) -> list[tuple[int, str, bool]]:
    """(line, module, at top level) of each relative import, at any depth.

    The package imports its own modules only by relative imports.
    ``from .x import ...`` imports module ``x``; ``from . import ...``
    imports the package's ``__init__``.
    """
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return sorted(
        (node.lineno, node.module or "__init__", id(node) in top)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    )


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of ``graph`` (module -> modules it imports) as a closed path, or []."""
    done: set[str] = set()

    def visit(path: list[str]) -> list[str]:
        for module in sorted(graph.get(path[-1], ())):
            if module in path:
                return path[path.index(module) :] + [module]
            if module not in done:
                cycle = visit(path + [module])
                if cycle:
                    return cycle
        done.add(path[-1])
        return []

    for module in sorted(graph):
        cycle = [] if module in done else visit([module])
        if cycle:
            return cycle
    return []


def _layering(sources: dict[str, str]) -> tuple[list[str], list[tuple[str, int]]]:
    """The import cycle of a package's module sources, and its nested imports."""
    graph: dict[str, set[str]] = {}
    nested = []
    for name, source in sorted(sources.items()):
        for line, module, at_top in package_imports(source):
            graph.setdefault(name, set()).add(module)
            if not at_top:
                nested.append((name, line))
    return import_cycle(graph), nested


def test_package_imports_are_acyclic_and_at_top_level():
    cycle, nested = _layering(
        {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    )
    assert cycle == []
    assert nested == []


def test_layering_scan_flags_a_cycle_and_a_nested_import():
    sources = {
        "errors": "class FusionError(Exception): ...\n",
        "model": (
            "from typing import TYPE_CHECKING\n"
            "from .errors import FusionError\n"
            "if TYPE_CHECKING:\n"
            "    from .vote import Index\n"
            "def index():\n"
            "    from .vote import Index\n"
            "    return Index()\n"
        ),
        "vote": "from .similarity import weights\n",
        "similarity": "from .model import Value\n",
        "cli": "from . import __version__\nfrom .model import Value\n",
    }
    assert _layering(sources) == (
        ["model", "vote", "similarity", "model"],
        [("model", 4), ("model", 6)],
    )
    sources["similarity"] = "from .errors import FusionError\n"
    sources["model"] = "from .errors import FusionError\nfrom .vote import Index\n"
    assert _layering(sources) == ([], [])


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL (about 3.5 MB of peak RSS); only the manifest's
    # digests need it, so cli imports it where it hashes
    code = "import sys, truthfuse.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
