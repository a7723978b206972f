"""The README's library snippet runs, and every exported name resolves."""

import contextlib
import io
import re
from pathlib import Path

import truthfuse
from truthfuse.ingest import write_claims

from conftest import table1_claims

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_snippet_runs_on_table1(tmp_path):
    claims = tmp_path / "table1.csv"
    write_claims(claims, table1_claims())
    snippet = library_snippet()
    assert '"listings.csv"' in snippet
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        exec(snippet.replace('"listings.csv"', repr(str(claims))), {})
    assert "Carey" in output.getvalue()


def test_snippet_imports_are_exported():
    imports = re.search(r"from truthfuse import (.*)", library_snippet()).group(1)
    for name in imports.split(","):
        assert name.strip() in truthfuse.__all__


def test_every_exported_name_resolves():
    for name in truthfuse.__all__:
        assert getattr(truthfuse, name) is not None, name
