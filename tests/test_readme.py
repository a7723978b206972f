"""The README's library snippet and CLI block run, and every exported name resolves."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import truthfuse
from truthfuse.cli import main
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


def cli_commands() -> list[tuple[list[str], set[str]]]:
    """Each ``truthfuse`` line of the CLI block, with the output files its comments name.

    Backslash continuations are joined; a command's comments are those of
    its paragraph, and an output file is a ``<prefix>.<name>.<csv|json>`` name.
    """
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = []
    for paragraph in block.replace("\\\n", " ").split("\n\n"):
        lines = paragraph.splitlines()
        (command,) = [line for line in lines if line.startswith("truthfuse ")]
        comments = " ".join(line for line in lines if line.startswith("#"))
        named = set(re.findall(r"\b\w+\.\w+\.(?:csv|json)\b", comments))
        commands.append((shlex.split(command)[1:], named))
    return commands


def test_cli_block_runs_and_writes_the_files_it_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # the block's listings.csv and golden.csv, from a seeded world under another prefix
    assert main(["generate", "--objects", "40", "--independents", "6", "--copiers", "3",
                 "--n", "10", "--seed", "3", "--out-prefix", "seed"]) == 0
    Path("seed.claims.csv").rename("listings.csv")
    Path("seed.golden.csv").rename("golden.csv")
    commands = cli_commands()
    assert [argv[0] for argv, _ in commands] == ["fuse", "detect-copies", "eval", "generate"]
    for argv, named in commands:
        before = set(Path().iterdir())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        written = {path.name for path in set(Path().iterdir()) - before}
        assert named and written == named, argv
