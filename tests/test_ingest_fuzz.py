"""Malformed claim files end in exit 1 with a line number, never a traceback.

The cases cover a byte-order mark, CRLF line ends, ragged rows, embedded
delimiters, quoted newlines, quotes left open and ids holding a carriage
return. The fuzz tests write rows from an alphabet of those characters,
either through ``csv.writer`` (every file must read back, unless an id
holds a carriage return) or joined raw (a file may be malformed), and run
``truthfuse fuse`` on them.
"""

import csv
import io
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from truthfuse import parse_claims
from truthfuse.cli import main
from truthfuse.errors import EmptyFile, ParseError

HEADER = "source,object,value"
FIELD = st.text(alphabet=list('ab ,"\n\r\t;é\ufeff'), max_size=6)
ROWS = st.lists(st.lists(FIELD, min_size=0, max_size=4), min_size=0, max_size=5)


def _fuse(path, capsys):
    code = main(["fuse", str(path), "--variant", "vote", "--no-normalize",
                 "--out-prefix", str(path.parent / "out")])
    return code, capsys.readouterr().err


def _physical_lines(text: str) -> int:
    return len(io.StringIO(text, newline="").readlines()) or 1


def _expect_clean_outcome(path: Path, text: str, capsys) -> list | None:
    """Parse and fuse ``path``: claims, or None after a located ParseError."""
    try:
        claims = parse_claims(path, normalize=False)
    except EmptyFile:
        code, err = _fuse(path, capsys)
        assert code == 1
        assert "no data rows" in err or "is empty" in err
        return None
    except ParseError as error:
        assert error.line is not None
        assert 1 <= error.line <= _physical_lines(text)
        code, err = _fuse(path, capsys)
        assert code == 1
        assert f"line {error.line}:" in err
        return None
    code, _ = _fuse(path, capsys)
    assert code in (0, 1)  # e.g. a source asserting two values for one object
    return claims


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=ROWS, crlf=st.booleans(), bom=st.booleans())
def test_raw_rows_parse_or_fail_with_a_line(rows, crlf, bom, tmp_path, capsys):
    end = "\r\n" if crlf else "\n"
    text = ("\ufeff" if bom else "") + HEADER + end + "".join(
        ",".join(row) + end for row in rows
    )
    path = tmp_path / "claims.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _expect_clean_outcome(path, text, capsys)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.lists(FIELD, min_size=3, max_size=3), min_size=1, max_size=5),
       crlf=st.booleans())
def test_written_rows_read_back(rows, crlf, tmp_path, capsys):
    if not crlf:
        # the writer quotes only the line terminator's characters, so a
        # lone carriage return would end the record
        rows = [[cell.replace("\r", "") for cell in row] for row in rows]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n" if crlf else "\n").writerows(
        [HEADER.split(",")] + rows
    )
    text = buffer.getvalue()
    path = tmp_path / "claims.csv"
    path.write_text(text, encoding="utf-8", newline="")
    claims = _expect_clean_outcome(path, text, capsys)
    # ids are stripped, values have their whitespace collapsed
    expected = [[s.strip(), o.strip(), " ".join(v.split())] for s, o, v in rows]
    # an id holding a carriage return is refused, so no output carries one
    bad_id = any("\r" in source + obj for source, obj, _ in expected)
    if claims is not None:
        assert not bad_id
        assert [[c.source, c.object, c.value] for c in claims] == expected
    else:
        assert bad_id or any(not all(row) for row in expected)


CASES = {
    "unterminated quote": ('A,o1,"x\nB,o2,y\nC,o3,z\n', 2),
    "text after a closing quote": ('A,o1,"x"y\nB,o2,y\n', 2),
    "ragged row": ("A,o1,x\nB,o2\n", 3),
    "unquoted delimiter": ("A,o1,x\nB,o2,smith, jane\n", 3),
    "quoted newline before a ragged row": ('A,o1,"x\ny"\nB,o2\n', 4),
    "crlf ragged row": ("A,o1,x\r\nB,o2,y,z\r\n", 3),
}


def test_id_with_a_carriage_return_exits_one(tmp_path, capsys):
    # unquoted on writing, a lone carriage return would end the record, so
    # fuse would write a truths file that eval cannot read back
    path = tmp_path / "claims.csv"
    path.write_text(HEADER + '\nA,"o\r1",x\nB,"o\r1",x\n', encoding="utf-8", newline="")
    code, err = _fuse(path, capsys)
    assert code == 1
    assert "line 3: id 'o\\r1' holds a carriage return" in err
    assert not (tmp_path / "out.truths.csv").exists()


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_file_exits_one_naming_its_line(case, tmp_path, capsys):
    body, line = CASES[case]
    path = tmp_path / "claims.csv"
    path.write_text(HEADER + "\n" + body, encoding="utf-8", newline="")
    code, err = _fuse(path, capsys)
    assert code == 1
    assert f"line {line}:" in err


def test_byte_order_mark_reads_as_a_bad_header(tmp_path, capsys):
    path = tmp_path / "claims.csv"
    path.write_text("\ufeff" + HEADER + "\nA,o1,x\n", encoding="utf-8")
    code, err = _fuse(path, capsys)
    assert code == 1
    assert "line 1:" in err


def test_crlf_and_quoted_fields_read_like_lf(tmp_path):
    body = 'A,o1,"smith, jane"\nB,o1,"x\ny"\nC,o2,z\n'
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_text(HEADER + "\n" + body, newline="")
    crlf.write_text((HEADER + "\n" + body).replace("\n", "\r\n"), newline="")
    claims = parse_claims(lf, normalize=False)
    assert [c.value for c in claims] == ["smith, jane", "x y", "z"]
    assert parse_claims(crlf, normalize=False) == claims
