"""Claim and golden-standard file ingestion, plus author-list normalization.

Claim files are delimited text with a ``source,object,value`` header;
golden files carry ``object,value``. The delimiter is configurable
(comma by default, tab supported) and fields are quote-aware, so a
value may contain the delimiter when quoted. ``write_rows`` is the one
writer of delimited text: every CSV file truthfuse writes goes through it.
"""

from __future__ import annotations

import csv
import re
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from .errors import DuplicateObject, EmptyFile, ParseError
from .model import Claim, ObjectId, Value

_AND_SPLIT = re.compile(r"\s*\band\b\s*", re.IGNORECASE)
_EDGE_PUNCT = re.compile(r"^[^0-9a-z]+|[^0-9a-z]+$")
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _clean_token(token: str) -> str:
    # keep internal hyphens/apostrophes ("o'brien", "smith-jones")
    return _EDGE_PUNCT.sub("", token.lower())


def _comma_groups(part: str) -> list[str]:
    """Split one segment on commas, flipping a surname-first single author.

    A single comma with exactly one token before it reads as
    "last, first [middles]" and is reordered; any other comma pattern
    separates author groups.
    """
    if "," not in part:
        return [part]
    pieces = [p.strip() for p in part.split(",") if p.strip()]
    if len(pieces) == 2 and len(pieces[0].split()) == 1:
        return [f"{pieces[1]} {pieces[0]}"]
    return pieces


def _normalize_author(group: str) -> str:
    tokens = [t for t in (_clean_token(tok) for tok in group.split()) if t]
    if not tokens:
        return ""
    if len(tokens) == 1:
        return tokens[0]
    # first and last survive; middle names and initials drop
    return f"{tokens[0]} {tokens[-1]}"


def normalize_author_list(raw: str) -> Value:
    """Canonical form of an author list: ``first last; first last; ...``.

    Authors split on semicolons, the word "and", or commas between name
    groups; each author keeps only the first and last name, lowercased;
    order is preserved. Empty input normalizes to the empty string
    (rejected later by claim validation).
    """
    text = " ".join(raw.split())
    if not text:
        return ""
    groups: list[str] = []
    for segment in text.split(";"):
        for part in _AND_SPLIT.split(segment):
            part = part.strip().strip(",").strip()
            if part:
                groups.extend(_comma_groups(part))
    authors = [a for a in (_normalize_author(g) for g in groups) if a]
    return "; ".join(authors)


def _plain_normalize(raw: str) -> Value:
    return " ".join(raw.split())


def _nonblank_rows(path: Path, delimiter: str, errors: str) -> list[tuple[int, list[str]]]:
    rows: list[tuple[int, list[str]]] = []
    # utf-8-sig drops a leading byte-order mark, which spreadsheet exports often write
    with path.open(newline="", encoding="utf-8-sig", errors=errors) as handle:
        # strict: a quote left open or followed by text is an error, where
        # the lenient reader would run the field on to the end of the file
        reader = csv.reader(handle, delimiter=delimiter, strict=True)
        start = 1
        try:
            for row in reader:
                if row:
                    rows.append((reader.line_num, row))
                start = reader.line_num + 1
        except csv.Error as error:
            raise ParseError(f"cannot read the row starting here: {error}", line=start) from None
    return rows


def _identifier(cell: str, line: int) -> str:
    """A stripped source or object id, refused if it holds a carriage return.

    The writers quote only fields holding the delimiter, a quote or a
    newline, so such an id would go out unquoted and end its record when
    the file is read back.
    """
    ident = cell.strip()
    if "\r" in ident:
        raise ParseError(f"id {ident!r} holds a carriage return", line=line)
    return ident


def _read_rows(
    path: str | Path, delimiter: str, header: Sequence[str], prefix: bool = False
) -> list[tuple[int, list[str]]]:
    """The rows after a file's header, each with the line it ends on.

    The header must read ``header`` (case and padding aside), or only
    start with it when ``prefix`` is set. Blank lines are skipped. Bytes
    that are not UTF-8 raise ParseError with their line, and a malformed
    quoted field with the line its row starts on; a file with no rows
    after its header raises EmptyFile.
    """
    path = Path(path)
    try:
        rows = _nonblank_rows(path, delimiter, "strict")
    except UnicodeDecodeError:
        # decoding runs ahead of the csv reader, so the error does not tell
        # the line: reread with the bad bytes kept as lone surrogates
        rows = _nonblank_rows(path, delimiter, "surrogateescape")
        line = next(number for number, row in rows if _UNDECODABLE.search("".join(row)))
        raise ParseError(f"{path} holds bytes that are not UTF-8", line=line) from None
    if not rows:
        raise EmptyFile(f"{path} is empty")
    (header_line, found), body = rows[0], rows[1:]
    cells = [cell.strip().lower() for cell in found]
    if (cells[: len(header)] if prefix else cells) != list(header):
        wanted = ("starting " if prefix else "") + repr(",".join(header))
        raise ParseError(f"expected header {wanted}, got {found!r}", line=header_line)
    if not body:
        raise EmptyFile(f"{path} has a header but no data rows")
    return body


def parse_claims(
    path: str | Path,
    delimiter: str = ",",
    normalize: bool = True,
) -> list[Claim]:
    """Read one claim per row, in row order.

    ``normalize`` passes values through the author-list normalizer;
    when off, values only get whitespace collapsed. Each distinct raw
    value is normalized once per call.
    """
    normalizer = normalize_author_list if normalize else _plain_normalize
    normalized: dict[str, Value] = {}
    claims: list[Claim] = []
    for number, row in _read_rows(path, delimiter, ("source", "object", "value")):
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=number)
        source, obj = _identifier(row[0], number), _identifier(row[1], number)
        raw = row[2].strip()
        value = normalized.get(raw)
        if value is None:
            value = normalized[raw] = normalizer(raw)
        if not source or not obj or not value:
            raise ParseError(f"blank field in row {row!r}", line=number)
        claims.append(Claim(source, obj, value))
    return claims


def _read_object_values(
    path: str | Path, delimiter: str, normalize: bool, extra_columns: bool
) -> dict[ObjectId, Value]:
    """One value per unique object from an ``object,value`` file.

    With ``extra_columns`` the header and rows may carry more columns
    after the value, which are ignored; without, each row holds exactly
    two fields.
    """
    normalizer = normalize_author_list if normalize else _plain_normalize
    values: dict[ObjectId, Value] = {}
    for number, row in _read_rows(path, delimiter, ("object", "value"), prefix=extra_columns):
        if len(row) < 2 or (len(row) > 2 and not extra_columns):
            wanted = "at least 2" if extra_columns else "2"
            raise ParseError(f"expected {wanted} fields, got {len(row)}", line=number)
        obj = _identifier(row[0], number)
        value = normalizer(row[1].strip())
        if not obj or not value:
            raise ParseError(f"blank field in row {row!r}", line=number)
        if obj in values:
            raise DuplicateObject(f"object {obj!r} listed twice")
        values[obj] = value
    return values


def parse_golden(
    path: str | Path,
    delimiter: str = ",",
    normalize: bool = True,
) -> dict[ObjectId, Value]:
    """Read a golden standard: one normalized truth per unique object."""
    return _read_object_values(path, delimiter, normalize, extra_columns=False)


def parse_truths(
    path: str | Path,
    delimiter: str = ",",
    normalize: bool = False,
) -> dict[ObjectId, Value]:
    """Read a fused-truths file (``object,value[,probability]``).

    Accepts plain golden-format files too; extra columns after the
    value are ignored. Fused outputs are already normalized, so
    normalization defaults off here.
    """
    return _read_object_values(path, delimiter, normalize, extra_columns=True)


def write_rows(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    delimiter: str = ",",
) -> None:
    """Write a header and rows as UTF-8 delimited text, one ``\\n`` per row.

    Fields that are not strings are written as ``str(field)``.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_claims(
    path: str | Path, claims: Iterable[Claim], delimiter: str = ","
) -> None:
    rows = ((claim.source, claim.object, claim.value) for claim in claims)
    write_rows(path, ("source", "object", "value"), rows, delimiter)


def write_golden(
    path: str | Path, golden: Mapping[ObjectId, Value], delimiter: str = ","
) -> None:
    write_rows(path, ("object", "value"), sorted(golden.items()), delimiter)


def write_truths(
    path: str | Path,
    truths: Mapping[ObjectId, Value],
    probabilities: Mapping[ObjectId, float] | None = None,
    delimiter: str = ",",
) -> None:
    rows = (
        (obj, value, "" if probabilities is None else probabilities.get(obj, ""))
        for obj, value in sorted(truths.items())
    )
    write_rows(path, ("object", "value", "probability"), rows, delimiter)
