"""Claim and golden-standard file ingestion, plus author-list normalization.

Claim files are delimited text with a ``source,object,value`` header;
golden files carry ``object,value``. The delimiter is configurable
(comma by default, tab supported) and fields are quote-aware, so a
value may contain the delimiter when quoted. ``write_rows`` is the one
writer of delimited text: every CSV file truthfuse writes goes through it.

Author-list normalization (on by default) applies these rules. Values
are composed (Unicode NFC) and split into authors on ``;``, on the word
"and" in any case, and on commas between name groups; a segment with one
comma and a single token before it is one author written "Last, First",
and is flipped. Each author keeps its first and last tokens, lower-cased
and trimmed of edge characters that are not letters or digits
(``str.isalnum``) of any script, so "Zoë" and "Ελένη" keep every letter,
typed with combining accents or not. A value left with no
author, such as one with no letter or digit or only the word "and",
normalizes to nothing and is refused with a pointer to
``--no-normalize``. The normalizer runs the "and" split only where "and"
occurs and cleans only the tokens it keeps, which gives the same value
as applying every rule to every token.
"""

from __future__ import annotations

import csv
import re
import unicodedata
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from .errors import DuplicateObject, EmptyFile, ParseError
from .model import Claim, ObjectId, Value

_AND_SPLIT = re.compile(r"\s*\band\b\s*", re.IGNORECASE)
_EDGE_PUNCT = re.compile(r"^[\W_]+|[\W_]+$")
_KEPT = frozenset("0123456789abcdefghijklmnopqrstuvwxyz")
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _clean_token(token: str) -> str:
    """A token, already lower-cased, trimmed of edge characters ``str.isalnum`` rejects.

    Internal hyphens and apostrophes stay ("o'brien", "smith-jones").
    """
    return _EDGE_PUNCT.sub("", token)


def _comma_groups(part: str) -> list[str]:
    """Split one segment holding a comma, flipping a surname-first single author.

    A single comma with exactly one token before it reads as
    "last, first [middles]" and is reordered; any other comma pattern
    separates author groups.
    """
    pieces = [p.strip() for p in part.split(",") if p.strip()]
    if len(pieces) == 2 and len(pieces[0].split()) == 1:
        return [f"{pieces[1]} {pieces[0]}"]
    return pieces


def _normalize_author(tokens: list[str]) -> str:
    """The first and last tokens that survive cleaning, of a lower-cased name.

    Middle names and initials drop, so only the tokens that may be kept
    are cleaned.
    """
    for i, token in enumerate(tokens):
        first = _clean_token(token)
        if first:
            break
    else:
        return ""
    for j in range(len(tokens) - 1, i, -1):
        last = _clean_token(tokens[j])
        if last:
            return f"{first} {last}"
    return first


def normalize_author_list(raw: str) -> Value:
    """Canonical form of an author list: ``first last; first last; ...``.

    Whitespace runs collapse to one space, and the rules in this module's
    docstring apply; order is preserved. Input that keeps no author
    normalizes to the empty string, which claim validation rejects.
    """
    if not raw.isascii():
        raw = unicodedata.normalize("NFC", raw)
    text = " ".join(raw.split())
    if not text:
        return ""
    parts = text.split(";")
    # the regex is needed only where "and" occurs in some case
    if "and" in text.lower():
        parts = [part for segment in parts for part in _AND_SPLIT.split(segment)]
    kept = _KEPT
    authors: list[str] = []
    for part in parts:
        part = part.strip().strip(",").strip()
        if not part:
            continue
        for group in _comma_groups(part) if "," in part else (part,):
            # a group is stripped and not empty, so it holds a token
            tokens = group.lower().split()
            first, last = tokens[0], tokens[-1]
            if first[0] in kept and first[-1] in kept and last[0] in kept and last[-1] in kept:
                authors.append(first if len(tokens) == 1 else f"{first} {last}")
            else:
                author = _normalize_author(tokens)
                if author:
                    authors.append(author)
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


def _empty_field(row: list[str], ids: tuple[str, ...], raw: str, line: int) -> ParseError:
    """The error for a row left with an empty id or value.

    A value that is not blank but normalizes to nothing is named as such:
    the field only looks blank after normalization.
    """
    if all(ids) and raw:
        return ParseError(
            f"value {raw!r} normalizes to nothing under author-list normalization; "
            "pass --no-normalize to keep values as written",
            line=line,
        )
    return ParseError(f"blank field in row {row!r}", line=line)


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
            raise _empty_field(row, (source, obj), raw, number)
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
    normalized: dict[str, Value] = {}
    values: dict[ObjectId, Value] = {}
    for number, row in _read_rows(path, delimiter, ("object", "value"), prefix=extra_columns):
        if len(row) < 2 or (len(row) > 2 and not extra_columns):
            wanted = "at least 2" if extra_columns else "2"
            raise ParseError(f"expected {wanted} fields, got {len(row)}", line=number)
        obj = _identifier(row[0], number)
        raw = row[1].strip()
        value = normalized.get(raw)
        if value is None:
            value = normalized[raw] = normalizer(raw)
        if not obj or not value:
            raise _empty_field(row, (obj,), raw, number)
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
