"""Input files: what kind each is, which command reads it, and the readers all share.

:func:`kind` is the one place that decides an input's kind, with one
``os.stat`` (and one of a ``.csv``'s sidecar); :data:`ACCEPTS` holds the
kinds each command role reads, and :func:`require_read` refuses others
with one message. The readers here hold the text, CSV and JSON rules that
logs, summary tables, aggregated tables, config files and cohort specs
share (:func:`read_text`, :func:`read_csv_table`, :func:`read_json`),
among them the one nesting limit of every JSON input, ``MAX_DEPTH``.

The module needs only ``errors`` and the standard library, so a command
that reads no log loads none of the log code to tell an input's kind.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import reprlib
import stat
from collections.abc import Sequence
from itertools import accumulate
from pathlib import Path

from .errors import MalformedLine, MalformedRow, ParseError

_MANIFEST_SUFFIX = ".manifest.json"
# The deepest nesting a JSON input may hold: a JSONL line (a record nests 2
# deep), a manifest sidecar, a JSON table or a cohort spec. A declared limit
# (RFC 8259 section 9) makes which inputs are accepted the same in every
# process: json's depth depends on the recursion limit and on how deep the
# caller's stack is, and orjson 3.8 has no limit at all.
MAX_DEPTH = 100
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)  # a JSON string, closed or not
_NOT_BRACKETS = re.compile(r"[^\[\]{}]+")
_STEPS = {"[": 1, "{": 1, "]": -1, "}": -1}


def manifest_path(path: Path) -> Path:
    """The manifest sidecar of the log at ``path``."""
    return path.parent / (path.stem + _MANIFEST_SUFFIX)


def suffix_format(path: Path) -> str:
    """The record format a file's suffix names, in any case: ``jsonl`` for ``run.JSONL``."""
    return path.suffix.lstrip(".").lower()


# The kinds of input, named as a refusal names them. A suffix is matched in any
# case; a ``.csv`` is a log where its sidecar exists, and any other file is a
# CSV table.
JSONL_LOG, CSV_LOG, MANIFEST, JSON, MARKDOWN, SVG, CSV_TABLE = (
    "a JSONL log", "a CSV log", "a manifest sidecar", "a JSON file", "a Markdown table",
    "an SVG plot", "a CSV table",
)
LOGS = (JSONL_LOG, CSV_LOG)
_SUFFIX_KINDS = {"jsonl": JSONL_LOG, "json": JSON, "md": MARKDOWN, "svg": SVG}
# The kinds each command role reads. A sidecar among the inputs is read with
# its log, so the input lists skip it.
_CANDIDATES = (*LOGS, CSV_TABLE)
ACCEPTS = {"evaluate": LOGS, "select-erm": _CANDIDATES, "select-fwh": _CANDIDATES,
           "select-fwh --baseline": _CANDIDATES, "compare": (CSV_TABLE, JSON)}


def kind(path: Path) -> str | None:
    """The kind of the file at ``path``; None where none is there (missing, or a dangling
    link), a ParseError for a directory. A sidecar is told by its name alone."""
    if path.name.endswith(_MANIFEST_SUFFIX):
        return MANIFEST
    try:
        mode = os.stat(path).st_mode
    except (OSError, ValueError):  # also a name no file can have (a NUL in it)
        return None
    if stat.S_ISDIR(mode):
        raise ParseError("is a directory, expected a file", path=str(path))
    format = suffix_format(path)
    if format == "csv" and os.path.exists(manifest_path(path)):
        return CSV_LOG
    return _SUFFIX_KINDS.get(format, CSV_TABLE)


def require_read(path: Path, kind: str, role: str) -> None:
    """The one error for an input of a kind that ``role`` does not read."""
    if kind not in ACCEPTS[role]:
        raise ParseError(f"{role} does not read {kind}", path=str(path))


def log_kind(path: Path) -> str:
    """The log kind a path's suffix names, whatever is there; else a ParseError."""
    format = suffix_format(path)
    if format not in ("jsonl", "csv"):
        raise ParseError(f"unsupported record format {format!r}", path=str(path))
    return JSONL_LOG if format == "jsonl" else CSV_LOG


def utf8_fault(path: Path) -> ParseError | None:
    """The error for a file's first byte that is not UTF-8, or None if it has none.

    It names the line of that byte, counting line ends as text-mode
    reading does (``\n``, ``\r\n`` or a lone ``\r``).
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return MalformedLine(
            f"not UTF-8 text: {exc.reason} at offset {exc.start}", path=str(path), line=line
        )
    return None


def read_text(path: Path) -> str:
    """The whole of a text file, line ends kept as they are.

    A file that is not UTF-8, that is missing (say, a dangling link that
    a pattern matched) or that is a directory is a ParseError.
    """
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except FileNotFoundError:
        raise ParseError("file not found", path=str(path)) from None
    except IsADirectoryError:
        raise ParseError("is a directory, expected a file", path=str(path)) from None
    except UnicodeDecodeError as exc:
        raise (utf8_fault(path) or exc) from None  # exc only if the file changed meanwhile


def read_csv_table(
    path: Path, error: type[ParseError]
) -> tuple[list[str] | None, list[list[str]], Sequence[int], ParseError | None]:
    """The header (None for an empty file), records, record lines and fault of a CSV file.

    The records are those before the first faulty one, blank rows left out;
    each is numbered by the physical line it starts on, lines ending at
    ``\n``, ``\r\n`` or a lone ``\r`` as in :func:`utf8_fault`. The fault is
    an ``error`` for that record's field count or csv syntax, or None. A NUL
    character is read as text on every supported Python.
    """
    text = read_text(path)
    if "\x00" not in text:
        return _csv_records(text, path, error)
    # Python 3.10's csv rejects NUL ("line contains NUL"), later versions read
    # it as text. Text decoded as strict UTF-8 holds no lone surrogate, so one
    # stands in for NUL while csv reads the text.
    stand_in = "\ud800"
    header, rows, lines, fault = _csv_records(text.replace("\x00", stand_in), path, error)

    def restore(fields: list[str]) -> list[str]:
        return [field.replace(stand_in, "\x00") for field in fields]

    return None if header is None else restore(header), [*map(restore, rows)], lines, fault


def _csv_records(
    text: str, path: Path, error: type[ParseError]
) -> tuple[list[str] | None, list[list[str]], Sequence[int], ParseError | None]:
    """:func:`read_csv_table` of the text of ``path``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows: list[list[str]] = []
    with contextlib.suppress(csv.Error):
        rows = list(reader)
    widths = set(map(len, rows))
    if rows and reader.line_num == len(rows) and widths == {len(rows[0])} and 0 not in widths:
        return rows[0], rows[1:], range(2, len(rows) + 1), None
    # some record is blank, spans lines, has the wrong field count or cannot be read
    reader = csv.reader(io.StringIO(text, newline=""))
    header, rows, lines, end = None, [], [], 0
    try:
        for row in reader:
            if header is None:
                header = row
            elif row and len(row) != len(header):
                message = f"expected {len(header)} fields, got {len(row)}"
                return header, rows, lines, error(message, path=str(path), line=end + 1)
            elif row:
                rows.append(row)
                lines.append(end + 1)
            end = reader.line_num
    except csv.Error as exc:
        fault = error(f"unreadable CSV record: {exc}", path=str(path), line=end + 1)
        if header is None:
            raise fault from None
        return header, rows, lines, fault
    return header, rows, lines, None


def require_distinct_columns(names: Sequence[str], path: Path) -> None:
    """Reject a table header that names a column twice, naming the first repeat."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise MalformedRow(f"column {name!r} is repeated", path=str(path), line=1)
        seen.add(name)


def _too_deep(text: str) -> bool:
    """Whether a JSON text nests deeper than ``MAX_DEPTH``.

    Read from its start, outside strings, the brackets ``[`` and ``{``
    opened less those ``]`` and ``}`` closed exceed ``MAX_DEPTH`` somewhere.
    A string runs from a ``"`` to the next one not escaped by a backslash,
    or to the end of the text. A text with no more opening brackets than
    ``MAX_DEPTH`` is decided by counting them; in any other, the strings and
    then every character but the brackets are cut out before the brackets
    are summed.
    """
    if text.count("[") + text.count("{") <= MAX_DEPTH:
        return False
    brackets = _NOT_BRACKETS.sub("", _STRING.sub("", text))
    return max(accumulate(map(_STEPS.__getitem__, brackets)), default=0) > MAX_DEPTH


def json_value(text: str) -> object:
    """json's value of a text; ValueError if it nests deeper than ``MAX_DEPTH`` or is
    not one JSON value (or holds an integer of more digits than Python converts)."""
    if _too_deep(text):
        raise ValueError(f"nested deeper than {MAX_DEPTH} levels")
    return json.loads(text)


def read_json(path: Path, error: type[ParseError] = ParseError, prefix: str = "") -> object:
    """The :func:`json_value` of a whole :func:`read_text` file; a ValueError is an
    ``error``."""
    try:
        return json_value(read_text(path))
    except ValueError as exc:
        raise error(f"{prefix}not valid JSON: {exc}", path=str(path)) from None


NAME_ARRAY = "array of strings, numbers, booleans or nulls"  # items read as record cells are
_JSON_TYPES = {
    "string": (str,), "integer": (int,), "number": (int, float), "object": (dict,),
    NAME_ARRAY: (list,),
}


def require_json_type(key: str, value: object, kind: str) -> None:
    """ValueError unless the ``value`` of ``key`` is a JSON ``kind``: a bool is no integer
    or number, and an array item no array or object."""
    nested = type(value) is list and any(isinstance(item, (list, dict)) for item in value)
    if nested or type(value) not in _JSON_TYPES[kind]:
        raise ValueError(f"{key} must be a JSON {kind}, got {reprlib.repr(value)}")
