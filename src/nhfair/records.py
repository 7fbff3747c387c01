"""Prediction-log data model and input files.

A *run* is one classifier evaluated on one dataset split: a manifest
(method, dataset, seed, split, utility kind, label/group spaces) plus one
record per sample. Records arrive as JSONL or CSV with a JSON manifest
sidecar named ``<basename>.manifest.json``; the exact layouts are
documented on :func:`parse_run` and :func:`write_run`. This module also
reads summary tables (:func:`parse_summaries`) and holds the text and
CSV rules every reader shares (:func:`read_text`, :func:`read_csv_table`).

A run's records are held as numpy columns by ``columns.EvaluationRun``.
That module, and numpy with it, is imported only when a log is read or
written, so reading summary tables needs neither.

Everything here is an immutable value object. Parsing is a pure function
of the file bytes, so files may be parsed concurrently and the results
shared across threads.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import reprlib
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    MalformedLine,
    MalformedRow,
    ParseError,
    UtilityOutOfRange,
)
from .selection import RunResult

if TYPE_CHECKING:
    from .columns import EvaluationRun

SPLITS = ("train", "validation", "test")
UTILITY_KINDS = ("accuracy", "auc")

# Reserved summary-CSV column names; every other column is a group.
_SUMMARY_RESERVED = ("run_id", "method", "overall", "dp", "eqodd")


@dataclass(frozen=True)
class LabelSpace:
    """Ordered set of class labels; ``positive_label`` anchors binary DP/AUC."""

    labels: tuple[str, ...]
    positive_label: str = ""

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ValueError("label space needs at least 2 labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        if not self.positive_label:
            object.__setattr__(self, "positive_label", self.labels[-1])
        elif self.positive_label not in self.labels:
            raise ValueError(f"positive_label {self.positive_label!r} not in labels")

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class GroupSpace:
    """Ordered set of sensitive-group identifiers."""

    groups: tuple[str, ...]

    def __post_init__(self):
        if len(self.groups) < 2:
            raise ValueError("group space needs at least 2 groups")
        if len(set(self.groups)) != len(self.groups):
            raise ValueError("groups must be distinct")

    @property
    def size(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class PredictionRecord:
    """One sample: true label, predicted label, group, optional score map.

    ``scores`` maps labels to probabilities in [0, 1]. A partial map is
    legal; an empty map is normalized to None at parse time.
    """

    sample_id: str
    true_label: str
    predicted_label: str
    group: str
    scores: dict[str, float] | None = None


@dataclass(frozen=True)
class RunManifest:
    method: str
    dataset: str
    seed: int
    split: str
    utility_kind: str
    label_space: LabelSpace
    group_space: GroupSpace

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.utility_kind not in UTILITY_KINDS:
            raise ValueError(
                f"utility_kind must be one of {UTILITY_KINDS}, got {self.utility_kind!r}"
            )
        if self.utility_kind == "auc" and self.label_space.size != 2:
            raise ValueError("auc runs require a binary label space")

    @property
    def run_id(self) -> str:
        return f"{self.method}:{self.dataset}:seed{self.seed}:{self.split}"

    def identity(self) -> dict[str, object]:
        """The fields that a result of this run takes from its manifest."""
        return {"run_id": self.run_id, "method": self.method, "dataset": self.dataset,
                "seed": self.seed, "split": self.split}


_MANIFEST_SUFFIX = ".manifest.json"


def _manifest_path(path: Path) -> Path:
    return path.parent / (path.stem + _MANIFEST_SUFFIX)


def _suffix_format(path: Path) -> str:
    """The record format a file's suffix names, in any case: ``jsonl`` for ``run.JSONL``."""
    return path.suffix.lstrip(".").lower()


def _record_format(path: Path) -> str:
    format = _suffix_format(path)
    if format not in ("jsonl", "csv"):
        raise ParseError(f"unsupported record format {format!r}", path=str(path))
    return format


def is_prediction_log(path: Path) -> bool:
    """A ``.jsonl`` file, or a ``.csv`` with its sidecar, is a log; any other file a table."""
    format = _suffix_format(path)
    return format == "jsonl" or (format == "csv" and _manifest_path(path).exists())


def is_manifest(path: Path) -> bool:
    """Whether a file is a manifest sidecar, which is read along with its log."""
    return path.name.endswith(_MANIFEST_SUFFIX)


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


def read_json(path: Path, error: type[ParseError] = ParseError, prefix: str = "") -> object:
    """The JSON value of a whole :func:`read_text` file; text that is not JSON is an ``error``."""
    try:
        return json.loads(read_text(path))
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        reason = str(exc)
    except RecursionError:
        reason = "nested too deeply"
    raise error(f"{prefix}not valid JSON: {reason}", path=str(path))


_NAMES = "array of strings, numbers, booleans or nulls"  # items read as record cells are
_JSON_TYPES = {
    "string": (str,), "integer": (int,), "number": (int, float), "object": (dict,), _NAMES: (list,)
}


def require_json_type(key: str, value: object, kind: str) -> None:
    """ValueError unless the ``value`` of ``key`` is a JSON ``kind``: a bool is no integer
    or number, and an array item no array or object."""
    nested = type(value) is list and any(isinstance(item, (list, dict)) for item in value)
    if nested or type(value) not in _JSON_TYPES[kind]:
        raise ValueError(f"{key} must be a JSON {kind}, got {reprlib.repr(value)}")


@dataclass
class _Sidecar:
    """The keys of a manifest sidecar in the order written, each with its JSON ``kind`` and
    the ``source`` of its value in a RunManifest; a key with a default is optional."""

    method: str = field(metadata={"kind": "string", "source": "method"})
    dataset: str = field(metadata={"kind": "string", "source": "dataset"})
    seed: int = field(metadata={"kind": "integer", "source": "seed"})
    split: str = field(metadata={"kind": "string", "source": "split"})
    utility_kind: str = field(metadata={"kind": "string", "source": "utility_kind"})
    labels: list = field(metadata={"kind": _NAMES, "source": "label_space.labels"})
    groups: list = field(metadata={"kind": _NAMES, "source": "group_space.groups"})
    positive_label: str = field(
        default="", metadata={"kind": "string", "source": "label_space.positive_label"}
    )


SIDECAR_KEYS = fields(_Sidecar)


def _load_manifest(record_path: Path) -> RunManifest:
    mpath = _manifest_path(record_path)
    if not mpath.exists():
        raise ParseError(f"manifest sidecar not found: {mpath}", path=str(record_path))
    raw = read_json(mpath, MalformedLine, "manifest is ")
    try:  # the presence of each required key, then each key's JSON type, in table order
        doc = {k.name: raw[k.name] if k.default is MISSING else raw.get(k.name, k.default)
               for k in SIDECAR_KEYS}
        for key in SIDECAR_KEYS:
            require_json_type(key.name, doc[key.name], key.metadata["kind"])
        labels = LabelSpace(tuple(map(str, doc.pop("labels"))), doc.pop("positive_label"))
        groups = GroupSpace(tuple(map(str, doc.pop("groups"))))
        manifest = RunManifest(**doc, label_space=labels, group_space=groups)
        # a "\ud800" escape decodes to a lone surrogate, which no output can encode
        for name in (manifest.method, manifest.dataset, *labels.labels, *groups.groups):
            name.encode("utf-8")
        return manifest
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedLine(f"bad manifest: {exc}", path=str(mpath)) from exc


def parse_run(path: str | Path) -> EvaluationRun:
    """Parse a record file plus its manifest sidecar into a validated run.

    JSONL layout: one object per line with fields ``sample_id``, ``y``,
    ``y_hat``, ``group`` and an optional ``scores`` map (label -> [0, 1]).
    CSV layout: header ``sample_id,y,y_hat,group[,score:<label>...]``;
    a blank score cell means that label is absent from the record's map.
    The file's suffix, in any case, names its layout.

    Records come back sorted by ``sample_id`` ascending so every
    downstream aggregation is order-deterministic. A file that is not
    UTF-8 text is reported at the line of its first undecodable byte,
    ahead of any other fault, also one that stopped reading short of
    that byte; of several other faults in a file, the one on the first
    line is reported.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError("file not found", path=str(path))
    format = _record_format(path)
    manifest = _load_manifest(path)
    from . import columns  # numpy: loaded only where a log is read

    try:
        return columns.parse_records(path, format, manifest)
    except (ParseError, UnicodeDecodeError) as exc:
        raise (utf8_fault(path) or exc) from None


def write_run(run: EvaluationRun, path: str | Path) -> None:
    """Serialize a run to JSONL or CSV plus the manifest sidecar.

    Round-trip stable: ``parse_run(write_run(run)) == run`` for any valid
    run (records are written in canonical sample_id order). Records are
    formatted column by column and streamed to the file, never held whole
    in memory; the bytes are those of one ``json.dumps`` per JSONL record,
    or of a CSV row with ``repr`` of each score. A JSONL log escapes a lone
    surrogate in a sample id; a CSV log cannot hold one, and a run with
    such an id raises ValueError naming it before any file is written.
    """
    path = Path(path)
    format = _record_format(path)
    from . import columns  # numpy: loaded only where a log is written

    if format == "csv":
        columns.require_csv_text(run, path)  # before any file is written
    mdoc = {key.name: attrgetter(key.metadata["source"])(run.manifest) for key in SIDECAR_KEYS}
    _manifest_path(path).write_text(json.dumps(mdoc, indent=2) + "\n", encoding="utf-8")
    columns.write_records(run, path, format)


def _percent_marked(text: str) -> tuple[str, bool]:
    """Stripped text without a trailing ``%``, and whether it had one."""
    text = text.strip()
    return (text[:-1].strip(), True) if text.endswith("%") else (text, False)


def _parse_utility_cell(cell: str, percent_column: bool, path: str, line: int) -> float:
    """Parse one utility value; '%' on the header or the value means 0-100 units."""
    text, percent = _percent_marked(cell)
    percent = percent or percent_column
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(f"utility cell {cell!r} is not a number", path=path, line=line) from None
    if percent:
        value /= 100.0
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise UtilityOutOfRange(f"utility {cell!r} outside [0, 1]", path=path, line=line)
    return value


def parse_summaries(path: str | Path) -> list[RunResult]:
    """Parse a summary CSV: ``run_id,method,<group>[%],...,overall[%]``.

    Each row is a :class:`RunResult` without dataset, seed or split.
    Columns named ``dp``/``eqodd`` (optionally %-marked) populate the
    corresponding optional fields; every other non-reserved column is a
    group utility. Column names, ``%`` marker aside, must be distinct.
    Values in percent units must be marked with ``%`` on the header or on
    the value itself; unmarked values must already lie in [0, 1].
    """
    path = Path(path)
    if not path.exists():
        raise ParseError("file not found", path=str(path))
    header, rows, lines, fault = read_csv_table(path, MalformedRow)
    if header is None:
        raise MalformedRow("empty file, expected a header", path=str(path), line=1)

    columns = [_percent_marked(col) for col in header]  # (name, percent marker)
    names = [name for name, _ in columns]
    require_distinct_columns(names, path)
    if "run_id" not in names or "method" not in names or "overall" not in names:
        raise MalformedRow(
            "header must contain run_id, method and overall columns",
            path=str(path),
            line=1,
        )
    group_cols = [name for name in names if name not in _SUMMARY_RESERVED]
    if len(group_cols) < 2:
        raise MalformedRow("header must name at least 2 group columns", path=str(path), line=1)
    markers = dict(columns)

    summaries: list[RunResult] = []
    for line_no, row in zip(lines, rows):
        cells = dict(zip(names, row))
        utilities = {
            g: _parse_utility_cell(cells[g], markers[g], str(path), line_no) for g in group_cols
        }
        overall = _parse_utility_cell(cells["overall"], markers["overall"], str(path), line_no)
        dp = eqodd = None
        if "dp" in cells and cells["dp"].strip():
            dp = _parse_utility_cell(cells["dp"], markers["dp"], str(path), line_no)
        if "eqodd" in cells and cells["eqodd"].strip():
            eqodd = _parse_utility_cell(cells["eqodd"], markers["eqodd"], str(path), line_no)
        summaries.append(
            RunResult.from_utilities(
                cells["run_id"].strip(), cells["method"].strip(), utilities, overall,
                dp=dp, eqodd=eqodd,
            )
        )
    if fault is not None:
        raise fault
    return summaries
