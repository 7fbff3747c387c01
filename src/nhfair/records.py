"""Prediction logs: the run model, and reading and writing log files.

A *run* is one classifier evaluated on one dataset split: a manifest
(method, dataset, seed, split, utility kind, label/group spaces) plus one
record per sample. Records arrive as JSONL or CSV with a JSON manifest
sidecar named ``<basename>.manifest.json``; the exact layouts are
documented on :func:`parse_run` and :func:`write_run`. An input's kind
and the text, CSV and JSON rules every reader shares, the nesting limit
``MAX_DEPTH`` included, are those of ``inputs``; summary tables are read
by ``selection.parse_summaries``. ``metrics`` and ``synth`` build on the
run model. The module needs the standard library alone (and orjson where
a JSONL log is read), so no command that reads a log loads numpy.

An ``EvaluationRun`` holds its records as columns sorted by
``sample_id``, so downstream aggregation never depends on input file
order: a tuple of the sample ids; the group, true label and predicted
label of each record as small-int codes into the manifest's group and
label tuples, each an ``array.array`` of the smallest signed type that
holds them; and one ``array('d')`` of scores per label, in which NaN
marks an absent score, or None for a run without scores. No Python
object is held per record but its sample id. :func:`parse_run` decodes
each file into these columns (a JSONL file by orjson, its lines first
checked against ``MAX_DEPTH``; see :func:`_parse_jsonl`) and validates
them column by column, in input order: label and group cells are looked
up as decoded, repeated ids are found with a set, the scores of each
label are checked by one sum, min and max, and the rows each fault flags
are listed only for a run that has a fault. A run is sorted once, when
``EvaluationRun`` is built. For callers that want rows,
``EvaluationRun.records`` is a read-only view of the same records as
``PredictionRecord`` values, and ``EvaluationRun.from_records`` builds a
run from rows. :func:`write_run` writes the records column by column,
streamed to the file: each column is formatted once (strings quoted by
json's own encoder, each label and group name once per run; scores by
``float.__repr__``), and the bytes are those of one ``json.dumps`` per
record.

The manifest model and the records are named tuples, immutable and equal
to the plain tuple of their fields; ``LabelSpace``, ``GroupSpace`` and
``RunManifest`` check their fields on construction, through ``_replace``
too. ``EvaluationRun`` is a plain class, and its columns are never
modified once a run is built. Parsing is a pure function of the file
bytes, so files may be parsed concurrently and the results shared across
threads. The module loads no ``dataclasses``, which every command would
otherwise pay for at start-up.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property, partial
from itertools import accumulate, count, islice, repeat
from operator import attrgetter, is_not, itemgetter, le
from pathlib import Path
from typing import NamedTuple

from .errors import (
    DuplicateSampleId,
    EmptyGroup,
    MalformedLine,
    MissingScores,
    ParseError,
    UnknownGroup,
    UnknownLabel,
)
from .inputs import (
    JSONL_LOG,
    MAX_DEPTH,
    NAME_ARRAY,
    _too_deep,
    json_value,
    log_kind,
    manifest_path,
    read_csv_table,
    read_json,
    require_json_type,
    suffix_format,
    utf8_fault,
)

SPLITS = ("train", "validation", "test")
UTILITY_KINDS = ("accuracy", "auc")

# Fields every record carries, in the order a missing one is reported;
# also the leading CSV columns.
_FIELDS = ("sample_id", "y", "y_hat", "group")
_get_fields = itemgetter(*_FIELDS)
_quote = json.encoder.encode_basestring_ascii  # json.dumps' own string encoder
_PLAIN_CELLS = {str, int, float, bool, type(None)}  # JSON scalars
_SCORES_KEY = ', "scores": {'
_BLANK = object()  # a line of whitespace only
_NO_SCORES: dict[str, object] = {}
# The score of a label a JSONL record does not map: a NaN that no decoder
# returns, so absent cells are counted and skipped by identity.
_ABSENT = float("nan")
_BUFFER_TYPES = "?bBhHiIlLqQfd"  # buffer formats of bools and numbers


def _checked_make(cls, values: Iterable) -> tuple:
    """A checked named tuple's ``_make``, and so its ``_replace``: through its checks."""
    return cls(*values)


class LabelSpace(namedtuple("LabelSpace", ["labels", "positive_label"])):
    """Ordered set of class labels; ``positive_label`` (default: the last label)
    anchors binary DP/AUC."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, labels: tuple[str, ...], positive_label: str = "") -> LabelSpace:
        if len(labels) < 2:
            raise ValueError("label space needs at least 2 labels")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        if positive_label and positive_label not in labels:
            raise ValueError(f"positive_label {positive_label!r} not in labels")
        return super().__new__(cls, labels, positive_label or labels[-1])

    @property
    def size(self) -> int:
        return len(self.labels)


class GroupSpace(namedtuple("GroupSpace", ["groups"])):
    """Ordered set of sensitive-group identifiers."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, groups: tuple[str, ...]) -> GroupSpace:
        if len(groups) < 2:
            raise ValueError("group space needs at least 2 groups")
        if len(set(groups)) != len(groups):
            raise ValueError("groups must be distinct")
        return super().__new__(cls, groups)

    @property
    def size(self) -> int:
        return len(self.groups)


class PredictionRecord(NamedTuple):
    """One sample: true label, predicted label, group, optional score map.

    ``scores`` maps labels to probabilities in [0, 1]. A partial map is
    legal; an empty map is normalized to None at parse time.
    """

    sample_id: str
    true_label: str
    predicted_label: str
    group: str
    scores: dict[str, float] | None = None


class RunManifest(namedtuple(
    "RunManifest",
    ["method", "dataset", "seed", "split", "utility_kind", "label_space", "group_space"],
)):
    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(
        cls,
        method: str,
        dataset: str,
        seed: int,
        split: str,
        utility_kind: str,
        label_space: LabelSpace,
        group_space: GroupSpace,
    ) -> RunManifest:
        if split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
        if utility_kind not in UTILITY_KINDS:
            raise ValueError(f"utility_kind must be one of {UTILITY_KINDS}, got {utility_kind!r}")
        if utility_kind == "auc" and label_space.size != 2:
            raise ValueError("auc runs require a binary label space")
        return super().__new__(
            cls, method, dataset, seed, split, utility_kind, label_space, group_space
        )

    @property
    def run_id(self) -> str:
        return f"{self.method}:{self.dataset}:seed{self.seed}:{self.split}"

    def identity(self) -> dict[str, object]:
        """The fields that a result of this run takes from its manifest."""
        return {"run_id": self.run_id, "method": self.method, "dataset": self.dataset,
                "seed": self.seed, "split": self.split}


class SidecarKey(NamedTuple):
    """A key of a manifest sidecar: its JSON ``kind``, the ``source`` of its value in a
    RunManifest, and the ``default`` of an optional key (None: the key is required)."""

    name: str
    kind: str
    source: str
    default: str | None = None


SIDECAR_KEYS = (  # in the order written
    SidecarKey("method", "string", "method"),
    SidecarKey("dataset", "string", "dataset"),
    SidecarKey("seed", "integer", "seed"),
    SidecarKey("split", "string", "split"),
    SidecarKey("utility_kind", "string", "utility_kind"),
    SidecarKey("labels", NAME_ARRAY, "label_space.labels"),
    SidecarKey("groups", NAME_ARRAY, "group_space.groups"),
    SidecarKey("positive_label", "string", "label_space.positive_label", default=""),
)


def _load_manifest(record_path: Path) -> RunManifest:
    mpath = manifest_path(record_path)
    raw = read_json(mpath, MalformedLine, "manifest is ")
    try:  # the presence of each required key, then each key's JSON type, in table order
        doc = {k.name: raw[k.name] if k.default is None else raw.get(k.name, k.default)
               for k in SIDECAR_KEYS}
        for key in SIDECAR_KEYS:
            require_json_type(key.name, doc[key.name], key.kind)
        labels = LabelSpace(tuple(map(str, doc.pop("labels"))), doc.pop("positive_label"))
        groups = GroupSpace(tuple(map(str, doc.pop("groups"))))
        manifest = RunManifest(**doc, label_space=labels, group_space=groups)
        # a "\ud800" escape decodes to a lone surrogate, which no output can encode
        for name in (manifest.method, manifest.dataset, *labels.labels, *groups.groups):
            name.encode("utf-8")
        return manifest
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedLine(f"bad manifest: {exc}", path=str(mpath)) from exc


def code_type(size: int) -> str:
    """Smallest signed array typecode that holds -1 and every code below ``size``."""
    return next(t for t in "bhiq" if size <= 1 << (8 * array(t).itemsize - 1))


def _column(values: Sequence, typecode: str) -> array:
    """A new ``typecode`` array of ``values``: any sequence, a numpy array included.

    A one-dimensional buffer of numbers or bools (an ``array``, a numpy
    array) is read through a memoryview, and copied as bytes where its
    type is ``typecode``.
    """
    try:
        view = memoryview(values)
    except TypeError:
        return array(typecode, values)
    with view:
        if view.ndim != 1 or view.format not in _BUFFER_TYPES:
            return array(typecode, values)
        return array(typecode, view.tobytes() if view.format == typecode else view.tolist())


def _float_or_nan(value: object) -> float:
    """``float(value)``, or NaN where ``float`` rejects it (a blank CSV cell: absent)."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _in_unit_range(values: array) -> bool:
    """Whether every value is a number in [0, 1]: a NaN makes the sum NaN, an infinity
    leaves the min or max out of range."""
    total = sum(values)
    return total == total and (not values or (min(values) >= 0.0 and max(values) <= 1.0))


def _same_scores(a: tuple[array, ...] | None, b: tuple[array, ...] | None) -> bool:
    """Whether two runs' score columns are equal, a NaN equal to a NaN."""
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(
        x == y or (len(x) == len(y) and all(p == q or p != p and q != q for p, q in zip(x, y)))
        for x, y in zip(a, b)
    )


class EvaluationRun:
    """One run's records as columns, sorted by ``sample_id`` on construction.

    ``sample_ids`` is a tuple of str. ``group``, ``y`` and ``y_hat`` are
    codes into ``manifest.group_space.groups`` and
    ``manifest.label_space.labels``, held as ``array.array`` of the
    smallest signed type that fits. ``scores`` holds one ``array('d')`` per
    label with NaN for an absent score; it is None for a run without
    scores, also where every given score is NaN. Any sequences may be
    passed, numpy arrays included; the run keeps copies. Columns are taken
    as valid: use :meth:`from_records` or :func:`parse_run` to validate
    records.
    """

    manifest: RunManifest
    sample_ids: tuple[str, ...]
    group: array
    y: array
    y_hat: array
    scores: tuple[array, ...] | None

    def __init__(
        self,
        manifest: RunManifest,
        sample_ids: Sequence[str],
        group: Sequence,
        y: Sequence,
        y_hat: Sequence,
        scores: Sequence[Sequence] | None = None,
    ):
        keys = tuple(sample_ids)
        n = len(keys)
        order: list[int] | None = None
        if not all(map(le, keys, islice(keys, 1, None))):  # in order already, as nhfair writes logs
            order = sorted(range(n), key=keys.__getitem__)
            keys = tuple(map(keys.__getitem__, order))

        def column(name: str, values: Sequence, typecode: str) -> array:
            if len(values) != n:
                raise ValueError(f"column {name} has {len(values)} values, expected {n}")
            copy = _column(values, typecode)  # never the caller's sequence
            return copy if order is None else array(typecode, map(copy.__getitem__, order))

        n_labels = manifest.label_space.size
        code = code_type(n_labels)
        self.manifest = manifest
        self.sample_ids = keys
        self.group = column("group", group, code_type(manifest.group_space.size))
        self.y = column("y", y, code)
        self.y_hat = column("y_hat", y_hat, code)
        self.scores = None
        if scores is not None:
            if len(scores) != n_labels:
                raise ValueError(
                    f"scores has {len(scores)} columns, expected one per label ({n_labels})"
                )
            columns = tuple(column("scores", values, "d") for values in scores)
            if any(value == value for values in columns for value in values):
                self.scores = columns  # else no score present: a run without scores

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvaluationRun):
            return NotImplemented
        return (
            self.manifest == other.manifest
            and self.sample_ids == other.sample_ids
            and self.group == other.group
            and self.y == other.y
            and self.y_hat == other.y_hat
            and _same_scores(self.scores, other.scores)
        )

    __hash__ = None  # type: ignore[assignment]

    @cached_property
    def records(self) -> "RecordView":
        """The records as ``PredictionRecord`` rows, in sample_id order."""
        return RecordView(self)

    @classmethod
    def from_records(
        cls, manifest: RunManifest, records: Iterable[PredictionRecord]
    ) -> "EvaluationRun":
        """Validate rows in any order as :func:`parse_run` validates a log.

        An error names the offending record's 1-based position as its line.
        """
        rows = list(records)
        columns = [
            [r.sample_id for r in rows],
            [r.true_label for r in rows],
            [r.predicted_label for r in rows],
            [r.group for r in rows],
        ]
        scores, checks = _mapped_scores([r.scores for r in rows], manifest.label_space.labels)
        return _finish_run(manifest, None, range(1, len(rows) + 1), columns, scores, checks)


def _score_maps(
    labels: tuple[str, ...], scores: tuple[array, ...] | None
) -> Iterable[dict[str, float] | None]:
    """Each record's label -> score map over its present scores, label order."""
    if scores is None:
        return repeat(None)
    return (
        {label: value for label, value in zip(labels, row) if value == value}  # NaN: absent
        for row in zip(*scores)
    )


class RecordView(Sequence):
    """A run's records as ``PredictionRecord`` rows, built on first use.

    Equal to the tuple of the same rows. ``len`` builds nothing.
    """

    __slots__ = ("_manifest", "_columns", "_rows")

    def __init__(self, run: EvaluationRun):
        # the run's values, not the run: the run caches this view, and a
        # reference back would make a cycle that only the cyclic GC frees
        self._manifest = run.manifest
        self._columns = (run.sample_ids, run.group, run.y, run.y_hat, run.scores)
        self._rows: tuple[PredictionRecord, ...] | None = None

    def _all(self) -> tuple[PredictionRecord, ...]:
        if self._rows is None:
            labels = self._manifest.label_space.labels
            groups = self._manifest.group_space.groups
            sample_ids, group, y, y_hat, scores = self._columns
            self._rows = tuple(
                PredictionRecord(
                    sample_id=sample_id,
                    true_label=labels[y],
                    predicted_label=labels[y_hat],
                    group=groups[group],
                    scores=scores or None,
                )
                for sample_id, group, y, y_hat, scores in zip(
                    sample_ids, group, y, y_hat, _score_maps(labels, scores)
                )
            )
        return self._rows

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        return self._all()[index]

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordView):
            other = other._all()
        if isinstance(other, tuple):
            return self._all() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RecordView({self._all()!r})"


# A fault is the error class and message of a record, or None for a record
# without that fault; a check is the records, in input order, that a fault
# flags and the fault itself.
Fault = Callable[[int], "tuple[type[ParseError], str] | None"]
Check = tuple[Sequence[int], Fault]


def _raise_first(checks: list[Check], path: str | None, lines: Sequence[int]) -> None:
    """Raise the fault of the earliest flagged record; on one record the earlier check wins."""
    first: tuple[int, Fault] | None = None
    for rows, fault in checks:
        if rows and (first is None or rows[0] < first[0]):
            first = (rows[0], fault)
    if first is not None:
        row, fault = first
        cls, message = fault(row)
        raise cls(message, path=path, line=lines[row])


def _flagged(fault: Fault, n: int) -> Check:
    """The check of ``fault`` over records ``0 .. n-1``."""
    return [row for row in range(n) if fault(row)], fault


def _mapped_scores(
    maps: list[dict | None], labels: tuple[str, ...]
) -> tuple[tuple[array, ...] | None, list[Check]]:
    """Score columns of per-record label -> score maps, and their check.

    A record's map is checked label by label (a value ``float()`` rejects,
    then one outside [0, 1]), then for a key outside the label space. Each
    label's scores are checked together first; records are checked one by
    one only where that finds a fault, or a value ``float()`` alone reads.
    """
    n = len(maps)
    if maps.count(None) == n:
        return None, []
    maps = [m or _NO_SCORES for m in maps]
    columns = []
    present = 0
    clean = True
    for label in labels:
        cells = [*map(dict.get, maps, repeat(label), repeat(_ABSENT))]
        absent = cells.count(_ABSENT)  # by identity: no decoder returns _ABSENT
        present += n - absent
        try:
            column = array("d", cells)
        except (TypeError, OverflowError):  # a string, null, array or object, or a huge integer
            columns.append(array("d", map(_float_or_nan, cells)))
            clean = False
            continue
        given = array("d", filter(partial(is_not, _ABSENT), cells)) if absent else column
        clean = clean and _in_unit_range(given)
        columns.append(column)
    if clean and sum(map(len, maps)) == present:  # no key outside the label space
        return tuple(columns), []

    def fault(row: int) -> tuple[type[ParseError], str] | None:
        record = maps[row]
        for label in labels:
            if label in record:
                try:
                    value = float(record[label])
                except (TypeError, ValueError, OverflowError):
                    return MalformedLine, f"score for {label!r} is not a number"
                if not 0.0 <= value <= 1.0:
                    return MalformedLine, f"score for {label!r} out of [0, 1]: {value}"
        key = next((k for k in record if k not in labels), None)
        return None if key is None else (UnknownLabel, f"score key {key!r} not in label space")

    return tuple(columns), [_flagged(fault, n)]


def _codes(cells: Sequence, space: tuple[str, ...]) -> array:
    """Index of each cell in ``space``, or -1 where it is not a member.

    A cell names the member equal to its ``str()``, so a JSON number or
    bool names a label or group by its text. Cells are looked up as they
    are first; only a column in which one misses is mapped through ``str``.
    """
    index = {name: i for i, name in enumerate(space)}
    typecode = code_type(len(space))
    try:
        return array(typecode, map(index.__getitem__, cells))
    except (KeyError, TypeError):  # not a member as it is, or unhashable (a JSON array)
        return array(typecode, map(index.get, map(str, cells), repeat(-1)))


def _finish_run(
    manifest: RunManifest,
    path: str | None,
    lines: Sequence[int],
    columns: Sequence[Sequence],
    scores: tuple[array, ...] | None,
    checks: list[Check],
    pending: ParseError | None = None,
) -> EvaluationRun:
    """Validate decoded records and build the run.

    ``columns`` are the sample_id, y, y_hat and group of the records
    decoded, in input order, ``scores`` their score columns (NaN: absent)
    and ``checks`` their decode faults; ``pending`` is the fault of the
    input line after the last of them, if decoding stopped there. As when
    records are checked one at a time, in input order, the first decode
    fault wins, then the pending one; then, again in input order, duplicate
    ids, unknown labels and groups and missing auc scores (see
    :func:`_raise_record_fault`); then groups without records. A sample id
    is compared by its ``str()``.
    """
    _raise_first(checks, path, lines)
    if pending is not None:
        raise pending
    if not lines:
        raise ParseError("run contains no records", path=path)
    ids = [*map(str, columns[0])]
    labels = manifest.label_space.labels
    group_names = manifest.group_space.groups
    y = _codes(columns[1], labels)
    y_hat = _codes(columns[2], labels)
    group = _codes(columns[3], group_names)
    bad = -1 in y or -1 in y_hat or -1 in group or len(set(ids)) < len(ids)
    if manifest.utility_kind == "auc" and not bad:
        # the decode checks passed, so a present score is in [0, 1] and the
        # sum is NaN only where a record lacks the positive score
        positive = labels.index(manifest.label_space.positive_label)
        total = math.nan if scores is None else sum(scores[positive])
        bad = total != total
    if bad:
        _raise_record_fault(manifest, path, lines, ids, columns, (y, y_hat, group), scores)

    missing = [g for i, g in enumerate(group_names) if i not in group]
    if missing:
        raise EmptyGroup(f"no records for group(s): {', '.join(missing)}", path=path)
    return EvaluationRun(manifest, ids, group, y, y_hat, scores)


def _negative(codes: array) -> list[int]:
    """The rows whose cell named no member (code -1)."""
    return [row for row, code in enumerate(codes) if code < 0]


def _raise_record_fault(
    manifest: RunManifest,
    path: str | None,
    lines: Sequence[int],
    ids: list[str],
    columns: Sequence[Sequence],
    codes: tuple[array, array, array],
    scores: tuple[array, ...] | None,
) -> None:
    """Raise the first record fault: on one record, a repeated id, then an
    unknown label, prediction or group, then a missing auc score."""
    first_row = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    ys, y_hats, groups = columns[1:]
    y, y_hat, group = codes
    record_checks: list[Check] = [
        ([row for row, i in enumerate(ids) if first_row[i] != row], lambda row: (
            DuplicateSampleId,
            f"sample_id {ids[row]!r} already seen on line {lines[first_row[ids[row]]]}",
        )),
        (_negative(y), lambda row: (UnknownLabel, f"label {str(ys[row])!r} not in manifest")),
        (_negative(y_hat), lambda row: (
            UnknownLabel, f"label {str(y_hats[row])!r} not in manifest"
        )),
        (_negative(group), lambda row: (
            UnknownGroup, f"group {str(groups[row])!r} not in manifest"
        )),
    ]
    if manifest.utility_kind == "auc":
        labels = manifest.label_space.labels
        positive = manifest.label_space.positive_label
        c = labels.index(positive)
        rows = [()] * len(ids) if scores is None else [*zip(*scores)]  # NaN: absent
        record_checks += [
            ([row for row, values in enumerate(rows) if not any(v == v for v in values)],
             lambda row: (MissingScores, f"auc run but record {ids[row]!r} has no scores")),
            ([row for row, values in enumerate(rows) if not values or values[c] != values[c]],
             lambda row: (
                MissingScores,
                f"auc run but record {ids[row]!r} lacks a score for the "
                f"positive label {positive!r}",
            )),
        ]
    _raise_first(record_checks, path, lines)


def _json_line(raw: str) -> object:
    """json's value of a line, or ``_BLANK`` for a blank one.

    ValueError if the line nests deeper than ``MAX_DEPTH`` or is not one
    JSON value.
    """
    return json_value(raw) if raw.strip() else _BLANK


def _wide_cells(columns: tuple[list, ...]) -> bool:
    """Whether orjson may read a cell otherwise than json does.

    orjson reads an integer outside 64 bits as a float, of magnitude 2**63
    or more. An array or object cell may hold one.
    """
    for cells in columns:
        kinds = set(map(type, cells))
        if not kinds <= _PLAIN_CELLS:
            return True
        if float in kinds and any(abs(c) >= 2.0**63 for c in cells if type(c) is float):
            return True
    return False


def _decode_jsonl(
    path: Path, loads: Callable[[str], object]
) -> tuple[list[int], tuple[list, ...], list[dict | None], ParseError | None]:
    """Fields of the records on the non-blank lines before the first faulty one.

    Returns their line numbers, their sample_id, y, y_hat and group
    columns, their score maps, and the fault of the line that stopped
    decoding (or None): nested deeper than ``MAX_DEPTH``, not one JSON
    value, not an object, a missing field or a ``scores`` that is not an
    object. Lines are numbered as iterating the text file yields them.
    Each line is read by ``loads``, which must reject what is not JSON,
    and by :func:`_json_line` where ``loads`` raises. A line that ``loads``
    reads is valid JSON, which nests at most half its length deep, so a
    line is checked for depth before ``loads`` reads it only where it is
    longer than ``2 * MAX_DEPTH`` characters.
    """
    lines: list[int] = []
    columns: tuple[list, ...] = ([], [], [], [])
    add_id, add_y, add_y_hat, add_group = (column.append for column in columns)
    maps: list[dict | None] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                if len(raw) > 2 * MAX_DEPTH and _too_deep(raw):
                    raise ValueError  # named by _json_line
                value = loads(raw)
            except ValueError:  # json decides
                try:
                    value = _json_line(raw)
                except ValueError as exc:  # or an integer of too many digits
                    error = MalformedLine(f"invalid JSON: {exc}", path=str(path), line=line_no)
                    return lines, columns, maps, error
            if value is _BLANK:
                continue
            try:
                sample_id, y, y_hat, group = _get_fields(value)
                scores = value.get("scores")
                if scores is not None and not isinstance(scores, dict):
                    raise TypeError
            except (KeyError, TypeError):
                error = MalformedLine(_record_fault(value), path=str(path), line=line_no)
                return lines, columns, maps, error
            lines.append(line_no)
            add_id(sample_id)
            add_y(y)
            add_y_hat(y_hat)
            add_group(group)
            maps.append(scores)
    return lines, columns, maps, None


def _record_fault(value: object) -> str:
    if not isinstance(value, dict):
        return "record is not a JSON object"
    for name in _FIELDS:
        if name not in value:
            return f"missing field {name!r}"
    return "scores must be an object"


def _parse_jsonl(path: Path, manifest: RunManifest) -> EvaluationRun:
    """The run of a JSONL log, its lines read by ``orjson.loads``.

    json reads every line that orjson rejects (a blank line, ``NaN``,
    ``Infinity``, ``1e400``, a lone-surrogate escape, faulty JSON). Of
    lines that nest no deeper than ``MAX_DEPTH``, orjson reads every other
    one as json does, but for an integer outside 64 bits: a file in which
    a decoded cell may hold one (see :func:`_wide_cells`) is decoded again
    by json alone, so that each run, error message and line is json's.
    """
    import orjson  # loaded only where a JSONL log is read

    lines, columns, maps, pending = _decode_jsonl(path, orjson.loads)
    if _wide_cells(columns):
        lines, columns, maps, pending = _decode_jsonl(path, _json_line)
    scores, checks = _mapped_scores(maps, manifest.label_space.labels)
    return _finish_run(manifest, str(path), lines, columns, scores, checks, pending)


def _last_filled(cells: tuple[str, ...]) -> str:
    """The last non-blank cell, or ``""``."""
    return next(filter(None, reversed(cells)), "")


def _cell_scores(
    columns: list[tuple[str, ...]], column_labels: list[str], labels: tuple[str, ...]
) -> tuple[tuple[array, ...] | None, list[Check]]:
    """Score columns of CSV score cells, and their check; a blank cell is absent.

    A row is checked for a cell that is not a number (column order), then
    for a score outside [0, 1] (label order), then for a score under a
    label outside the label space. Of repeated columns the last non-blank
    cell counts. Each label's scores are checked together first; rows are
    checked one by one only where that finds a fault or a label repeats.
    """
    if not columns:
        return None, []
    n = len(columns[0])
    clean = len(set(column_labels)) == len(column_labels) and not any(
        any(cells) for name, cells in zip(column_labels, columns) if name not in labels
    )
    scores = []
    for label in labels:
        sources = [cells for name, cells in zip(column_labels, columns) if name == label]
        if len(sources) != 1:  # no column (every cell blank), or repeated columns
            sources = [[*map(_last_filled, zip(*sources, repeat("", n)))]]
        cells = sources[0]
        try:
            given = array("d", map(float, filter(None, cells)))
        except ValueError:
            clean, given = False, array("d")
        clean = clean and _in_unit_range(given)
        scores.append(given if len(given) == n else array("d", map(_float_or_nan, cells)))
    if clean:
        return tuple(scores), []

    def fault(row: int) -> tuple[type[ParseError], str] | None:
        for cells in columns:
            try:
                float(cells[row] or 0)  # a blank cell is absent
            except ValueError:
                return MalformedLine, f"score cell {cells[row]!r} is not a number"
        for label, column in zip(labels, scores):
            given = any(cells[row] for name, cells in zip(column_labels, columns) if name == label)
            if given and not 0.0 <= column[row] <= 1.0:
                return MalformedLine, f"score for {label!r} out of [0, 1]: {column[row]}"
        key = next((name for name, cells in zip(column_labels, columns)
                    if name not in labels and cells[row]), None)
        return None if key is None else (UnknownLabel, f"score key {key!r} not in label space")

    return tuple(scores), [_flagged(fault, n)]


def _parse_csv(path: Path, manifest: RunManifest) -> EvaluationRun:
    header, rows, lines, fault = read_csv_table(path, MalformedLine)
    if header is None:
        raise ParseError("run contains no records", path=str(path))
    if header[: len(_FIELDS)] != list(_FIELDS):
        raise MalformedLine(f"header must start with {','.join(_FIELDS)}", path=str(path), line=1)
    column_labels: list[str] = []
    for col in header[len(_FIELDS) :]:
        if not col.startswith("score:"):
            raise MalformedLine(f"unexpected column {col!r}", path=str(path), line=1)
        column_labels.append(col[len("score:") :])
    columns = list(zip(*rows))
    scores, checks = _cell_scores(
        columns[len(_FIELDS) :], column_labels, manifest.label_space.labels
    )
    return _finish_run(manifest, str(path), lines, columns[: len(_FIELDS)], scores, checks, fault)


def _record_format(path: Path) -> str:
    format = suffix_format(path)
    if format not in ("jsonl", "csv"):
        raise ParseError(f"unsupported record format {format!r}", path=str(path))
    return format


def parse_run(path: str | Path) -> EvaluationRun:
    """Parse a record file plus its manifest sidecar into a validated run.

    JSONL layout: one object per line with fields ``sample_id``, ``y``,
    ``y_hat``, ``group`` and an optional ``scores`` map (label -> [0, 1]).
    CSV layout: header ``sample_id,y,y_hat,group[,score:<label>...]``;
    a blank score cell means that label is absent from the record's map.
    The file's suffix, in any case, names its layout (``inputs.log_kind``).

    Records come back sorted by ``sample_id`` ascending so every
    downstream aggregation is order-deterministic. A missing log, then a
    missing sidecar, then a faulty one is reported first. A file that is
    not UTF-8 text is reported at the line of its first undecodable byte,
    ahead of any other fault, also one that stopped reading short of that
    byte; of several other faults in a file, the one on the first line is
    reported.
    """
    path = Path(path)
    return read_log(path, log_kind(path))


def read_log(path: Path, kind: str) -> EvaluationRun:
    """:func:`parse_run` of a log whose kind ``inputs.kind`` told; only an error makes it
    look at the file system, to report the first fault in parse_run's order."""
    manifest = None
    try:
        manifest = _load_manifest(path)
        return (_parse_jsonl if kind == JSONL_LOG else _parse_csv)(path, manifest)
    except (ParseError, UnicodeDecodeError, FileNotFoundError) as exc:
        if not path.exists():
            raise ParseError("file not found", path=str(path)) from None
        if manifest is not None:
            raise (utf8_fault(path) or exc) from None
        if not (mpath := manifest_path(path)).exists():
            raise ParseError(f"manifest sidecar not found: {mpath}", path=str(path)) from None
        raise


def _score_cells(
    column: array, prefix: str, non_finite: Callable[[float], str]
) -> Iterator[str]:
    """Lazily, ``prefix + repr(score)`` per record; NaN (absent) gives ``""``.

    A present score that is not finite is written ``prefix + non_finite(score)``.
    """
    cells = map(prefix.__add__, map(float.__repr__, column))
    if math.isfinite(sum(column)):  # neither NaN nor an infinity: no special cell
        return cells
    special = {
        row: prefix + non_finite(value) if value == value else ""
        for row, value in enumerate(column)
        if not math.isfinite(value)
    }
    return map(special.get, count(), cells)


def _jsonl_lines(run: EvaluationRun) -> Iterator[str]:
    """Each record as the line ``json.dumps`` writes for it, built column by column.

    Strings are quoted by json's own encoder, each label and group name
    once; present scores follow in label order, and a record without one
    gets no ``"scores"`` key.
    """
    manifest = run.manifest
    labels = [*map(_quote, manifest.label_space.labels)]
    groups = [*map(_quote, manifest.group_space.groups)]
    cells = [
        _score_cells(column, f", {label}: ", json.dumps)
        for label, column in zip(labels, run.scores or ())
    ]
    scores = map("".join, zip(*cells)) if cells else repeat("")
    return (
        f'{{"sample_id": {sample_id}, "y": {y}, "y_hat": {y_hat}, "group": {group}'
        f'{_SCORES_KEY + pairs[2:] + "}" if pairs else ""}}}\n'
        for sample_id, y, y_hat, group, pairs in zip(
            map(_quote, run.sample_ids),
            map(labels.__getitem__, run.y),
            map(labels.__getitem__, run.y_hat),
            map(groups.__getitem__, run.group),
            scores,
        )
    )


def require_csv_text(run: EvaluationRun, path: Path) -> None:
    """Raise ValueError naming the first sample id, label or group UTF-8 cannot encode.

    Such a string holds a lone surrogate: JSONL escapes it, but a CSV cell
    cannot hold it, so the CSV writer would stop part-way through the file.
    """
    manifest = run.manifest
    fields = {
        "sample_id": run.sample_ids,
        "label": manifest.label_space.labels,
        "group": manifest.group_space.groups,
    }
    for kind, texts in fields.items():
        try:
            "".join(texts).encode("utf-8")
        except UnicodeEncodeError as exc:
            text = texts[bisect_right([*accumulate(map(len, texts))], exc.start)]
            raise ValueError(
                f"{path}: {kind} {text!r} holds a lone surrogate, which a CSV log "
                f"cannot hold (JSONL escapes it)"
            ) from None


def write_run(run: EvaluationRun, path: str | Path) -> None:
    """Serialize a run to JSONL or CSV plus the manifest sidecar.

    Round-trip stable: ``parse_run(write_run(run)) == run`` for any valid
    run (records are written in canonical sample_id order). Records are
    formatted column by column and streamed to the file, never held whole
    in memory; the bytes are those of one ``json.dumps`` per JSONL record,
    or of a CSV row with ``repr`` of each score and a blank cell for an
    absent one. A JSONL log escapes a lone surrogate in a sample id; a CSV
    log cannot hold one, and a run with such an id raises ValueError
    naming it before any file is written.
    """
    path = Path(path)
    format = _record_format(path)
    if format == "csv":
        require_csv_text(run, path)  # before any file is written
    mdoc = {key.name: attrgetter(key.source)(run.manifest) for key in SIDECAR_KEYS}
    manifest_path(path).write_text(json.dumps(mdoc, indent=2) + "\n", encoding="utf-8")
    if format == "jsonl":
        with path.open("w", encoding="utf-8") as handle:
            handle.writelines(_jsonl_lines(run))
        return
    manifest = run.manifest
    labels = manifest.label_space.labels
    columns = [
        run.sample_ids,
        map(labels.__getitem__, run.y),
        map(labels.__getitem__, run.y_hat),
        map(manifest.group_space.groups.__getitem__, run.group),
    ]
    scored = run.scores is not None
    if scored:
        columns += [_score_cells(column, "", repr) for column in run.scores]
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*_FIELDS, *(f"score:{lb}" for lb in labels if scored)])
        writer.writerows(zip(*columns))
