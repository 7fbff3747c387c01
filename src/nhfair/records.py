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
a JSONL log is read or a run with scores written), so no command that
reads a log loads numpy.

An ``EvaluationRun`` holds its records as columns sorted by
``sample_id``, so downstream aggregation never depends on input file
order: a tuple of the sample ids; the group, true label and predicted
label of each record as small-int codes into the manifest's group and
label tuples, each an ``array.array`` of the smallest signed type that
holds them; and one ``array('d')`` of scores per label, in which NaN
marks an absent score, or None for a run without scores. No Python
object is held per record but its sample id. :func:`parse_run` decodes
each file into these columns and validates them column by column, in
input order: label and group cells are looked up as decoded, repeated ids
are found with a set, and the scores of each label are checked by one
sum, min and max. Only where a check fails are the records read one by
one, in input order, up to the first faulty one, whose fault is
reported. A JSONL file is read in one pass, ``_SLICE`` lines at a
time, its lines first checked against ``MAX_DEPTH``: one orjson decode
of a slice, whose fields go straight into the columns, or, for a slice
that this decode refuses, a line at a time, which finds the faulty
line; json reads what orjson may read otherwise (see
:func:`_parse_jsonl`). A run is sorted once, when ``EvaluationRun`` is
built. For callers that want rows, ``EvaluationRun.records`` is a
read-only view of the same records as ``PredictionRecord`` values, and
``EvaluationRun.from_records`` builds a run from rows. :func:`write_run`
writes the records column by column, streamed to the file: each column
is formatted once (strings quoted by json's own encoder, each label and
group name once per run; scores by one ``orjson.dumps`` per slice of a
column, whose text is that of ``float.__repr__`` but where repr writes an
exponent, and repr writes those cells; see :func:`_batch_cells`), and the
bytes are those of one ``json.dumps`` per record.

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
from itertools import accumulate, chain, count, islice, repeat
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
    CSV_LOG,
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
    utf8_fault,
)

SPLITS = ("train", "validation", "test")
UTILITY_KINDS = ("accuracy", "auc")

# Fields every record carries, in the order a missing one is reported;
# also the leading CSV columns.
_FIELDS = ("sample_id", "y", "y_hat", "group")
_get_fields = itemgetter(*_FIELDS)
_FIELD_GETTERS = [*map(itemgetter, _FIELDS)]
_quote = json.encoder.encode_basestring_ascii  # json.dumps' own string encoder
_PLAIN_CELLS = {str, int, float, bool, type(None)}  # JSON scalars
_SCORES_KEY = ', "scores": {'
_BLANK = object()  # a line of whitespace only
_NO_SCORES: dict[str, object] = {}
# The score of a label a JSONL record does not map: a NaN that no decoder
# returns, so absent cells are counted and skipped by identity.
_ABSENT = float("nan")
# Lines of a JSONL log read and decoded at a time (see _parse_jsonl); from 128
# to 512 the speed is the same, and a slice's dicts are freed with it.
_SLICE = 256
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


def _in_unit_range(values: Sequence[float]) -> bool:
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
        lines = range(1, len(rows) + 1)
        scores, fault = _mapped_scores([r.scores for r in rows], manifest.label_space.labels)
        _raise_first(fault, None, lines)
        cells = ([r.true_label for r in rows], [r.predicted_label for r in rows],
                 [r.group for r in rows])
        codes, unknown = zip(*map(_codes, cells, _code_spaces(manifest)))
        return _finish_run(manifest, None, lines, [str(r.sample_id) for r in rows], codes,
                           unknown, scores)


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


# A fault maps a record's row to its error class and message, or to None for
# a record without a fault; of several faults of one record it gives the first.
Fault = Callable[[int], "tuple[type[ParseError], str] | None"]


def _raise_first(
    fault: Fault | None, path: str | None, lines: Sequence[int], pending: ParseError | None = None
) -> None:
    """Raise the fault of the first faulty record, reading the records in input order up
    to it. Where none is faulty, raise ``pending``: the fault of a line after the records."""
    if fault is not None:
        for row, found in enumerate(map(fault, range(len(lines)))):
            if found is not None:
                cls, message = found
                raise cls(message, path=path, line=lines[row])
    if pending is not None:
        raise pending


def _clean_scores(maps: list[dict], labels: tuple[str, ...]) -> tuple[array, ...] | None:
    """Score columns of label -> score maps, NaN where a map lacks the label; None
    unless every score is a number in [0, 1] that ``array('d')`` takes and every key is
    a label (or where a map is not a dict, None included).

    Each label's scores are checked together: absent cells are counted by
    identity (no decoder returns ``_ABSENT``), and the present ones are
    checked by one sum, min and max; one count of the maps' keys finds a key
    outside the label space.
    """
    columns = []
    present = 0
    for label in labels:
        try:
            cells = [*map(dict.get, maps, repeat(label), repeat(_ABSENT))]
            column = array("d", cells)
        except (TypeError, OverflowError):  # a string, null, array or object, or a huge integer
            return None
        absent = cells.count(_ABSENT)
        present += len(cells) - absent
        if not _in_unit_range([*filter(partial(is_not, _ABSENT), cells)] if absent else cells):
            return None
        columns.append(column)
    return tuple(columns) if sum(map(len, maps)) == present else None


def _mapped_scores(maps: list, labels: tuple[str, ...]) -> tuple[tuple[array, ...], Fault | None]:
    """Score columns of per-record label -> score maps (None: no scores), and their fault.

    A record's map is checked to be a dict or None (its scores must be an
    object), then label by label (a value ``float()`` rejects, then one
    outside [0, 1]), then for a key outside the label space. The maps are
    checked together first (:func:`_clean_scores`), and again with every map
    that is not a dict emptied, so that ``null`` maps keep this path; the
    fault is None where a pass is clean and every map is a dict or None.
    """
    columns = _clean_scores(maps, labels)
    if columns is not None:
        return columns, None
    dicts = [m if isinstance(m, dict) else _NO_SCORES for m in maps]
    columns = _clean_scores(dicts, labels)
    if columns is not None and set(map(type, maps)) <= {dict, type(None)}:
        return columns, None
    if columns is None:
        columns = tuple(
            array("d", map(_float_or_nan, map(dict.get, dicts, repeat(label), repeat(_ABSENT))))
            for label in labels
        )

    def fault(row: int) -> tuple[type[ParseError], str] | None:
        record = maps[row]
        if not isinstance(record, dict):
            return None if record is None else (MalformedLine, "scores must be an object")
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

    return columns, fault


def _code_spaces(manifest: RunManifest) -> list[tuple[dict[str, int], str]]:
    """The index of each name and the code typecode of the y, y_hat and group columns."""
    labels = manifest.label_space.labels
    return [({name: i for i, name in enumerate(space)}, code_type(len(space)))
            for space in (labels, labels, manifest.group_space.groups)]


def _member_codes(cells: Iterable, space: tuple[dict[str, int], str]) -> array:
    """Each cell's code in ``space`` (:func:`_code_spaces`); a KeyError where a cell is
    not a member's name as it is, a TypeError where it is unhashable (a JSON array)."""
    index, typecode = space
    codes = map(index.__getitem__, cells)
    return array(typecode, bytes(codes) if typecode == "b" else codes)  # bytes: a C loop


def _codes(cells: Sequence, space: tuple[dict[str, int], str]) -> tuple[array, dict[int, object]]:
    """Each cell's code in ``space``, or -1 where it names no member, and the cells
    coded -1 by row.

    A cell names the member equal to its ``str()``, so a JSON number or
    bool names a label or group by its text. Cells are looked up as they
    are first; only a column in which one misses is mapped through ``str``.
    """
    try:
        return _member_codes(cells, space), {}
    except (KeyError, TypeError):
        index, typecode = space
        codes = array(typecode, map(index.get, map(str, cells), repeat(-1)))
        return codes, {row: cells[row] for row, code in enumerate(codes) if code < 0}


def _finish_run(
    manifest: RunManifest,
    path: str | None,
    lines: Sequence[int],
    ids: Sequence[str],
    codes: Sequence[array],
    unknown: Sequence[dict[int, object]],
    scores: tuple[array, ...] | None,
) -> EvaluationRun:
    """Validate decoded records and build the run.

    The records decoded, in input order and past their decode checks, are
    given as their sample ids' text, their y, y_hat and group ``codes`` with
    the ``unknown`` cells of each (see :func:`_codes`) and their ``scores``
    (NaN: absent). As when records are checked one at a time, in input
    order: duplicate ids, unknown labels and groups and missing auc scores
    (see :func:`_raise_record_fault`); then groups without records.
    """
    if not lines:
        raise ParseError("run contains no records", path=path)
    labels = manifest.label_space.labels
    bad = any(unknown) or len(set(ids)) < len(ids)
    if manifest.utility_kind == "auc" and not bad:
        # the decode checks passed, so a present score is in [0, 1] and the
        # sum is NaN only where a record lacks the positive score
        positive = labels.index(manifest.label_space.positive_label)
        total = math.nan if scores is None else sum(scores[positive])
        bad = total != total
    if bad:
        _raise_record_fault(manifest, path, lines, ids, unknown, scores)

    y, y_hat, group = codes
    missing = [g for i, g in enumerate(manifest.group_space.groups) if i not in group]
    if missing:
        raise EmptyGroup(f"no records for group(s): {', '.join(missing)}", path=path)
    return EvaluationRun(manifest, ids, group, y, y_hat, scores)


def _raise_record_fault(
    manifest: RunManifest,
    path: str | None,
    lines: Sequence[int],
    ids: Sequence[str],
    unknown: Sequence[dict[int, object]],
    scores: tuple[array, ...] | None,
) -> None:
    """Raise the first record fault: on one record, a repeated id, then an
    unknown label, prediction or group, then a missing auc score."""
    first_row = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    ys, y_hats, groups = unknown
    auc = manifest.utility_kind == "auc"
    positive = manifest.label_space.positive_label
    c = manifest.label_space.labels.index(positive)
    columns = scores or ()

    def fault(row: int) -> tuple[type[ParseError], str] | None:
        sample_id = ids[row]
        seen = first_row[sample_id]
        if seen != row:
            return DuplicateSampleId, f"sample_id {sample_id!r} already seen on line {lines[seen]}"
        if row in ys:
            return UnknownLabel, f"label {str(ys[row])!r} not in manifest"
        if row in y_hats:
            return UnknownLabel, f"label {str(y_hats[row])!r} not in manifest"
        if row in groups:
            return UnknownGroup, f"group {str(groups[row])!r} not in manifest"
        if not auc or (columns and columns[c][row] == columns[c][row]):  # NaN: absent
            return None
        if any(column[row] == column[row] for column in columns):
            return MissingScores, (f"auc run but record {sample_id!r} lacks a score for the "
                                   f"positive label {positive!r}")
        return MissingScores, f"auc run but record {sample_id!r} has no scores"

    _raise_first(fault, path, lines)


def _json_line(raw: str) -> object:
    """json's value of a line, or ``_BLANK`` for a blank one.

    ValueError if the line nests deeper than ``MAX_DEPTH`` or is not one
    JSON value.
    """
    return json_value(raw) if raw.strip() else _BLANK


def _wide_cells(columns: Sequence[list]) -> bool:
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


def _fields(values: list[dict]) -> list[list]:
    """The sample_id, y, y_hat, group and scores cells of records (no ``scores``: an
    empty map); a KeyError or TypeError where a value is not a record."""
    return [*([*map(get, values)] for get in _FIELD_GETTERS),
            [*map(dict.get, values, repeat("scores"), repeat(_NO_SCORES))]]


def _decode_lines(
    raw: list[str], first: int, path: str, loads: Callable[[str], object]
) -> tuple[list[int], list[list], ParseError | None]:
    """The line numbers and :func:`_fields` of the records on the non-blank lines of a
    slice, from line ``first``, before its first faulty one, and that line's fault.

    The fault is one of a line nested deeper than ``MAX_DEPTH``, not one JSON
    value, not an object or missing a field. Each line is read by ``loads``,
    which must reject what is not JSON, and by :func:`_json_line` where
    ``loads`` raises. A line that ``loads`` reads is valid JSON, which nests at
    most half its length deep, so a line is checked for depth before
    ``loads`` reads it only where it is longer than ``2 * MAX_DEPTH``.
    """
    numbers: list[int] = []
    values: list[dict] = []
    fault = None
    for line_no, text in enumerate(raw, start=first):
        try:
            if len(text) > 2 * MAX_DEPTH and _too_deep(text):
                raise ValueError  # named by _json_line
            value = loads(text)
        except ValueError:  # json decides
            try:
                value = _json_line(text)
            except ValueError as exc:  # or an integer of too many digits
                fault = MalformedLine(f"invalid JSON: {exc}", path=path, line=line_no)
                break
        if value is _BLANK:
            continue
        try:
            _get_fields(value)
        except (KeyError, TypeError):
            fault = MalformedLine(_record_fault(value), path=path, line=line_no)
            break
        numbers.append(line_no)
        values.append(value)
    return numbers, _fields(values), fault


def _record_fault(value: object) -> str:
    if not isinstance(value, dict):
        return "record is not a JSON object"
    return f"missing field {next(name for name in _FIELDS if name not in value)!r}"


def _decode_slice(
    raw: list[str], first: int, path: str, loads: Callable[[str], object]
) -> tuple[Sequence[int], list[list], ParseError | None]:
    """:func:`_decode_lines` of a slice, by one ``map`` of ``loads`` where that takes
    every line as a record (no blank line, no fault), else a line at a time."""
    try:
        # a line that loads reads nests at most half its length deep
        if max(map(len, raw)) > 2 * MAX_DEPTH and any(map(_too_deep, raw)):
            raise ValueError
        return range(first, first + len(raw)), _fields([*map(loads, raw)]), None
    except (ValueError, KeyError, TypeError):
        return _decode_lines(raw, first, path, loads)


def _parse_jsonl(path: Path, manifest: RunManifest) -> EvaluationRun:
    """The run of a JSONL log, read in one pass of ``_SLICE`` lines at a time.

    Each slice is decoded by ``orjson.loads`` (:func:`_decode_slice`), and
    its fields go into the columns by ``map``, ``itemgetter`` and ``array``
    calls, with no loop per record; no record's dict outlives its slice. A
    slice that one ``map`` does not take is decoded a line at a time, and
    json reads every line that orjson rejects (a blank line, ``NaN``,
    ``Infinity``, ``1e400``, a lone-surrogate escape, faulty JSON). Of lines
    that nest no deeper than ``MAX_DEPTH``, orjson reads every other one as
    json does, but for an integer outside 64 bits: a slice in which a
    decoded cell may hold one (see :func:`_wide_cells`) is decoded again by
    json alone, so that each run, error message and line is json's. A
    slice's decode faults are raised once it is decoded, the score faults
    first (:func:`_mapped_scores`), so a slice past the first faulty line is
    never read; the checks across slices are those of :func:`_finish_run`.
    """
    import orjson  # loaded only where a JSONL log is read

    name = str(path)
    labels = manifest.label_space.labels
    spaces = _code_spaces(manifest)
    lines: list[int] = []
    ids: list[str] = []
    codes = [array(typecode) for _, typecode in spaces]
    unknown: list[dict[int, object]] = [{}, {}, {}]
    scores = [array("d") for _ in labels]
    scored = False  # whether some record maps a score; the run has scores only then
    with path.open("r", encoding="utf-8") as handle:
        for first in count(1, _SLICE):
            if not (raw := [*islice(handle, _SLICE)]):
                break
            numbers, cells, pending = _decode_slice(raw, first, name, orjson.loads)
            try:
                "".join(cells[0])  # a TypeError unless every id is a string
                coded = [(_member_codes(column, space), {})
                         for column, space in zip(cells[1:4], spaces)]
            except (KeyError, TypeError):  # a cell that is no member's name as it is
                if _wide_cells(cells[:4]):
                    numbers, cells, pending = _decode_lines(raw, first, name, _json_line)
                cells[0] = [*map(str, cells[0])]
                coded = [*map(_codes, cells[1:4], spaces)]
            part, fault = _mapped_scores(cells[4], labels)
            _raise_first(fault, name, numbers, pending)
            for column, found, (column_part, missed) in zip(codes, unknown, coded):
                column += column_part
                if missed:
                    found.update((len(ids) + row, cell) for row, cell in missed.items())
            for column, column_part in zip(scores, part):
                column += column_part
            ids += cells[0]
            lines += numbers
            scored = scored or any(cells[4])
    return _finish_run(
        manifest, name, lines, ids, codes, unknown, tuple(scores) if scored else None
    )


def _last_filled(cells: tuple[str, ...]) -> str:
    """The last non-blank cell, or ``""``."""
    return next(filter(None, reversed(cells)), "")


def _cell_scores(
    columns: list[tuple[str, ...]], column_labels: list[str], labels: tuple[str, ...]
) -> tuple[tuple[array, ...] | None, Fault | None]:
    """Score columns of CSV score cells, and their fault; a blank cell is absent.

    A row is checked for a cell that is not a number (column order), then
    for a score outside [0, 1] (label order), then for a score under a
    label outside the label space. Of repeated columns the last non-blank
    cell counts. Each label's scores are checked together first; rows are
    checked one by one only where that finds a fault or a label repeats.
    """
    if not columns:
        return None, None
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
        return tuple(scores), None

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

    return tuple(scores), fault


def _parse_csv(path: Path, manifest: RunManifest) -> EvaluationRun:
    header, rows, lines, pending = read_csv_table(path, MalformedLine)
    if header is None:
        raise ParseError("run contains no records", path=str(path))
    if header[: len(_FIELDS)] != list(_FIELDS):
        raise MalformedLine(f"header must start with {','.join(_FIELDS)}", path=str(path), line=1)
    column_labels: list[str] = []
    for col in header[len(_FIELDS) :]:
        if not col.startswith("score:"):
            raise MalformedLine(f"unexpected column {col!r}", path=str(path), line=1)
        column_labels.append(col[len("score:") :])
    columns = list(zip(*rows)) or [()] * len(header)
    scores, fault = _cell_scores(
        columns[len(_FIELDS) :], column_labels, manifest.label_space.labels
    )
    _raise_first(fault, str(path), lines, pending)
    codes, unknown = zip(*map(_codes, columns[1 : len(_FIELDS)], _code_spaces(manifest)))
    return _finish_run(manifest, str(path), lines, columns[0], codes, unknown, scores)


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
    byte. Of several other faults in a file, a fault of a line's decoding
    (not JSON, or a CSV row of the wrong length, a missing field, a faulty
    score) is reported first, that of the first such line; then a record
    fault (a repeated id, an unknown label or group, a missing auc score),
    that of the first such record; then a group without records.
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
    except (ParseError, UnicodeDecodeError, FileNotFoundError, IsADirectoryError) as exc:
        if not path.exists():
            raise ParseError("file not found", path=str(path)) from None
        if manifest is not None:
            if path.is_dir():
                raise ParseError("is a directory, expected a file", path=str(path)) from None
            raise (utf8_fault(path) or exc) from None
        if not (mpath := manifest_path(path)).exists():
            raise ParseError(f"manifest sidecar not found: {mpath}", path=str(path)) from None
        raise


# Scores formatted by one orjson.dumps: a slice of a column is held as text
# at a time, so writing stays streamed. From 256 to 4,096 the speed is the
# same; a smaller slice holds less.
_SCORE_BATCH = 512


def _score_cells(
    column: array, prefix: str, non_finite: Callable[[float], str]
) -> Iterator[str]:
    """Lazily, ``prefix + repr(score)`` per record; NaN (absent) gives ``""``.

    A present score that is not finite is written ``prefix + non_finite(score)``.
    orjson writes the column, one ``dumps`` per slice of ``_SCORE_BATCH``
    scores split into cells; see :func:`_batch_cells`.
    """
    import orjson  # loaded only where a run with scores is written

    return chain.from_iterable(
        _batch_cells(column[start : start + _SCORE_BATCH], prefix, non_finite, orjson.dumps)
        for start in range(0, len(column), _SCORE_BATCH)
    )


def _batch_cells(
    batch: array, prefix: str, non_finite: Callable[[float], str], dumps: Callable
) -> list[str]:
    """The cells of :func:`_score_cells` for one slice of a column.

    orjson's float writer picks the shortest digits that read back as the
    value, as ``float.__repr__`` does, and writes them as repr does but
    where repr writes an exponent: a finite score other than 0 of magnitude
    below 1e-4 or from 1e16 up. Such a score, and any whose orjson text
    holds an ``e``, is written by repr; orjson's ``null`` for NaN and the
    infinities is replaced as above.
    """
    text = dumps(batch.tolist()).decode()
    cells = text[1:-1].split(",")
    rows = [row for row, value in enumerate(batch) if value and not 1e-4 <= abs(value) < 1e16]
    if "e" in text:
        rows += [row for row, cell in enumerate(cells) if "e" in cell]
    cells = [*map(prefix.__add__, cells)]
    for row in rows:
        value = batch[row]
        if value != value:
            cells[row] = ""
        elif math.isinf(value):
            cells[row] = prefix + non_finite(value)
        else:
            cells[row] = prefix + repr(value)
    return cells


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
    absent one. orjson writes the scores, and is loaded only for a run with
    scores; repr writes a score where its text has an exponent. A JSONL log
    escapes a lone surrogate in a sample id; a CSV log cannot hold one, and
    a run with such an id raises ValueError naming it before any file is
    written.
    """
    path = Path(path)
    log = log_kind(path)
    if log == CSV_LOG:
        require_csv_text(run, path)  # before any file is written
    mdoc = {key.name: attrgetter(key.source)(run.manifest) for key in SIDECAR_KEYS}
    manifest_path(path).write_text(json.dumps(mdoc, indent=2) + "\n", encoding="utf-8")
    if log == JSONL_LOG:
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
