"""Prediction-log data model and file parsing.

A *run* is one classifier evaluated on one dataset split: a manifest
(method, dataset, seed, split, utility kind, label/group spaces) plus one
record per sample. Records arrive as JSONL or CSV with a JSON manifest
sidecar named ``<basename>.manifest.json``; the exact layouts are
documented on :func:`parse_run` and :func:`write_run`.

A run holds its records as columns sorted by ``sample_id``, so downstream
aggregation never depends on input file order: the sample ids, the group,
true label and predicted label of each record as small-int codes into the
manifest's group and label tuples, and an (n, C) float64 score matrix
over the labels in which NaN marks an absent score. ``parse_run`` decodes
each file once into these columns and validates them with array
operations. For callers that want rows, ``EvaluationRun.records`` is a
read-only view of the same records as ``PredictionRecord`` values, and
``EvaluationRun.from_records`` builds a run from rows.

Everything here is an immutable value object; column arrays are
read-only. Parsing is a pure function of the file bytes, so files may be
parsed concurrently and the results shared across threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateSampleId,
    EmptyGroup,
    MalformedLine,
    MalformedRow,
    MissingScores,
    ParseError,
    UnknownGroup,
    UnknownLabel,
    UtilityOutOfRange,
)

SPLITS = ("train", "validation", "test")
UTILITY_KINDS = ("accuracy", "auc")

# Reserved summary-CSV column names; every other column is a group.
_SUMMARY_RESERVED = ("run_id", "method", "overall", "dp", "eqodd")

# Fields every record carries, in the order a missing one is reported;
# also the leading CSV columns.
_FIELDS = ("sample_id", "y", "y_hat", "group")
_get_fields = itemgetter(*_FIELDS)
_scan_json = json.JSONDecoder().scan_once
_NO_SCORES: dict[str, object] = {}


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


def _code_dtype(size: int) -> np.dtype:
    """Smallest signed integer type that holds -1 and every code below ``size``."""
    return np.min_scalar_type(-size)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class EvaluationRun:
    """One run's records as columns, sorted by ``sample_id`` on construction.

    ``sample_ids`` is an object array of str, so one long id does not
    widen every entry. ``group``, ``y`` and ``y_hat`` are codes into
    ``manifest.group_space.groups`` and ``manifest.label_space.labels``.
    ``scores`` is (n, C) over the labels with NaN for an absent score; pass
    None for a run without scores. Columns are taken as valid: use
    :meth:`from_records` or :func:`parse_run` to validate records.
    """

    manifest: RunManifest
    sample_ids: np.ndarray
    group: np.ndarray
    y: np.ndarray
    y_hat: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        ids = np.asarray(self.sample_ids, dtype=object)
        keys = ids.tolist()
        n = len(keys)
        n_labels = self.manifest.label_space.size
        order = sorted(range(n), key=keys.__getitem__)
        if order == list(range(n)):
            order = slice(None)

        def column(name: str, values, dtype, shape: tuple[int, ...]) -> None:
            array = np.asarray(values)[order].astype(dtype)
            if array.shape != shape:
                raise ValueError(f"column {name} has shape {array.shape}, expected {shape}")
            object.__setattr__(self, name, _read_only(array))

        column("sample_ids", ids, object, (n,))
        column("group", self.group, _code_dtype(self.manifest.group_space.size), (n,))
        column("y", self.y, _code_dtype(n_labels), (n,))
        column("y_hat", self.y_hat, _code_dtype(n_labels), (n,))
        if self.scores is None:
            # one shared NaN seen through zero strides: no memory per record
            no_scores = np.broadcast_to(np.float64(math.nan), (n, n_labels))
            object.__setattr__(self, "scores", no_scores)
        else:
            column("scores", self.scores, np.float64, (n, n_labels))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvaluationRun):
            return NotImplemented
        return (
            self.manifest == other.manifest
            and np.array_equal(self.sample_ids, other.sample_ids)
            and np.array_equal(self.group, other.group)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.y_hat, other.y_hat)
            and np.array_equal(self.scores, other.scores, equal_nan=True)
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
        score_maps = _mapped_scores([r.scores for r in rows], manifest.label_space.labels)
        return _finish_run(manifest, None, range(1, len(rows) + 1), columns, *score_maps)


def _score_maps(run: EvaluationRun) -> list[dict[str, float]]:
    """Each record's label -> score map over its present scores, label order."""
    labels = run.manifest.label_space.labels
    return [
        {label: value for label, value in zip(labels, row) if value == value}  # NaN: absent
        for row in run.scores.tolist()
    ]


class RecordView(Sequence):
    """A run's records as ``PredictionRecord`` rows, built on first use.

    Equal to the tuple of the same rows. ``len`` builds nothing.
    """

    __slots__ = ("_run", "_rows")

    def __init__(self, run: EvaluationRun):
        self._run = run
        self._rows: tuple[PredictionRecord, ...] | None = None

    def _all(self) -> tuple[PredictionRecord, ...]:
        if self._rows is None:
            run = self._run
            labels = run.manifest.label_space.labels
            groups = run.manifest.group_space.groups
            self._rows = tuple(
                PredictionRecord(
                    sample_id=sample_id,
                    true_label=labels[y],
                    predicted_label=labels[y_hat],
                    group=groups[group],
                    scores=scores or None,
                )
                for sample_id, group, y, y_hat, scores in zip(
                    run.sample_ids.tolist(),
                    run.group.tolist(),
                    run.y.tolist(),
                    run.y_hat.tolist(),
                    _score_maps(run),
                )
            )
        return self._rows

    def __len__(self) -> int:
        return len(self._run.sample_ids)

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


@dataclass(frozen=True)
class RunSummary:
    """Pre-computed per-run utilities, e.g. transcribed from a results table."""

    method: str
    run_id: str
    group_utilities: dict[str, float]
    overall_utility: float
    dp: float | None = None
    eqodd: float | None = None


def _manifest_path(path: Path) -> Path:
    return path.parent / (path.stem + ".manifest.json")


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
    """The whole of a small text file, line ends kept as they are.

    A file that is not UTF-8 is a ParseError.
    """
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise (utf8_fault(path) or exc) from None  # exc only if the file changed meanwhile


def _load_manifest(record_path: Path) -> RunManifest:
    mpath = _manifest_path(record_path)
    if not mpath.exists():
        raise ParseError(f"manifest sidecar not found: {mpath}", path=str(record_path))
    try:
        raw = json.loads(read_text(mpath))
    except json.JSONDecodeError as exc:
        raise MalformedLine(f"manifest is not valid JSON: {exc}", path=str(mpath)) from exc
    except RecursionError:
        raise MalformedLine(
            "manifest is not valid JSON: nested too deeply", path=str(mpath)
        ) from None
    try:
        label_space = LabelSpace(
            labels=tuple(str(x) for x in raw["labels"]),
            positive_label=str(raw.get("positive_label", "")),
        )
        group_space = GroupSpace(groups=tuple(str(x) for x in raw["groups"]))
        manifest = RunManifest(
            method=str(raw["method"]),
            dataset=str(raw["dataset"]),
            seed=int(raw["seed"]),
            split=str(raw["split"]),
            utility_kind=str(raw["utility_kind"]),
            label_space=label_space,
            group_space=group_space,
        )
        # a "\ud800" escape decodes to a lone surrogate, which no output can encode
        for name in (manifest.method, manifest.dataset, *label_space.labels, *group_space.groups):
            name.encode("utf-8")
        return manifest
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedLine(f"bad manifest: {exc}", path=str(mpath)) from exc


# A check is a mask over the records in input order and, for a record it
# flags, the error class and message to raise.
Check = tuple[np.ndarray, Callable[[int], tuple[type[ParseError], str]]]


def _raise_first(checks: list[Check], path: str | None, lines: Sequence[int]) -> None:
    """Raise the fault of the earliest flagged record; on one record the earlier check wins."""
    first: tuple[int, Callable] | None = None
    for mask, fault in checks:
        hits = np.flatnonzero(mask)
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), fault)
    if first is not None:
        row, fault = first
        cls, message = fault(row)
        raise cls(message, path=path, line=lines[row])


def _floats(values: list) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of each value, and a mask of the values it rejects (left NaN)."""
    failed = np.zeros(len(values), dtype=bool)
    try:
        return np.fromiter(map(float, values), np.float64, len(values)), failed
    except (TypeError, ValueError, OverflowError):
        pass
    out = np.full(len(values), math.nan)
    for i, value in enumerate(values):
        try:
            out[i] = float(value)
        except (TypeError, ValueError, OverflowError):
            failed[i] = True
    return out, failed


def _out_of_range(scores: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Present scores that are not finite numbers in [0, 1]."""
    with np.errstate(invalid="ignore"):
        return present & ~((scores >= 0.0) & (scores <= 1.0))


def _mapped_scores(
    maps: list[dict | None], labels: tuple[str, ...]
) -> tuple[np.ndarray | None, np.ndarray, list[Check]]:
    """Score matrix and presence mask of per-record label -> score maps.

    A record's map is checked label by label (a value ``float()`` rejects,
    then one outside [0, 1]), then for a key outside the label space.
    """
    n, n_labels = len(maps), len(labels)
    present = np.zeros((n, n_labels), dtype=bool)
    if maps.count(None) == n:
        return None, present, []
    maps = [m or _NO_SCORES for m in maps]
    scores = np.empty((n, n_labels))
    rejected = np.zeros((n, n_labels), dtype=bool)
    for c, label in enumerate(labels):
        present[:, c] = np.fromiter(map(dict.__contains__, maps, repeat(label)), bool, n)
        scores[:, c], rejected[:, c] = _floats(
            list(map(dict.get, maps, repeat(label), repeat(math.nan)))
        )
    out_of_range = _out_of_range(scores, present)
    unknown = np.fromiter(map(len, maps), np.intp, n) > present.sum(axis=1)

    def fault(row: int) -> tuple[type[ParseError], str]:
        for c, label in enumerate(labels):
            if rejected[row, c]:
                return MalformedLine, f"score for {label!r} is not a number"
            if out_of_range[row, c]:
                return MalformedLine, f"score for {label!r} out of [0, 1]: {float(scores[row, c])}"
        key = next(k for k in maps[row] if k not in labels)
        return UnknownLabel, f"score key {key!r} not in label space"

    return scores, present, [(rejected.any(axis=1) | out_of_range.any(axis=1) | unknown, fault)]


def _codes(names: list[str], space: tuple[str, ...]) -> np.ndarray:
    """Index of each name in ``space``, or -1 where it is not a member."""
    index = {name: i for i, name in enumerate(space)}
    return np.fromiter(map(index.get, names, repeat(-1)), _code_dtype(len(space)), len(names))


def _finish_run(
    manifest: RunManifest,
    path: str | None,
    lines: Sequence[int],
    columns: Sequence[Sequence],
    scores: np.ndarray | None,
    present: np.ndarray,
    checks: list[Check],
    pending: ParseError | None = None,
) -> EvaluationRun:
    """Validate decoded records and build the run.

    ``columns`` are the sample_id, y, y_hat and group of the records
    decoded, in input order, and ``checks`` their decode faults; ``pending`` is
    the fault of the input line after the last of them, if decoding
    stopped there. As when records are checked one at a time, in input
    order, the first decode fault wins, then the pending one; then, again
    in input order, duplicate ids, unknown labels and groups and missing
    auc scores; then groups without records.
    """
    _raise_first(checks, path, lines)
    if pending is not None:
        raise pending
    if not lines:
        raise ParseError("run contains no records", path=path)
    ids, ys, y_hats, groups = ([*map(str, column)] for column in columns)
    labels = manifest.label_space.labels
    group_names = manifest.group_space.groups
    y = _codes(ys, labels)
    y_hat = _codes(y_hats, labels)
    group = _codes(groups, group_names)

    order = sorted(range(len(ids)), key=ids.__getitem__)  # stable: repeats keep input order
    sorted_ids = np.array(ids, dtype=object)[order]
    repeated = np.zeros(len(ids), dtype=bool)
    repeated[np.asarray(order[1:], dtype=np.intp)[sorted_ids[1:] == sorted_ids[:-1]]] = True
    record_checks: list[Check] = [
        (repeated, lambda row: (
            DuplicateSampleId,
            f"sample_id {ids[row]!r} already seen on line {lines[ids.index(ids[row])]}",
        )),
        (y < 0, lambda row: (UnknownLabel, f"label {ys[row]!r} not in manifest")),
        (y_hat < 0, lambda row: (UnknownLabel, f"label {y_hats[row]!r} not in manifest")),
        (group < 0, lambda row: (UnknownGroup, f"group {groups[row]!r} not in manifest")),
    ]
    if manifest.utility_kind == "auc":
        positive = manifest.label_space.positive_label
        record_checks += [
            (~present.any(axis=1), lambda row: (
                MissingScores, f"auc run but record {ids[row]!r} has no scores",
            )),
            (~present[:, labels.index(positive)], lambda row: (
                MissingScores,
                f"auc run but record {ids[row]!r} lacks a score for the "
                f"positive label {positive!r}",
            )),
        ]
    _raise_first(record_checks, path, lines)

    sizes = np.bincount(group, minlength=len(group_names))
    missing = [g for g, size in zip(group_names, sizes) if size == 0]
    if missing:
        raise EmptyGroup(f"no records for group(s): {', '.join(missing)}", path=path)
    return EvaluationRun(
        manifest=manifest,
        sample_ids=sorted_ids,
        group=group[order],
        y=y[order],
        y_hat=y_hat[order],
        scores=None if scores is None else scores[order],
    )


def _decode_jsonl(
    path: Path,
) -> tuple[list[int], tuple[list, ...], list[dict | None], ParseError | None]:
    """Fields of the records on the non-blank lines before the first faulty one.

    Returns their line numbers, their sample_id, y, y_hat and group
    columns, their score maps, and the fault of the line that stopped
    decoding (or None): not one JSON value, not an object, a missing
    field or a ``scores`` that is not an object. Lines are numbered as
    iterating the text file yields them.
    """
    lines: list[int] = []
    columns: tuple[list, ...] = ([], [], [], [])
    add_id, add_y, add_y_hat, add_group = (column.append for column in columns)
    maps: list[dict | None] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                value, end = _scan_json(raw, 0)
                if raw[end:] not in ("", "\n"):
                    raise ValueError
            except (StopIteration, ValueError, RecursionError):
                # whitespace around the value, a blank line, bad JSON or deep nesting
                if not raw.strip():
                    continue
                try:
                    value = json.loads(raw)
                except (json.JSONDecodeError, RecursionError) as exc:
                    reason = "nested too deeply" if isinstance(exc, RecursionError) else exc
                    error = MalformedLine(f"invalid JSON: {reason}", path=str(path), line=line_no)
                    return lines, columns, maps, error
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
    lines, columns, maps, pending = _decode_jsonl(path)
    scores, present, checks = _mapped_scores(maps, manifest.label_space.labels)
    return _finish_run(manifest, str(path), lines, columns, scores, present, checks, pending)


def _cell_scores(
    columns: list[tuple[str, ...]], column_labels: list[str], labels: tuple[str, ...]
) -> tuple[np.ndarray | None, np.ndarray, list[Check]]:
    """Score matrix and presence mask of CSV score columns; a blank cell is absent.

    A row is checked for a cell that is not a number (column order), then
    for a score outside [0, 1] (label order), then for a score under a
    label outside the label space. Of repeated columns the last non-blank
    cell counts.
    """
    n = len(columns[0]) if columns else 0
    present = np.zeros((n, len(labels)), dtype=bool)
    if not columns:
        return None, present, []
    index = {label: c for c, label in enumerate(labels)}
    scores = np.full((n, len(labels)), math.nan)
    rejected = np.zeros((n, len(columns)), dtype=bool)
    unknown = np.zeros(n, dtype=bool)
    for j, (label, cells) in enumerate(zip(column_labels, columns)):
        filled = np.fromiter(map(bool, cells), bool, n)
        values, failed = _floats([cell or "nan" for cell in cells])
        rejected[:, j] = filled & failed
        if label in index:
            scores[filled, index[label]] = values[filled]
            present[:, index[label]] |= filled
        else:
            unknown |= filled
    out_of_range = _out_of_range(scores, present)

    def not_a_number(row: int) -> tuple[type[ParseError], str]:
        cell = columns[int(np.argmax(rejected[row]))][row]
        return MalformedLine, f"score cell {cell!r} is not a number"

    def outside(row: int) -> tuple[type[ParseError], str]:
        c = int(np.argmax(out_of_range[row]))
        return MalformedLine, f"score for {labels[c]!r} out of [0, 1]: {float(scores[row, c])}"

    def unknown_key(row: int) -> tuple[type[ParseError], str]:
        key = next(
            label for label, cells in zip(column_labels, columns)
            if label not in index and cells[row]
        )
        return UnknownLabel, f"score key {key!r} not in label space"

    checks: list[Check] = [
        (rejected.any(axis=1), not_a_number),
        (out_of_range.any(axis=1), outside),
        (unknown, unknown_key),
    ]
    return scores, present, checks


def _parse_csv(path: Path, manifest: RunManifest) -> EvaluationRun:
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("run contains no records", path=str(path)) from None
        if header[: len(_FIELDS)] != list(_FIELDS):
            raise MalformedLine(
                f"header must start with {','.join(_FIELDS)}", path=str(path), line=1
            )
        column_labels: list[str] = []
        for col in header[len(_FIELDS) :]:
            if not col.startswith("score:"):
                raise MalformedLine(f"unexpected column {col!r}", path=str(path), line=1)
            column_labels.append(col[len("score:") :])
        rows = list(reader)

    lines: list[int] = list(range(2, len(rows) + 2))
    pending = None
    if any(len(row) != len(header) for row in rows):
        # drop blank rows; stop at the first with a wrong field count
        kept = [(line, row) for line, row in zip(lines, rows) if row]
        bad = next((i for i, (_, row) in enumerate(kept) if len(row) != len(header)), None)
        if bad is not None:
            line, row = kept[bad]
            pending = MalformedLine(
                f"expected {len(header)} fields, got {len(row)}", path=str(path), line=line
            )
            kept = kept[:bad]
        lines, rows = [line for line, _ in kept], [row for _, row in kept]
    columns = list(zip(*rows))
    scores, present, checks = _cell_scores(
        columns[len(_FIELDS) :], column_labels, manifest.label_space.labels
    )
    return _finish_run(
        manifest, str(path), lines, columns[: len(_FIELDS)], scores, present, checks, pending
    )


def parse_run(path: str | Path, format: str | None = None) -> EvaluationRun:
    """Parse a record file plus its manifest sidecar into a validated run.

    JSONL layout: one object per line with fields ``sample_id``, ``y``,
    ``y_hat``, ``group`` and an optional ``scores`` map (label -> [0, 1]).
    CSV layout: header ``sample_id,y,y_hat,group[,score:<label>...]``;
    a blank score cell means that label is absent from the record's map.
    ``format`` defaults to the file extension.

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
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format not in ("jsonl", "csv"):
        raise ParseError(f"unsupported record format {format!r}", path=str(path))
    manifest = _load_manifest(path)
    try:
        if format == "jsonl":
            return _parse_jsonl(path, manifest)
        return _parse_csv(path, manifest)
    except (ParseError, UnicodeDecodeError) as exc:
        raise (utf8_fault(path) or exc) from None


def write_run(run: EvaluationRun, path: str | Path, format: str | None = None) -> None:
    """Serialize a run to JSONL or CSV plus the manifest sidecar.

    Round-trip stable: ``parse_run(write_run(run)) == run`` for any valid
    run (records are written in canonical sample_id order).
    """
    path = Path(path)
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format not in ("jsonl", "csv"):
        raise ParseError(f"unsupported record format {format!r}", path=str(path))
    manifest = run.manifest
    labels = manifest.label_space.labels
    mdoc = {
        "method": manifest.method,
        "dataset": manifest.dataset,
        "seed": manifest.seed,
        "split": manifest.split,
        "utility_kind": manifest.utility_kind,
        "labels": list(labels),
        "groups": list(manifest.group_space.groups),
        "positive_label": manifest.label_space.positive_label,
    }
    _manifest_path(path).write_text(json.dumps(mdoc, indent=2) + "\n", encoding="utf-8")

    rows = zip(
        run.sample_ids.tolist(),
        map(labels.__getitem__, run.y.tolist()),
        map(labels.__getitem__, run.y_hat.tolist()),
        map(manifest.group_space.groups.__getitem__, run.group.tolist()),
    )
    if format == "jsonl":
        with path.open("w", encoding="utf-8") as handle:
            for (sample_id, y, y_hat, group), scores in zip(rows, _score_maps(run)):
                obj: dict[str, object] = {
                    "sample_id": sample_id, "y": y, "y_hat": y_hat, "group": group,
                }
                if scores:
                    obj["scores"] = scores
                handle.write(json.dumps(obj) + "\n")
    else:
        scored = not np.isnan(run.scores).all()
        if scored:
            rows = (
                [*fields, *(repr(v) if v == v else "" for v in scores)]  # NaN: blank cell
                for fields, scores in zip(rows, run.scores.tolist())
            )
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([*_FIELDS, *(f"score:{lb}" for lb in labels if scored)])
            writer.writerows(rows)


def _parse_utility_cell(cell: str, percent_column: bool, path: str, line: int) -> float:
    """Parse one utility value; '%' on the header or the value means 0-100 units."""
    text = cell.strip()
    percent = percent_column
    if text.endswith("%"):
        percent = True
        text = text[:-1].strip()
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(f"utility cell {cell!r} is not a number", path=path, line=line) from None
    if percent:
        value /= 100.0
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise UtilityOutOfRange(f"utility {cell!r} outside [0, 1]", path=path, line=line)
    return value


def parse_summaries(path: str | Path) -> list[RunSummary]:
    """Parse a summary CSV: ``run_id,method,<group>[%],...,overall[%]``.

    Columns named ``dp``/``eqodd`` (optionally %-marked) populate the
    corresponding optional fields; every other non-reserved column is a
    group utility. Values in percent units must be marked with ``%`` on
    the header or on the value itself; unmarked values must already lie
    in [0, 1].
    """
    path = Path(path)
    if not path.exists():
        raise ParseError("file not found", path=str(path))
    with io.StringIO(read_text(path), newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow("empty file, expected a header", path=str(path), line=1) from None

        columns: list[tuple[str, bool]] = []  # (name, percent marker)
        for col in header:
            name = col.strip()
            percent = name.endswith("%")
            if percent:
                name = name[:-1].strip()
            columns.append((name, percent))
        names = [name for name, _ in columns]
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

        summaries: list[RunSummary] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise MalformedRow(
                    f"expected {len(columns)} fields, got {len(row)}",
                    path=str(path),
                    line=line_no,
                )
            cells = dict(zip(names, row))
            utilities = {
                g: _parse_utility_cell(cells[g], markers[g], str(path), line_no)
                for g in group_cols
            }
            overall = _parse_utility_cell(cells["overall"], markers["overall"], str(path), line_no)
            dp = eqodd = None
            if "dp" in cells and cells["dp"].strip():
                dp = _parse_utility_cell(cells["dp"], markers["dp"], str(path), line_no)
            if "eqodd" in cells and cells["eqodd"].strip():
                eqodd = _parse_utility_cell(cells["eqodd"], markers["eqodd"], str(path), line_no)
            summaries.append(
                RunSummary(
                    method=cells["method"].strip(),
                    run_id=cells["run_id"].strip(),
                    group_utilities=utilities,
                    overall_utility=overall,
                    dp=dp,
                    eqodd=eqodd,
                )
            )
    return summaries
