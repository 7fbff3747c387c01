"""A run's records as numpy columns: the run value, log decoding, record writing.

``records`` imports this module, and numpy with it, only when a
prediction log is read or written, so a command that reads only summary
tables never loads numpy. ``metrics`` and ``synth`` build on it.

A run holds its records as columns sorted by ``sample_id``, so downstream
aggregation never depends on input file order: the sample ids, the group,
true label and predicted label of each record as small-int codes into the
manifest's group and label tuples, and an (n, C) float64 score matrix
over the labels in which NaN marks an absent score. :func:`parse_records`
decodes each file once into these columns and validates them with array
operations, in input order: label and group cells are looked up as
decoded, repeated ids are found with a set, and the per-fault masks are
built only for a run that has a fault. A run is sorted once, when
``EvaluationRun`` is built. For callers that want rows,
``EvaluationRun.records`` is a read-only view of the same records as
``PredictionRecord`` values, and ``EvaluationRun.from_records`` builds a
run from rows.
:func:`write_records` writes the records column by column, streamed to
the file: each column is formatted once (strings quoted by json's own
encoder, each label and group name once per run; scores by
``float.__repr__``), and the bytes are those of one ``json.dumps`` per
record.

Column arrays are read-only. Parsing is a pure function of the file
bytes, so files may be parsed concurrently and the results shared across
threads.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, count, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateSampleId,
    EmptyGroup,
    MalformedLine,
    MissingScores,
    ParseError,
    UnknownGroup,
    UnknownLabel,
)
from .records import PredictionRecord, RunManifest, read_csv_table

# Fields every record carries, in the order a missing one is reported;
# also the leading CSV columns.
_FIELDS = ("sample_id", "y", "y_hat", "group")
_get_fields = itemgetter(*_FIELDS)
_scan_json = json.JSONDecoder().scan_once
_quote = json.encoder.encode_basestring_ascii  # json.dumps' own string encoder
_SCORES_KEY = ', "scores": {'
_NO_SCORES: dict[str, object] = {}


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
    :meth:`from_records` or ``records.parse_run`` to validate records.
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
        order: np.ndarray | None = np.array(sorted(range(n), key=keys.__getitem__), dtype=np.intp)
        if (order[1:] > order[:-1]).all():  # in order already, as nhfair writes logs
            order = None

        def column(name: str, values, dtype, shape: tuple[int, ...]) -> None:
            array = np.asarray(values)
            if array.shape != shape:
                raise ValueError(f"column {name} has shape {array.shape}, expected {shape}")
            copy = array.astype(dtype)  # never the caller's array
            object.__setattr__(self, name, _read_only(copy if order is None else copy[order]))

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
        """Validate rows in any order as ``records.parse_run`` validates a log.

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


def _score_maps(labels: tuple[str, ...], scores: np.ndarray) -> list[dict[str, float]]:
    """Each record's label -> score map over its present scores, label order."""
    return [
        {label: value for label, value in zip(labels, row) if value == value}  # NaN: absent
        for row in scores.tolist()
    ]


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
                    sample_ids.tolist(),
                    group.tolist(),
                    y.tolist(),
                    y_hat.tolist(),
                    _score_maps(labels, scores),
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


def _codes(cells: Sequence, space: tuple[str, ...]) -> np.ndarray:
    """Index of each cell in ``space``, or -1 where it is not a member.

    A cell names the member equal to its ``str()``, so a JSON number or
    bool names a label or group by its text. Cells are looked up as they
    are first; only a column in which one misses is mapped through ``str``.
    """
    index = {name: i for i, name in enumerate(space)}
    dtype = _code_dtype(len(space))
    try:
        return np.fromiter(map(index.__getitem__, cells), dtype, len(cells))
    except (KeyError, TypeError):  # not a member as it is, or unhashable (a JSON array)
        return np.fromiter(map(index.get, map(str, cells), repeat(-1)), dtype, len(cells))


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
    auc scores (see :func:`_raise_record_fault`); then groups without
    records. A sample id is compared by its ``str()``.
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
    bad = (y < 0) | (y_hat < 0) | (group < 0)
    if manifest.utility_kind == "auc":
        bad |= ~present[:, labels.index(manifest.label_space.positive_label)]
    if bad.any() or len(set(ids)) < len(ids):
        _raise_record_fault(manifest, path, lines, ids, columns, (y, y_hat, group), present)

    sizes = np.bincount(group, minlength=len(group_names))
    missing = [g for g, size in zip(group_names, sizes) if size == 0]
    if missing:
        raise EmptyGroup(f"no records for group(s): {', '.join(missing)}", path=path)
    return EvaluationRun(manifest, ids, group, y, y_hat, scores)


def _raise_record_fault(
    manifest: RunManifest,
    path: str | None,
    lines: Sequence[int],
    ids: list[str],
    columns: Sequence[Sequence],
    codes: tuple[np.ndarray, np.ndarray, np.ndarray],
    present: np.ndarray,
) -> None:
    """Raise the first record fault: on one record, a repeated id, then an
    unknown label, prediction or group, then a missing auc score."""
    first_row = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    firsts = np.fromiter(map(first_row.__getitem__, ids), np.intp, len(ids))
    ys, y_hats, groups = columns[1:]
    y, y_hat, group = codes
    record_checks: list[Check] = [
        (firsts != np.arange(len(ids)), lambda row: (
            DuplicateSampleId,
            f"sample_id {ids[row]!r} already seen on line {lines[first_row[ids[row]]]}",
        )),
        (y < 0, lambda row: (UnknownLabel, f"label {str(ys[row])!r} not in manifest")),
        (y_hat < 0, lambda row: (UnknownLabel, f"label {str(y_hats[row])!r} not in manifest")),
        (group < 0, lambda row: (UnknownGroup, f"group {str(groups[row])!r} not in manifest")),
    ]
    if manifest.utility_kind == "auc":
        labels = manifest.label_space.labels
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
    scores, present, checks = _cell_scores(
        columns[len(_FIELDS) :], column_labels, manifest.label_space.labels
    )
    return _finish_run(
        manifest, str(path), lines, columns[: len(_FIELDS)], scores, present, checks, fault
    )

def parse_records(path: Path, format: str, manifest: RunManifest) -> EvaluationRun:
    """The validated run of a ``jsonl`` or ``csv`` record file; see ``records.parse_run``."""
    if format == "jsonl":
        return _parse_jsonl(path, manifest)
    return _parse_csv(path, manifest)


def _score_cells(
    column: np.ndarray, prefix: str, non_finite: Callable[[float], str]
) -> Iterator[str]:
    """Lazily, ``prefix + repr(score)`` per record; NaN (absent) gives ``""``.

    A present score that is not finite is written ``prefix + non_finite(score)``.
    """
    values = column.tolist()
    special = {
        row: prefix + non_finite(values[row]) if values[row] == values[row] else ""
        for row in np.flatnonzero(~np.isfinite(column)).tolist()
    }
    return map(special.get, count(), map(prefix.__add__, map(float.__repr__, values)))


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
        _score_cells(run.scores[:, c], f", {label}: ", json.dumps)
        for c, label in enumerate(labels)
        if not np.isnan(run.scores[:, c]).all()
    ]
    scores = map("".join, zip(*cells)) if cells else repeat("")
    return (
        f'{{"sample_id": {sample_id}, "y": {y}, "y_hat": {y_hat}, "group": {group}'
        f'{_SCORES_KEY + pairs[2:] + "}" if pairs else ""}}}\n'
        for sample_id, y, y_hat, group, pairs in zip(
            map(_quote, run.sample_ids.tolist()),
            map(labels.__getitem__, run.y.tolist()),
            map(labels.__getitem__, run.y_hat.tolist()),
            map(groups.__getitem__, run.group.tolist()),
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
        "sample_id": run.sample_ids.tolist(),
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


def write_records(run: EvaluationRun, path: Path, format: str) -> None:
    """Write a run's records as ``jsonl`` or ``csv``, in sample_id order.

    Records are formatted column by column and streamed to the file; the
    bytes are those of one ``json.dumps`` per JSONL record, or of a CSV row
    with ``repr`` of each score and a blank cell for an absent one.
    """
    if format == "jsonl":
        with path.open("w", encoding="utf-8") as handle:
            handle.writelines(_jsonl_lines(run))
        return
    manifest = run.manifest
    labels = manifest.label_space.labels
    columns = [
        run.sample_ids.tolist(),
        map(labels.__getitem__, run.y.tolist()),
        map(labels.__getitem__, run.y_hat.tolist()),
        map(manifest.group_space.groups.__getitem__, run.group.tolist()),
    ]
    scored = not np.isnan(run.scores).all()
    if scored:
        columns += [_score_cells(run.scores[:, c], "", repr) for c in range(len(labels))]
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*_FIELDS, *(f"score:{lb}" for lb in labels if scored)])
        writer.writerows(zip(*columns))
