"""Prediction-log data model and log files.

A *run* is one classifier evaluated on one dataset split: a manifest
(method, dataset, seed, split, utility kind, label/group spaces) plus one
record per sample. Records arrive as JSONL or CSV with a JSON manifest
sidecar named ``<basename>.manifest.json``; the exact layouts are
documented on :func:`parse_run` and :func:`write_run`. An input's kind
and the text, CSV and JSON rules every reader shares are those of
``inputs``; summary tables are read by ``selection.parse_summaries``.

A run's records are held as columns by ``columns.EvaluationRun``, which
is imported only when a log is read or written, so loading this module
does not load it.

Everything here is an immutable value object. Parsing is a pure function
of the file bytes, so files may be parsed concurrently and the results
shared across threads.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import MalformedLine, ParseError
from .inputs import (
    NAME_ARRAY,
    manifest_path,
    read_json,
    require_json_type,
    suffix_format,
    utf8_fault,
)

if TYPE_CHECKING:
    from .columns import EvaluationRun

SPLITS = ("train", "validation", "test")
UTILITY_KINDS = ("accuracy", "auc")


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


def _record_format(path: Path) -> str:
    format = suffix_format(path)
    if format not in ("jsonl", "csv"):
        raise ParseError(f"unsupported record format {format!r}", path=str(path))
    return format


@dataclass
class _Sidecar:
    """The keys of a manifest sidecar in the order written, each with its JSON ``kind`` and
    the ``source`` of its value in a RunManifest; a key with a default is optional."""

    method: str = field(metadata={"kind": "string", "source": "method"})
    dataset: str = field(metadata={"kind": "string", "source": "dataset"})
    seed: int = field(metadata={"kind": "integer", "source": "seed"})
    split: str = field(metadata={"kind": "string", "source": "split"})
    utility_kind: str = field(metadata={"kind": "string", "source": "utility_kind"})
    labels: list = field(metadata={"kind": NAME_ARRAY, "source": "label_space.labels"})
    groups: list = field(metadata={"kind": NAME_ARRAY, "source": "group_space.groups"})
    positive_label: str = field(
        default="", metadata={"kind": "string", "source": "label_space.positive_label"}
    )


SIDECAR_KEYS = fields(_Sidecar)


def _load_manifest(record_path: Path) -> RunManifest:
    mpath = manifest_path(record_path)
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
    from . import columns  # loaded only where a log is read

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
    from . import columns  # loaded only where a log is written

    if format == "csv":
        columns.require_csv_text(run, path)  # before any file is written
    mdoc = {key.name: attrgetter(key.metadata["source"])(run.manifest) for key in SIDECAR_KEYS}
    manifest_path(path).write_text(json.dumps(mdoc, indent=2) + "\n", encoding="utf-8")
    columns.write_records(run, path, format)
