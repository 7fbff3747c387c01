"""Two-stage harm-aware model selection.

Stage one picks a baseline from a candidate cloud by distance-to-utopia:
the utopia point is the per-group maximum utility over all candidates,
and the winner is the candidate closest to it in Euclidean distance.

Stage two classifies every other candidate against that baseline into
four zones and selects in priority order:

* Optimal      - every group at or above the baseline
* SubOptimal   - the disadvantaged group gained, the advantaged one paid
* Degradation  - every group below the baseline
* Unwanted     - the advantaged group gained at the disadvantaged
  group's expense; never selected

Optimal and SubOptimal pick the smallest-gap member; Degradation picks
the member closest to the baseline point (keeping utility is all that
zone can offer). "At or above" means >= baseline - tolerance, so the
tolerance band belongs to the passing side.

With more than two groups (or a tied two-group baseline) there is no
single advantaged group; mixed candidates are then SubOptimal iff the
baseline-worst group passed. For two groups with distinct baseline
utilities this reduces exactly to the quadrant rule above.

Candidates are :class:`RunResult` values: ``metrics.metric_report`` makes
one from a prediction log, and :func:`parse_summaries` one from each row
of a summary table, so selecting from summaries needs none of the log
code.
"""

from __future__ import annotations

import math
import warnings as _warnings
from collections.abc import Iterable
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import (
    AdvantageTieWarning,
    EmptyCandidateSet,
    GroupSpaceMismatch,
    MalformedRow,
    ParseError,
    SelectionError,
    UtilityOutOfRange,
)
from .inputs import read_csv_table, require_distinct_columns


class GroupUtilityVector(NamedTuple):
    """Per-group utility (accuracy or AUC), each value in [0, 1]."""

    utility: dict[str, float]
    utility_kind: str

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(self.utility)

    def values_in_order(self) -> list[float]:
        return [self.utility[g] for g in self.utility]


class Zone(str, Enum):
    OPTIMAL = "Optimal"
    SUB_OPTIMAL = "SubOptimal"
    DEGRADATION = "Degradation"
    UNWANTED = "Unwanted"

    def __str__(self) -> str:  # keep f-strings readable
        return self.value


ZONE_ORDER = (Zone.OPTIMAL, Zone.SUB_OPTIMAL, Zone.DEGRADATION, Zone.UNWANTED)


class RunResult(NamedTuple):
    """One scored run: a row of the seed-aggregated table and a selection candidate.

    A run read from a log carries its manifest's identity; a summary-table
    row leaves ``dataset``, ``seed`` and ``split`` empty, and ``dp`` and
    ``eqodd`` None where the table has no such column. ``worst`` and
    ``gap`` are the minimum and the spread of ``group_utilities``. The
    fields with a default come last; callers pass every field by keyword.
    """

    run_id: str
    method: str
    group_utilities: GroupUtilityVector
    overall: float
    worst: float
    gap: float
    dataset: str = ""
    seed: int | None = None
    split: str = ""
    dp: float | None = None
    eqodd: float | None = None
    warnings: tuple[str, ...] = ()

    @staticmethod
    def from_utilities(
        run_id: str,
        method: str,
        utilities: dict[str, float],
        overall: float,
        dp: float | None = None,
        eqodd: float | None = None,
    ) -> RunResult:
        """An accuracy result whose worst and gap are taken from ``utilities``."""
        values = list(utilities.values())
        return RunResult(
            run_id=run_id,
            method=method,
            group_utilities=GroupUtilityVector(utility=dict(utilities), utility_kind="accuracy"),
            overall=overall,
            worst=min(values),
            gap=max(values) - min(values),
            dp=dp,
            eqodd=eqodd,
        )

    def as_dict(self) -> dict[str, object]:
        """The five reported metrics, ``overall`` named ``utility``, and the warnings."""
        return {
            "utility": self.overall,
            "worst": self.worst,
            "gap": self.gap,
            "eqodd": self.eqodd,
            "dp": self.dp,
            "warnings": list(self.warnings),
        }


CandidatePoint = RunResult  # kept for callers that build candidates by this name

# Reserved summary-CSV column names; every other column is a group.
_SUMMARY_RESERVED = ("run_id", "method", "overall", "dp", "eqodd")


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
    the value itself; unmarked values must already lie in [0, 1]. A table
    without a row is a ParseError, as a log without a record is.
    """
    path = Path(path)
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
    if not rows and fault is None:
        raise ParseError("summary table has a header but no rows", path=str(path))
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


class UtopiaPoint(NamedTuple):
    coordinates: dict[str, float]


class SelectionResult(NamedTuple):
    selected: RunResult | None
    zone: Zone | None
    tally: dict[Zone, int]
    candidate_zones: dict[str, Zone]
    rationale: str

    @property
    def tally_string(self) -> str:
        return "|".join(str(self.tally[z]) for z in ZONE_ORDER)

    def as_dict(self) -> dict[str, object]:
        return {
            "selected": None
            if self.selected is None
            else {
                "run_id": self.selected.run_id,
                "method": self.selected.method,
                "group_utilities": dict(self.selected.group_utilities.utility),
                "gap": self.selected.gap,
                "overall": self.selected.overall,
            },
            "zone": None if self.zone is None else self.zone.value,
            "zones": {run_id: zone.value for run_id, zone in self.candidate_zones.items()},
            "tally": {z.value: self.tally[z] for z in ZONE_ORDER},
            "tally_string": self.tally_string,
            "rationale": self.rationale,
        }


class ZoneTally(NamedTuple):
    """Per-method zone counts of the *selected* model across datasets."""

    counts: dict[Zone, int]
    omitted_datasets: tuple[str, ...] = ()

    @property
    def text(self) -> str:
        return "|".join(str(self.counts[z]) for z in ZONE_ORDER)

    def __str__(self) -> str:
        return self.text


def require_distinct_run_ids(candidates: list[RunResult]) -> None:
    """Reject a candidate set that holds a run_id more than once, naming each."""
    ids = [c.run_id for c in candidates]
    if len(set(ids)) != len(ids):
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        raise SelectionError(f"duplicate candidate run_id(s): {', '.join(duplicates)}")


def _check_same_groups(candidates: list[RunResult]) -> tuple[str, ...]:
    groups = candidates[0].group_utilities.groups
    for c in candidates[1:]:
        if set(c.group_utilities.groups) != set(groups):
            raise GroupSpaceMismatch(
                f"candidate {c.run_id!r} has groups {sorted(c.group_utilities.groups)}, "
                f"expected {sorted(groups)}"
            )
    return groups


def utopia(candidates: list[RunResult]) -> UtopiaPoint:
    """Per-group maximum utility over the candidate set."""
    if not candidates:
        raise EmptyCandidateSet("cannot build a utopia point from zero candidates")
    groups = _check_same_groups(candidates)
    coords = {
        g: max(c.group_utilities.utility[g] for c in candidates) for g in groups
    }
    return UtopiaPoint(coordinates=coords)


def distance_to(point: RunResult, coordinates: dict[str, float]) -> float:
    total = 0.0
    for g in point.group_utilities.groups:
        d = coordinates[g] - point.group_utilities.utility[g]
        total += d * d
    return math.sqrt(total)


def dto_select(candidates: list[RunResult]) -> tuple[RunResult, float]:
    """Pick the candidate with the smallest Euclidean distance to utopia.

    Ties go to the higher worst-group utility, then the lexicographically
    smallest run_id.
    """
    if not candidates:
        raise EmptyCandidateSet("dto selection needs at least one candidate")
    target = utopia(candidates).coordinates
    best = min(
        candidates,
        key=lambda c: (distance_to(c, target), -c.worst, c.run_id),
    )
    return best, distance_to(best, target)


def _tie_fallback(baseline: RunResult, zones: Iterable[Zone]) -> bool:
    """Whether the worst-group rule decided a mixed zone because two baseline groups tie."""
    values = list(baseline.group_utilities.utility.values())
    mixed = any(z in (Zone.SUB_OPTIMAL, Zone.UNWANTED) for z in zones)
    return mixed and len(values) == 2 and values[0] == values[1]


def classify_zone(
    candidate: RunResult, baseline: RunResult, tolerance: float = 0.0
) -> Zone:
    """Assign exactly one zone to a candidate relative to the baseline.

    A zone decided by the tie fallback also raises an AdvantageTieWarning.
    """
    zone = _zone(candidate, baseline, tolerance)
    if _tie_fallback(baseline, [zone]):
        _warnings.warn(
            f"baseline {baseline.run_id!r} has tied group utilities; "
            "no group is advantaged, classifying mixed candidates by the "
            "worst-group rule",
            AdvantageTieWarning,
            stacklevel=2,
        )
    return zone


def _zone(candidate: RunResult, baseline: RunResult, tolerance: float) -> Zone:
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    if set(candidate.group_utilities.groups) != set(baseline.group_utilities.groups):
        raise GroupSpaceMismatch(
            f"candidate {candidate.run_id!r} and baseline {baseline.run_id!r} "
            "have different group spaces"
        )
    base = baseline.group_utilities.utility
    cand = candidate.group_utilities.utility
    passes = {g: cand[g] >= base[g] - tolerance for g in baseline.group_utilities.groups}
    if all(passes.values()):
        return Zone.OPTIMAL
    if not any(passes.values()):
        return Zone.DEGRADATION
    worst = min(baseline.group_utilities.groups, key=base.__getitem__)  # first of a tie
    if passes[worst]:
        return Zone.SUB_OPTIMAL
    return Zone.UNWANTED


def fwh_select(
    candidates: list[RunResult], baseline: RunResult, tolerance: float = 0.0
) -> SelectionResult:
    """Zone every candidate and select by Optimal > SubOptimal > Degradation.

    Optimal and SubOptimal select the smallest gap (ties: higher overall,
    then run_id); Degradation selects the smallest Euclidean distance to
    the baseline point (ties: higher worst, then run_id). If everything
    is Unwanted, nothing is selected.
    """
    if not candidates:
        raise EmptyCandidateSet("selection needs at least one candidate")
    require_distinct_run_ids(candidates)

    notes: list[str] = []
    zones = {c.run_id: _zone(c, baseline, tolerance) for c in candidates}
    if _tie_fallback(baseline, zones.values()):
        notes.append(
            "baseline group utilities are tied; mixed candidates classified by the worst-group rule"
        )

    tally = {z: 0 for z in ZONE_ORDER}
    for zone in zones.values():
        tally[zone] += 1

    by_zone = {z: [c for c in candidates if zones[c.run_id] == z] for z in ZONE_ORDER}
    selected: RunResult | None = None
    zone: Zone | None = None
    if by_zone[Zone.OPTIMAL]:
        zone = Zone.OPTIMAL
        selected = min(by_zone[zone], key=lambda c: (c.gap, -c.overall, c.run_id))
        notes.insert(0, f"selected smallest-gap candidate in the {zone} zone")
    elif by_zone[Zone.SUB_OPTIMAL]:
        zone = Zone.SUB_OPTIMAL
        selected = min(by_zone[zone], key=lambda c: (c.gap, -c.overall, c.run_id))
        notes.insert(0, f"Optimal empty; selected smallest-gap candidate in the {zone} zone")
    elif by_zone[Zone.DEGRADATION]:
        zone = Zone.DEGRADATION
        base_coords = baseline.group_utilities.utility
        selected = min(
            by_zone[zone],
            key=lambda c: (distance_to(c, base_coords), -c.worst, c.run_id),
        )
        notes.insert(
            0,
            f"Optimal and SubOptimal empty; selected the {zone} candidate closest to the baseline",
        )
    else:
        notes.insert(0, "every candidate is Unwanted; nothing selected")

    return SelectionResult(
        selected=selected,
        zone=zone,
        tally=tally,
        candidate_zones=zones,
        rationale="; ".join(notes),
    )


def zone_tally_table(per_dataset_results: dict[str, SelectionResult]) -> ZoneTally:
    """Tally the zone of the *selected* model across datasets.

    Datasets where nothing was selected are omitted from the counts and
    listed separately, so the tally always sums to the number of datasets
    with a selection.
    """
    counts = {z: 0 for z in ZONE_ORDER}
    omitted: list[str] = []
    for dataset in sorted(per_dataset_results):
        result = per_dataset_results[dataset]
        if result.zone is None:
            omitted.append(dataset)
        else:
            counts[result.zone] += 1
    return ZoneTally(counts=counts, omitted_datasets=tuple(omitted))
