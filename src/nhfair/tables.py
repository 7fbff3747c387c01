"""Aggregated metric tables: written as CSV, Markdown or JSON, read back from CSV or JSON.

Columns follow the reporting convention Utility, Worst, Gap, EqOdd, DP.
Percent cells are formatted at two decimals with the interpreter's
round-half-to-even float formatting; "mean +/- std" cells use the same
precision on both sides and re-parse losslessly at that precision.
Rows are written in the order given; ``stats.aggregate`` returns them in
table order. :func:`read_table` is the writers' inverse for one metric,
as ``compare`` reads a table.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import reprlib
from pathlib import Path
from typing import NamedTuple

from .config import METRIC_NAMES
from .errors import ParseError
from .inputs import JSON, read_csv_table, read_json
from .inputs import require_distinct_columns, require_json_type

_PM = "±"  # plus-minus sign


def fmt_value(value: float, units: str) -> str:
    if units == "percent":
        return f"{value * 100:.2f}"
    return f"{value:.4f}"


def fmt_mean_std(mean: float, std: float, units: str, n: int) -> str:
    if n == 1:
        return fmt_value(mean, units)
    return f"{fmt_value(mean, units)} {_PM} {fmt_value(std, units)}"


def parse_mean_std(cell: str) -> tuple[float, float]:
    """Invert fmt_mean_std; a plain number means std 0.

    ValueError unless both are finite and the std is not negative.
    """
    if _PM in cell:
        left, right = cell.split(_PM, 1)
        mean, std = float(left.strip()), float(right.strip())
    else:
        mean, std = float(cell.strip()), 0.0
    if not math.isfinite(mean) or not math.isfinite(std):
        raise ValueError(f"not a finite number: {cell!r}")
    if std < 0.0:
        raise ValueError(f"negative std: {cell!r}")
    return mean, std


class ReportRow(NamedTuple):
    method: str
    dataset: str
    split: str
    utility_kind: str
    n_seeds: int
    # name -> (mean, std). Rows from ``stats.aggregate`` hold all five metrics
    # as fractions; rows from ``read_table`` hold the one metric read, in the
    # units of their table, and no utility kind or warnings.
    metrics: dict[str, tuple[float, float]]
    warnings: tuple[str, ...] = ()


_HEADER = ["method", "dataset", "split", "utility_kind", "n_seeds"]


def _cells(row: ReportRow, units: str) -> list[str]:
    """A row's cells from ``method`` to the last metric, as every text writer shows them."""
    return [
        row.method, row.dataset, row.split, row.utility_kind, str(row.n_seeds),
        *(fmt_mean_std(*row.metrics[name], units, row.n_seeds) for name in METRIC_NAMES),
    ]


def rows_to_csv(rows: list[ReportRow], units: str) -> str:
    """One CSV row per report row; a cell holding a comma, quote or newline is quoted.

    ``csv.writer`` quotes only the characters of its line terminator, so
    a row with a carriage return in any cell has every cell quoted.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    quote_all = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(_HEADER + list(METRIC_NAMES) + ["warnings"])
    for row in rows:
        cells = [*_cells(row, units), "; ".join(row.warnings)]
        (quote_all if any("\r" in cell for cell in cells) else writer).writerow(cells)
    return out.getvalue()


def rows_to_markdown(rows: list[ReportRow], units: str) -> str:
    header = [
        "Method", "Dataset", "Split", "Utility kind", "Seeds",
        "Utility", "Worst", "Gap", "EqOdd", "DP",
    ]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for row in rows:
        lines.append("| " + " | ".join(_cells(row, units)) + " |")
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ReportRow]) -> str:
    payload = []
    for row in rows:
        payload.append(
            {
                "method": row.method,
                "dataset": row.dataset,
                "split": row.split,
                "utility_kind": row.utility_kind,
                "n_seeds": row.n_seeds,
                "metrics": {
                    name: {"mean": row.metrics[name][0], "std": row.metrics[name][1]}
                    for name in METRIC_NAMES
                },
                "warnings": list(row.warnings),
            }
        )
    return json.dumps(payload, indent=2) + "\n"


def read_table(path: Path, kind: str | None, metric: str) -> list[ReportRow]:
    """The rows of a table of a ``kind`` already told, for ``metric``: a JSON file is read as
    the array ``rows_to_json`` writes, any other as CSV. Only the ``metric`` cells are
    parsed; a bad input is a ParseError naming the path."""
    return (_rows_from_json if kind == JSON else _rows_from_csv)(path, metric)


def _rows_from_csv(path: Path, metric: str) -> list[ReportRow]:
    """CSV rows: ``method``, ``dataset`` and ``metric`` columns; ``split`` and ``n_seeds``
    optional (empty and 1); a bad cell names its line."""
    header, records, lines, fault = read_csv_table(path, ParseError)
    require_distinct_columns(header or [], path)
    for column in (metric, "method", "dataset"):
        if column not in (header or []):
            raise ParseError(f"column {column!r} not found", path=str(path), line=1)
    rows = []
    for line, fields in zip(lines, records):
        cells = dict(zip(header, fields))
        try:
            mean, std = parse_mean_std(cells[metric])
        except ValueError:
            raise ParseError(
                f"bad {metric} cell {cells[metric]!r}", path=str(path), line=line
            ) from None
        try:
            n_seeds = int(cells.get("n_seeds") or 1)
        except ValueError:
            n_seeds = 0
        if n_seeds < 1:
            raise ParseError(f"bad n_seeds cell {cells['n_seeds']!r}", path=str(path), line=line)
        rows.append(
            ReportRow(
                method=cells["method"],
                dataset=cells["dataset"],
                split=cells.get("split") or "",
                utility_kind="",
                n_seeds=n_seeds,
                metrics={metric: (mean, std)},
            )
        )
    if fault is not None:
        raise fault
    return rows


def _rows_from_json(path: Path, metric: str) -> list[ReportRow]:
    """JSON rows: an array of objects, each read by :func:`_row_from_json`."""
    payload = read_json(path)
    if type(payload) is not list:
        raise ParseError("expected a JSON array of table rows", path=str(path))
    rows = []
    for i, item in enumerate(payload, 1):
        try:
            rows.append(_row_from_json(item, metric))
        except ValueError as exc:
            raise ParseError(f"row {i}: {exc}", path=str(path)) from None
    return rows


def _row_from_json(item: object, metric: str) -> ReportRow:
    """One element of ``rows_to_json``'s array; ValueError says what is wrong with it."""
    if type(item) is not dict:
        raise ValueError(f"expected a JSON object, got {reprlib.repr(item)}")
    for key in ("method", "dataset", "split"):
        require_json_type(key, item.get(key), "string")
    n_seeds = item.get("n_seeds")
    if type(n_seeds) is not int or n_seeds < 1:
        raise ValueError(
            f"n_seeds must be a JSON integer of at least 1, got {reprlib.repr(n_seeds)}"
        )
    metrics = item.get("metrics")
    cell = metrics.get(metric) if type(metrics) is dict else None
    require_json_type(f"metrics.{metric}", cell, "object")
    mean, std = _finite(cell.get("mean")), _finite(cell.get("std"))
    if mean is None or std is None or std < 0.0:
        raise ValueError(
            f"metrics.{metric} must hold a finite mean and a finite std of at least 0, "
            f"got {reprlib.repr(cell)}"
        )
    return ReportRow(
        method=item["method"],
        dataset=item["dataset"],
        split=item["split"],
        utility_kind="",
        n_seeds=n_seeds,
        metrics={metric: (mean, std)},
    )


def _finite(value: object) -> float | None:
    """``value`` as a float if it is a finite JSON number (not a bool), else None."""
    if type(value) not in (int, float):
        return None
    with contextlib.suppress(OverflowError):  # an integer beyond the float range
        if math.isfinite(value):
            return float(value)
    return None
