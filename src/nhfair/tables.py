"""Table formatting for metric reports: CSV, Markdown, JSON.

Columns follow the reporting convention Utility, Worst, Gap, EqOdd, DP.
Percent cells are formatted at two decimals with the interpreter's
round-half-to-even float formatting; "mean +/- std" cells use the same
precision on both sides and re-parse losslessly at that precision.
Rows are written in the order given; ``stats.aggregate`` returns them in
table order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

# The five reported metrics, in column order.
METRIC_NAMES = ("utility", "worst", "gap", "eqodd", "dp")
# What the eqodd column compares: the correct-classification rates or every rate.
EQODD_VARIANTS = ("diagonal", "full")
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


@dataclass(frozen=True)
class ReportRow:
    method: str
    dataset: str
    split: str
    utility_kind: str
    n_seeds: int
    metrics: dict[str, tuple[float, float]]  # name -> (mean, std), fractions
    warnings: tuple[str, ...] = ()


_HEADER = ["method", "dataset", "split", "utility_kind", "n_seeds"]


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
        cells = [row.method, row.dataset, row.split, row.utility_kind, str(row.n_seeds)]
        for name in METRIC_NAMES:
            mean, std = row.metrics[name]
            cells.append(fmt_mean_std(mean, std, units, row.n_seeds))
        cells.append("; ".join(row.warnings))
        (quote_all if any("\r" in cell for cell in cells) else writer).writerow(cells)
    return out.getvalue()


def rows_to_markdown(rows: list[ReportRow], units: str) -> str:
    header = [
        "Method", "Dataset", "Split", "Utility kind", "Seeds",
        "Utility", "Worst", "Gap", "EqOdd", "DP",
    ]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for row in rows:
        cells = [row.method, row.dataset, row.split, row.utility_kind, str(row.n_seeds)]
        for name in METRIC_NAMES:
            mean, std = row.metrics[name]
            cells.append(fmt_mean_std(mean, std, units, row.n_seeds))
        lines.append("| " + " | ".join(cells) + " |")
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
