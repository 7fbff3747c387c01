"""Aggregated tables read back: read_table inverts rows_to_csv and rows_to_json."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhfair import inputs
from nhfair.tables import (
    METRIC_NAMES,
    ReportRow,
    fmt_value,
    read_table,
    rows_to_csv,
    rows_to_json,
    rows_to_markdown,
)

# any text, with the characters CSV and line splitting treat specially drawn often
_NAMES = st.text(
    st.characters(exclude_categories=("Cs",))
    | st.sampled_from(["\r", "\n", ",", '"', "±", "\x00", "\t", " "]),
    max_size=6,
)

_ROWS = st.lists(
    st.builds(
        ReportRow,
        method=_NAMES,
        dataset=_NAMES,
        split=_NAMES,
        utility_kind=st.sampled_from(["accuracy", "auc"]),
        n_seeds=st.integers(1, 12),
        metrics=st.fixed_dictionaries(
            {
                name: st.tuples(
                    st.floats(-10.0, 10.0, allow_nan=False), st.floats(0.0, 10.0)
                )
                for name in METRIC_NAMES
            }
        ),
        warnings=st.lists(_NAMES, max_size=2).map(tuple),
    ),
    max_size=5,
)


def _read_back(text: str, name: str, metric: str) -> list[ReportRow]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        return read_table(path, inputs.kind(path), metric)


@given(rows=_ROWS, units=st.sampled_from(["percent", "fraction"]),
       metric=st.sampled_from(METRIC_NAMES))
@settings(max_examples=60, deadline=None)
def test_csv_reads_back_each_row_at_the_table_precision(rows, units, metric):
    back = _read_back(rows_to_csv(rows, units), "table.csv", metric)
    assert len(back) == len(rows)
    for row, got in zip(rows, back):
        assert (got.method, got.dataset, got.split, got.n_seeds) == (
            row.method, row.dataset, row.split, row.n_seeds)
        mean, std = row.metrics[metric]
        expected_std = float(fmt_value(std, units)) if row.n_seeds > 1 else 0.0
        assert got.metrics == {metric: (float(fmt_value(mean, units)), expected_std)}


@given(rows=_ROWS, metric=st.sampled_from(METRIC_NAMES),
       suffix=st.sampled_from([".json", ".JSON", ".Json"]))
@settings(max_examples=60, deadline=None)
def test_json_reads_back_each_row_exactly(rows, metric, suffix):
    back = _read_back(rows_to_json(rows), "table" + suffix, metric)
    assert back == [
        ReportRow(method=row.method, dataset=row.dataset, split=row.split, utility_kind="",
                  n_seeds=row.n_seeds, metrics={metric: row.metrics[metric]})
        for row in rows
    ]


def test_a_table_without_split_or_n_seeds_reads_as_one_seed_and_no_split(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("method,dataset,gap\nerm,d1,0.25 ± 0.5\n", encoding="utf-8")
    assert read_table(path, inputs.kind(path), "gap") == [
        ReportRow(method="erm", dataset="d1", split="", utility_kind="", n_seeds=1,
                  metrics={"gap": (0.25, 0.5)})
    ]


@pytest.mark.parametrize("units", ["percent", "fraction"])
def test_rows_to_csv_and_markdown_show_the_same_cells(units):
    row = ReportRow(method="erm", dataset="d", split="test", utility_kind="auc", n_seeds=3,
                    metrics={name: (0.1 * i, 0.01 * i) for i, name in enumerate(METRIC_NAMES)},
                    warnings=("w1", "w2"))
    csv_cells = rows_to_csv([row], units).splitlines()[1].split(",")
    markdown = rows_to_markdown([row], units).splitlines()[2]
    md_cells = [cell.strip() for cell in markdown.strip("|").split("|")]
    assert csv_cells == [*md_cells, "w1; w2"]
