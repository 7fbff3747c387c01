"""Parsing, validation, and round-trip stability of the record model."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhfair.columns import EvaluationRun
from nhfair.errors import (
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
from nhfair.errors import AllGroupsDegenerate, NoEvaluableClass
from nhfair.metrics import metric_report
from nhfair.oracle import oracle_metrics
from nhfair.records import (
    GroupSpace,
    LabelSpace,
    PredictionRecord,
    RunManifest,
    parse_run,
    parse_summaries,
    write_run,
)
from nhfair.synth import CohortSpec, generate


MANIFEST = {
    "method": "erm",
    "dataset": "demo",
    "seed": 1,
    "split": "test",
    "utility_kind": "accuracy",
    "labels": ["neg", "pos"],
    "groups": ["A", "B"],
}


def write_fixture(tmp_path, lines, manifest=None, name="run.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    mpath = tmp_path / (path.stem + ".manifest.json")
    mpath.write_text(json.dumps(manifest or MANIFEST), encoding="utf-8")
    return path


def record_line(sample_id, y, y_hat, group, scores=None):
    obj = {"sample_id": sample_id, "y": y, "y_hat": y_hat, "group": group}
    if scores is not None:
        obj["scores"] = scores
    return json.dumps(obj)


class TestParseRun:
    def test_wellformed_jsonl(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [
                record_line("s1", "pos", "pos", "A"),
                record_line("s2", "neg", "pos", "A"),
                record_line("s3", "pos", "neg", "B"),
                record_line("s4", "neg", "neg", "B"),
            ],
        )
        run = parse_run(path)
        assert len(run.records) == 4
        assert run.manifest.method == "erm"
        assert run.manifest.label_space.positive_label == "pos"  # defaults to last

    def test_records_sorted_by_sample_id(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [
                record_line("s9", "pos", "pos", "A"),
                record_line("s1", "neg", "neg", "B"),
                record_line("s5", "pos", "neg", "A"),
            ],
        )
        run = parse_run(path)
        assert [rec.sample_id for rec in run.records] == ["s1", "s5", "s9"]

    def test_unknown_group_names_line(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [
                record_line("s1", "pos", "pos", "A"),
                record_line("s2", "neg", "pos", "B"),
                record_line("s3", "pos", "neg", "Z"),
            ],
        )
        with pytest.raises(UnknownGroup) as err:
            parse_run(path)
        assert err.value.line == 3

    def test_unknown_label(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [record_line("s1", "maybe", "pos", "A"), record_line("s2", "neg", "neg", "B")],
        )
        with pytest.raises(UnknownLabel) as err:
            parse_run(path)
        assert err.value.line == 1

    def test_duplicate_sample_id(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [
                record_line("s1", "pos", "pos", "A"),
                record_line("s1", "neg", "neg", "B"),
            ],
        )
        with pytest.raises(DuplicateSampleId) as err:
            parse_run(path)
        assert err.value.line == 2

    def test_missing_scores_on_auc_run(self, tmp_path):
        manifest = dict(MANIFEST, utility_kind="auc")
        path = write_fixture(
            tmp_path,
            [
                record_line("s1", "pos", "pos", "A", {"neg": 0.2, "pos": 0.8}),
                record_line("s2", "neg", "neg", "B"),
            ],
            manifest=manifest,
        )
        with pytest.raises(MissingScores) as err:
            parse_run(path)
        assert err.value.line == 2

    def test_empty_group_is_load_error(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [record_line("s1", "pos", "pos", "A"), record_line("s2", "neg", "neg", "A")],
        )
        with pytest.raises(EmptyGroup) as err:
            parse_run(path)
        assert "B" in str(err.value)

    def test_malformed_json_line(self, tmp_path):
        path = write_fixture(
            tmp_path, [record_line("s1", "pos", "pos", "A"), "{not json"]
        )
        with pytest.raises(MalformedLine) as err:
            parse_run(path)
        assert err.value.line == 2

    def test_score_out_of_range(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [record_line("s1", "pos", "pos", "A", {"neg": 0.2, "pos": 1.5})],
        )
        with pytest.raises(MalformedLine) as err:
            parse_run(path)
        assert err.value.line == 1

    def test_score_key_outside_label_space(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [record_line("s1", "pos", "pos", "A", {"pos": 0.9, "bogus": 0.1})],
        )
        with pytest.raises(UnknownLabel):
            parse_run(path)

    def test_missing_manifest(self, tmp_path):
        path = tmp_path / "orphan.jsonl"
        path.write_text(record_line("s1", "pos", "pos", "A") + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_run(path)

    def test_csv_records(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(
            "sample_id,y,y_hat,group,score:neg,score:pos\n"
            "s1,pos,pos,A,0.2,0.8\n"
            "s2,neg,neg,B,0.9,0.1\n",
            encoding="utf-8",
        )
        (tmp_path / "run.manifest.json").write_text(json.dumps(MANIFEST), encoding="utf-8")
        run = parse_run(path)
        assert run.records[0].scores == {"neg": 0.2, "pos": 0.8}

    def test_csv_blank_score_cell_means_absent(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(
            "sample_id,y,y_hat,group,score:neg,score:pos\n"
            "s1,pos,pos,A,,0.8\n"
            "s2,neg,neg,B,,\n",
            encoding="utf-8",
        )
        (tmp_path / "run.manifest.json").write_text(json.dumps(MANIFEST), encoding="utf-8")
        run = parse_run(path)
        assert run.records[0].scores == {"pos": 0.8}
        assert run.records[1].scores is None


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_parse_write_parse_identical(self, tmp_path, fmt):
        spec = CohortSpec(
            seed=11,
            n_per_group={"A": 25, "B": 30},
            class_prior={
                "A": {"neg": 0.6, "pos": 0.4},
                "B": {"neg": 0.4, "pos": 0.6},
            },
            confusion_spec={
                "A": {"neg": {"neg": 0.8, "pos": 0.2}, "pos": {"neg": 0.3, "pos": 0.7}},
                "B": {"neg": {"neg": 0.7, "pos": 0.3}, "pos": {"neg": 0.1, "pos": 0.9}},
            },
            score_noise=0.5,
        )
        run = generate(spec, utility_kind="auc")
        first = tmp_path / f"first.{fmt}"
        write_run(run, first)
        parsed = parse_run(first)
        assert parsed == run
        second = tmp_path / f"second.{fmt}"
        write_run(parsed, second)
        assert parse_run(second) == parsed

    def test_order_independent_of_file_order(self, tmp_path):
        lines = [
            record_line("s2", "neg", "pos", "A"),
            record_line("s1", "pos", "pos", "B"),
        ]
        forward = write_fixture(tmp_path, lines, name="fwd.jsonl")
        backward = write_fixture(tmp_path, list(reversed(lines)), name="bwd.jsonl")
        assert parse_run(forward).records == parse_run(backward).records


AUC_MANIFEST = dict(MANIFEST, utility_kind="auc")
OK1 = record_line("s1", "pos", "pos", "A")
OK2 = record_line("s2", "neg", "neg", "B")
OK3 = record_line("s3", "neg", "pos", "B")
SCORED = record_line("s1", "pos", "pos", "A", {"neg": 0.4, "pos": 0.6})
CSV_HEADER = "sample_id,y,y_hat,group,score:neg,score:pos\n"


def jsonl(*lines, end="\n"):
    return end.join(lines) + end


def raw_record(sample_id, group="B", scores="null"):
    """A record line with a literal (possibly non-JSON-standard) scores value."""
    return (
        f'{{"sample_id": "{sample_id}", "y": "pos", "y_hat": "pos", "group": "{group}", '
        f'"scores": {scores}}}'
    )


# (case, format, manifest, file text, error class or None, line); a file
# with several faults reports the first line's, decode faults (JSON,
# fields, scores) before record faults (ids, labels, groups, auc scores),
# and both before a group without records
CORRUPT_CASES = [
    ("invalid JSON", "jsonl", MANIFEST, jsonl(OK1, "{not json", OK2), MalformedLine, 2),
    ("truncated last line", "jsonl", MANIFEST, f'{OK1}\n{OK2}\n{{"sample_id": "s3"',
     MalformedLine, 3),
    ("non-object line", "jsonl", MANIFEST, jsonl(OK1, "[1, 2]", OK2), MalformedLine, 2),
    ("string line", "jsonl", MANIFEST, jsonl(OK1, '"s2"', OK2), MalformedLine, 2),
    ("missing field", "jsonl", MANIFEST,
     jsonl(OK1, '{"sample_id": "s2", "y": "pos", "group": "B"}'), MalformedLine, 2),
    ("non-object scores", "jsonl", MANIFEST, jsonl(OK1, raw_record("s2", scores="[0.4, 0.6]")),
     MalformedLine, 2),
    ("non-numeric score", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", scores='{"pos": "high"}')), MalformedLine, 2),
    ("null score", "jsonl", MANIFEST, jsonl(OK1, raw_record("s2", scores='{"pos": null}')),
     MalformedLine, 2),
    ("score above 1", "jsonl", MANIFEST, jsonl(OK1, raw_record("s2", scores='{"pos": 1.5}')),
     MalformedLine, 2),
    ("negative score", "jsonl", MANIFEST, jsonl(OK1, raw_record("s2", scores='{"neg": -0.1}')),
     MalformedLine, 2),
    ("NaN score", "jsonl", MANIFEST, jsonl(OK1, raw_record("s2", scores='{"pos": NaN}')),
     MalformedLine, 2),
    ("Infinity score", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", scores='{"pos": Infinity}')), MalformedLine, 2),
    ("integer too large for a float", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", scores='{"pos": 1' + "0" * 400 + "}")), MalformedLine, 2),
    ("unknown score key", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", scores='{"pos": 0.5, "maybe": 0.5}')), UnknownLabel, 2),
    ("unknown label", "jsonl", MANIFEST, jsonl(OK1, record_line("s2", "maybe", "pos", "B")),
     UnknownLabel, 2),
    ("unknown prediction", "jsonl", MANIFEST, jsonl(OK1, record_line("s2", "pos", "maybe", "B")),
     UnknownLabel, 2),
    ("unknown group", "jsonl", MANIFEST, jsonl(OK1, OK2, record_line("s3", "pos", "pos", "Z")),
     UnknownGroup, 3),
    ("duplicate id", "jsonl", MANIFEST, jsonl(OK1, OK2, record_line("s1", "pos", "pos", "B")),
     DuplicateSampleId, 3),
    ("auc record without scores", "jsonl", AUC_MANIFEST,
     jsonl(SCORED, record_line("s2", "neg", "neg", "B")), MissingScores, 2),
    ("auc record with empty scores", "jsonl", AUC_MANIFEST,
     jsonl(SCORED, raw_record("s2", scores="{}")), MissingScores, 2),
    ("auc record without positive score", "jsonl", AUC_MANIFEST,
     jsonl(SCORED, raw_record("s2", scores='{"neg": 0.3}')), MissingScores, 2),
    ("empty group", "jsonl", MANIFEST, jsonl(OK1, record_line("s2", "neg", "neg", "A")),
     EmptyGroup, None),
    ("empty file", "jsonl", MANIFEST, "", ParseError, None),
    ("blank lines only", "jsonl", MANIFEST, "\n  \n\t\n", ParseError, None),
    ("object split over two lines", "jsonl", MANIFEST,
     jsonl(OK1, '{"sample_id": "s2", "y": "neg",', '"y_hat": "neg", "group": "B"}'),
     MalformedLine, 2),
    ("array split over two lines", "jsonl", MANIFEST, jsonl(OK1, "[" + OK2, OK3 + "]"),
     MalformedLine, 2),
    ("two objects on one line", "jsonl", MANIFEST, jsonl(OK1, OK2 + " " + OK3), MalformedLine, 2),
    ("two objects and a comma on one line", "jsonl", MANIFEST, jsonl(OK1, OK2 + "," + OK3),
     MalformedLine, 2),
    ("CR line ends", "jsonl", MANIFEST, jsonl(OK1, OK2, "{bad", end="\r"), MalformedLine, 3),
    ("CRLF line ends", "jsonl", MANIFEST,
     jsonl(OK1, "", OK2, record_line("s4", "pos", "pos", "Z"), end="\r\n"), UnknownGroup, 4),
    ("raw U+2028 in a string", "jsonl", MANIFEST,
     jsonl(
         json.dumps({"sample_id": "s\u2028a", "y": "pos", "y_hat": "pos", "group": "A"},
                    ensure_ascii=False),
         OK2,
         record_line("s3", "pos", "pos", "Z"),
     ), UnknownGroup, 3),
    ("whitespace around values", "jsonl", MANIFEST,
     jsonl("  " + OK1, "", OK2 + "  ", record_line("s5", "pos", "pos", "Z")), UnknownGroup, 4),
    ("ids differing by a trailing NUL", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s1\x00", "pos", "pos", "B")), None, None),
    ("duplicate NUL-suffixed id", "jsonl", MANIFEST,
     jsonl(
         record_line("s1\x00", "pos", "pos", "A"), OK2, record_line("s1\x00", "pos", "pos", "B")
     ), DuplicateSampleId, 3),
    ("first decode fault wins", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", scores='{"pos": 2}'), '{"sample_id": "s3"}'), MalformedLine, 2),
    ("decode fault after a record fault", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s2", "pos", "pos", "Z"), OK3, "{bad"), MalformedLine, 4),
    ("score fault after a duplicate id", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s1", "pos", "pos", "B"), raw_record("s3", scores='{"x": 0.1}')),
     UnknownLabel, 3),
    ("first record fault wins", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s2", "maybe", "pos", "B"), record_line("s1", "pos", "pos", "B")),
     UnknownLabel, 2),
    ("duplicate id before other faults of its line", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s1", "maybe", "maybe", "Z")), DuplicateSampleId, 2),
    ("unknown label before missing auc scores", "jsonl", AUC_MANIFEST,
     jsonl(SCORED, record_line("s2", "maybe", "pos", "B")), UnknownLabel, 2),
    ("decode fault before an empty group", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", "A", '{"pos": "x"}')), MalformedLine, 2),
    ("record fault before an empty group", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s2", "maybe", "pos", "A")), UnknownLabel, 2),
    ("csv field count", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg\n",
     MalformedLine, 3),
    ("csv blank row keeps numbering", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,0.4,0.6\n\ns2,neg,neg,Z,,\n", UnknownGroup, 4),
    ("csv non-numeric cell", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,abc,0.5\n", MalformedLine, 3),
    ("csv nan cell", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,,nan\n",
     MalformedLine, 3),
    ("csv inf cell", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,inf,\n",
     MalformedLine, 3),
    ("csv score above 1", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,0.5,1.5\n", MalformedLine, 3),
    ("csv unknown score column", "csv", MANIFEST,
     "sample_id,y,y_hat,group,score:pos,score:maybe\ns1,pos,pos,A,0.4,\ns2,neg,neg,B,0.5,0.1\n",
     UnknownLabel, 3),
    ("csv unexpected column", "csv", MANIFEST, "sample_id,y,y_hat,group,extra\ns1,pos,pos,A,1\n",
     MalformedLine, 1),
    ("csv unknown label", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,,\ns2,maybe,neg,B,,\n",
     UnknownLabel, 3),
    ("csv unknown group", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,,\ns2,neg,neg,Z,,\n",
     UnknownGroup, 3),
    ("csv duplicate id", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,,\ns2,neg,neg,B,,\ns1,neg,neg,B,,\n", DuplicateSampleId, 4),
    ("csv auc record without scores", "csv", AUC_MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,,\n", MissingScores, 3),
    ("csv auc record without positive score", "csv", AUC_MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,0.5,\n", MissingScores, 3),
    ("csv empty group", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,,\ns2,neg,neg,A,,\n",
     EmptyGroup, None),
    ("csv empty file", "csv", MANIFEST, "", ParseError, None),
    ("csv header only", "csv", MANIFEST, CSV_HEADER, ParseError, None),
    ("csv CRLF line ends", "csv", MANIFEST,
     (CSV_HEADER + "s1,pos,pos,A,,\ns2,neg,neg,B,,\ns3,neg,neg,Z,,\n").replace("\n", "\r\n"),
     UnknownGroup, 4),
    ("csv ids differing by a trailing NUL", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,,\ns1\x00,neg,neg,B,,\n", None, None),
    ("csv cell fault after a record fault", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,,\ns2,neg,neg,Z,,\ns3,neg,neg,B,x,\n", MalformedLine, 4),
    ("csv first decode fault wins", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,x,\ns2,neg,neg\n",
     MalformedLine, 2),
]


@pytest.mark.parametrize(
    "fmt, manifest, text, error, line",
    [case[1:] for case in CORRUPT_CASES],
    ids=[case[0] for case in CORRUPT_CASES],
)
def test_bad_input_names_class_path_and_line(tmp_path, fmt, manifest, text, error, line):
    path = tmp_path / f"run.{fmt}"
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    (tmp_path / "run.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    if error is None:
        run = parse_run(path)
        assert [rec.sample_id for rec in run.records] == ["s1", "s1\x00"]
        return
    with pytest.raises(ParseError) as err:
        parse_run(path)
    assert type(err.value) is error
    assert (err.value.path, err.value.line) == (str(path), line)
    if error is DuplicateSampleId:
        assert "already seen on line" in str(err.value)


ROUND_TRIP_IDS = st.text(alphabet="ab ,\"\x00\u2028\r\n\t\xe9", max_size=6)
ROUND_TRIP_GROUPS = ("A", 'b,"q"', "c d")


@st.composite
def record_runs(draw):
    """Valid runs built from rows: odd ids, partial score maps, either kind."""
    n_labels = draw(st.integers(2, 3))
    kind = "auc" if n_labels == 2 and draw(st.booleans()) else "accuracy"
    labels = ("neg", "pos", "other")[:n_labels]
    groups = ROUND_TRIP_GROUPS[: draw(st.integers(2, 3))]
    ids = draw(st.lists(ROUND_TRIP_IDS, min_size=len(groups), max_size=25, unique=True))
    scored = kind == "auc" or draw(st.booleans())
    score = st.one_of(st.floats(0.0, 1.0), st.integers(0, 8).map(lambda k: k / 8))
    records = []
    for i, sample_id in enumerate(ids):
        scores = None
        if scored:
            present = draw(st.lists(st.booleans(), min_size=n_labels, max_size=n_labels))
            if kind == "auc":
                present[-1] = True  # the positive label
            scores = {lb: draw(score) for lb, keep in zip(labels, present) if keep} or None
        records.append(
            PredictionRecord(
                sample_id=sample_id,
                true_label=draw(st.sampled_from(labels)),
                predicted_label=draw(st.sampled_from(labels)),
                group=groups[i] if i < len(groups) else draw(st.sampled_from(groups)),
                scores=scores,
            )
        )
    manifest = RunManifest(
        method="m", dataset="d", seed=0, split="test", utility_kind=kind,
        label_space=LabelSpace(labels=labels), group_space=GroupSpace(groups=groups),
    )
    return EvaluationRun.from_records(manifest, records), records


@given(record_runs())
@settings(max_examples=60, deadline=None)
def test_write_parse_reproduces_columns_rows_and_oracle(built):
    run, rows = built
    assert run.records == tuple(sorted(rows, key=lambda rec: rec.sample_id))
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("jsonl", "csv"):
            path = Path(tmp) / f"run.{fmt}"
            write_run(run, path)
            parsed = parse_run(path)
            assert parsed == run
            for name in ("sample_ids", "group", "y", "y_hat"):
                assert getattr(parsed, name).tolist() == getattr(run, name).tolist()
            np.testing.assert_array_equal(parsed.scores, run.scores)
            assert parsed.records == run.records
            try:
                engine = metric_report(parsed)
            except (AllGroupsDegenerate, NoEvaluableClass) as exc:
                with pytest.raises(type(exc)):
                    oracle_metrics(parsed)
                continue
            oracle = oracle_metrics(parsed)
            for field in ("overall", "worst", "gap", "dp", "eqodd"):
                assert getattr(engine, field) == pytest.approx(getattr(oracle, field), abs=1e-12)
            assert sorted(engine.warnings) == sorted(oracle.warnings)


class TestParseSummaries:
    def test_percent_values(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv,disadv,overall\nerm,run1,90.52%,83.76%,86.57%\n",
            encoding="utf-8",
        )
        rows = parse_summaries(path)
        assert len(rows) == 1
        assert rows[0].group_utilities == pytest.approx({"adv": 0.9052, "disadv": 0.8376})
        assert rows[0].overall_utility == pytest.approx(0.8657)

    def test_percent_header_marker(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv%,disadv%,overall%\nr1,erm,90.52,83.76,86.57\n",
            encoding="utf-8",
        )
        rows = parse_summaries(path)
        assert rows[0].group_utilities["adv"] == pytest.approx(0.9052)

    def test_fraction_values(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv,disadv,overall\nr1,erm,0.9052,0.8376,0.8657\n",
            encoding="utf-8",
        )
        assert parse_summaries(path)[0].overall_utility == 0.8657

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv,disadv,overall\nr1,erm,1.2,0.8,0.9\n", encoding="utf-8"
        )
        with pytest.raises(UtilityOutOfRange) as err:
            parse_summaries(path)
        assert err.value.line == 2

    def test_header_only_gives_empty_list(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text("run_id,method,adv,disadv,overall\n", encoding="utf-8")
        assert parse_summaries(path) == []

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv,disadv,overall\nr1,erm,0.9\n", encoding="utf-8"
        )
        with pytest.raises(MalformedRow) as err:
            parse_summaries(path)
        assert err.value.line == 2

    def test_optional_dp_eqodd_columns(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv%,disadv%,overall%,dp%,eqodd%\n"
            "r1,erm,90.52,83.76,86.57,67.20,81.91\n",
            encoding="utf-8",
        )
        row = parse_summaries(path)[0]
        assert row.dp == pytest.approx(0.672)
        assert row.eqodd == pytest.approx(0.8191)


class TestSpaces:
    def test_label_space_needs_two(self):
        with pytest.raises(ValueError):
            LabelSpace(labels=("only",))

    def test_positive_label_must_be_member(self):
        with pytest.raises(ValueError):
            LabelSpace(labels=("a", "b"), positive_label="c")

    def test_group_space_distinct(self):
        with pytest.raises(ValueError):
            GroupSpace(groups=("A", "A"))
